"""One fresh benchmark process: set up a workload's inputs, then run them.

run.py starts it as ``python3 worker.py '<task json>'`` with the checkout's
``src`` on ``PYTHONPATH``; it prints one JSON object as its last line.  The
``ready`` field is the ``time.monotonic()`` reading (system-wide on Linux)
at which the package is imported and every input of the task is validated,
so the parent can time set-up from before it spawned the process.

Tasks:
  setup   set up and exit;
  warmup  set up, then one small verify and one product's queries;
  verify  ``run_verify`` every product of a verify workload once, serially
          or with ``parallel=True``;
  query   answer the four CLI queries for each product of ``blocks``
          consecutive blocks of the query stream.
With ``traced`` the process records spans (see spans.py) and writes them to
the task's ``spans`` file.
"""

from __future__ import annotations

import hashlib
import json
import resource
import sys
import time

import numpy as np

import blaschkeops as bo
import workloads as W
from blaschkeops.verify import emit_report, run_verify


def _maxrss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _cache_counts(caches) -> dict:
    out = {}
    for name, fn in caches.items():
        info = fn.cache_info()
        out[name] = (info.hits, info.misses, info.currsize)
    return out


# ---------------------------------------------------------------------------
# The four single-query paths of the CLI and their independent checks.
# ---------------------------------------------------------------------------


def _query_preimage(item):
    return [(item.product.preimages(w), bo.partial_fraction_weights(item.product, w)) for w in item.targets]


def _query_transfer(item):
    return bo.TransferOperator(item.product).symbol_image(item.symbol.evaluate, bo.CircleGrid(W.SYMBOL_GRID))


def _query_lift(item):
    return bo.build_lift(item.product, W.LIFT_GRID)


def _query_basis(item):
    return bo.gram_residual(bo.TMBasis(item.product, W.BASIS_COUNT), W.BASIS_COUNT, bo.CircleGrid(W.BASIS_GRID))


def _check_preimage(item, out):
    for w, (found, weights) in zip(item.targets, out):
        points = np.asarray(found.points)
        if points.size != item.product.degree:
            return f"{points.size} preimages for degree {item.product.degree}"
        if np.max(np.abs(np.abs(points) - 1.0)) > 1e-9:
            return "preimage off the circle"
        if np.max(np.abs(item.product.evaluate(points) - w)) > 1e-9:
            return "preimage residual above 1e-9"
        if abs(float(np.sum(weights)) - 1.0) > 1e-10 or np.min(weights) <= 0:
            return "weights not positive with unit sum"
    return None


def _check_transfer(item, out):
    # L(a) at a few grid points through single-target preimage sums
    points = bo.CircleGrid(W.SYMBOL_GRID).points[:: W.SYMBOL_GRID // 4]
    op = bo.TransferOperator(item.product)
    expected = np.array([op.apply(item.symbol.evaluate, w) for w in points])
    if np.max(np.abs(out.evaluate(points) - expected)) > 1e-9 * (1.0 + np.max(np.abs(expected))):
        return "symbol_image disagrees with TransferOperator.apply"
    return None


def _check_lift(item, out):
    n = item.product.degree
    if abs(float(out.psi[-1] - out.psi[0]) - 2.0 * np.pi * n) > 1e-8:
        return "lift does not climb by 2 pi n"
    if np.any(np.diff(out.psi) <= 0):
        return "lift not increasing"
    every = slice(None, None, W.LIFT_GRID // 16)
    if np.max(np.abs(np.exp(1j * out.psi[every]) - item.product.evaluate(np.exp(1j * out.thetas[every])))) > 1e-8:
        return "lift does not follow R on the circle"
    return None


def _check_basis(item, out):
    return None if out <= 1e-8 else f"gram residual {out:.3e} above 1e-8"


QUERIES = (
    ("preimage", _query_preimage, _check_preimage),
    ("transfer", _query_transfer, _check_transfer),
    ("lift", _query_lift, _check_lift),
    ("basis", _query_basis, _check_basis),
)


# ---------------------------------------------------------------------------
# Tasks
# ---------------------------------------------------------------------------


def _verdicts(report) -> str:
    return "".join("E" if c.errored else ("P" if c.passed else "F") for c in report.checks)


def run_verify_task(task, configs, caches, recorder) -> dict:
    verify = recorder.wrap("verify", run_verify) if recorder else run_verify
    products, check_s = [], {}
    resident = 0.0
    for label, cfg in configs:
        before = _cache_counts(caches)
        started = time.perf_counter()
        try:
            report = verify(cfg, parallel=task["parallel"])
        except Exception as exc:  # noqa: BLE001 - reported as a failed operation
            products.append({"label": label, "wall_s": time.perf_counter() - started, "error": repr(exc)})
            continue
        wall = time.perf_counter() - started
        after = _cache_counts(caches)
        if recorder:
            recorder.paused = True
        canonical = emit_report(report, "canonical")
        for check in report.checks:
            check_s[check.check_id] = check_s.get(check.check_id, 0.0) + check.runtime
        caches_used = {name: [after[name][i] - before[name][i] for i in (0, 1)] for name in caches}
        if "power_spectra" in after:
            resident = max(resident, after["power_spectra"][2] * cfg.truncation * cfg.grid * 16.0)
        products.append(
            {
                "label": label,
                "wall_s": wall,
                "digest": hashlib.sha256(canonical.encode()).hexdigest()[:16],
                "verdicts": _verdicts(report),
                "caches": caches_used,
            }
        )
        if recorder:
            recorder.paused = False
    return {
        "count": task["count"],
        "pass_s": sum(p["wall_s"] for p in products),
        "products": products,
        "check_s": check_s,
        "spectra_resident_mb": resident / 2**20,
    }


def run_query_task(task, first_items, caches, recorder) -> dict:
    seed = task["seed"]
    block, items = task["first_block"], first_items
    blocks, queries, problems = [], [], []
    lookups = [0, 0]  # cache hits, misses
    while True:
        block_s = 0.0
        for item in items:
            before = _cache_counts(caches)
            for kind, query, check in QUERIES:
                started = time.perf_counter()
                out = status = problem = None
                try:
                    out = query(item)
                except (bo.ConvergenceError, ArithmeticError) as exc:
                    # the package's own report of a numerical breakdown (CLI exit
                    # code 3): a query that failed, not a wrong answer
                    status, problem = "error", repr(exc)
                except Exception as exc:  # noqa: BLE001 - reported as a failed operation
                    status, problem = "wrong", repr(exc)
                elapsed = time.perf_counter() - started
                block_s += elapsed
                if status is None:
                    if recorder:
                        recorder.paused = True
                    problem = check(item, out)
                    if recorder:
                        recorder.paused = False
                    status = "ok" if problem is None else "wrong"
                queries.append((kind, elapsed * 1e3, status))
                if problem is not None and len(problems) < 20:
                    problems.append(f"item {item.index} {kind} {status}: {problem}")
            after = _cache_counts(caches)
            for i in (0, 1):
                lookups[i] += sum(after[n][i] - before[n][i] for n in caches)
        blocks.append(block_s)
        if len(blocks) == task["blocks"]:
            break
        block += 1
        items = W.query_block(seed, block)
    return {"blocks": blocks, "queries": queries, "problems": problems, "cache_hits": lookups[0], "cache_misses": lookups[1]}


def main() -> int:
    task = json.loads(sys.argv[1])
    caches = {}
    for name, module, attr in (("preimage_table", "transfer", "_preimage_table"), ("power_spectra", "hardy", "_power_spectra")):
        fn = getattr(getattr(bo, module, None), attr, None)
        if hasattr(fn, "cache_info"):
            caches[name] = fn
    if task["workload"].startswith("verify-"):
        configs = W.verify_configs(task["workload"], task["seed"])
        task["count"] = len(configs)
        inputs = configs if task.get("product") is None else [configs[task["product"]]]
    else:
        inputs = W.query_block(task["seed"], task["first_block"])
    ready = time.monotonic()
    result = {"ready": ready, "package": bo.__file__, "numpy": np.__version__}
    recorder = None
    if task.get("traced"):
        import spans

        recorder = spans.Recorder()
        recorder.install()
    try:
        if task["task"] == "warmup":
            # touch every code path once: bytecode, page cache, BLAS threads
            run_verify(W.WARMUP_CONFIG)
            item = W.query_item(task["seed"], 0)
            for _, query, check in QUERIES:
                try:
                    check(item, query(item))
                except (bo.ConvergenceError, ArithmeticError):
                    pass
        elif task["task"] == "verify":
            result.update(run_verify_task(task, inputs, caches, recorder))
        elif task["task"] == "query":
            result.update(run_query_task(task, inputs, caches, recorder))
    finally:
        if recorder:
            recorder.restore()
    if recorder:
        result["layers"] = recorder.layer_metrics()
        recorder.dump(task["spans"])
    result["maxrss_mb"] = _maxrss_mb()
    sys.stdout.write(json.dumps(result) + "\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
