#!/usr/bin/env python3
"""Benchmark of blaschkeops: cold verify runs and a library query stream.

Run from the root of a checkout:

    python3 perfbench/run.py --workload verify-default --seed 1 --seconds 25 --trace 0

Load model: closed loop, one client.  Every measured unit of work runs in a
fresh interpreter started by this script (worker.py), because the package's
``lru_cache``s are process-global and a CLI user pays them cold on every
call.  A first, uncounted worker compiles bytecode and warms the page cache
with a small verify and one product's queries;
``SETUP_PROBES`` more only set up, so ``setup_s`` has several samples.

Workloads:
  verify-default     README acceptance set (z^2, z^3, [0,0.5], [0,0.3+0.4i],
                     seeded degree-3 product) at N=256 m=32 M=4096 L=32,
                     serial and ``parallel=True`` in turn;
  verify-large       [0,0.5] at N=1024 m=64 M=16384;
  verify-nearcircle  lambda_angle=1.3, zeros [0,0.9], [0,0.95], [0,0.99i] at
                     N=256 m=4 M=16384 (documented FAIL/ERROR cases);
  query-stream       the first QUERY_BLOCKS blocks of a stream of distinct
                     seeded products, degree 2-16, |z_k| <= 0.98, each given
                     the four single-query paths of the CLI; a fixed amount
                     of work, so every run answers the same queries.

With ``--trace 0`` the last line holds the end-to-end metrics; with
``--trace 1`` an untraced and a traced worker run the same work and the last
line holds the per-layer metrics (see spans.py); the traced workers' spans
are written to perfbench/spans/.  Every line before it is a
human-readable table plus one ``detail {json}`` line.  The exit code is 0
whenever a result is printed; without the package sources it is 2.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

import spans

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
PACKAGE = ROOT / "src" / "blaschkeops" / "__init__.py"
SPANS_DIR = HERE / "spans"  # traced runs write their spans here, one JSON-lines file per worker
DIGESTS = HERE / "digests.json"  # report digests of earlier runs in this checkout

WORKLOADS = ("verify-default", "verify-large", "verify-nearcircle", "query-stream")
END_TO_END_UNITS = {"setup_s": "s", "pass_s": "s", "peak_rss_mb": "MB", "ok_ratio": "ratio"}
LAYER_UNITS = {name: unit for name, unit, _ in spans.PER_LAYER}
SETUP_PROBES = 11
# Every query-stream run answers the same seeded blocks, whatever the machine's
# speed: 14 x 15 products x 4 queries = 840 queries, 42 beyond p95.
QUERY_BLOCKS = 14
RUN_LIMIT_S = 170.0  # every worker is stopped before this point of the run
# Every product of verify-default but the seeded degree-3 one must PASS every
# check.  That one is measured like the near-circle products: on about 1.4% of
# seeds N=256 under-resolves it and the package reports FAIL (seed 1694901390:
# composition_isometry 1.42e-8 > 1e-8), which ok_ratio counts.
SEEDED_PRODUCT = "random3"


class HarnessError(RuntimeError):
    """The benchmark itself could not run (not a failure of the package)."""


class Run:
    """One benchmark invocation: spawns workers and keeps the clock."""

    def __init__(self, workload: str, seed: int, seconds: float):
        self.workload, self.seed, self.seconds = workload, seed, seconds
        self.started = time.monotonic()
        self.deadline = self.started + seconds
        path = os.environ.get("PYTHONPATH")
        self.env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(ROOT / "src")] + ([path] if path else [])))

    def spawn(self, task: str, **fields) -> dict:
        spec = {"task": task, "workload": self.workload, "seed": self.seed, "first_block": 0}
        spec.update(fields)
        timeout = RUN_LIMIT_S - (time.monotonic() - self.started)
        if timeout <= 0:
            raise HarnessError("run time limit reached")
        spawned = time.monotonic()
        try:
            proc = subprocess.run(
                [sys.executable, str(HERE / "worker.py"), json.dumps(spec)],
                cwd=ROOT,
                env=self.env,
                capture_output=True,
                text=True,
                timeout=timeout,
            )
        except subprocess.TimeoutExpired:
            raise HarnessError(f"{task} worker stopped after {timeout:.0f} s") from None
        if proc.returncode != 0:
            raise HarnessError(f"{task} worker exited with {proc.returncode}:\n{proc.stderr[-3000:]}")
        out = json.loads(proc.stdout.strip().splitlines()[-1])
        if Path(out["package"]).resolve() != PACKAGE.resolve():
            raise HarnessError(f"worker imported blaschkeops from {out['package']}, not the checkout")
        out["setup_s"] = out["ready"] - spawned
        out["wall_s"] = time.monotonic() - spawned
        return out

    def left(self) -> float:
        return self.deadline - time.monotonic()

    def spans_path(self, suffix: str) -> str:
        return str(SPANS_DIR / f"spans_{self.workload}_{self.seed}_{suffix}.jsonl")


# ---------------------------------------------------------------------------
# verify-* workloads
# ---------------------------------------------------------------------------


def _code_digest(numpy_version: str) -> str:
    """Digest of everything a canonical report may depend on besides the seed."""
    h = hashlib.sha256(f"{sys.version}|{numpy_version}".encode())
    for path in sorted(PACKAGE.parent.rglob("*.py")) + [HERE / "workloads.py"]:
        h.update(path.relative_to(ROOT).as_posix().encode() + b"\0" + path.read_bytes())
    return h.hexdigest()[:16]


def _gate_verify(run: Run, workers: list) -> tuple:
    """(attempted, failed, problems): byte-identical reports; all PASS on verify-default but SEEDED_PRODUCT.

    A product's report is compared with every other report of it in this run
    and with the one that earlier runs of the same code and seed in this
    checkout left in ``digests.json``, so a single-sample run (verify-large
    takes one untraced sample) is still checked.  New digests are added.
    """
    earlier = json.loads(DIGESTS.read_text()) if DIGESTS.is_file() else {}
    prefix = f"{_code_digest(workers[0]['numpy'])}/{run.workload}/{run.seed}/"
    reference, attempted, problems = {}, 0, []
    for worker in workers:
        for product in worker["products"]:
            attempted += 1
            label = product["label"]
            if "error" in product:
                problems.append(f"{label}: run_verify raised {product['error']}")
                continue
            first = reference.setdefault(label, product)
            if product["digest"] != first["digest"]:
                problems.append(f"{label}: canonical report differs between runs")
            elif product["digest"] != earlier.get(prefix + label, product["digest"]):
                problems.append(f"{label}: canonical report differs from an earlier run of the same code and seed")
            elif run.workload == "verify-default" and label != SEEDED_PRODUCT and set(product["verdicts"]) != {"P"}:
                problems.append(f"{label}: verdicts {product['verdicts']} are not all PASS")
    new = {prefix + label: p["digest"] for label, p in reference.items() if prefix + label not in earlier}
    if new:
        partial = DIGESTS.with_suffix(".tmp")
        partial.write_text(json.dumps({**earlier, **new}, indent=0, sort_keys=True) + "\n")
        os.replace(partial, DIGESTS)
    return attempted, len(problems), problems


def _per_product(samples: dict, value) -> list:
    """Median of ``value(worker)`` over each product's samples, in product order."""
    return [statistics.median(value(w) for w in samples[i]) for i in sorted(samples)]


def _layers(worker: dict) -> dict:
    raw = dict(worker["layers"])
    raw.update({f"verify.check.{k}.s": v for k, v in worker["check_s"].items()})
    return spans.per_pass(raw, 1)


def measure_verify(run: Run, probes: list, trace: bool) -> dict:
    """Each sample is one product in a fresh process; a pass sums per-product medians.

    One full serial pass (and on verify-default one parallel pass) always
    runs; then serial samples continue round-robin while each is expected to
    end inside the window.  Traced runs take untraced/traced pairs of each
    product instead, alternating which of the two runs first.
    """
    samples = {kind: {} for kind in ("serial", "parallel", "traced")}

    def take(kind: str, index: int) -> None:
        past = samples[kind].setdefault(index, [])
        spans_path = run.spans_path(f"{index}_{len(past)}") if kind == "traced" else None
        past.append(run.spawn("verify", product=index, parallel=kind == "parallel", traced=kind == "traced", spans=spans_path))

    def fits(kinds, index: int) -> bool:
        return sum(samples[kind][index][-1]["wall_s"] for kind in kinds) <= run.left()

    def pair(index: int, turn: int) -> tuple:
        # alternate which of an untraced/traced pair runs first
        return ("serial", "traced") if (index + turn) % 2 == 0 else ("traced", "serial")

    take("serial", 0)
    count = samples["serial"][0][0]["count"]
    if trace:
        take("traced", 0)
        for index in range(1, count):
            for kind in pair(index, 0):
                take(kind, index)
        turn, repeat = 1, ("serial", "traced")
    else:
        for index in range(1, count):
            take("serial", index)
        if run.workload == "verify-default":
            for index in range(count):
                take("parallel", index)
        turn, repeat = 0, ("serial",)
    progressed = True
    while progressed:
        progressed = False
        for index in range(count):
            if fits(repeat, index):
                for kind in pair(index, turn) if trace else repeat:
                    take(kind, index)
                progressed = True
        turn += 1

    serial = samples["serial"]
    workers = [w for by_index in samples.values() for group in by_index.values() for w in group]
    attempted, failed, problems = _gate_verify(run, workers)
    setups = [w["setup_s"] for w in probes + workers]
    firsts = [serial[i][0]["products"][0] for i in range(count)]
    verdicts = "".join(p.get("verdicts", "") for p in firsts)
    checks = max(len(verdicts), 1)
    pass_s = sum(_per_product(serial, lambda w: w["pass_s"]))
    extra = {
        "verify_s": (pass_s, "s"),
        "check_fail_ratio": ((checks - verdicts.count("P")) / checks, "ratio"),
        "check_error_ratio": (verdicts.count("E") / checks, "ratio"),
        "spectra_resident_mb": (max(_per_product(serial, lambda w: w["spectra_resident_mb"])), "MB"),
    }
    if samples["parallel"]:
        extra["verify_parallel_s"] = (sum(_per_product(samples["parallel"], lambda w: w["pass_s"])), "s")
        extra["parallel_peak_rss_mb"] = (max(_per_product(samples["parallel"], lambda w: w["maxrss_mb"])), "MB")
    if trace:
        traced = samples["traced"]
        per_product = [{k: statistics.median(_layers(w)[k] for w in traced[i]) for k in _layers(traced[i][0])} for i in range(count)]
        metrics = {k: sum(p[k] for p in per_product) for k in per_product[0]}
        metrics["hardy.power_spectra.bytes_resident"] = max(p["hardy.power_spectra.bytes_resident"] for p in per_product)
        for ratio in ("transfer.preimage_table.hit_ratio", "hardy.norm.converged_ratio"):
            metrics[ratio] = statistics.median(p[ratio] for p in per_product)
        metrics.update(_overhead(pass_s, sum(_per_product(traced, lambda w: w["pass_s"]))))
    else:
        metrics = {
            "setup_s": statistics.median(setups),
            "pass_s": pass_s,
            "peak_rss_mb": max(_per_product(serial, lambda w: w["maxrss_mb"])),
            "ok_ratio": verdicts.count("P") / checks,
        }
    return {
        "attempted": attempted,
        "failed": failed,
        "problems": problems,
        "metrics": metrics,
        "extra": extra,
        "products": [{k: p.get(k) for k in ("label", "verdicts", "digest", "caches", "error")} for p in firsts],
        "samples": {kind: [[w["pass_s"] for w in by_index[i]] for i in sorted(by_index)] for kind, by_index in samples.items()},
        "setup_s": setups,
    }


# ---------------------------------------------------------------------------
# query-stream
# ---------------------------------------------------------------------------


def _query_summary(worker: dict) -> tuple:
    """(attempted, wrong answers, table metrics) of one query worker."""
    queries = worker["queries"]
    latencies = [ms for _, ms, _ in queries]
    status = [s for *_, s in queries]
    p95 = statistics.quantiles(latencies, n=20)[18]
    by_kind = {}
    for kind, ms, _ in queries:
        by_kind.setdefault(kind, []).append(ms)
    extra = {
        "query_rate": (status.count("ok") / sum(worker["blocks"]), "queries/s"),
        "query_ms_p50": (statistics.median(latencies), "ms"),
        "query_ms_p95": (p95, "ms"),
        "query_samples": (len(latencies), "count"),
        "query_samples_beyond_p95": (sum(1 for ms in latencies if ms > p95), "count"),
        "query_fail_ratio": ((len(queries) - status.count("ok")) / len(queries), "ratio"),
        "query_error_ratio": (status.count("error") / len(queries), "ratio"),
        "cache_hits": (worker["cache_hits"], "count"),
        "cache_misses": (worker["cache_misses"], "count"),
    }
    extra.update({f"query_ms_p50.{kind}": (statistics.median(v), "ms") for kind, v in by_kind.items()})
    return len(queries), status.count("wrong"), extra


def measure_queries(run: Run, probes: list, trace: bool) -> dict:
    """One process answers the first ``QUERY_BLOCKS`` blocks of the stream.

    A query raising the package's ConvergenceError or ArithmeticError counts
    against ``ok_ratio``; a wrong answer or any other exception is a failed
    operation and makes the run incorrect.
    """
    if trace:
        # blocks [0, k) untraced then traced, blocks [k, 2k) traced then untraced
        k = QUERY_BLOCKS // 2
        plain = run.spawn("query", blocks=k)
        traced = [run.spawn("query", blocks=k, traced=True, spans=run.spans_path("0"))]
        traced.append(run.spawn("query", first_block=k, blocks=k, traced=True, spans=run.spans_path("1")))
        second = run.spawn("query", first_block=k, blocks=k)
        workers = [plain, *traced, second]
    else:
        plain = run.spawn("query", blocks=QUERY_BLOCKS)
        workers = [plain]
    summaries = [_query_summary(worker) for worker in workers]
    extra = summaries[0][2]
    setups = [w["setup_s"] for w in probes + workers]
    result = {
        "attempted": sum(s[0] for s in summaries),
        "failed": sum(s[1] for s in summaries),
        "problems": [p for w in workers for p in w["problems"]],
        "samples": {"blocks": [len(w["blocks"]) for w in workers], "setup": len(setups)},
        "extra": extra,
    }
    if trace:
        raw = {}
        for worker in traced:
            for name, value in worker["layers"].items():
                raw[name] = max(raw.get(name, 0.0), value) if name.endswith("bytes_resident") else raw.get(name, 0.0) + value
        result["metrics"] = spans.per_pass(raw, 2 * k)
        untraced_blocks = plain["blocks"] + second["blocks"]
        traced_blocks = traced[0]["blocks"] + traced[1]["blocks"]
        result["metrics"].update(_overhead(statistics.median(untraced_blocks), statistics.median(traced_blocks)))
    else:
        result["metrics"] = {
            "setup_s": statistics.median(setups),
            "pass_s": statistics.median(plain["blocks"]),
            "peak_rss_mb": plain["maxrss_mb"],
            "ok_ratio": 1.0 - extra["query_fail_ratio"][0],
        }
    return result


# ---------------------------------------------------------------------------


def _overhead(untraced_s: float, traced_s: float) -> dict:
    return {
        "trace.untraced_pass_s": untraced_s,
        "trace.traced_pass_s": traced_s,
        "trace.overhead_ratio": traced_s / untraced_s - 1.0,
    }


def measure(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    run = Run(workload, seed, seconds)
    if trace:
        SPANS_DIR.mkdir(exist_ok=True)
    run.spawn("warmup")  # not counted
    probes = [run.spawn("setup") for _ in range(SETUP_PROBES)]
    run.deadline = time.monotonic() + seconds  # the measured window starts here
    result = (measure_queries if workload == "query-stream" else measure_verify)(run, probes, trace)
    result.update(workload=workload, seed=seed, seconds=seconds, trace=trace, run_s=time.monotonic() - run.started)
    return result


def _print_table(result: dict) -> None:
    units = LAYER_UNITS if result["trace"] else END_TO_END_UNITS
    mode = "traced" if result["trace"] else "untraced"
    print(f"{result['workload']} seed={result['seed']} seconds={result['seconds']} ({mode}, samples {result['samples']})")
    rows = [(name, value, units[name]) for name, value in result["metrics"].items()]
    rows += [(name, value, unit) for name, (value, unit) in result["extra"].items()]
    for name, value, unit in rows:
        print(f"  {name:<44} {value:>16.6g} {unit}")
    for product in result.get("products", []):
        print(f"  verdicts {product['label']:<14} {product['verdicts']} digest {product['digest']}")
    for problem in result["problems"]:
        print(f"  problem {problem}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not PACKAGE.is_file():
        sys.stderr.write(f"blaschkeops sources not found at {PACKAGE}; run from the root of a checkout\n")
        return 2
    try:
        result = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    except HarnessError as exc:
        sys.stderr.write(f"benchmark could not run: {exc}\n")
        return 1
    _print_table(result)
    print("detail " + json.dumps({k: v for k, v in result.items() if k != "metrics"}))
    summary = {
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {
            name: {"value": value, "unit": (LAYER_UNITS if args.trace else END_TO_END_UNITS)[name]}
            for name, value in result["metrics"].items()
        },
    }
    print(json.dumps(summary))
    return 0

if __name__ == "__main__":
    raise SystemExit(main())
