#!/usr/bin/env python3
"""Run the benchmark over seeds and workloads and keep the results.

Run from the root of a checkout:

    python3 perfbench/record.py --label baseline --seeds 1 --traces 0,1
    python3 perfbench/record.py --label spread_a --seeds 1-10 --traces 0

Each run is the benchmark command itself (``python3 perfbench/run.py ...``)
in a fresh process.  The file ``perfbench/results/BENCH_<label>.json`` gets
the environment record, every run's result line and detail line, and, for
untraced runs over two or more seeds, each end-to-end metric's median and
quartile spread (as a share of the median) next to its bound.
"""

from __future__ import annotations

import argparse
import ctypes
import glob
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

from run import HERE, ROOT, WORKLOADS


def _cpuinfo(field: str):
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith(field):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return None


def _blas_threads():
    """Thread count the bundled OpenBLAS reports at run time, if it can be asked."""
    pattern = str(Path(np.__file__).parent.parent / "numpy.libs" / "*openblas*")
    for path in glob.glob(pattern):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return fn()
    return None


def environment(seeds) -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "cpu_model": _cpuinfo("model name"),
        "l3_cache": _cpuinfo("cache size"),  # x86 cpuinfo reports the last-level cache
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": {key: blas.get(key) for key in ("name", "version", "openblas configuration")},
        "blas_threads_observed": _blas_threads(),
        "thread_env": {k: os.environ.get(k) for k in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")},
        "seeds": list(seeds),
        "recorded_at": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
    }


def _seeds(text: str) -> list:
    if "-" in text:
        low, high = text.split("-")
        return list(range(int(low), int(high) + 1))
    return [int(s) for s in text.split(",")]


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    command = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed)]
    command += ["--seconds", str(seconds), "--trace", str(trace)]
    started = time.monotonic()
    proc = subprocess.run(command, cwd=ROOT, capture_output=True, text=True, timeout=300)
    lines = proc.stdout.strip().splitlines()
    entry = {"workload": workload, "seed": seed, "trace": trace, "exit": proc.returncode, "run_s": time.monotonic() - started}
    if proc.returncode != 0 or not lines:
        entry["stderr"] = proc.stderr[-3000:]
        return entry
    print("\n".join(line for line in lines[:-1] if not line.startswith("detail ")), flush=True)
    entry["result"] = json.loads(lines[-1])
    entry["detail"] = json.loads(next(line for line in lines if line.startswith("detail "))[len("detail ") :])
    return entry


def spread(runs: list, bounds: dict) -> dict:
    out = {}
    for workload in WORKLOADS:
        values = {}
        for run in runs:
            if run["workload"] == workload and run["trace"] == 0 and "result" in run:
                for name, metric in run["result"]["metrics"].items():
                    values.setdefault(name, []).append(metric["value"])
        for name, vals in values.items():
            if len(vals) < 2:
                continue
            q1, median, q3 = statistics.quantiles(vals, n=4)
            share = (q3 - q1) / median if median else 0.0
            out.setdefault(workload, {})[name] = {
                "median": median,
                "q1": q1,
                "q3": q3,
                "spread": share,
                "bound": bounds.get(name),
                "values": vals,
            }
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--label", required=True)
    parser.add_argument("--seeds", default="1", help="comma list or range such as 1-10")
    parser.add_argument("--traces", default="0,1")
    parser.add_argument("--workloads", default=",".join(WORKLOADS))
    args = parser.parse_args(argv)
    config = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in config["end_to_end"]}
    seeds = _seeds(args.seeds)
    runs = []
    for seed in seeds:
        for workload in args.workloads.split(","):
            for trace in (int(t) for t in args.traces.split(",")):
                entry = run_once(workload, seed, config["run_seconds"], trace)
                runs.append(entry)
                result = entry.get("result", {})
                print(f"{workload:<18} seed={seed:<3} trace={trace} exit={entry['exit']} correct={result.get('correct')} "
                      f"run_s={entry['run_s']:.1f}", flush=True)
    record = {"label": args.label, "environment": environment(seeds), "run_seconds": config["run_seconds"], "runs": runs}
    record["spread"] = spread(runs, bounds)
    for workload, metrics in record["spread"].items():
        for name, s in metrics.items():
            print(f"{workload:<18} {name:<12} median={s['median']:.6g} spread={s['spread']:.4f} bound={s['bound']}")
    out = HERE / "results" / f"BENCH_{args.label}.json"
    out.parent.mkdir(exist_ok=True)
    out.write_text(json.dumps(record, indent=1) + "\n")
    print(f"wrote {out.relative_to(ROOT)}")
    return 0 if all(r.get("result", {}).get("correct") for r in runs) else 1


if __name__ == "__main__":
    raise SystemExit(main())
