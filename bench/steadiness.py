#!/usr/bin/env python3
"""Run the benchmark over several seeds and report how steady it is.

Run from the repository root:

    python3 bench/steadiness.py --seeds 1-10 --out bench/BENCH_1.json

For every seed it runs ``bench/run.py --trace 0`` once on each workload of
BENCHMARK.json, seed after seed, so that a slow drift of the machine's speed
spreads over all seeds instead of showing as a trend across them.  It
reports, per workload and end-to-end metric, the median and the spread: the
distance between the first and third quartile (``statistics.quantiles(n=4)``)
as a share of the median.  A spread above a third of the metric's bound in
BENCHMARK.json is flagged, for every metric alike.  It then makes one
``--trace 1`` run per workload at seed 1 for the per-layer numbers.  With
``--out`` it writes everything, with the machine's facts and the per-case
counts and medians of every run, as JSON.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent


def _seeds(text: str) -> list:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def _run(workload: str, seed: int, seconds: int, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        capture_output=True, text=True, timeout=600, cwd=ROOT)
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed} exited {proc.returncode}: "
                           f"{proc.stderr.strip()[-2000:]}")
    lines = proc.stdout.strip().splitlines()
    return {"result": json.loads(lines[-1]), "detail": json.loads(lines[-2])["detail"]}


def _machine() -> dict:
    import numpy
    import scipy
    cpu = ""
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh
                        if ln.startswith("model name")), "")
    except OSError:
        pass
    return {"nproc": os.cpu_count(), "cpu": cpu, "platform": platform.platform(),
            "python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__}


def _spread(values: list) -> dict:
    q1, _, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return {"median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / med if med else 0.0, "values": values}


TRACE_SEED = 1


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--seeds", default="1-10", help="seed range, e.g. 1-10")
    p.add_argument("--out", default=None, help="write the summary as JSON here")
    args = p.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    seconds = spec["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    layer_names = [m["name"] for m in spec["per_layer"]]
    workloads = [w["name"] for w in spec["workloads"]]
    seeds = _seeds(args.seeds)
    summary = {"machine": _machine(), "run_seconds": seconds, "seeds": seeds,
               "workloads": {}}
    runs = {w: [] for w in workloads}
    for seed in seeds:
        for workload in workloads:
            runs[workload].append(_run(workload, seed, seconds, 0))
            print(f"{workload} seed {seed} done", flush=True)
    steady = True
    for workload in workloads:
        done = runs[workload]
        entry = {"attempted": [r["result"]["attempted"] for r in done],
                 "failed": [r["result"]["failed"] for r in done],
                 "op_tail": [r["detail"]["op_tail"] for r in done],
                 "setup_samples_s": [r["detail"]["setup_samples_s"] for r in done],
                 "cases": [r["detail"]["cases"] for r in done], "e2e": {}}
        for name, bound in bounds.items():
            stats = _spread([r["result"]["metrics"][name]["value"] for r in done])
            stats["bound"] = bound
            entry["e2e"][name] = stats
            flag = "ok" if stats["spread"] < bound / 3 else "WIDE"
            steady &= flag == "ok"
            print(f"{workload:13s} {name:13s} median {stats['median']:.6g}  "
                  f"spread {stats['spread']:.4f}  bound {bound}  {flag}", flush=True)
        traced = _run(workload, TRACE_SEED, seconds, 1)
        metrics = traced["result"]["metrics"]
        if sorted(metrics) != sorted(layer_names):
            raise RuntimeError(f"{workload}: traced metrics differ from BENCHMARK.json")
        detail = traced["detail"]
        entry["trace"] = {"seed": TRACE_SEED, "correct": traced["result"]["correct"],
                          "metrics": {k: v["value"] for k, v in metrics.items()},
                          "traced_ops": detail["traced_ops"], "cases": detail["cases"],
                          "determinism_probe": detail["determinism_probe"]}
        summary["workloads"][workload] = entry
    if args.out:
        Path(args.out).write_text(json.dumps(summary, indent=1) + "\n", encoding="utf-8")
    print("steady" if steady else "not steady: some spread is above a third of its bound")
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
