#!/usr/bin/env python3
"""stochfio benchmark: seeded workloads, oracle-checked timings, layer traces.

Run from the repository root:

    python3 bench/run.py --workload apply_matrix --seed 1 --seconds 45 --trace 0

Workloads (see ``workloads.py`` and ``spec.json``): ``apply_matrix`` and
``random_speed``.  Each is a closed loop: one client sends the next op when
the last one has finished, every op at workers = 1 with BLAS threads pinned
to 1.

``--trace 0`` reports the end-to-end metrics.  Set-up (importing stochfio
plus one warm-up op) is timed in SETUP_SAMPLES fresh processes and the
median is reported; then ops run for ``--seconds`` and each is checked
against ``oracle`` afterwards.  An op fails if it raises, exits non-zero,
or misses its error bound from ``spec.json``.

``--trace 1`` reports the per-layer metrics.  Whole rounds of the
workload's op kinds alternate between untraced and traced, so both halves
run the same mix and their time difference is the tracing overhead.  A
determinism probe then runs one apply_matrix case at workers = 1, 1 and 2.

The last line of standard output is the JSON result; the line before it
holds details (tail percentile and sample count, per-kind numbers,
failures).  Exit code 2 means the run could not start.
"""

from __future__ import annotations

import os

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
from pathlib import Path  # noqa: E402
from time import perf_counter  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
SETUP_SAMPLES = 3
SETUP_TIMEOUT_S = 150
TAIL_BEYOND = 10
WORKLOADS = ("apply_matrix", "random_speed")


def _parse(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-probe", default=None, help=argparse.SUPPRESS)
    return p.parse_args(argv)


class Record:
    """One attempted op: wall seconds, then its error and failure reason."""

    def __init__(self, op, seconds, output=None, raised=None):
        self.op, self.seconds, self.output = op, seconds, output
        self.kind, self.case = op.kind, op.case or op.kind
        self.error = math.nan
        self.problem = raised

    def check(self, bounds: dict):
        """Compare the output with the oracle, then drop the output."""
        if self.problem is None:
            try:
                self.error, self.problem = self.op.check(self.output)
            except Exception as exc:  # noqa: BLE001 - a malformed output fails the op
                self.problem = f"check raised {type(exc).__name__}: {exc}"
            if self.problem is None and not self.error <= bounds[self.kind]:
                self.problem = f"error {self.error:.3e} above bound {bounds[self.kind]:.1e}"
        self.output = None

    @property
    def failed(self) -> bool:
        return self.problem is not None


def _run_op(op, tracer=None) -> Record:
    t0 = perf_counter()
    try:
        if tracer is None:
            out = op.run()
        else:
            with tracer.active():
                out = op.run()
    except Exception as exc:  # noqa: BLE001 - the op boundary must keep running
        return Record(op, perf_counter() - t0, raised=f"{type(exc).__name__}: {exc}")
    return Record(op, perf_counter() - t0, out)


def _warm_up(args, spec, workdir: Path) -> float:
    """Run and check the workload's warm-up op; return its wall seconds."""
    import workloads
    rec = _run_op(workloads.warmup_op(args.workload, args.seed, workdir))
    rec.check(spec["error_bounds"])
    if rec.failed:
        raise RuntimeError(f"warm-up op failed: {rec.problem}")
    return rec.seconds


def _setup_probe(args, spec) -> int:
    """Child process: time importing stochfio plus one warm-up op."""
    t0 = perf_counter()
    import stochfio  # noqa: F401
    import_s = perf_counter() - t0
    print(json.dumps({"setup_s": import_s + _warm_up(args, spec, Path(args.setup_probe))}))
    return 0


def _setup_samples(args, workdir: Path) -> list:
    samples = []
    for _ in range(SETUP_SAMPLES):
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
             "--seed", str(args.seed), "--seconds", "0", "--setup-probe", str(workdir)],
            capture_output=True, text=True, timeout=SETUP_TIMEOUT_S, cwd=ROOT)
        if proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed: {proc.stderr.strip()[-2000:]}")
        samples.append(json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"])
    return samples


def _tail(seconds: list) -> tuple:
    """Value at the highest percentile with TAIL_BEYOND samples beyond it,
    with that percentile and the number of samples beyond it."""
    ordered = sorted(seconds)
    rank = max(0, len(ordered) - TAIL_BEYOND - 1)
    return ordered[rank], 100.0 * (rank + 1) / len(ordered), len(ordered) - 1 - rank


def _per_case(records) -> dict:
    out = {}
    for r in records:
        k = out.setdefault(r.case, {"ops": 0, "failed": 0, "seconds": [], "max_error": 0.0})
        k["ops"] += 1
        k["failed"] += r.failed
        k["seconds"].append(r.seconds)
        if not math.isnan(r.error):
            k["max_error"] = max(k["max_error"], r.error)
    for k in out.values():
        k["median_s"] = statistics.median(k.pop("seconds"))
    return out


def _failures(records) -> list:
    return [f"{r.kind}: {r.problem}" for r in records if r.failed][:20]


def timed_run(args, spec, workdir: Path) -> tuple:
    setup = _setup_samples(args, workdir)
    _warm_up(args, spec, workdir)
    import workloads
    stream = workloads.op_stream(args.workload, args.seed, workdir)
    records = []
    start = perf_counter()
    while perf_counter() - start < args.seconds:
        records.append(_run_op(next(stream)))
    elapsed = perf_counter() - start
    for rec in records:
        rec.check(spec["error_bounds"])
    seconds = [r.seconds for r in records]
    failed = sum(r.failed for r in records)
    tail, tail_pct, beyond = _tail(seconds)
    errors = [r.error for r in records if not math.isnan(r.error)]
    metrics = {
        "setup_s": (statistics.median(setup), "s"),
        "op_p50_s": (statistics.median(seconds), "s"),
        "op_tail_s": (tail, "s"),
        "ops_per_s": (len(records) / elapsed, "1/s"),
        # with no measurable error every op failed; 1.0 is the scale of the answers
        "max_abs_err": (max(errors, default=1.0), "abs"),
        "ok_ops_share": ((len(records) - failed) / len(records), "share"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }
    detail = {"setup_samples_s": setup,
              "op_tail": {"percentile": tail_pct, "samples": len(seconds), "beyond": beyond},
              "timed_s": elapsed, "cases": _per_case(records), "failures": _failures(records)}
    metrics = {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}
    return _result(len(records), failed, metrics), detail


def traced_run(args, spec, workdir: Path) -> tuple:
    import tracing
    import workloads
    _warm_up(args, spec, workdir)
    tracer = tracing.Tracer()
    cycle = workloads.CYCLE[args.workload]
    stream = workloads.op_stream(args.workload, args.seed, workdir)
    records, untraced_s = [], 0.0
    start = perf_counter()
    rounds = 0
    # an even number of rounds, so traced and untraced ops are the same mix
    while perf_counter() - start < args.seconds or rounds % 2:
        traced = rounds % 2 == 1
        for _ in range(cycle):
            rec = _run_op(next(stream), tracer if traced else None)
            if not traced:
                untraced_s += rec.seconds
            rec.check(spec["error_bounds"])
            records.append(rec)
        rounds += 1
    probe = workloads.determinism_probe(args.seed)
    probe_bound = spec["error_bounds"]["apply.linear"]
    probe_ok = probe["identical"] and max(probe["errors"]) <= probe_bound
    t1 = statistics.mean(probe["seconds"][:2])
    metrics = tracing.layer_metrics(tracer, untraced_s, t1 / (2.0 * probe["seconds"][2]))
    # the probe counts as one op, failed on a byte mismatch or a missed bound
    failed = sum(r.failed for r in records) + (not probe_ok)
    detail = {"rounds": rounds, "traced_ops": tracer.ops, "cases": _per_case(records),
              "determinism_probe": probe, "spans": len(tracer.spans),
              "failures": _failures(records)}
    return _result(len(records) + 1, failed, metrics), detail


def _result(attempted: int, failed: int, metrics: dict) -> dict:
    return {"correct": failed == 0, "attempted": attempted, "failed": failed,
            "metrics": metrics}


def main(argv=None) -> int:
    args = _parse(argv)
    if not (SRC / "stochfio" / "__init__.py").is_file():
        print(f"stochfio sources not found at {SRC}; run from a full checkout",
              file=sys.stderr)
        return 2
    sys.path[:0] = [str(SRC), str(BENCH)]
    spec = json.loads((BENCH / "spec.json").read_text(encoding="utf-8"))
    if args.setup_probe is not None:
        return _setup_probe(args, spec)
    WORK.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=WORK))
    try:
        run = traced_run if args.trace else timed_run
        result, detail = run(args, spec, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps({"detail": detail}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
