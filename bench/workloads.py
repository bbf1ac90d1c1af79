"""The benchmark workloads: seeded op streams and the check of each op.

An op is one call into stochfio's public API or CLI.  Its inputs are drawn
from a ``random.Random`` stream, so a seed fixes every input, and each op
draws fresh ones, so no two ops share a table.  ``Op.run`` is the timed
part; ``Op.check`` compares the output with ``oracle`` afterwards.

Calls go through module attributes (``cli.main``) so that the tracer's
wrappers, installed on those modules, see them.
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter
from typing import Callable

import numpy as np

import oracle
from stochfio import cli, io
from stochfio.applications import make_speed, transport_phase
from stochfio.jets import VarLayout, builtin_map
from stochfio.oscillatory import FioOperator, QuadratureConfig
from stochfio.symbol_spaces import Amplitude, PhaseFunction

# Gaussian test functions of width 0.3 keep the y window at six panels; at
# xi radius 32 the truncation error of the matrix cases is then 1e-9 to 2e-6.
XI_RADIUS = 32.0
# x points per (extra_decay, out_order) case, sized so that every case costs
# 0.8 to 1.1 s on a 2-core x86 box: the kappa = 4, out_order = 2 case
# already takes ~0.9 s at a single point.
APPLY_POINTS = {(0, 0): 20, (0, 2): 7, (2, 0): 3, (2, 2): 1}
APPLY_CASES = tuple((phase, extra_decay, out_order)
                    for phase in ("linear", "transport")
                    for extra_decay, out_order in APPLY_POINTS)

MC_ALPHA = 0.25
MC_SAMPLES = 7000
MC_POINTS = 17
FIO_SAMPLES = 3
FIO_POINTS = 5
FIO_XI_RADIUS = 24.0
HORIZON_T_MAX = 1.0
HORIZON_DT = 0.016
HORIZON_HIT_STEP = 50


@dataclass
class Op:
    """One benchmark op: ``run()`` calls stochfio, ``check(output)`` returns
    (max abs error against the oracle, a problem string or None)."""

    kind: str
    run: Callable[[], object]
    check: Callable[[object], tuple]
    case: str = ""


def _unit_amplitude() -> Amplitude:
    return Amplitude(builtin_map("constant", value=1.0, layout=VarLayout(1, 1, 1)))


def _jitter(rng: random.Random, value: float, rel: float = 0.01) -> float:
    """``value`` moved by up to ``rel`` of itself.

    Inputs are drawn fresh for every op but from narrow ranges: the error of
    an op is smooth in its inputs, and narrow ranges keep the largest error
    of a run (max_abs_err) from depending on which draws the run got.
    """
    return value * (1.0 + rel * rng.uniform(-1.0, 1.0))


def _bump(rng: random.Random, width: float) -> tuple:
    """Centre and width of a gaussian test function."""
    return rng.uniform(-0.02, 0.02), _jitter(rng, width, 0.001)


def _max_abs(a, b) -> float:
    return float(np.max(np.abs(np.asarray(a) - np.asarray(b))))


# ---------------------------------------------------------------------------
# apply_matrix: library calls


def apply_op(rng: random.Random, phase_kind: str, extra_decay: int, out_order: int,
             workers: int = 1) -> Op:
    """FioOperator.build + .apply on a gaussian, against its exact image."""
    center, width = _bump(rng, 0.3)
    n = APPLY_POINTS[(extra_decay, out_order)]
    xs = (np.linspace(-0.5, 0.5, n) if n > 1 else np.zeros(1)) + rng.uniform(-0.01, 0.01)
    if phase_kind == "transport":
        offset, slope, t = _jitter(rng, 1.0), _jitter(rng, 0.5), _jitter(rng, 0.3)

    def run():
        if phase_kind == "linear":
            phase = PhaseFunction(builtin_map("linear_phase"))
        else:
            phase = transport_phase(make_speed("affine", offset=offset, slope=slope), t)
        u = builtin_map("gaussian_bump", block="y", center=center, width=width)
        op = FioOperator.build(phase, _unit_amplitude(), alpha=0.25,
                               extra_decay=extra_decay,
                               config=QuadratureConfig(xi_radius=XI_RADIUS))
        return op.apply(u, xs, out_order=out_order, workers=workers)

    def check(field):
        if phase_kind == "linear":
            refs = oracle.gaussian_derivs(xs, center, width, out_order)
        else:
            refs = oracle.transport_derivs(xs, center, width, offset, slope, t, out_order)
        return max(_max_abs(field.values[(k,)], refs[k]) for k in range(out_order + 1)), None

    return Op(f"apply.{phase_kind}", run, check,
              f"apply.{phase_kind}.extra_decay{extra_decay}.out_order{out_order}")


# ---------------------------------------------------------------------------
# random_speed: CLI calls on generated configs


def _cli_op(kind: str, workdir: Path, name: str, command: str, config: dict,
            extra_args: tuple, check_payload) -> Op:
    cfg_path = workdir / f"{name}.config.json"
    out_path = workdir / f"{name}.out.json"
    cfg_path.write_text(json.dumps(config), encoding="utf-8")
    argv = [command, "--config", str(cfg_path), "--out", str(out_path),
            "--workers", "1", *extra_args]

    def run():
        return cli.main(argv)

    def check(code):
        if code != 0:
            return math.nan, f"exit code {code}"
        return check_payload(json.loads(out_path.read_text(encoding="utf-8")))

    return Op(kind, run, check)


def _mc_model(rng: random.Random) -> dict:
    return {"c0": _jitter(rng, 2.0), "s": _jitter(rng, 0.2), "alpha": MC_ALPHA}


def _complex(body: dict, re: str, im: str) -> np.ndarray:
    return np.asarray(body[re]) + 1j * np.asarray(body[im])


def mc_translation_op(rng: random.Random, workdir: Path, name: str) -> Op:
    """Translation-engine Monte Carlo, checked draw by draw and in law."""
    model = _mc_model(rng)
    center, width = _bump(rng, 1.0)
    t = _jitter(rng, 0.3)
    seed = rng.randrange(2 ** 31)
    pairs = [[8, 8], [4, 12], [rng.randrange(MC_POINTS), rng.randrange(MC_POINTS)]]
    config = {"schema_version": 1, "model": model,
              "test_function": {"family": "gaussian_bump", "block": "y",
                                "center": center, "width": width},
              "time": t, "grid": {"lo": -2.0, "hi": 2.0, "n": MC_POINTS},
              "mc": {"n_samples": MC_SAMPLES, "engine": "translation",
                     "autocov_pairs": pairs}}

    def check_payload(payload):
        body = payload["mc"]
        stats = body["stats"]
        xs = np.linspace(-2.0, 2.0, MC_POINTS)
        speeds = oracle.truncated_speeds(model["c0"], model["s"], MC_ALPHA, seed, MC_SAMPLES)
        samples = oracle.translation_replicates(xs, speeds, t, center, width)
        analytic = oracle.expected_wave(xs, model["c0"], model["s"], t, center, width)
        cov = oracle.autocovariance(samples, pairs)
        err = max(_max_abs(body["points"], xs),
                  _max_abs(_complex(stats, "mean_re", "mean_im"), samples.mean(axis=0)),
                  _max_abs(_complex(stats["autocovariance"], "re", "im"), cov),
                  _max_abs(body["analytic"]["values"], analytic))
        problem = None
        if stats["n"] != MC_SAMPLES or stats["failures"]:
            problem = f"{len(stats['failures'])} failed replicates"
        # the truncated draws move the mean by at most the truncated mass
        elif (body["analytic"]["max_deviation"] > 6.0 * body["analytic"]["max_std_error"]
              + body["model"]["truncation_mass"]):
            problem = "mean lies beyond 6 standard errors of the closed form"
        return err, problem

    return _cli_op("mc.translation", workdir, name, "mc", config,
                   ("--seed", str(seed)), check_payload)


def mc_fio_op(rng: random.Random, workdir: Path, name: str) -> Op:
    """Quadrature-engine Monte Carlo against the same draws translated."""
    model = _mc_model(rng)
    center, width = _bump(rng, 0.4)
    t = _jitter(rng, 0.3)
    seed = rng.randrange(2 ** 31)
    config = {"schema_version": 1, "model": model,
              "test_function": {"family": "gaussian_bump", "block": "y",
                                "center": center, "width": width},
              "time": t, "grid": {"lo": -1.0, "hi": 1.0, "n": FIO_POINTS},
              "quadrature": {"xi_radius": FIO_XI_RADIUS},
              "mc": {"n_samples": FIO_SAMPLES, "engine": "fio"}}

    def check_payload(payload):
        body = payload["mc"]
        speeds = oracle.truncated_speeds(model["c0"], model["s"], MC_ALPHA, seed, FIO_SAMPLES)
        xs = np.linspace(-1.0, 1.0, FIO_POINTS)
        ref = oracle.translation_replicates(xs, speeds, t, center, width).mean(axis=0)
        problem = None
        if body["stats"]["n"] != FIO_SAMPLES:
            problem = f"{len(body['stats']['failures'])} failed replicates"
        return max(_max_abs(body["points"], xs),
                   _max_abs(_complex(body["stats"], "mean_re", "mean_im"), ref)), problem

    return _cli_op("mc.fio", workdir, name, "mc", config, ("--seed", str(seed)),
                   check_payload)


def horizon_op(rng: random.Random, workdir: Path, name: str) -> Op:
    """Observation horizon of an affine speed against exp(-|slope| t).

    The threshold sits half a time step before grid step HORIZON_HIT_STEP,
    so the answer is that step with a margin far above the RK4 error.
    """
    slope = rng.choice((-1.0, 1.0)) * _jitter(rng, 0.9, 0.02)
    t_hit = HORIZON_HIT_STEP * HORIZON_DT
    threshold = math.exp(-abs(slope) * (t_hit - 0.5 * HORIZON_DT))
    config = {"schema_version": 1,
              "speed": {"kind": "affine", "offset": rng.uniform(1.0, 1.2),
                        "slope": slope},
              "horizon": {"t_max": HORIZON_T_MAX, "x": rng.uniform(-0.5, 0.5),
                          "dt": HORIZON_DT, "threshold": threshold}}

    def check_payload(payload):
        got = payload["horizon"]
        ref = oracle.horizon(slope, HORIZON_T_MAX, HORIZON_DT, threshold)
        if len(got["times"]) != len(ref["times"]) or not got["hit_threshold"]:
            return abs(got["T_obs"] - ref["T_obs"]), (
                f"scan stopped after {len(got['times'])} steps, expected {len(ref['times'])}")
        return max(abs(got["T_obs"] - ref["T_obs"]), _max_abs(got["times"], ref["times"]),
                   _max_abs(got["margins"], ref["margins"])), None

    return _cli_op("horizon", workdir, name, "horizon", config, (), check_payload)


# The three kinds are sized to cost about the same (1.1 to 1.3 s on a 2-vCPU
# x86 guest), so op_p50_s is the middle of one distribution, not a point in
# the gap between a cheap kind and a dear one that moves with how many ops of
# each kind a run completed.  Fio draws are three of every five ops because
# they rebuild the same tables on every draw, the work a cache would save.
_RANDOM_SPEED_MAKERS = (mc_fio_op, mc_translation_op, mc_fio_op, horizon_op, mc_fio_op)

# ops in one round of each workload's cycle of op kinds
CYCLE = {"apply_matrix": len(APPLY_CASES), "random_speed": len(_RANDOM_SPEED_MAKERS)}


# ---------------------------------------------------------------------------
# streams


def make_op(workload: str, rng: random.Random, index: int, workdir: Path) -> Op:
    """Op number ``index`` of a workload, drawing its inputs from ``rng``."""
    if workload == "apply_matrix":
        return apply_op(rng, *APPLY_CASES[index % len(APPLY_CASES)])
    if workload == "random_speed":
        maker = _RANDOM_SPEED_MAKERS[index % len(_RANDOM_SPEED_MAKERS)]
        return maker(rng, workdir, f"op{index}")
    raise ValueError(f"unknown workload {workload!r}")


def op_stream(workload: str, seed: int, workdir: Path):
    """Endless stream of a workload's ops, cycling through its op kinds."""
    rng = random.Random(seed)
    index = 0
    while True:
        yield make_op(workload, rng, index, workdir)
        index += 1


# the warm-up op is the costliest kind of the workload, drawn from its own
# stream so it shares no inputs with the timed ops
_WARMUP_INDEX = {"apply_matrix": len(APPLY_CASES) - 1, "random_speed": 0}


def warmup_op(workload: str, seed: int, workdir: Path) -> Op:
    workdir = workdir / "warmup"
    workdir.mkdir(exist_ok=True)
    return make_op(workload, random.Random(f"{seed}/warmup"),
                   _WARMUP_INDEX[workload], workdir)


def determinism_probe(seed: int) -> dict:
    """One apply_matrix case at workers = 1, 1 and 2 on identical inputs.

    Returns the three wall times, the three errors and whether the
    manifest-free JSON of the fields matched byte for byte.
    """
    blobs, seconds, errors = [], [], []
    for workers in (1, 1, 2):
        op = apply_op(random.Random(f"{seed}/probe"), "linear", 0, 2, workers=workers)
        t0 = perf_counter()
        field = op.run()
        seconds.append(perf_counter() - t0)
        errors.append(op.check(field)[0])
        blobs.append(io.dump_json(io.strip_timing(io.field_to_dict(field))))
    return {"seconds": seconds, "errors": errors,
            "identical": blobs[0] == blobs[1] == blobs[2]}
