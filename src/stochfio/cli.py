"""Command-line interface.

Commands (all driven by a JSON config file, see README):

* ``verify``    - run phase / amplitude admissibility checks
* ``apply``     - apply a configured operator to a test function on a grid
* ``transport`` - transport solver u(x, t) = u0(gamma(x, t))
* ``halfwave``  - half-wave parametrix exp(i t c(x) P(D)) u0
* ``wave``      - two-branch wave evolution at speed c
* ``mc``        - Monte Carlo mean of the random-speed wave field
* ``converge``  - frequency-truncation convergence study

Exit codes: 0 success, 2 configuration error, 3 numerical failure
(tolerance not reached, or a flow left its validity regime), 4 a
requested check failed.  Outputs embed a manifest with a SHA-256 of the
config; reruns with the same config and seed are byte-identical once
the manifest's ``timing`` entry is dropped.
"""

from __future__ import annotations

import argparse
import functools
import math
import sys
from contextlib import contextmanager
from dataclasses import fields as dataclass_fields

import numpy as np

from .applications import (
    RegimeError,
    halfwave_solve,
    regime_horizon,
    transport_solve,
    wave_solve,
)
from .io import (
    SCHEMA_VERSION,
    ConfigError,
    dump_json,
    field_to_dict,
    load_config,
    make_manifest,
    stats_to_dict,
    write_field_csv,
)
from .jets import SmoothMap, _resolve_map, _resolve_speed
from .oscillatory import (
    FioOperator,
    QuadratureConfig,
    ToleranceError,
    _check_layouts,
    convergence_study,
)
from .regularizer import CutoffChi, check_coefficient_symbol_bounds
from .stochastic import (
    TruncatedSpeedModel,
    expected_wave_analytic,
    mc_wave_estimate,
)
from .symbol_spaces import (
    Amplitude,
    PhaseFunction,
    check_alpha_membership,
    check_homogeneity,
    seminorm_q,
)

__all__ = ["main"]


class _CheckFailed(Exception):
    """A verification-style command found a violated criterion."""


# ---------------------------------------------------------------------------
# config parsing


def _require(cfg: dict, key: str, command: str):
    if key not in cfg:
        raise ConfigError(f"'{command}' requires a {key!r} entry in the config")
    return cfg[key]


@contextmanager
def _config_errors(what: str):
    """Report a parser's TypeError / ValueError / KeyError as a bad ``what``."""
    try:
        yield
    except (TypeError, ValueError, KeyError) as exc:
        raise ConfigError(f"bad {what}: {exc}") from exc


def build_speed(spec) -> SmoothMap:
    """Speed from a number or a ``{"kind": ..., ...}`` object."""
    with _config_errors("speed spec"):
        return _resolve_speed(spec)


def build_map(spec, what: str = "map") -> SmoothMap:
    """Smooth map from a ``{"family": ..., ...}`` object; specs nest."""
    with _config_errors(f"{what} spec"):
        return _resolve_map(spec)


def build_phase(cfg: dict, command: str) -> PhaseFunction:
    """The phase, refused unless it has the y and xi the engine integrates."""
    phase = PhaseFunction(build_map(_require(cfg, "phase", command), "phase"))
    with _config_errors("phase spec"):
        _check_layouts(phase.layout)
    return phase


def build_amplitude(cfg: dict, command: str) -> Amplitude:
    spec = _require(cfg, "amplitude", command)
    if not isinstance(spec, dict):
        raise ConfigError("amplitude must be an object")
    spec = dict(spec)
    with _config_errors("amplitude spec"):
        d = float(spec.pop("d", 0.0))
        rho = float(spec.pop("rho", 1.0))
        delta = float(spec.pop("delta", 0.0))
        return Amplitude(_resolve_map(spec), d=d, rho=rho, delta=delta)


def build_test_function(cfg: dict, command: str, key: str = "test_function") -> SmoothMap:
    return build_map(_require(cfg, key, command), key)


def build_grid(cfg: dict, command: str) -> np.ndarray:
    spec = _require(cfg, "grid", command)
    if not isinstance(spec, dict):
        raise ConfigError("grid must be an object with lo / hi / n")
    try:
        lo, hi, n = float(spec["lo"]), float(spec["hi"]), _integer(spec["n"], "n")
    except (KeyError, TypeError, ValueError) as exc:
        raise ConfigError(f"grid needs numeric lo / hi and integer n: {exc}") from exc
    if n < 1 or not hi > lo:
        raise ConfigError("grid needs n >= 1 and hi > lo")
    return np.linspace(lo, hi, n)


def build_quadrature(cfg: dict) -> QuadratureConfig:
    spec = dict(cfg.get("quadrature", {}))
    known = {f.name for f in dataclass_fields(QuadratureConfig)}
    unknown = set(spec) - known
    if unknown:
        raise ConfigError(f"unknown quadrature options: {sorted(unknown)}")
    with _config_errors("quadrature options"):
        return QuadratureConfig(**spec)


def _workers(args) -> int:
    """The ``--workers`` count that splits the L^kappa ladder."""
    if args.workers < 1:
        raise ConfigError(f"--workers must be at least 1, got {args.workers}")
    return args.workers


def _integer(value, what: str) -> int:
    """``int(value)``, refusing a JSON boolean, which int() reads as 0 or 1,
    and a non-integral number, which int() truncates."""
    if isinstance(value, bool) or (isinstance(value, float) and not value.is_integer()):
        raise TypeError(f"{what} must be an integer, got {value!r}")
    return int(value)


def build_time(cfg: dict, command: str) -> float:
    t = _require(cfg, "time", command)
    if isinstance(t, bool) or not isinstance(t, (int, float)) or not math.isfinite(t):
        raise ConfigError(f"bad {command} option 'time': {t!r} is not a finite number")
    return float(t)


# ---------------------------------------------------------------------------
# output


def _emit(args, payload: dict, field=None) -> None:
    if args.format == "csv":
        if field is None:
            raise ConfigError(f"command {args.command!r} writes no field; "
                              "use --format json")
        if not args.out:
            raise ConfigError("--out is required with --format csv")
        write_field_csv(field, args.out)
        dump_json(payload, args.out + ".manifest.json")
    else:
        text = dump_json(payload, args.out)
        if args.out is None:
            sys.stdout.write(text)


def _field_payload(command: str, cfg: dict, field) -> tuple:
    fdict = field_to_dict(field)
    timing = fdict.pop("timing", None)
    meta = fdict.get("meta", {})
    extra = {key: meta.get(key) for key in ("evaluation_path", "evaluations",
                                            "kappa", "nodes", "xi_radius")}
    if "min_abs_G" in meta:
        extra["min_abs_G"] = meta["min_abs_G"]
    manifest = make_manifest(command, cfg, extra=extra)
    if timing:
        manifest["timing"] = timing
    return {"manifest": manifest, "field": fdict}, manifest


# ---------------------------------------------------------------------------
# commands


def cmd_verify(cfg: dict, args) -> int:
    phase = build_phase(cfg, "verify")
    options = cfg.get("verify", {})
    checks: dict = {}
    # the checks that read an option run first, so a bad option fails early
    with _config_errors("verify option 'alpha'"):
        alpha = float(options.get("alpha", 0.25))
        mem = check_alpha_membership(phase, alpha)
    checks["membership"] = {"passed": mem.passed, "alpha": alpha,
                            "min_x_side": mem.min_x_side,
                            "min_y_side": mem.min_y_side}
    if "amplitude" in cfg:
        amp = build_amplitude(cfg, "verify")
        with _config_errors("verify option 'm'"):
            report = seminorm_q(amp, _integer(options.get("m", 2), "m"))
        checks["amplitude_class"] = {"passed": not report.flagged,
                                     "seminorm": report.value,
                                     "note": report.note}

    hom = check_homogeneity(phase)
    checks["homogeneity"] = {"passed": hom.passed,
                             "max_residual": hom.max_residual}
    if hom.passed and mem.passed:
        coeff = check_coefficient_symbol_bounds(phase, CutoffChi())
        checks["coefficient_bounds"] = {"passed": coeff.passed,
                                        "max_misfit": coeff.max_misfit,
                                        "skipped": coeff.skipped}
    else:
        checks["coefficient_bounds"] = {
            "passed": False,
            "note": "skipped: phase failed homogeneity or nondegeneracy",
        }

    passed = all(c["passed"] for c in checks.values())
    payload = {
        "manifest": make_manifest("verify", cfg),
        "checks": checks,
        "passed": passed,
    }
    _emit(args, payload)
    if not passed:
        failed = sorted(k for k, c in checks.items() if not c["passed"])
        raise _CheckFailed("violated: " + ", ".join(failed))
    return 0


def cmd_apply(cfg: dict, args) -> int:
    phase = build_phase(cfg, "apply")
    amplitude = build_amplitude(cfg, "apply")
    u = build_test_function(cfg, "apply")
    xs = build_grid(cfg, "apply")
    qc = build_quadrature(cfg)
    workers = _workers(args)
    operator_opts = cfg.get("operator", {})
    alpha = operator_opts.get("alpha", 0.25)
    with _config_errors("operator options"):
        alpha = None if alpha is None else float(alpha)
        extra_decay = _integer(operator_opts.get("extra_decay", 0), "extra_decay")
    try:
        op = FioOperator.build(phase, amplitude, alpha=alpha, extra_decay=extra_decay,
                               config=qc)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    # a test function the engine cannot take, or a node plan over the bound
    with _config_errors("apply options"):
        field = op.apply(u, xs, workers=workers)
    payload, _ = _field_payload("apply", cfg, field)
    _emit(args, payload, field)
    return 0


def _solver_command(name: str, solver):
    def run(cfg: dict, args) -> int:
        speed = build_speed(_require(cfg, "speed", name))
        u0 = build_test_function(cfg, name)
        t = build_time(cfg, name)
        xs = build_grid(cfg, name)
        qc = build_quadrature(cfg)
        with _config_errors(f"{name} options"):
            field = solver(speed, u0, t, xs, config=qc)
        payload, _ = _field_payload(name, cfg, field)
        _emit(args, payload, field)
        return 0

    run.__name__ = f"cmd_{name}"
    return run


cmd_transport = _solver_command("transport", transport_solve)
cmd_halfwave = _solver_command("halfwave", halfwave_solve)
cmd_wave = _solver_command("wave", wave_solve)


def cmd_horizon(cfg: dict, args) -> int:
    speed = build_speed(_require(cfg, "speed", "horizon"))
    options = cfg.get("horizon", {})
    t_max = options["t_max"] if "t_max" in options else build_time(cfg, "horizon")
    values = {}
    for key, value in (("x", options.get("x", 0.0)), ("t_max", t_max),
                       ("dt", options.get("dt", 0.05)),
                       ("threshold", options.get("threshold", 0.6))):
        with _config_errors(f"horizon option {key!r}"):
            values[key] = float(value)
    with _config_errors("horizon options"):
        result = regime_horizon(speed, **values)
    payload = {"manifest": make_manifest("horizon", cfg), "horizon": result}
    _emit(args, payload)
    return 0


def cmd_mc(cfg: dict, args) -> int:
    model_spec = _require(cfg, "model", "mc")
    if not isinstance(model_spec, dict):
        raise ConfigError("model must be an object with c0 / s / alpha")
    with _config_errors("model spec"):
        model = TruncatedSpeedModel(float(model_spec["c0"]),
                                    float(model_spec["s"]),
                                    alpha=float(model_spec.get("alpha", 0.25)))
    u0_spec = _require(cfg, "test_function", "mc")
    u0 = build_map(u0_spec, "test_function")
    t = build_time(cfg, "mc")
    xs = build_grid(cfg, "mc")
    mc_opts = cfg.get("mc", {})
    with _config_errors("mc options"):
        n_samples = _integer(mc_opts.get("n_samples", 256), "n_samples")
        base_seed = _integer(args.seed if args.seed is not None
                             else mc_opts.get("base_seed", 0), "base_seed")
    engine = mc_opts.get("engine", "translation")
    raw_pairs = mc_opts.get("autocov_pairs", [])
    if (not isinstance(raw_pairs, list)
            or any(not isinstance(p, list) or len(p) != 2 for p in raw_pairs)):
        raise ConfigError("mc.autocov_pairs must be a list of [p, q] index pairs")
    with _config_errors("autocov_pairs entry"):
        pairs = tuple((_integer(p, "index"), _integer(q, "index")) for p, q in raw_pairs)
    if any(not 0 <= p < xs.size or not 0 <= q < xs.size for p, q in pairs):
        raise ConfigError("autocov_pairs indices must lie inside the grid")
    qc = build_quadrature(cfg) if engine == "fio" else None
    try:
        result = mc_wave_estimate(model, u0, t, xs, n_samples, base_seed,
                                  engine=engine, config=qc,
                                  autocov_pairs=pairs)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc

    body = {
        "points": xs.tolist(),
        "stats": stats_to_dict(result.stats),
        "model": {"c0": model.c0, "s": model.s, "alpha": model.alpha,
                  "speed_bound": model.bound,
                  "truncation_mass": model.truncation_mass},
        "engine": engine,
        "base_seed": base_seed,
    }
    # gaussian initial data has a closed-form expectation; report the gap
    if (isinstance(u0_spec, dict) and u0_spec.get("family") == "gaussian_bump"
            and u0_spec.get("block", "y") == "y"):
        analytic = expected_wave_analytic(model, t, xs,
                                          u0_center=float(u0_spec.get("center", 0.0)),
                                          u0_width=float(u0_spec.get("width", 1.0)))
        deviation = np.abs(result.mean - analytic)
        body["analytic"] = {
            "values": analytic.tolist(),
            "max_deviation": float(deviation.max()),
            "max_std_error": float(np.max(result.std_error)),
        }
    meta = dict(result.meta)
    wall_time = meta.pop("wall_time", None)
    manifest = make_manifest("mc", cfg, extra=meta)
    if wall_time is not None:
        manifest["timing"] = {"wall_time": wall_time}
    payload = {"manifest": manifest, "mc": body}
    _emit(args, payload)
    return 0


def cmd_converge(cfg: dict, args) -> int:
    phase = build_phase(cfg, "converge")
    amplitude = build_amplitude(cfg, "converge")
    u = build_test_function(cfg, "converge")
    xs = build_grid(cfg, "converge")
    options = cfg.get("converge", {})
    with _config_errors("converge options"):
        radii = tuple(float(r) for r in options.get("radii", (5.0, 10.0, 20.0, 40.0, 80.0)))
        m_tilde = _integer(options.get("m_tilde", 2), "m_tilde")
        slack = float(options.get("slack", 2.0))
    if len(radii) < 3 or any(b <= a for a, b in zip(radii, radii[1:])):
        raise ConfigError("converge radii must be at least three increasing values")
    qc = build_quadrature(cfg)
    workers = _workers(args)
    # the study rejects bad radii, m_tilde or test function before any work
    with _config_errors("converge options"):
        report = convergence_study(phase, amplitude, u, xs, m_tilde=m_tilde,
                                   radii=radii, config=qc, workers=workers)
    respected = bool(report.bound_respected(slack=slack))
    payload = {
        "manifest": make_manifest("converge", cfg),
        "study": {
            "radii": list(report.radii),
            "errors": list(report.errors),
            "kappa": report.kappa,
            "guaranteed_rate": report.guaranteed_rate,
            "fitted_rate": report.fitted_rate,
            "slack": slack,
            "bound_respected": respected,
        },
    }
    _emit(args, payload)
    if not respected:
        raise _CheckFailed(
            f"observed truncation decay (fitted rate {report.fitted_rate:.2f}) "
            f"violates the guaranteed R^-{report.guaranteed_rate} envelope")
    return 0


_COMMANDS = {
    "verify": (cmd_verify, "check phase homogeneity, nondegeneracy and "
                           "amplitude class membership"),
    "apply": (cmd_apply, "apply a configured operator to a test function"),
    "transport": (cmd_transport, "transport solver via the flow phase"),
    "halfwave": (cmd_halfwave, "half-wave parametrix at time t"),
    "wave": (cmd_wave, "two-branch wave evolution at time t"),
    "horizon": (cmd_horizon, "largest time the half-wave flow stays in regime"),
    "mc": (cmd_mc, "Monte Carlo mean of the random-speed wave field"),
    "converge": (cmd_converge, "frequency-truncation convergence study"),
}


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process: parsing does not change
    it, and building it costs twenty times a parse."""
    parser = argparse.ArgumentParser(
        prog="stochfio",
        description="Oscillatory-integral operators with regularized "
                    "frequency integrals: checks, solvers and Monte Carlo.")
    sub = parser.add_subparsers(dest="command", required=True, metavar="command")
    for name, (_, help_text) in _COMMANDS.items():
        sp = sub.add_parser(name, help=help_text)
        sp.add_argument("--config", required=True,
                        help=f"JSON config (schema_version {SCHEMA_VERSION})")
        sp.add_argument("--out", default=None,
                        help="output path (default: JSON to stdout)")
        sp.add_argument("--format", choices=("json", "csv"), default="json",
                        help="output format; csv writes a manifest sidecar")
        sp.add_argument("--seed", type=int, default=None,
                        help="override the Monte Carlo base seed")
        sp.add_argument("--workers", type=int, default=1,
                        help="worker processes for the L^kappa ladder of apply "
                             "and converge; transport, halfwave, wave and mc "
                             "run serially and ignore it")
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        cfg = load_config(args.config)
        return _COMMANDS[args.command][0](cfg, args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except (ToleranceError, RegimeError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3
    except _CheckFailed as exc:
        print(f"check failed: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
