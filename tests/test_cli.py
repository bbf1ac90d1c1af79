"""Command-line interface: exit codes, output formats, determinism."""

import json
import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from stochfio.cli import _build_parser, main
from stochfio.io import read_field_csv, strip_timing

XI30 = {"xi_radius": 30.0}
UNBOUNDED_Y = {"family": "trig_polynomial", "block": "y", "terms": [[1.0, 1.0, 0.0]]}
CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"
SRC_DIR = CONFIG_DIR.parent / "src"


def write_config(tmp_path, name, cfg):
    cfg = {"schema_version": 1, **cfg}
    path = tmp_path / name
    path.write_text(json.dumps(cfg))
    return str(path)


def apply_config(**overrides):
    cfg = {
        "phase": {"family": "linear_phase"},
        "amplitude": {"family": "constant", "value": 1.0, "layout": [1, 1, 1],
                      "d": 0.0, "rho": 1.0, "delta": 0.0},
        "test_function": {"family": "gaussian_bump", "block": "y",
                          "center": 0.0, "width": 1.0},
        "grid": {"lo": -1.0, "hi": 1.0, "n": 9},
        "quadrature": XI30,
    }
    cfg.update(overrides)
    return cfg


def run_json(capsys, argv):
    rc = main(argv)
    out = capsys.readouterr().out
    return rc, (json.loads(out) if out else None)


# ---------------------------------------------------------------------------
# configuration errors -> exit code 2


def test_missing_config_file():
    assert main(["apply", "--config", "/nonexistent/cfg.json"]) == 2


def test_config_without_schema_version(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"grid": {}}))
    assert main(["apply", "--config", str(path)]) == 2


def test_unknown_map_family(tmp_path):
    cfg = write_config(tmp_path, "cfg.json",
                       apply_config(phase={"family": "no_such_phase"}))
    assert main(["apply", "--config", cfg]) == 2


NO_Y_PHASE = {"family": "bracket_power", "exponent": 1.0}
XI_AMPLITUDE = {"family": "constant", "value": 1.0, "layout": [0, 0, 1],
                "d": 0.0, "rho": 1.0, "delta": 0.0}
NEEDS_Y_AND_XI = "bad phase spec: the quadrature engine needs a phase of y and xi"
X_XI_PHASE = {"family": "product", "factors": [{"family": "coordinate", "block": "x"},
                                               {"family": "coordinate", "block": "xi"}]}
TWO_X_PHASE = {"family": "sum", "terms": [
    {"family": "linear_phase"}, {"family": "constant", "value": 0.0, "layout": [2, 1, 1]}]}


@pytest.mark.parametrize("command,cfg,message", [
    ("apply", apply_config(phase={"family": "linear_phase", "n": 2}),
     "unexpected keyword argument 'n'"),
    ("apply", apply_config(phase=NO_Y_PHASE, amplitude=XI_AMPLITUDE,
                           operator={"alpha": None}), NEEDS_Y_AND_XI),
    ("apply", apply_config(phase=NO_Y_PHASE, amplitude=XI_AMPLITUDE,
                           operator={"alpha": 0.25}), NEEDS_Y_AND_XI),
    ("converge", apply_config(phase=NO_Y_PHASE, amplitude=XI_AMPLITUDE), NEEDS_Y_AND_XI),
    ("apply", apply_config(phase=TWO_X_PHASE), "at most one coordinate"),
    ("converge", apply_config(phase=TWO_X_PHASE), "at most one coordinate"),
    ("verify", {"phase": {"family": "coordinate", "block": "xi"}}, NEEDS_Y_AND_XI),
    ("verify", {"phase": {"family": "gaussian_bump", "block": "x"}}, NEEDS_Y_AND_XI),
    ("apply", apply_config(phase=X_XI_PHASE, amplitude=XI_AMPLITUDE,
                           operator={"alpha": None}), NEEDS_Y_AND_XI),
    ("converge", apply_config(phase=X_XI_PHASE, amplitude=XI_AMPLITUDE), NEEDS_Y_AND_XI),
], ids=["apply-n_keyword", "apply-no_y-alpha_null", "apply-no_y-alpha_0.25",
        "converge-no_y", "apply-two_x", "converge-two_x", "verify-no_y", "verify-no_xi",
        "apply-x_xi-alpha_null", "converge-x_xi"])
def test_phase_dimension_other_than_one_exits_2(tmp_path, capsys, command, cfg, message):
    cfg = write_config(tmp_path, "cfg.json", cfg)
    assert main([command, "--config", cfg]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert message in captured.err


@pytest.mark.parametrize("speed,parameter", [
    ({"kind": "affine", "offest": 1.0, "slope": 0.9}, "offest"),
    ({"kind": "trig_field", "terms": [[0.5, 1.0, 0.0]]}, "offset"),
    ({"kind": "constant"}, "value"),
])
def test_bad_speed_object_exits_2(tmp_path, capsys, speed, parameter):
    cfg = write_config(tmp_path, "cfg.json",
                       {"speed": speed, "horizon": {"t_max": 0.5}})
    assert main(["horizon", "--config", cfg]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "speed" in captured.err and repr(parameter) in captured.err


@pytest.mark.parametrize("dt", [0, "abc"])
def test_nonsense_horizon_step_exits_2(tmp_path, capsys, dt):
    cfg = write_config(tmp_path, "cfg.json", {
        "speed": {"kind": "affine", "offset": 1.0, "slope": 0.9},
        "horizon": {"t_max": 0.5, "dt": dt},
    })
    assert main(["horizon", "--config", cfg]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "dt" in captured.err


@pytest.mark.parametrize("options,name", [
    ({"t_max": -1}, "t_max"),
    ({"t_max": 0}, "t_max"),
    ({"t_max": "inf"}, "t_max"),
    ({"t_max": 0.5, "threshold": "nan"}, "threshold"),
])
def test_nonsense_horizon_span_exits_2(tmp_path, capsys, options, name):
    cfg = write_config(tmp_path, "cfg.json", {
        "speed": {"kind": "affine", "offset": 1.0, "slope": 0.9},
        "horizon": options,
    })
    assert main(["horizon", "--config", cfg]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert name in captured.err


def test_unknown_quadrature_option(tmp_path, capsys):
    # the worker count is the --workers argument alone, not a quadrature key
    for quadrature, unknown in [({"xi_radius": 30.0, "bogus": 1}, "['bogus']"),
                                ({"workers": 2}, "['workers']")]:
        cfg = write_config(tmp_path, "cfg.json", apply_config(quadrature=quadrature))
        assert main(["apply", "--config", cfg]) == 2
        assert f"unknown quadrature options: {unknown}" in capsys.readouterr().err


@pytest.mark.parametrize("command,cfg", [
    ("apply", apply_config()),
    ("converge", apply_config(converge={"radii": [4.0, 8.0, 16.0]})),
])
@pytest.mark.parametrize("workers", ["0", "-1"])
def test_fewer_than_one_worker_exits_2_naming_the_flag(tmp_path, capsys, command, cfg,
                                                       workers):
    path = write_config(tmp_path, "cfg.json", cfg)
    assert main([command, "--config", path, "--workers", workers]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"config error: --workers must be at least 1, got {workers}" in captured.err


# JSON reads Infinity as a float, and an infinite radius has no finite node plan
@pytest.mark.parametrize("option", [{"xi_radius": -4.0}, {"nodes_per_panel": 0},
                                    {"xi_radius": float("inf")}])
def test_nonsense_quadrature_value_exits_2(tmp_path, capsys, option):
    cfg = write_config(tmp_path, "cfg.json", apply_config(quadrature=option))
    assert main(["apply", "--config", cfg]) == 2
    assert capsys.readouterr().out == ""


@pytest.mark.parametrize("command", ["apply", "transport"])
def test_a_finite_but_huge_radius_exits_2_before_building_nodes(tmp_path, capsys, command):
    # apply plans on the ladder, transport on the y-first sum; both count the
    # plan's nodes (about 4e31 here) before building any
    cfg = json.loads((CONFIG_DIR / f"{command}.json").read_text())
    cfg["quadrature"]["xi_radius"] = 1e15
    path = write_config(tmp_path, "cfg.json", cfg)
    start = time.perf_counter()
    assert main([command, "--config", path]) == 2
    assert time.perf_counter() - start < 1.0
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"bad {command} options: the quadrature plan needs" in captured.err


def test_missing_required_entry(tmp_path):
    bare = apply_config()
    del bare["grid"]
    cfg = write_config(tmp_path, "cfg.json", bare)
    assert main(["apply", "--config", cfg]) == 2


def test_csv_without_out_is_rejected(tmp_path):
    cfg = write_config(tmp_path, "cfg.json", apply_config())
    assert main(["apply", "--config", cfg, "--format", "csv"]) == 2


def test_csv_for_fieldless_command_is_rejected(tmp_path):
    cfg = write_config(tmp_path, "cfg.json", {
        "speed": {"kind": "affine", "offset": 1.0, "slope": 0.1},
        "horizon": {"t_max": 0.5},
    })
    out = tmp_path / "h.csv"
    assert main(["horizon", "--config", cfg,
                 "--format", "csv", "--out", str(out)]) == 2


def test_csv_for_a_field_without_x_writes_one_row_per_point(tmp_path):
    # the phase -y xi has no x block, so the field is constant in x: u(0) = 1
    # at every grid point
    minus_y_xi = {"family": "scaled", "factor": -1.0, "inner": {
        "family": "product", "factors": [{"family": "coordinate", "block": "y"},
                                         {"family": "coordinate", "block": "xi"}]}}
    cfg = write_config(tmp_path, "cfg.json", apply_config(
        phase=minus_y_xi,
        amplitude={"family": "constant", "value": 1.0, "layout": [0, 1, 1]}))
    out = tmp_path / "field.csv"
    assert main(["apply", "--config", cfg, "--format", "csv", "--out", str(out)]) == 0
    columns = read_field_csv(str(out))["columns"]
    assert np.array_equal(columns["x"], np.linspace(-1.0, 1.0, 9))
    for name in ("re", "im"):
        assert np.all(columns[name] == columns[name][0])
    assert abs(complex(columns["re"][0], columns["im"][0]) - 1.0) < 1e-6


# ---------------------------------------------------------------------------
# verify


def test_verify_accepts_translation_phase(tmp_path, capsys):
    cfg = write_config(tmp_path, "cfg.json", {
        "phase": {"family": "linear_phase"},
    })
    rc, payload = run_json(capsys, ["verify", "--config", cfg])
    assert rc == 0
    assert payload["passed"] is True
    assert payload["checks"]["homogeneity"]["passed"] is True
    assert payload["checks"]["membership"]["passed"] is True
    assert payload["checks"]["coefficient_bounds"]["passed"] is True


def test_verify_accepts_the_wave_phase_at_a_time(tmp_path, capsys):
    phase = {"family": "scaled_norm_phase", "speed": 2.0, "t": 0.2}
    cfg = write_config(tmp_path, "cfg.json", {"phase": phase})
    rc, payload = run_json(capsys, ["verify", "--config", cfg])
    assert rc == 0 and payload["passed"] is True


@pytest.mark.parametrize("phase", [
    {"family": "scaled_norm_phase", "speed": 2.0},
    {"family": "scaled_norm_phase", "speed": 2.0, "t": 0.2, "n": 1},
])
def test_verify_wave_phase_without_time_or_with_n_exits_2(tmp_path, capsys, phase):
    cfg = write_config(tmp_path, "cfg.json", {"phase": phase})
    assert main(["verify", "--config", cfg]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "bad phase spec" in captured.err


def test_verify_rejects_nonhomogeneous_phase(tmp_path, capsys):
    # (x - y) xi + xi^2 breaks 1-homogeneity in xi
    cfg = write_config(tmp_path, "cfg.json", {
        "phase": {"family": "sum", "terms": [
            {"family": "linear_phase"},
            {"family": "product", "factors": [
                {"family": "coordinate", "block": "xi"},
                {"family": "coordinate", "block": "xi"},
            ]},
        ]},
    })
    rc, payload = run_json(capsys, ["verify", "--config", cfg])
    assert rc == 4
    assert payload["passed"] is False
    assert payload["checks"]["homogeneity"]["passed"] is False


# ---------------------------------------------------------------------------
# apply


def test_apply_writes_json_with_manifest(tmp_path, capsys):
    cfg = write_config(tmp_path, "cfg.json", apply_config())
    out = tmp_path / "field.json"
    rc = main(["apply", "--config", cfg, "--out", str(out)])
    assert rc == 0
    payload = json.loads(out.read_text())
    assert payload["manifest"]["command"] == "apply"
    assert payload["manifest"]["kappa"] == 2
    xs = np.array(payload["field"]["points"][0])
    got = np.array(payload["field"]["values"]["0"]["re"])
    assert np.max(np.abs(got - np.exp(-xs ** 2))) < 1e-6


def test_apply_csv_with_manifest_sidecar(tmp_path):
    cfg = write_config(tmp_path, "cfg.json", apply_config())
    out = tmp_path / "field.csv"
    rc = main(["apply", "--config", cfg, "--format", "csv", "--out", str(out)])
    assert rc == 0
    data = read_field_csv(str(out))
    assert data["header"][:3] == ["x", "re", "im"]
    xs = data["columns"]["x"]
    assert np.max(np.abs(data["columns"]["re"] - np.exp(-xs ** 2))) < 1e-6
    sidecar = json.loads((tmp_path / "field.csv.manifest.json").read_text())
    assert sidecar["manifest"]["command"] == "apply"


def test_wave_csv_has_one_row_per_grid_point(tmp_path):
    cfg = write_config(tmp_path, "cfg.json", {
        "speed": 2.0,
        "test_function": {"family": "gaussian_bump", "block": "y"},
        "time": 0.2,
        "grid": {"lo": -1.0, "hi": 1.0, "n": 5},
        "quadrature": XI30,
    })
    out = tmp_path / "wave.csv"
    assert main(["wave", "--config", cfg, "--format", "csv", "--out", str(out)]) == 0
    data = read_field_csv(str(out))
    assert data["header"] == ["x", "re", "im"]
    xs = data["columns"]["x"]
    assert np.array_equal(xs, np.linspace(-1.0, 1.0, 5))
    exact = 0.5 * (np.exp(-(xs - 0.4) ** 2) + np.exp(-(xs + 0.4) ** 2))
    assert np.max(np.abs(data["columns"]["re"] - exact)) < 1e-6


# ---------------------------------------------------------------------------
# solvers


def test_transport_command_matches_shifted_profile(tmp_path, capsys):
    cfg = write_config(tmp_path, "cfg.json", {
        "speed": 1.0,
        "test_function": {"family": "gaussian_bump", "block": "y"},
        "time": 0.5,
        "grid": {"lo": -1.0, "hi": 1.0, "n": 9},
        "quadrature": XI30,
    })
    rc, payload = run_json(capsys, ["transport", "--config", cfg])
    assert rc == 0
    xs = np.array(payload["field"]["points"][0])
    got = np.array(payload["field"]["values"]["0"]["re"])
    assert np.max(np.abs(got - np.exp(-(xs - 0.5) ** 2))) < 1e-6


def test_wave_command_matches_dalembert(tmp_path, capsys):
    cfg = write_config(tmp_path, "cfg.json", {
        "speed": 2.0,
        "test_function": {"family": "gaussian_bump", "block": "y"},
        "time": 0.2,
        "grid": {"lo": -1.0, "hi": 1.0, "n": 9},
        "quadrature": XI30,
    })
    rc, payload = run_json(capsys, ["wave", "--config", cfg])
    assert rc == 0
    xs = np.array(payload["field"]["points"][0])
    exact = 0.5 * (np.exp(-(xs - 0.4) ** 2) + np.exp(-(xs + 0.4) ** 2))
    got = np.array(payload["field"]["values"]["0"]["re"])
    assert np.max(np.abs(got - exact)) < 1e-6


def test_wave_manifest_reports_what_the_run_did(capsys):
    rc, payload = run_json(capsys, ["wave", "--config", str(CONFIG_DIR / "wave.json")])
    assert rc == 0
    manifest, meta = payload["manifest"], payload["field"]["meta"]
    branches = (meta["branch_+"], meta["branch_-"])
    # the branches are summed y first: no L is applied, so kappa is 0
    assert manifest["evaluation_path"] == "y_first"
    assert manifest["kappa"] == 0
    assert manifest["xi_radius"] == 20.0
    assert manifest["nodes"] == sum(b["nodes"] for b in branches) > 0
    assert all(b["kappa"] == 0 and b["xi_radius"] == 20.0 for b in branches)
    # one u_hat table per band serves both branches' xi > 0 halves
    n_xi = sum(n for _lo, _hi, n, _n_y in branches[0]["bands"])
    assert manifest["evaluations"] == branches[0]["nodes"] + 2 * 17 * n_xi
    assert "evaluations" not in manifest.get("timing", {})


def test_halfwave_manifest_reports_the_flow_margin(capsys):
    rc, payload = run_json(capsys, ["halfwave", "--config",
                                    str(CONFIG_DIR / "halfwave.json")])
    assert rc == 0
    # constant speed: G stays at sigma, so the margin is exactly 1
    assert payload["manifest"]["min_abs_G"] == 1.0
    assert payload["field"]["meta"]["min_abs_G"] == 1.0
    assert "min_abs_G" not in payload["manifest"].get("timing", {})


def test_halfwave_out_of_regime_exits_3(tmp_path, capsys):
    # e^{-sigma t dc/dx} reaches 0.407 < 1/2 for slope 0.9 at t = 1
    cfg = write_config(tmp_path, "cfg.json", {
        "speed": {"kind": "affine", "offset": 1.0, "slope": 0.9},
        "test_function": {"family": "gaussian_bump", "block": "y"},
        "time": 1.0,
        "grid": {"lo": -0.5, "hi": 0.5, "n": 5},
        "quadrature": XI30,
    })
    assert main(["halfwave", "--config", cfg]) == 3


def test_horizon_command_reports_threshold_crossing(tmp_path, capsys):
    cfg = write_config(tmp_path, "cfg.json", {
        "speed": {"kind": "affine", "offset": 1.0, "slope": 0.9},
        "horizon": {"t_max": 2.0, "dt": 0.05, "threshold": 0.5},
    })
    rc, payload = run_json(capsys, ["horizon", "--config", cfg])
    assert rc == 0
    horizon = payload["horizon"]
    assert horizon["hit_threshold"] is True
    # |G| = e^{-0.9 t} crosses 1/2 at t = ln(2)/0.9 = 0.770
    crossing = np.log(2.0) / 0.9
    assert crossing <= horizon["T_obs"] <= crossing + 0.05 + 1e-12


def test_shipped_horizon_margins_match_closed_form(capsys):
    # affine speed 1 + 0.9 x from x = 0: |G(t)| = exp(-0.9 t) on both branches;
    # the margins are taken at RK4 step endpoints, so they carry the O(h^4)
    # error of the scheme and not the O(h^3) undershoot of its stages
    rc, payload = run_json(capsys, ["horizon", "--config", str(CONFIG_DIR / "horizon.json")])
    assert rc == 0
    horizon = payload["horizon"]
    exact = np.exp(-0.9 * np.asarray(horizon["times"]))
    assert np.max(np.abs(np.asarray(horizon["margins"]) - exact)) < 1e-8
    assert horizon["T_obs"] == pytest.approx(0.6)


# ---------------------------------------------------------------------------
# Monte Carlo


def mc_config(**overrides):
    cfg = {
        "model": {"c0": 2.0, "s": 0.2, "alpha": 0.25},
        "test_function": {"family": "gaussian_bump", "block": "y"},
        "time": 0.3,
        "grid": {"lo": -1.0, "hi": 1.0, "n": 9},
        "mc": {"n_samples": 64, "base_seed": 5},
    }
    cfg.update(overrides)
    return cfg


def test_mc_reports_analytic_gap(tmp_path, capsys):
    cfg = write_config(tmp_path, "cfg.json", mc_config())
    rc, payload = run_json(capsys, ["mc", "--config", cfg])
    assert rc == 0
    body = payload["mc"]
    assert body["stats"]["n"] == 64
    assert body["analytic"]["max_deviation"] <= 4.0 * body["analytic"]["max_std_error"]


def test_mc_autocovariance_pairs_in_payload(tmp_path, capsys):
    cfg = write_config(tmp_path, "cfg.json", mc_config(
        mc={"n_samples": 64, "base_seed": 5, "autocov_pairs": [[4, 4], [0, 8]]}))
    rc, payload = run_json(capsys, ["mc", "--config", cfg])
    assert rc == 0
    stats = payload["mc"]["stats"]
    cov = stats["autocovariance"]
    assert cov["pairs"] == [[4, 4], [0, 8]]
    # diagonal entry is the variance at that grid point: n * std_error^2
    var4 = stats["n"] * stats["std_error"][4] ** 2
    assert cov["re"][0] == pytest.approx(var4)
    assert cov["im"][0] == pytest.approx(0.0, abs=1e-15)


def test_mc_rejects_bad_autocov_pairs(tmp_path, capsys):
    for bad in ([[0, 1, 2]], [[0, 99]], "nope", [["a", "b"]]):
        cfg = write_config(tmp_path, f"cfg_{hash(str(bad)) % 997}.json", mc_config(
            mc={"n_samples": 8, "autocov_pairs": bad}))
        rc, _ = run_json(capsys, ["mc", "--config", cfg])
        assert rc == 2


@pytest.mark.parametrize("n_samples", [0, -5])
def test_mc_fewer_than_one_sample_exits_2(tmp_path, capsys, n_samples):
    cfg = write_config(tmp_path, "cfg.json", mc_config(mc={"n_samples": n_samples}))
    assert main(["mc", "--config", cfg]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "n_samples" in captured.err


def test_mc_negative_seed_exits_2(capsys):
    assert main(["mc", "--config", str(CONFIG_DIR / "mc.json"), "--seed", "-1"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "base_seed" in captured.err


def test_mc_fio_manifest_reports_the_shared_plan(tmp_path, capsys):
    cfg = write_config(tmp_path, "cfg.json", mc_config(
        mc={"n_samples": 3, "base_seed": 5, "engine": "fio"}, quadrature=XI30))
    rc, payload = run_json(capsys, ["mc", "--config", cfg])
    assert rc == 0
    manifest = payload["manifest"]
    assert manifest["evaluation_path"] == "y_first"
    n_xi = sum(n for _lo, _hi, n, _n_y in manifest["bands"])
    n_xi_n_y = sum(n * n_y for _lo, _hi, n, n_y in manifest["bands"])
    assert manifest["evaluations"] == n_xi_n_y + 3 * 2 * 9 * n_xi
    assert manifest["timing"]["wall_time"] > 0
    # the translation engine has no plan to report, and no timing
    cfg = write_config(tmp_path, "translation.json", mc_config())
    rc, payload = run_json(capsys, ["mc", "--config", cfg])
    assert rc == 0
    assert not {"evaluation_path", "bands", "evaluations", "timing"} & set(payload["manifest"])


def test_mc_seed_override_changes_the_draws(tmp_path, capsys):
    cfg = write_config(tmp_path, "cfg.json", mc_config())
    _, p1 = run_json(capsys, ["mc", "--config", cfg, "--seed", "1"])
    _, p2 = run_json(capsys, ["mc", "--config", cfg, "--seed", "2"])
    _, p1_again = run_json(capsys, ["mc", "--config", cfg, "--seed", "1"])
    assert p1["mc"]["stats"]["mean_re"] != p2["mc"]["stats"]["mean_re"]
    assert p1 == p1_again
    assert p1["mc"]["base_seed"] == 1


# ---------------------------------------------------------------------------
# convergence study


@pytest.mark.parametrize("name",
                         sorted(p.stem for p in CONFIG_DIR.glob("*.json")))
def test_shipped_example_configs_run_clean(name, capsys):
    """Every config in configs/ runs its namesake command successfully."""
    path = CONFIG_DIR / f"{name}.json"
    rc, payload = run_json(capsys, [name, "--config", str(path)])
    assert rc == 0
    assert payload is not None and "manifest" in payload


def test_python_dash_m_runs_the_cli(tmp_path):
    out = tmp_path / "horizon.json"
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        p for p in (str(SRC_DIR), os.environ.get("PYTHONPATH")) if p)}
    proc = subprocess.run([sys.executable, "-m", "stochfio", "horizon", "--config",
                           str(CONFIG_DIR / "horizon.json"), "--out", str(out)],
                          env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(out.read_text())["horizon"]["T_obs"] == pytest.approx(0.6)


def test_converge_command_reports_decaying_errors(tmp_path, capsys):
    cfg = write_config(tmp_path, "cfg.json", apply_config(
        converge={"radii": [4.0, 8.0, 16.0, 32.0], "m_tilde": 2},
        quadrature={},
    ))
    rc, payload = run_json(capsys, ["converge", "--config", cfg])
    assert rc == 0
    study = payload["study"]
    assert study["bound_respected"] is True
    errors = study["errors"]
    assert all(b < a for a, b in zip(errors[:-1], errors[1:-1]))


@pytest.mark.parametrize("command,cfg,name", [
    ("converge", apply_config(converge={"slack": "abc"}), "converge"),
    ("converge", apply_config(converge={"radii": [4.0, "eight", 16.0]}), "converge"),
    ("converge", apply_config(converge={"m_tilde": "two"}), "converge"),
    ("mc", mc_config(mc={"n_samples": "many"}), "mc"),
    ("mc", mc_config(mc={"base_seed": "abc"}), "mc"),
    ("verify", apply_config(verify={"alpha": "abc"}), "verify"),
    ("verify", apply_config(verify={"m": "two"}), "verify"),
    ("apply", apply_config(operator={"alpha": "abc"}), "operator"),
    ("wave", apply_config(speed=2.0, time=float("nan")), "wave"),
    ("transport", apply_config(speed=1.0, time=float("inf")), "transport"),
    ("halfwave", apply_config(speed=1.0, time=float("inf")), "halfwave"),
    ("mc", mc_config(time=float("nan")), "mc"),
    ("converge", apply_config(converge={"radii": [0.0, 8.0, 16.0]}), "converge"),
    ("converge", apply_config(converge={"m_tilde": -1}), "converge"),
    ("verify", apply_config(verify={"alpha": 0.0}), "verify"),
    ("verify", apply_config(verify={"m": 0}), "verify"),
    ("apply", apply_config(test_function={"family": "gaussian_bump", "block": "x"}), "apply"),
    ("apply", apply_config(test_function=UNBOUNDED_Y), "apply"),
    ("converge", apply_config(test_function=UNBOUNDED_Y), "converge"),
    ("wave", apply_config(speed=2.0, time=True), "wave"),
    ("mc", mc_config(time=True), "mc"),
    ("mc", mc_config(mc={"n_samples": True}), "mc"),
    ("mc", mc_config(mc={"base_seed": False}), "mc"),
])
def test_nonsense_command_option_exits_2(tmp_path, capsys, command, cfg, name):
    path = write_config(tmp_path, "cfg.json", cfg)
    assert main([command, "--config", path]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"bad {name} option" in captured.err


@pytest.mark.parametrize("command,cfg,option", [
    ("converge", apply_config(converge={"m_tilde": True}), "m_tilde"),
    ("converge", apply_config(converge={"m_tilde": 1.9}), "m_tilde"),
    ("apply", apply_config(operator={"extra_decay": 1.5}), "extra_decay"),
    ("apply", apply_config(operator={"extra_decay": True}), "extra_decay"),
    ("verify", apply_config(verify={"m": 1.5}), "m"),
    ("verify", apply_config(verify={"m": True}), "m"),
    ("apply", apply_config(grid={"lo": -1.0, "hi": 1.0, "n": 8.5}), "n"),
    ("apply", apply_config(grid={"lo": -1.0, "hi": 1.0, "n": True}), "n"),
])
def test_integer_option_refuses_booleans_and_fractions(tmp_path, capsys, command, cfg,
                                                        option):
    path = write_config(tmp_path, "cfg.json", cfg)
    assert main([command, "--config", path]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"{option} must be an integer" in captured.err


WAVE_PHASE = {"family": "scaled_norm_phase", "speed": 2.0, "t": 0.2}


@pytest.mark.parametrize("command,cfg,what", [
    ("apply", apply_config(test_function={"family": "gaussian_bump", "block": "y",
                                          "center": 0.0, "width": True}), "test_function"),
    ("verify", apply_config(amplitude={"family": "gaussian_bump", "block": "xi",
                                       "center": 0.0, "width": True}), "amplitude"),
    ("verify", apply_config(phase={**WAVE_PHASE, "t": True}), "phase"),
    ("verify", apply_config(phase={**WAVE_PHASE, "speed": True}), "phase"),
    ("verify", apply_config(phase={**WAVE_PHASE, "sign": True}), "phase"),
    ("apply", apply_config(amplitude={"family": "scaled", "factor": True,
                                      "inner": {"family": "constant", "value": 1.0,
                                                "layout": [1, 1, 1]}}), "amplitude"),
])
def test_map_parameters_refuse_booleans(tmp_path, capsys, command, cfg, what):
    path = write_config(tmp_path, "cfg.json", cfg)
    assert main([command, "--config", path]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and f"bad {what} spec" in captured.err


@pytest.mark.parametrize("command", ["apply", "converge"])
def test_unbounded_test_function_error_names_a_config_remedy(tmp_path, capsys, command):
    path = write_config(tmp_path, "cfg.json", apply_config(test_function=UNBOUNDED_Y))
    assert main([command, "--config", path]) == 2
    err = capsys.readouterr().err
    assert "give the test function a support window" in err
    assert "gaussian_bump or mollifier_bump of y, or a product with one" in err
    assert "y_window" not in err


def test_parser_is_built_once_and_parses_each_call_afresh(tmp_path, capsys):
    assert _build_parser() is _build_parser()
    cfg = write_config(tmp_path, "cfg.json", mc_config())
    out = tmp_path / "seeded.json"
    assert main(["mc", "--config", cfg, "--seed", "3", "--out", str(out)]) == 0
    assert json.loads(out.read_text())["mc"]["base_seed"] == 3
    # the second call sets neither --seed nor --out: the config's seed, stdout
    rc, payload = run_json(capsys, ["mc", "--config", cfg])
    assert rc == 0 and payload["mc"]["base_seed"] == 5
    rc, payload = run_json(capsys, ["horizon", "--config", str(CONFIG_DIR / "horizon.json")])
    assert rc == 0 and payload["manifest"]["command"] == "horizon"


# ---------------------------------------------------------------------------
# determinism


def test_rerun_and_worker_count_leave_output_unchanged(tmp_path):
    cfg = write_config(tmp_path, "cfg.json", apply_config())
    payloads = []
    for tag, workers in (("a", None), ("b", None), ("c", "4")):
        out = tmp_path / f"{tag}.json"
        argv = ["apply", "--config", cfg, "--out", str(out)]
        if workers:
            argv += ["--workers", workers]
        assert main(argv) == 0
        payload = json.loads(out.read_text())
        payload["manifest"] = strip_timing(payload["manifest"])
        payloads.append(json.dumps(payload, sort_keys=True))
    assert payloads[0] == payloads[1] == payloads[2]


def test_converge_output_does_not_depend_on_the_worker_count(tmp_path):
    cfg = write_config(tmp_path, "cfg.json", apply_config(
        converge={"radii": [4.0, 8.0, 16.0]}, grid={"lo": -1.0, "hi": 1.0, "n": 5},
        quadrature={}))
    texts = []
    for workers in ("1", "2"):
        out = tmp_path / f"w{workers}.json"
        assert main(["converge", "--config", cfg, "--out", str(out),
                     "--workers", workers]) == 0
        payload = json.loads(out.read_text())
        payload["manifest"] = strip_timing(payload["manifest"])
        texts.append(json.dumps(payload, sort_keys=True))
    assert texts[0] == texts[1]


def test_wave_reruns_are_identical_after_strip_timing(tmp_path):
    cfg = write_config(tmp_path, "cfg.json", {
        "speed": 2.0,
        "test_function": {"family": "gaussian_bump", "block": "y"},
        "time": 0.2,
        "grid": {"lo": -1.0, "hi": 1.0, "n": 5},
        "quadrature": XI30,
    })
    payloads = []
    for tag in ("a", "b"):
        out = tmp_path / f"{tag}.json"
        assert main(["wave", "--config", cfg, "--out", str(out)]) == 0
        payload = json.loads(out.read_text())
        assert payload["manifest"]["timing"]["wall_time"] > 0
        payload["manifest"] = strip_timing(payload["manifest"])
        payloads.append(json.dumps(payload, sort_keys=True))
    assert payloads[0] == payloads[1]


def test_csv_reruns_are_byte_identical(tmp_path):
    cfg = write_config(tmp_path, "cfg.json", apply_config())
    outs = []
    for tag in ("a", "b"):
        out = tmp_path / f"{tag}.csv"
        assert main(["apply", "--config", cfg,
                     "--format", "csv", "--out", str(out)]) == 0
        outs.append(out.read_bytes())
    assert outs[0] == outs[1]
