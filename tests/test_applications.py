"""Flows, transport, eikonal phases and the wave solvers."""

import json
import math
from pathlib import Path

import numpy as np
import pytest

from _references import (
    characteristics_rk45,
    dalembert_gaussian,
    forward_flow_rk45,
    halfwave_gaussian_reference,
    point_table,
    pseudospectral_halfwave,
    restarted_horizon,
)
from stochfio.applications import (
    RegimeError,
    eikonal_phi,
    halfwave_phase,
    halfwave_solve,
    make_speed,
    regime_horizon,
    rk4_step_count,
    solve_characteristics,
    solve_flows,
    transport_phase,
    transport_solve,
    wave_solve,
)
from stochfio.jets import VarLayout, builtin_map
from stochfio.oscillatory import FioOperator, QuadratureConfig, apply
from stochfio.regularizer import CutoffChi, select_kappa
from stochfio.stochastic import (
    TruncatedSpeedModel,
    _damping_amplitude,
    expected_wave_analytic,
    expected_wave_field,
    map_values,
)
from stochfio.symbol_spaces import Amplitude, PhaseFunction

GAUSS = builtin_map("gaussian_bump", block="y", center=0.0, width=1.0)
UNIT_AMPLITUDE = Amplitude(builtin_map("constant", value=1.0, layout=VarLayout(1, 0, 1)))
FAST = QuadratureConfig(xi_radius=30.0)


def trig_speed():
    # c(x) = 1 + 0.5 sin x, bounded in [0.5, 1.5]
    return make_speed("trig_field", offset=1.0,
                      terms=[(0.5, 1.0, -math.pi / 2.0)])


def trig_c(x):
    return 1.0 + 0.5 * np.sin(x)


# ---------------------------------------------------------------------------
# speeds and characteristics


def test_make_speed_families_and_validation():
    assert map_values(make_speed("constant", value=2.0), 0.3, block="x") == 2.0
    aff = make_speed("affine", offset=1.0, slope=0.5)
    assert map_values(aff, 2.0, block="x") == pytest.approx(2.0)
    assert map_values(trig_speed(), math.pi / 2.0, block="x") == pytest.approx(1.5)
    with pytest.raises(ValueError):
        make_speed("parabolic", value=1.0)


def test_rk4_step_count_scales_with_tolerance():
    coarse = rk4_step_count(1.0, 1e-9)  # above the minimum-step floor
    fine = rk4_step_count(1.0, 1e-9 / 16.0)
    assert fine >= 2 * coarse - 2  # fourth-order: 16x tolerance = 2x steps


def test_characteristics_affine_speed_closed_form():
    # dz/ds = -(z + 1) gives gamma = (x + 1) exp(-t) - 1
    speed = make_speed("affine", offset=1.0, slope=1.0)
    xs = np.linspace(-0.5, 0.5, 7)
    series = solve_characteristics(speed, xs, 0.8, order=1)
    exact = (xs + 1.0) * math.exp(-0.8) - 1.0
    assert np.max(np.abs(series[0] - exact)) < 1e-9
    assert np.max(np.abs(series[1] - math.exp(-0.8))) < 1e-9


def test_characteristics_match_adaptive_integrator():
    xs = np.linspace(-1.0, 1.0, 9)
    series = solve_characteristics(trig_speed(), xs, 0.5)
    ref = characteristics_rk45(trig_c, xs, 0.5)
    assert np.max(np.abs(series[0] - ref)) < 1e-8


def test_characteristic_jets_match_finite_differences():
    xs = np.array([0.2])
    h = 1e-5
    series = solve_characteristics(trig_speed(), xs, 0.5, order=1)
    plus = solve_characteristics(trig_speed(), xs + h, 0.5)[0][0]
    minus = solve_characteristics(trig_speed(), xs - h, 0.5)[0][0]
    fd = (plus - minus) / (2 * h)
    assert float(series[1][0]) == pytest.approx(float(fd), rel=1e-6)


# ---------------------------------------------------------------------------
# bicharacteristic flows


def test_flows_constant_speed_exact():
    flow = solve_flows(make_speed("constant", value=2.0),
                       np.array([0.3, -0.4]), 0.7, 1)
    assert np.max(np.abs(flow.F[0] - (np.array([0.3, -0.4]) + 1.4))) < 1e-12
    assert np.max(np.abs(flow.G[0] - 1.0)) < 1e-12
    assert flow.in_regime


def test_flows_conserve_speed_momentum_product():
    xs = np.linspace(-1.0, 1.0, 9)
    for sigma in (1, -1):
        flow = solve_flows(trig_speed(), xs, 0.5, sigma)
        assert flow.conservation_residual < 1e-9
        ref = forward_flow_rk45(trig_c, xs, 0.5, sigma)
        assert np.max(np.abs(flow.F[0] - ref)) < 1e-8


def test_flow_variational_jets_match_finite_differences():
    x0, h = 0.2, 1e-5
    flow = solve_flows(trig_speed(), np.array([x0]), 0.6, 1, order=1)
    fp = solve_flows(trig_speed(), np.array([x0 + h]), 0.6, 1).F[0][0]
    fm = solve_flows(trig_speed(), np.array([x0 - h]), 0.6, 1).F[0][0]
    assert float(flow.F[1][0]) == pytest.approx((fp - fm) / (2 * h), rel=1e-6)


def test_flows_reject_bad_sigma():
    with pytest.raises(ValueError):
        solve_flows(trig_speed(), np.array([0.0]), 0.1, 2)


# ---------------------------------------------------------------------------
# eikonal phase


def test_eikonal_solves_the_equation():
    # c(F) = c(x) |d_x phi| is the conserved form of the eikonal equation
    out = eikonal_phi(trig_speed(), np.linspace(-0.8, 0.8, 7), 0.4, 1, order=1)
    F = out["flow"].F[0]
    grad = np.real(out["grad_x"])
    residual = np.abs(trig_c(F) - trig_c(np.linspace(-0.8, 0.8, 7)) * np.abs(grad))
    assert np.max(residual) < 1e-9


def test_eikonal_action_vanishes_in_regime():
    out = eikonal_phi(trig_speed(), np.array([0.1, 0.5]), 0.4, 1)
    assert np.max(np.abs(out["action"])) < 1e-12


def test_eikonal_constant_speed_closed_form():
    out = eikonal_phi(make_speed("constant", value=2.0), np.array([0.3]), 0.5, 1)
    # phi(x, t, sigma) = sigma x + c t at unit frequency
    assert float(np.real(np.asarray(out["phi"]).ravel()[0])) == pytest.approx(0.3 + 1.0, rel=1e-12)


def test_regime_horizon_monotone_margins():
    res = regime_horizon(trig_speed(), 0.3, 1.5, dt=0.1)
    margins = np.asarray(res["margins"])
    assert margins[0] > margins[-1]
    assert res["T_obs"] > 0.0
    steep = make_speed("affine", offset=1.0, slope=0.9)
    res2 = regime_horizon(steep, 0.0, 2.0, dt=0.05, threshold=0.5)
    assert res2["hit_threshold"]
    assert res2["T_obs"] < 2.0


# the affine speeds' margin exp(-|slope| t) sits half a scan step above the
# threshold at scan step 50, far above the RK4 error, so both scans must stop
# there
HIT_DT = 0.016
HIT_THRESHOLD = math.exp(-0.9 * (50 - 0.5) * HIT_DT)


@pytest.mark.parametrize("speed,x,threshold", [
    (make_speed("affine", offset=1.1, slope=0.9), 0.2, HIT_THRESHOLD),
    (make_speed("affine", offset=1.1, slope=-0.9), -0.3, HIT_THRESHOLD),
    (trig_speed(), np.array([-0.4, 0.3, 1.0]), 0.8),
])
def test_one_pass_horizon_stops_at_the_restarted_scan_step(speed, x, threshold):
    got = regime_horizon(speed, x, 1.0, dt=HIT_DT, threshold=threshold)
    ref = restarted_horizon(speed, x, 1.0, dt=HIT_DT, threshold=threshold)
    assert ref["hit_threshold"] and got["hit_threshold"]
    assert got["times"] == ref["times"]
    assert got["T_obs"] == ref["T_obs"]
    assert np.max(np.abs(np.subtract(got["margins"], ref["margins"]))) < 2e-6


@pytest.mark.parametrize("slope", [0.9, -0.9])
def test_one_pass_horizon_margins_match_closed_form(slope):
    speed = make_speed("affine", offset=1.1, slope=slope)
    got = regime_horizon(speed, 0.2, 1.0, dt=HIT_DT, threshold=HIT_THRESHOLD)
    assert len(got["times"]) == 50
    exact = np.exp(-abs(slope) * np.asarray(got["times"]))
    assert np.max(np.abs(np.asarray(got["margins"]) - exact)) < 5e-7


@pytest.mark.parametrize("kwargs", [
    {"t_max": 0.0}, {"t_max": -1.0}, {"t_max": math.nan}, {"t_max": math.inf},
    {"t_max": 1.0, "threshold": math.nan}, {"t_max": 1.0, "threshold": -math.inf},
])
def test_regime_horizon_rejects_nonsense_spans(kwargs):
    with pytest.raises(ValueError):
        regime_horizon(trig_speed(), 0.0, **kwargs)


# ---------------------------------------------------------------------------
# transport solver


@pytest.mark.parametrize("speed,c_fn,t", [
    (make_speed("constant", value=1.0), lambda x: np.ones_like(x), 0.5),
    ("trig", trig_c, 0.2),
    ("trig", trig_c, 0.5),
])
def test_transport_matches_independent_characteristics(speed, c_fn, t):
    if speed == "trig":
        speed = trig_speed()
    xs = np.linspace(-1.0, 1.0, 7)
    field = transport_solve(speed, GAUSS, t, xs, config=FAST)
    gamma = characteristics_rk45(c_fn, xs, t)
    assert np.max(np.abs(field.value - np.exp(-gamma ** 2))) < 1e-6


# ---------------------------------------------------------------------------
# half-wave parametrix


def test_halfwave_constant_speed_matches_fourier_group():
    xs = np.linspace(-1.2, 1.2, 7)
    field = halfwave_solve(make_speed("constant", value=1.0), GAUSS, 0.3, xs,
                           config=FAST)
    ref = halfwave_gaussian_reference(1.0, 0.3, xs, symbol="abs")
    assert np.max(np.abs(field.value - ref)) < 1e-6


def test_halfwave_meta_reports_the_flow_margin():
    xs = np.linspace(-1.0, 1.0, 5)
    config = QuadratureConfig(xi_radius=8.0)
    field = halfwave_solve(trig_speed(), GAUSS, 0.2, xs, config=config)
    grid_margin = min(solve_flows(trig_speed(), xs, 0.2, s, tol=1e-10).min_abs_G
                      for s in (1, -1))
    # the grid's flows are among those the run integrated
    assert field.meta["min_abs_G"] <= grid_margin
    assert field.meta["min_abs_G"] == pytest.approx(grid_margin, abs=1e-2)
    constant = halfwave_solve(make_speed("constant", value=1.0), GAUSS, 0.2, xs,
                              config=config)
    assert constant.meta["min_abs_G"] == 1.0


def test_halfwave_phase_rejects_out_of_regime_flows():
    steep = make_speed("affine", offset=1.0, slope=0.9)
    phase = halfwave_phase(steep, 1.0)
    with pytest.raises(RegimeError):
        point_table(phase.map, ((0.0,), (0.0,), (1.0,)), 1)


def test_halfwave_variable_speed_against_pseudospectral_solve():
    # the unit-amplitude parametrix solves u_t = i c(x) P(D) u up to an
    # O(t) remainder; check the gap against a periodic spectral solve and
    # that it scales linearly in time
    xg, _ = pseudospectral_halfwave(trig_c, 0.0)
    idx = [int(np.argmin(np.abs(xg - v))) for v in (-0.9, -0.45, 0.0, 0.45, 0.9)]
    xs = xg[idx]
    gaps = []
    for t in (0.1, 0.2):
        field = halfwave_solve(trig_speed(), GAUSS, t, xs, config=FAST)
        ref = pseudospectral_halfwave(trig_c, t)[1][idx]
        gaps.append(np.max(np.abs(field.value - ref)))
    assert gaps[0] < 1e-2
    assert gaps[1] < 2e-2
    assert gaps[1] / gaps[0] < 3.0  # first-order in t, not worse


# ---------------------------------------------------------------------------
# full wave evolution


def test_wave_constant_speed_dalembert():
    xs = np.linspace(-1.0, 1.0, 7)
    field = wave_solve(make_speed("constant", value=2.0), GAUSS, 0.2, xs,
                       config=FAST)
    ref = dalembert_gaussian(2.0, 0.2, xs)
    assert np.max(np.abs(field.value - ref)) < 1e-6


def test_wave_amplitude_scaling():
    xs = np.array([0.0, 0.4])
    half = wave_solve(make_speed("constant", value=1.0), GAUSS, 0.3, xs,
                      config=FAST)
    full = wave_solve(make_speed("constant", value=1.0), GAUSS, 0.3, xs,
                      amplitude_value=1.0, config=FAST)
    assert np.max(np.abs(full.value - 2.0 * half.value)) < 1e-7


# ---------------------------------------------------------------------------
# y-first evaluation: every solver phase is in the standard form
# phi(x, xi) - y xi, so the solvers sum u_hat(xi) once instead of running
# the L^kappa ladder at every node

Y_FIRST = QuadratureConfig(xi_radius=20.0)
XS_Y = np.linspace(-1.0, 1.0, 9)
GAUSS_OFF = builtin_map("gaussian_bump", block="y", center=0.1, width=0.6)


def _y_first_closed_form_cases():
    model = TruncatedSpeedModel(2.0, 0.2)
    one = make_speed("constant", value=1.0)
    return {
        "transport_constant": (
            lambda: transport_solve(one, GAUSS, 0.5, XS_Y, config=Y_FIRST),
            lambda: np.exp(-characteristics_rk45(np.ones_like, XS_Y, 0.5) ** 2), 0.0),
        "transport_trig": (
            lambda: transport_solve(trig_speed(), GAUSS, 0.5, XS_Y, config=Y_FIRST),
            lambda: np.exp(-characteristics_rk45(trig_c, XS_Y, 0.5) ** 2), 0.0),
        "wave": (
            lambda: wave_solve(make_speed("constant", value=2.0), GAUSS, 0.2, XS_Y,
                               config=Y_FIRST),
            lambda: dalembert_gaussian(2.0, 0.2, XS_Y), 0.0),
        "halfwave": (
            lambda: halfwave_solve(one, GAUSS, 0.3, XS_Y, config=Y_FIRST),
            lambda: halfwave_gaussian_reference(1.0, 0.3, XS_Y, symbol="abs"), 0.0),
        # the expected operator averages over the untruncated normal speed,
        # as the closed form does; the truncated model differs by its mass
        "expected_wave": (
            lambda: expected_wave_field(model, GAUSS, 0.3, XS_Y, config=Y_FIRST),
            lambda: expected_wave_analytic(model, 0.3, XS_Y), model.truncation_mass),
    }


@pytest.mark.parametrize("case", list(_y_first_closed_form_cases()))
def test_y_first_solvers_match_closed_forms(case):
    # at radius 20 the tail of |u_hat| for a unit gaussian is below 1e-40, so
    # what is left is the quadrature's rounding (measured 8e-13 to 7.4e-12)
    solve, exact, mass = _y_first_closed_form_cases()[case]
    field = solve()
    assert field.meta["evaluation_path"] == "y_first"
    assert field.meta["kappa"] == 0
    assert np.max(np.abs(field.value - exact())) < 1e-10 + mass


def _l_kappa_counterparts():
    """Each routed solver, and the same operators through the L^kappa
    ``apply``, on the solver's x columns."""
    config = QuadratureConfig(xi_radius=40.0)
    xs = XS_Y[::2]

    def l_kappa(phase, amp, cols):
        op = FioOperator(phase, amp, CutoffChi(), select_kappa(0.0, 1.0, 0.0), config)
        return apply(op, GAUSS_OFF, cols).value

    def branches(speed, amp, t):
        return sum(l_kappa(PhaseFunction(builtin_map("scaled_norm_phase", speed=speed,
                                                     t=t, sign=s)), amp, xs)
                   for s in (1, -1))

    affine = make_speed("affine", offset=1.5, slope=0.2)
    half = Amplitude(builtin_map("constant", value=0.5, layout=VarLayout(1, 0, 1)))
    model = TruncatedSpeedModel(2.0, 0.2)
    return {
        "transport": (
            lambda: transport_solve(trig_speed(), GAUSS_OFF, 0.5, xs, config=config),
            lambda: l_kappa(transport_phase(trig_speed(), 0.5), UNIT_AMPLITUDE, xs)),
        "halfwave": (
            lambda: halfwave_solve(trig_speed(), GAUSS_OFF, 0.2, xs, config=config),
            lambda: l_kappa(halfwave_phase(trig_speed(), 0.2), UNIT_AMPLITUDE, xs)),
        "wave": (lambda: wave_solve(affine, GAUSS_OFF, 0.4, xs, config=config),
                 lambda: branches(affine, half, 0.4)),
        "expected_wave": (
            lambda: expected_wave_field(model, GAUSS_OFF, 0.3, xs, config=config),
            lambda: branches(model.c0, _damping_amplitude(model.s, 0.3), 0.3)),
    }


@pytest.mark.parametrize("case", list(_l_kappa_counterparts()))
def test_y_first_solvers_match_the_l_kappa_engine_at_radius_40(case):
    # the L^kappa engine errs by 1e-11 to 2e-11 at radius 40 against the
    # closed forms, the y-first sum by under 1e-11; measured gaps 9.3e-12 to
    # 1.6e-11
    solve, l_kappa = _l_kappa_counterparts()[case]
    assert np.max(np.abs(solve().value - l_kappa())) < 1e-10


def _wave_rate_cases():
    """(speed, u0, t, x points, config) of ``configs/wave.json``, the
    expected-wave-field tests, a bench-style fio Monte Carlo plan at the top
    speed 2 c0 - alpha, and an affine speed."""
    with open(Path(__file__).resolve().parents[1] / "configs" / "wave.json",
              encoding="utf-8") as fh:
        wave = json.load(fh)
    grid = wave["grid"]
    fio = TruncatedSpeedModel(2.013, 0.1987)
    return {
        "wave.json": (wave["speed"], builtin_map(**wave["test_function"]), wave["time"],
                      np.linspace(grid["lo"], grid["hi"], grid["n"]),
                      QuadratureConfig(**wave["quadrature"])),
        "expected_wave": (2.0, GAUSS, 0.3, np.linspace(-2.0, 2.0, 17),
                          QuadratureConfig(xi_radius=30.0)),
        "bench_fio": (fio.c0 + fio.s * fio.bound,
                      builtin_map("gaussian_bump", block="y", center=0.013, width=0.4004),
                      0.3021, np.linspace(-1.0, 1.0, 5), QuadratureConfig(xi_radius=24.0)),
        "affine": (make_speed("affine", offset=1.5, slope=0.2), GAUSS, 0.4,
                   np.array([-0.8, -0.3, 0.0, 0.4, 0.9]), QuadratureConfig(xi_radius=16.0)),
    }


@pytest.mark.parametrize("case", list(_wave_rate_cases()))
def test_closed_form_wave_rates_equal_the_probe(case):
    from stochfio.applications import _wave_plan
    from stochfio.oscillatory import _plan_nodes, _probe_rates
    from stochfio.regularizer import CutoffChi

    speed, u0, t, xs, config = _wave_rate_cases()[case]
    amp = Amplitude(builtin_map("constant", value=0.5, layout=VarLayout(0, 0, 1)))
    plan = _wave_plan((speed,), amp, u0, t, xs, config)
    window = plan.meta["y_window"]
    d_xi, d_y = map(max, zip(*(
        _probe_rates(PhaseFunction(builtin_map("scaled_norm_phase", speed=speed, t=t,
                                               sign=s)), xs, window)
        for s in (1, -1))))
    rates = plan.meta["rates"]
    assert abs(rates["d_xi"] - d_xi) <= np.spacing(d_xi)
    assert rates["d_y"] == d_y == 1.0
    bands, _ = _plan_nodes(None, CutoffChi(), config, xs, window, 0, rates=(d_xi, d_y))
    assert plan.meta["bands"] == [(lo, hi, xn.size, yn.size)
                                  for lo, hi, xn, _xw, yn, _yw in bands]
    assert np.array_equal(plan.xi, np.concatenate([xn for _lo, _hi, xn, *_ in bands]))


@pytest.mark.parametrize("solver", ["transport", "halfwave"])
def test_closed_form_solver_rates_equal_the_probe(solver):
    # d_xi = max |z - y| over the probe's x samples is taken at the ends of
    # the y window, where the probe of the phase xi (z - y) finds it too
    from stochfio.oscillatory import _probe_rates

    solve, phase = {"transport": (transport_solve, transport_phase),
                    "halfwave": (halfwave_solve, halfwave_phase)}[solver]
    field = solve(trig_speed(), GAUSS_OFF, 0.4, XS_Y, config=Y_FIRST)
    d_xi, d_y = _probe_rates(phase(trig_speed(), 0.4), XS_Y, field.meta["y_window"])
    assert field.meta["rates"] == {"d_xi": d_xi, "d_y": d_y}
