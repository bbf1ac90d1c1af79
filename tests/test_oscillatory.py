"""Quadrature engine: applies, oscillatory integrals and tail convergence."""

import json
import math
import re
from dataclasses import replace

import numpy as np
import pytest

from _references import fourier_pair_value
from stochfio import oscillatory
from stochfio.cli import main
from stochfio.jets import VarLayout, builtin_map
from stochfio.oscillatory import (
    FioOperator,
    QuadratureConfig,
    ToleranceError,
    convergence_study,
    oscillatory_integral,
    _gl_rule,
    _worker_slices,
)
from stochfio.regularizer import CutoffChi
from stochfio.symbol_spaces import Amplitude, PhaseFunction

XS = np.array([-0.8, -0.3, 0.0, 0.4, 0.9])


def translation_phase():
    return PhaseFunction(builtin_map("linear_phase"))


def unit_amplitude():
    return Amplitude(builtin_map("constant", value=1.0, layout=VarLayout(1, 1, 1)))


def gaussian(center=0.0, width=1.0, block="y"):
    return builtin_map("gaussian_bump", block=block, center=center, width=width)


def build_identity(extra_decay=0, config=None):
    return FioOperator.build(translation_phase(), unit_amplitude(),
                             extra_decay=extra_decay, config=config)


# ---------------------------------------------------------------------------
# absolutely convergent reference: the Fourier pair integral


def test_oscillatory_integral_fourier_pair():
    # integral of exp(-i y xi) exp(-y^2) dy dxi = 2 pi (plain dxi measure)
    phase = PhaseFunction(builtin_map("scaled", factor=-1.0,
                                      inner=builtin_map("product", factors=[
                                          builtin_map("coordinate", block="y"),
                                          builtin_map("coordinate", block="xi"),
                                      ])))
    val = oscillatory_integral(phase, Amplitude(gaussian()))
    assert val == pytest.approx(2.0 * math.pi, abs=1e-7)


def test_oscillatory_integral_reports_unreachable_tolerance():
    phase = PhaseFunction(builtin_map("scaled", factor=-1.0,
                                      inner=builtin_map("product", factors=[
                                          builtin_map("coordinate", block="y"),
                                          builtin_map("coordinate", block="xi"),
                                      ])))
    config = QuadratureConfig(xi_radius=5.0, abs_tol=1e-14, max_refinements=0)
    with pytest.raises(ToleranceError) as err:
        oscillatory_integral(phase, Amplitude(gaussian()), config=config)
    assert err.value.achieved > 1e-14


# ---------------------------------------------------------------------------
# identity operator


def test_identity_operator_reproduces_gaussians():
    op = build_identity()
    for u, exact in [
        (gaussian(), lambda x: np.exp(-x ** 2)),
        (gaussian(center=0.3, width=0.7),
         lambda x: np.exp(-((x - 0.3) / 0.7) ** 2)),
        (builtin_map("product", factors=[
            gaussian(width=1.2),
            builtin_map("trig_polynomial", block="y", terms=[(1.0, 2.0, 0.5)]),
        ]), lambda x: np.exp(-(x / 1.2) ** 2) * np.cos(2.0 * x + 0.5)),
    ]:
        field = op.apply(u, XS)
        assert np.max(np.abs(field.value - exact(XS))) < 1e-6


def test_identity_operator_output_jets():
    op = build_identity()
    field = op.apply(gaussian(), XS, out_order=2)
    x = XS
    g = np.exp(-x ** 2)
    assert np.max(np.abs(field.values[(1,)] + 2 * x * g)) < 1e-5
    assert np.max(np.abs(field.values[(2,)] - (4 * x ** 2 - 2) * g)) < 1e-4
    assert field.meta["nodes"] > 0
    assert field.meta["kappa"] == 2


def test_regularization_depth_does_not_change_the_value():
    fields = [build_identity(extra_decay=e).apply(gaussian(), XS).value
              for e in (0, 1, 2)]
    for i in range(len(fields)):
        for j in range(i + 1, len(fields)):
            assert np.max(np.abs(fields[i] - fields[j])) < 2e-6


def test_engine_is_deterministic_across_worker_counts():
    op = build_identity()
    one = op.apply(gaussian(), XS, workers=1)
    two = op.apply(gaussian(), XS, workers=2)
    assert np.array_equal(one.value, two.value)


@pytest.mark.parametrize("workers", [0, -3])
def test_apply_refuses_fewer_than_one_worker(workers):
    with pytest.raises(ValueError, match=f"workers must be at least 1, got {workers}"):
        build_identity().apply(gaussian(), XS, workers=workers)


def test_chunk_counts_cover_the_bands_at_every_worker_count(monkeypatch):
    # the mirrored run evaluates the xi > 0 half-line only, the two-sided both
    mirrored = build_identity(config=QuadratureConfig(xi_radius=8.0, max_chunk_elements=4096))
    two_sided = replace(mirrored, phase=PhaseFunction(
        replace(mirrored.phase.map, xi_reflection=None)))
    evaluate = oscillatory._regularized_tables
    contract = oscillatory._word_sums
    for op, sides in ((mirrored, 1), (two_sided, 2)):
        chunk_sizes = []
        unit_sphere_chunks = []

        def counted(phase, amp, psi, chi, kappa, coords, out_order):
            chunk_sizes.append(coords.xi[0].size)
            return evaluate(phase, amp, psi, chi, kappa, coords, out_order)

        def counted_words(ladder, words, coeffs, rho, nodes):
            # a chunk summed from the word tables on the unit sphere
            chunk_sizes.append(nodes.stop - nodes.start)
            unit_sphere_chunks.append(nodes.stop - nodes.start)
            return contract(ladder, words, coeffs, rho, nodes)

        monkeypatch.setattr(oscillatory, "_regularized_tables", counted)
        monkeypatch.setattr(oscillatory, "_word_sums", counted_words)
        one = op.apply(gaussian(), XS, workers=1)
        monkeypatch.undo()
        meta = one.meta
        assert meta["unit_sphere_nodes"] == sum(unit_sphere_chunks) == meta["nodes"] > 0
        assert meta["xi_reflected"] == (sides == 1)
        assert meta["chunk_nodes"] == 4096 // XS.size
        assert len(meta["band_chunks"]) == len(meta["bands"])
        assert sum(meta["band_chunks"]) == len(chunk_sizes)
        assert max(chunk_sizes) == meta["chunk_nodes"]
        assert meta["nodes"] == sum(chunk_sizes)
        start = 0
        for (_lo, _hi, n_xi, n_y), count in zip(meta["bands"], meta["band_chunks"]):
            assert sum(chunk_sizes[start:start + count]) == sides * n_xi * n_y
            start += count
        two = op.apply(gaussian(), XS, workers=2)
        for key in ("chunk_nodes", "band_chunks", "bands", "nodes", "xi_reflected",
                    "band_contributions", "unit_sphere_nodes"):
            assert two.meta[key] == meta[key]


def _transport_kappa4():
    from stochfio.applications import make_speed, transport_phase

    phase = transport_phase(make_speed("affine", offset=1.0, slope=0.5), 0.3)
    return lambda config: FioOperator.build(phase, unit_amplitude(), alpha=None,
                                            extra_decay=2, config=config)


@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize("kind", ["identity", "transport kappa 4"])
def test_apply_does_not_depend_on_the_chunk_size(kind, workers):
    build = (lambda config: build_identity(config=config)) if kind == "identity" \
        else _transport_kappa4()
    sizes = (4096, 16384, 262144)
    ops = [build(QuadratureConfig(xi_radius=8.0, max_chunk_elements=elements))
           for elements in sizes]
    fields = [op.apply(gaussian(), XS, out_order=2, workers=workers) for op in ops]
    # a chunk holds (points) x (nodes) entries for each of the 3 x keys
    assert [f.meta["chunk_nodes"] for f in fields] == [e // (XS.size * 3) for e in sizes]
    if kind == "identity":
        # the identity operator is mirrored: one half-line, half the chunks of two
        assert [sum(f.meta["band_chunks"]) for f in fields] == [90, 24, 4]
    else:
        assert fields[0].meta["kappa"] == 4
        assert fields[0].meta["unit_sphere_nodes"] == fields[0].meta["nodes"]
    if workers > 1:  # the split over the x points changes no bit
        for op, field in zip(ops, fields):
            serial = op.apply(gaussian(), XS, out_order=2)
            for key, ref in serial.values.items():
                assert np.array_equal(field.values[key], ref), key
    for other in fields[1:]:
        for key, ref in fields[0].values.items():
            assert np.max(np.abs(other.values[key] - ref)) <= 1e-13 * np.max(np.abs(ref))


def test_worker_slices_cap_processes_at_cpus_and_points():
    # slice arithmetic only: no process is started here
    assert _worker_slices(100, 1000, 2) == [slice(0, 50), slice(50, 100)]
    assert len(_worker_slices(3, 8, 64)) == 3
    assert _worker_slices(10, 4, None) == [slice(0, 10)]
    assert _worker_slices(1, 4, 4) == [slice(0, 1)]
    cover = _worker_slices(17, 5, 8)
    assert len(cover) == 5
    assert [i for sl in cover for i in range(sl.start, sl.stop)] == list(range(17))


@pytest.mark.parametrize("option", [
    {"xi_radius": 0.0}, {"xi_radius": -4.0}, {"nodes_per_panel": 0},
    {"y_panel_max_width": 0.0}, {"y_panel_max_width": -0.5},
    {"osc_nodes_budget": math.nan}, {"osc_nodes_budget": 0.0},
    {"max_chunk_elements": 0}, {"max_refinements": -1}, {"xi_radius": math.nan},
    {"xi_radius": math.inf},
])
def test_quadrature_config_rejects_nonsense(option):
    with pytest.raises(ValueError):
        QuadratureConfig(**option)


@pytest.mark.parametrize("name", ["xi_panel_max_width", "transition_panel_width"])
def test_retired_panel_widths_are_unknown_options(name, tmp_path, capsys):
    # the graded transition and the oscillation budget replaced both widths
    with pytest.raises(TypeError):
        QuadratureConfig(**{name: 0.5})
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({
        "schema_version": 1, "phase": {"family": "linear_phase"},
        "amplitude": {"family": "constant", "value": 1.0, "layout": [1, 1, 1]},
        "test_function": {"family": "gaussian_bump", "block": "y", "center": 0.0,
                          "width": 1.0},
        "grid": {"lo": -1.0, "hi": 1.0, "n": 3}, "quadrature": {name: 0.5}}))
    assert main(["apply", "--config", str(cfg)]) == 2
    assert "unknown quadrature options" in capsys.readouterr().err


def test_gauss_legendre_rule_is_cached_and_read_only():
    x, w = _gl_rule(12)
    assert _gl_rule(12)[0] is x
    assert not x.flags.writeable and not w.flags.writeable
    assert w.sum() == pytest.approx(2.0, abs=1e-14)


def test_y_window_override_matches_default():
    op = build_identity()
    base = op.apply(gaussian(), XS)
    from stochfio.oscillatory import apply as apply_fn
    windowed = apply_fn(op, gaussian(), XS, y_window=(-8.0, 8.0))
    assert np.max(np.abs(base.value - windowed.value)) < 1e-7


# ---------------------------------------------------------------------------
# frequency-dependent amplitudes against dense Fourier quadrature


def test_bracket_amplitude_matches_fourier_reference():
    amp = Amplitude(builtin_map("bracket_power", exponent=1.0), d=1.0)
    op = FioOperator.build(translation_phase(), amp)
    field = op.apply(gaussian(), XS)
    ref = fourier_pair_value(lambda xi: np.sqrt(1.0 + xi ** 2), XS)
    assert np.max(np.abs(field.value - ref)) < 1e-6
    assert field.meta["kappa"] == 3


def test_rough_oscillating_amplitude_matches_fourier_reference():
    amp = Amplitude(builtin_map("sqrt_cos_symbol", omega=2.0), d=0.0, rho=0.5)
    op = FioOperator.build(translation_phase(), amp)
    field = op.apply(gaussian(), np.array([0.0, 0.5]))
    ref = fourier_pair_value(
        lambda xi: np.cos(2.0 * (1.0 + xi ** 2) ** 0.25), np.array([0.0, 0.5]))
    assert np.max(np.abs(field.value - ref)) < 1e-6
    assert field.meta["kappa"] == 4


# ---------------------------------------------------------------------------
# multiplication-operator amplitudes: exact closed forms


def mult_factor(center=0.4, width=1.3):
    return gaussian(center=center, width=width)


def test_y_amplitude_acts_as_multiplication():
    amp = Amplitude(mult_factor())
    op = FioOperator.build(translation_phase(), amp)
    field = op.apply(gaussian(), XS)
    exact = np.exp(-((XS - 0.4) / 1.3) ** 2) * np.exp(-XS ** 2)
    assert np.max(np.abs(field.value - exact)) < 1e-6


def test_x_amplitude_acts_as_multiplication():
    amp = Amplitude(gaussian(center=-0.2, width=0.9, block="x"))
    op = FioOperator.build(translation_phase(), amp)
    field = op.apply(gaussian(), XS)
    exact = np.exp(-((XS + 0.2) / 0.9) ** 2) * np.exp(-XS ** 2)
    assert np.max(np.abs(field.value - exact)) < 1e-6


def test_x_dependent_smoothing_amplitude_applies_g_times_bracket():
    # For a(x, xi) = g(x) <xi>:  A u = g * (<D> u), checked against a dense
    # Fourier reference.
    c1, w1 = 0.4, 1.3
    amp = Amplitude(builtin_map("product", factors=[
        gaussian(center=c1, width=w1, block="x"),
        builtin_map("bracket_power", exponent=1.0),
    ]), d=1.0)
    op = FioOperator.build(translation_phase(), amp)
    pts = np.array([-0.6, 0.0, 0.7])
    bracket = lambda xi: np.sqrt(1.0 + xi ** 2)

    forward = op.apply(gaussian(), pts).value
    ref_fwd = np.exp(-((pts - c1) / w1) ** 2) * fourier_pair_value(bracket, pts)
    assert np.max(np.abs(forward - ref_fwd)) < 1e-6


# ---------------------------------------------------------------------------
# engine guards and plumbing


def test_engine_rejects_multidimensional_y():
    with pytest.raises(TypeError):
        builtin_map("linear_phase", n=2)
    with pytest.raises(ValueError, match="at most one coordinate"):
        builtin_map("constant", value=0.0, layout=VarLayout(2, 2, 2))
    # a phase without y is refused when applied
    phase = PhaseFunction(builtin_map("bracket_power", exponent=1.0))
    amp = Amplitude(builtin_map("constant", value=1.0, layout=VarLayout(0, 0, 1)))
    op = FioOperator.build(phase, amp, alpha=None)
    with pytest.raises(ValueError, match="y and xi"):
        op.apply(builtin_map("gaussian_bump", block="y", center=0.0, width=1.0), XS)


def test_engine_takes_one_x_coordinate():
    with pytest.raises(ValueError, match="at most one coordinate"):
        builtin_map("constant", value=0.0, layout=VarLayout(2, 1, 1))
    op = FioOperator.build(translation_phase(), unit_amplitude(), alpha=None)
    for points in (XS[:, None], (XS,), np.stack([XS, XS], axis=1)):
        with pytest.raises(ValueError, match="1-d array"):
            op.apply(gaussian(), points)


def test_build_refuses_two_x_coordinates_before_the_membership_scan(monkeypatch):
    def scan(*args, **kwargs):
        raise AssertionError("membership scan ran on a layout apply refuses")

    monkeypatch.setattr(oscillatory, "check_alpha_membership", scan)
    # two x coordinates are refused when the map is built
    with pytest.raises(ValueError, match="at most one coordinate"):
        builtin_map("sum", terms=[
            builtin_map("linear_phase"),
            builtin_map("constant", value=0.0, layout=VarLayout(2, 1, 1))])
    # a layout the map accepts but apply refuses fails before the scan
    no_y = builtin_map("bracket_power", exponent=1.0)
    assert no_y.layout == VarLayout(0, 0, 1)
    amp = builtin_map("constant", value=1.0, layout=VarLayout(0, 0, 1))
    with pytest.raises(ValueError, match="y and xi"):
        FioOperator.build(no_y, amp, alpha=0.25)


def test_build_rejects_degenerate_phase():
    bad = PhaseFunction(builtin_map("product", factors=[
        builtin_map("sum", terms=[
            gaussian(block="x", width=np.sqrt(0.5)),
            builtin_map("scaled", factor=-1.0,
                        inner=builtin_map("coordinate", block="y")),
        ]),
        builtin_map("coordinate", block="xi"),
    ]))
    with pytest.raises(ValueError, match="nondegeneracy|membership"):
        FioOperator.build(bad, unit_amplitude(), alpha=0.25)


def test_refined_config_scales_radius_and_panels():
    config = QuadratureConfig(xi_radius=10.0, y_panel_max_width=0.8, osc_nodes_budget=1.2)
    fine = config.refined(2)
    assert fine.xi_radius == pytest.approx(40.0)
    assert fine.y_panel_max_width == pytest.approx(0.2)
    assert fine.osc_nodes_budget == pytest.approx(0.3)


# ---------------------------------------------------------------------------
# tail convergence


def test_convergence_study_respects_guaranteed_envelope():
    report = convergence_study(translation_phase(), unit_amplitude(),
                               gaussian(), np.array([-0.3, 0.0, 0.4]),
                               m_tilde=2, radii=(4.0, 8.0, 16.0, 32.0))
    errs = np.asarray(report.errors[:-1])  # last is the self-reference zero
    assert np.all(np.diff(errs) < 0)
    assert report.bound_respected(slack=2.0)
    assert report.guaranteed_rate < 0
    assert report.fitted_rate < 0


# ---------------------------------------------------------------------------
# mirrored half-line: a run that evaluates xi > 0 alone equals a two-sided run

MIRROR_CONFIG = QuadratureConfig(xi_radius=16.0)


def _two_sided(m):
    return replace(m, xi_reflection=None)


def _two_sided_op(op):
    return replace(op, phase=PhaseFunction(_two_sided(op.phase.map)))


def _assert_same_field(mirrored, full, nodes_ratio=2):
    assert mirrored.meta["xi_reflected"] and not full.meta["xi_reflected"]
    assert nodes_ratio * mirrored.meta["nodes"] == full.meta["nodes"]
    assert mirrored.values.keys() == full.values.keys()
    for key, ref in full.values.items():
        assert np.max(np.abs(mirrored.values[key] - ref)) <= 1e-13 * np.max(np.abs(ref)), key


@pytest.mark.parametrize("extra_decay", [0, 2])  # kappa 2 and 4
@pytest.mark.parametrize("phase_kind", ["linear", "transport"])
def test_mirrored_apply_equals_two_sided_apply(phase_kind, extra_decay):
    from stochfio.applications import make_speed, transport_phase

    phase = translation_phase() if phase_kind == "linear" else \
        transport_phase(make_speed("affine", offset=1.0, slope=0.5), 0.3)
    op = FioOperator.build(phase, unit_amplitude(), alpha=None, extra_decay=extra_decay,
                           config=MIRROR_CONFIG)
    assert op.plan.kappa == 2 + extra_decay
    u = gaussian(center=0.1, width=0.6)
    _assert_same_field(op.apply(u, XS, out_order=2),
                       _two_sided_op(op).apply(u, XS, out_order=2))


def test_mirrored_apply_of_an_x_dependent_amplitude_equals_two_sided_apply():
    amp = Amplitude(builtin_map("trig_polynomial", block="x", terms=[(0.5, 1.0, 0.2)],
                                offset=1.0))
    op = FioOperator.build(translation_phase(), amp, alpha=None, config=MIRROR_CONFIG)
    v = gaussian(width=0.8)
    _assert_same_field(op.apply(v, XS, out_order=1),
                       _two_sided_op(op).apply(v, XS, out_order=1))


def test_apply_of_a_phase_without_x_is_constant_on_the_x_column():
    # -y xi tables as a phase constant in x: one value on every point, and
    # the x derivative of exact zeros
    phase = PhaseFunction(builtin_map("scaled", factor=-1.0, inner=builtin_map(
        "product", factors=[builtin_map("coordinate", block="y"),
                            builtin_map("coordinate", block="xi")])))
    amp = Amplitude(builtin_map("constant", value=1.0, layout=VarLayout(0, 1, 1)))
    op = FioOperator.build(phase, amp, alpha=None)
    field = op.apply(gaussian(), XS, out_order=1)
    assert set(field.values) == {(0,), (1,)}
    assert np.all(field.value == field.value[0])
    assert abs(field.value[0] - 1.0) < 1e-6
    assert field.values[(1,)].shape == XS.shape
    assert np.all(field.values[(1,)] == 0.0)
    # the x-free tables are chunked and reduced as one point, whatever the
    # point count: the one-point value on every point, bit for bit
    one = op.apply(gaussian(), XS[:1])
    many = op.apply(gaussian(), np.linspace(-1.0, 1.0, 33))
    assert np.all(many.value == one.value[0])
    for key in ("band_chunks", "chunk_nodes"):
        assert many.meta[key] == one.meta[key] == field.meta[key], key


def test_mirrored_oscillatory_integral_equals_two_sided_run(monkeypatch):
    # -y xi is odd: the y coordinate is real and free of xi, so the product
    # of the y and xi coordinates is declared odd, and -1 times it too
    minus_y_xi = builtin_map("scaled", factor=-1.0, inner=builtin_map("product", factors=[
        builtin_map("coordinate", block="y"), builtin_map("coordinate", block="xi")]))
    assert minus_y_xi.xi_reflection == "odd"
    sides = []
    run = oscillatory.apply

    def counted(op, u, x_points, **kwargs):
        field = run(op, u, x_points, **kwargs)
        sides.append(field.meta["xi_reflected"])
        return field

    monkeypatch.setattr(oscillatory, "apply", counted)
    got = oscillatory_integral(PhaseFunction(minus_y_xi), Amplitude(gaussian()))
    assert sides and all(sides)  # every level evaluated xi > 0 alone
    sides.clear()
    ref = oscillatory_integral(PhaseFunction(_two_sided(minus_y_xi)), Amplitude(gaussian()))
    assert sides and not any(sides)
    assert abs(got - ref) <= 1e-13 * abs(ref)
    assert got.imag == 0.0


# ---------------------------------------------------------------------------
# the bands beyond the cutoff run the L^kappa ladder on the unit xi-sphere


def _undeclared_op(op):
    return replace(op, amplitude=replace(op.amplitude, map=replace(op.amplitude.map,
                                                                   xi_degree=None)))


@pytest.mark.parametrize("extra_decay", [0, 2])  # kappa 2 and 4
@pytest.mark.parametrize("phase_kind", ["linear", "transport", "scaled_norm"])
def test_unit_sphere_apply_equals_the_ladder_at_every_node(phase_kind, extra_decay):
    from stochfio.applications import make_speed, transport_phase

    speed = make_speed("affine", offset=1.0, slope=0.5)
    phase = {"linear": translation_phase(),
             "transport": transport_phase(speed, 0.3),
             "scaled_norm": PhaseFunction(builtin_map("scaled_norm_phase", speed=speed,
                                                      t=0.3, sign=1))}[phase_kind]
    amp = Amplitude(builtin_map("trig_polynomial", block="x", terms=[(0.5, 1.0, 0.2)],
                                offset=1.0))
    op = FioOperator.build(phase, amp, alpha=None, extra_decay=extra_decay,
                           config=MIRROR_CONFIG)
    u = gaussian(center=0.1, width=0.6)
    fast = op.apply(u, XS, out_order=2)
    slow = _undeclared_op(op).apply(u, XS, out_order=2)
    assert fast.meta["unit_sphere_nodes"] == fast.meta["nodes"] > 0
    assert slow.meta["unit_sphere_nodes"] == 0
    assert fast.meta["nodes"] == slow.meta["nodes"]
    for key, ref in slow.values.items():
        assert np.max(np.abs(fast.values[key] - ref)) <= 1e-13 * np.max(np.abs(ref)), key


@pytest.mark.parametrize("amp_map", [
    builtin_map("bracket_power", exponent=-1.0),
    builtin_map("gaussian_bump", block="xi", width=12.0),
    builtin_map("product", factors=[builtin_map("constant", value=1.0, layout=(1, 1, 1)),
                                    builtin_map("sqrt_cos_symbol", omega=1.0)]),
], ids=["bracket_power", "xi bump", "sqrt_cos_symbol"])
def test_an_amplitude_without_a_degree_runs_the_ladder_at_every_node(amp_map, monkeypatch):
    def refuse(*args):
        raise AssertionError("the unit-sphere ladder ran for an undeclared amplitude")

    monkeypatch.setattr(oscillatory, "_unit_sphere_tables", refuse)
    monkeypatch.setattr(oscillatory, "_band_words", refuse)
    monkeypatch.setattr(oscillatory, "_word_coefficients", refuse)
    monkeypatch.setattr(oscillatory, "_word_sums", refuse)
    assert amp_map.xi_degree is None
    op = FioOperator.build(translation_phase(), Amplitude(amp_map), alpha=None,
                           config=MIRROR_CONFIG)
    field = op.apply(gaussian(), XS, out_order=1)
    assert field.meta["unit_sphere_nodes"] == 0
    assert np.all(np.isfinite(field.value))


def test_a_phase_of_another_degree_runs_the_ladder_at_every_node():
    # a linear phase declared of degree 2 is not eligible, whatever the amplitude
    phase = PhaseFunction(replace(translation_phase().map, xi_degree=2))
    op = FioOperator.build(phase, unit_amplitude(), alpha=None, config=MIRROR_CONFIG)
    assert op.apply(gaussian(), XS).meta["unit_sphere_nodes"] == 0


def _branch_ops(speed, t, amp, config):
    from stochfio.regularizer import select_kappa

    return [FioOperator(PhaseFunction(builtin_map("scaled_norm_phase", speed=speed, t=t,
                                                  sign=s)),
                        amp, CutoffChi(), select_kappa(0.0, 1.0, 0.0), config)
            for s in (1, -1)]


def _assert_branches_equal_each_alone(speed, amp, u, t=0.4):
    """Both branch sums of one speed, and its field, against the L^kappa
    ``apply`` of each branch operator alone at radius 40, where the ladder's
    truncation is down to rounding (measured gaps 1.7e-11 and 1.9e-11
    relative; at radius 16 they are 1e-6)."""
    from stochfio.applications import _speed_values, _wave_branches, _wave_plan, _wave_values

    plan = _wave_plan((speed,), amp, u, t, XS, MIRROR_CONFIG)
    _values, sums = _wave_values(plan, _speed_values(speed, XS)[None], t)
    alone = [op.apply(u, XS) for op in
             _branch_ops(speed, t, amp, QuadratureConfig(xi_radius=40.0))]
    field = _wave_branches((speed,), amp, u, t, XS, MIRROR_CONFIG)[0]
    scale = max(np.max(np.abs(ref.value)) for ref in alone)
    for sign, branch, ref in zip("+-", sums[:, 0], alone):
        assert plan.meta["rates"] == ref.meta["rates"]
        got = branch.sum(axis=-1) / (2.0 * math.pi)
        assert np.max(np.abs(got - ref.value)) <= 1e-10 * scale
        np.testing.assert_array_equal(field.meta[f"branch_{sign}"]["band_contributions"],
                                      (2.0 * math.pi) ** -1 * np.max(np.abs(branch), axis=0))
    assert np.max(np.abs(field.value - alone[0].value - alone[1].value)) <= 1e-10 * scale
    return field


def test_mirrored_wave_branches_equal_two_sided_runs():
    from stochfio.applications import make_speed, wave_solve

    speed = make_speed("affine", offset=1.5, slope=0.2)
    amp = Amplitude(builtin_map("constant", value=0.5, layout=VarLayout(0, 0, 1)))
    field = _assert_branches_equal_each_alone(speed, amp, gaussian())
    assert field.meta["xi_reflected"]

    mirrored = wave_solve(speed, gaussian(), 0.4, XS, config=MIRROR_CONFIG)
    full = wave_solve(speed, _two_sided(gaussian()), 0.4, XS, config=MIRROR_CONFIG)
    assert [mirrored.meta[f"branch_{s}"]["xi_reflected"] for s in "+-"] == [True, True]
    _assert_same_field(mirrored, full)


def test_wave_branches_of_a_complex_u0_sum_both_half_lines():
    # u0 and the amplitude are complex: P_- is its own sum, not conj P_+
    amp = Amplitude(builtin_map("constant", value=0.5 + 0.2j, layout=VarLayout(0, 0, 1)))
    u = builtin_map("product", factors=[
        gaussian(center=0.2, width=0.7),
        builtin_map("constant", value=1.0 - 0.3j, layout=VarLayout(0, 1, 0))])
    field = _assert_branches_equal_each_alone(1.3, amp, u)
    assert not field.meta["xi_reflected"]
    assert field.meta["nodes"] == 2 * sum(2 * n_xi * n_y for _lo, _hi, n_xi, n_y
                                          in field.meta["branch_+"]["bands"])


def test_wave_branches_of_several_speeds_share_one_table():
    from stochfio.applications import (
        _speed_values,
        _wave_branches,
        _wave_plan,
        _wave_values,
        make_speed,
        wave_solve,
    )

    speeds = (2.0, make_speed("affine", offset=1.5, slope=0.2), 0.7)
    amp = Amplitude(builtin_map("constant", value=0.5, layout=VarLayout(0, 0, 1)))
    fields = _wave_branches(speeds, amp, gaussian(), 0.4, XS, MIRROR_CONFIG)
    plan = _wave_plan(speeds, amp, gaussian(), 0.4, XS, MIRROR_CONFIG)
    # the fastest speed sizes the plan
    assert plan.meta["bands"] == _wave_plan(speeds[:1], amp, gaussian(), 0.4, XS,
                                            MIRROR_CONFIG).meta["bands"]
    c = np.stack([_speed_values(s, XS) for s in speeds])
    together, _sums = _wave_values(plan, c, 0.4)
    for i, (speed, field) in enumerate(zip(speeds, fields)):
        assert field.meta["branch_+"]["bands"] == plan.meta["bands"]
        # a speed's values do not depend on the speeds summed with it
        assert np.array_equal(_wave_values(plan, c[i:i + 1], 0.4)[0][0], together[i])
        assert np.array_equal(field.value, together[i])
        own = wave_solve(speed, gaussian(), 0.4, XS, config=MIRROR_CONFIG)
        assert np.max(np.abs(field.value - own.value)) <= 1e-10


def test_mirrored_expected_wave_field_equals_two_sided_run():
    from stochfio.stochastic import TruncatedSpeedModel, expected_wave_field

    model = TruncatedSpeedModel(2.0, 0.2)
    mirrored = expected_wave_field(model, gaussian(), 0.3, XS, config=MIRROR_CONFIG)
    assert mirrored.meta["evaluation_path"] == "y_first"
    _assert_same_field(
        mirrored,
        expected_wave_field(model, _two_sided(gaussian()), 0.3, XS, config=MIRROR_CONFIG))


@pytest.mark.parametrize("solver", ["transport_solve", "halfwave_solve"])
def test_mirrored_solver_equals_two_sided_run(solver):
    # both phases are xi (z(x, sign xi) - y): for a real u0 the xi < 0 sum is
    # the conjugate of the xi > 0 sum, which the half-wave phase, whose z
    # depends on the sign, cannot declare as odd
    from stochfio import applications

    solve = getattr(applications, solver)
    speed = applications.make_speed("affine", offset=1.0, slope=0.5)
    u = gaussian(center=0.1, width=0.6)
    mirrored = solve(speed, u, 0.3, XS, config=MIRROR_CONFIG)
    full = solve(speed, _two_sided(u), 0.3, XS, config=MIRROR_CONFIG)
    assert mirrored.meta["bands"] == full.meta["bands"]
    _assert_same_field(mirrored, full)


def test_complex_amplitude_and_halfwave_evaluate_both_half_lines():
    from stochfio.applications import halfwave_solve, make_speed

    real = FioOperator.build(translation_phase(), unit_amplitude(), alpha=None,
                             config=MIRROR_CONFIG).apply(gaussian(), XS)
    amp = Amplitude(builtin_map("constant", value=1.0 + 0.5j, layout=VarLayout(1, 1, 1)))
    cplx = FioOperator.build(translation_phase(), amp, alpha=None,
                             config=MIRROR_CONFIG).apply(gaussian(), XS)
    assert real.meta["xi_reflected"] and not cplx.meta["xi_reflected"]
    assert cplx.meta["nodes"] == 2 * real.meta["nodes"]
    assert np.max(np.abs(cplx.value - (1.0 + 0.5j) * real.value)) < 1e-12
    # a complex u0 is not hermitian, so the half-wave sums both half-lines;
    # a real one sums xi > 0 alone
    one = make_speed("constant", value=1.0)
    u = builtin_map("scaled", inner=gaussian(), factor=1.0 + 0.5j)
    half = halfwave_solve(one, u, 0.3, XS, config=MIRROR_CONFIG)
    assert not half.meta["xi_reflected"]
    assert half.meta["evaluation_path"] == "y_first"
    assert half.meta["nodes"] == sum(2 * n_xi * n_y for _lo, _hi, n_xi, n_y
                                     in half.meta["bands"])
    real_half = halfwave_solve(one, gaussian(), 0.3, XS, config=MIRROR_CONFIG)
    assert real_half.meta["xi_reflected"]
    assert half.meta["nodes"] == 2 * real_half.meta["nodes"]
    assert np.max(np.abs(half.value - (1.0 + 0.5j) * real_half.value)) < 1e-12


def test_band_contributions_sum_to_the_field():
    field = build_identity(config=MIRROR_CONFIG).apply(gaussian(), XS)
    contributions = field.meta["band_contributions"]
    assert len(contributions) == len(field.meta["bands"])
    assert np.max(np.abs(field.value)) <= sum(contributions) * (1 + 1e-12)
    # the tail decays: each doubling band beyond the cutoff adds less
    assert contributions[-1] < contributions[-2] < contributions[-3]


# ---------------------------------------------------------------------------
# node plan: cosine-graded transition panels, outer xi-panels by the phase alone


@pytest.mark.parametrize("nodes_per_panel", [12, 8])
@pytest.mark.parametrize("kappa", [2, 3, 4, 5])
def test_transition_band_has_kappa_plus_two_graded_panels(kappa, nodes_per_panel):
    config = QuadratureConfig(xi_radius=8.0, nodes_per_panel=nodes_per_panel)
    rates = oscillatory._probe_rates(translation_phase(), XS, (-3.0, 3.0))
    bands, _meta = oscillatory._plan_nodes(CutoffChi(), config, (-3.0, 3.0), kappa, rates)
    lo, hi, xn, xw, _yn, _yw = bands[1]
    assert (lo, hi) == (1.0, 2.0)
    assert xn.size == (kappa + 2) * (nodes_per_panel + 2 * kappa)
    assert np.all((lo < xn) & (xn < hi)) and np.all(np.diff(xn) > 0)
    assert xw.sum() == pytest.approx(hi - lo, abs=1e-14)
    # symmetric, narrowest at both plateau edges
    widths = np.diff(oscillatory._graded_panels(lo, hi, kappa + 2))
    assert widths == pytest.approx(widths[::-1], abs=1e-15)
    assert widths[0] < widths[(kappa + 2) // 2]


@pytest.mark.parametrize("out_order", [0, 2])
def test_probe_rates_come_from_the_samples_alone(out_order):
    # the probe tables the points too, at x order out_order, but a shift g
    # that peaks between the samples, at x = 0.1, gives the samples' rates
    def g_provider(x, _sgn, order):
        u = (x - 0.1) / 0.05
        g = 10.0 * np.exp(-u ** 2)
        return [g, -2.0 * u / 0.05 * g, (4.0 * u ** 2 - 2.0) / 0.05 ** 2 * g][:order + 1]

    phase = PhaseFunction(builtin_map("tabulated_phase", g_provider=g_provider))
    xs, window = np.linspace(-1.0, 1.0, 21), (-0.5, 0.5)
    rates = oscillatory._probe_rates(phase, xs, window, out_order)
    assert rates == oscillatory._probe_rates(phase, oscillatory._probe_points(xs), window)
    assert rates[0] < 2.0 < np.max(np.abs(g_provider(xs, 1.0, 0)[0] - window[0]))


def test_node_plan_over_the_bound_is_refused_before_any_node_is_built(monkeypatch):
    config = QuadratureConfig(xi_radius=8.0)
    rates = oscillatory._probe_rates(translation_phase(), XS, (-3.0, 3.0))
    args = (CutoffChi(), config, (-3.0, 3.0), 2, rates)
    bands, _meta = oscillatory._plan_nodes(*args)
    nodes = sum(xn.size * yn.size for _lo, _hi, xn, _xw, yn, _yw in bands)
    monkeypatch.setattr(oscillatory, "_MAX_PLAN_NODES", nodes)
    assert len(oscillatory._plan_nodes(*args)[0]) == len(bands)  # at the bound
    monkeypatch.setattr(oscillatory, "_MAX_PLAN_NODES", nodes - 1)

    def no_nodes(edges, p):
        raise AssertionError("nodes built for a refused plan")

    monkeypatch.setattr(oscillatory, "_gauss_nodes", no_nodes)
    with pytest.raises(ValueError, match=re.escape(f"the quadrature plan needs {nodes:.3g} nodes")):
        oscillatory._plan_nodes(*args)


@pytest.mark.parametrize("extra_decay,parent_nodes", [(0, 22464), (2, 36288)])  # kappa 2, 4
def test_linear_phase_plan_uses_fewer_nodes_than_the_uniform_rule(extra_decay, parent_nodes):
    # the uniform transition rule with 2.0-wide outer xi-panels took
    # 22,464 (kappa = 2) and 36,288 (kappa = 4) nodes on this case
    op = FioOperator.build(translation_phase(), unit_amplitude(), extra_decay=extra_decay,
                           config=QuadratureConfig(xi_radius=32.0))
    xs = np.linspace(-0.5, 0.5, 3)
    field = op.apply(gaussian(width=0.3), xs)
    assert field.meta["nodes"] <= parent_nodes
    if op.plan.kappa == 4:
        assert parent_nodes / field.meta["nodes"] >= 1.4
    assert np.max(np.abs(field.value - np.exp(-(xs / 0.3) ** 2))) < 1e-7


@pytest.mark.parametrize("extra_decay", [0, 1, 2, 3])  # kappa 2 to 5
def test_graded_transition_matches_a_128_panel_reference(extra_decay, monkeypatch):
    # only the transition band differs between the two runs; the uniform
    # rule of width min(0.25, 0.75 / kappa^2) with 12 nodes per panel missed
    # this reference by 2.7e-10, 3.0e-10, 3.6e-12 and 8.5e-13
    op = FioOperator.build(translation_phase(), unit_amplitude(), extra_decay=extra_decay,
                           config=QuadratureConfig(xi_radius=4.0))
    u = gaussian(width=0.3)
    default = op.apply(u, XS)
    graded = oscillatory._graded_panels
    monkeypatch.setattr(oscillatory, "_graded_panels", lambda lo, hi, n: graded(lo, hi, 128))
    reference = op.apply(u, XS)
    assert reference.meta["bands"][1][2] == 128 * (12 + 2 * op.plan.kappa)
    assert np.max(np.abs(default.value - reference.value)) < 1e-11


def test_rough_amplitude_outer_panels_split_in_four_agree(monkeypatch):
    # cos(8 <xi>^(1/2)) oscillates in xi on its own; the phase budget still
    # resolves it on the outer bands
    amp = Amplitude(builtin_map("sqrt_cos_symbol", omega=8.0), d=0.0, rho=0.5)
    op = FioOperator.build(translation_phase(), amp, config=QuadratureConfig(xi_radius=64.0))
    u = gaussian(width=0.15)
    default = op.apply(u, XS)
    window = default.meta["y_window"]
    panels = oscillatory._panels

    def split_xi_panels(lo, hi, max_width):
        edges = panels(lo, hi, max_width)
        if (lo, hi) == tuple(window):
            return edges
        a, b = edges[:-1, None], edges[1:, None]
        return np.append((a + (b - a) * np.arange(4) / 4).ravel(), edges[-1])

    monkeypatch.setattr(oscillatory, "_panels", split_xi_panels)
    fine = op.apply(u, XS)
    for (lo, hi, n_xi, n_y), (_lo, _hi, fine_xi, fine_y) in zip(default.meta["bands"],
                                                               fine.meta["bands"]):
        assert fine_y == n_y
        assert fine_xi == (n_xi if (lo, hi) == (1.0, 2.0) else 4 * n_xi)
    assert np.max(np.abs(default.value - fine.value)) < 1e-12


# ---------------------------------------------------------------------------
# y-first evaluation: the solvers' sums over shifted points


def test_y_first_meta_counts_every_evaluation():
    from stochfio.applications import halfwave_solve, make_speed, transport_solve

    xs = np.linspace(-1.0, 1.0, 7)
    speed = make_speed("affine", offset=1.0, slope=0.5)
    transport = transport_solve(speed, gaussian(), 0.3, xs, config=MIRROR_CONFIG)
    half = halfwave_solve(speed, gaussian(), 0.3, xs, config=MIRROR_CONFIG)
    # a complex u0 is not hermitian, so its xi < 0 u_hat is a table of its own
    complex_u = builtin_map("scaled", inner=gaussian(), factor=1.0 + 0.5j)
    complex_run = halfwave_solve(speed, complex_u, 0.3, xs, config=MIRROR_CONFIG)
    np.testing.assert_allclose(complex_run.value, (1.0 + 0.5j) * half.value,
                               rtol=1e-13, atol=1e-15)
    for field, sides, hat_tables in ((transport, 1, 1), (half, 1, 1),
                                     (complex_run, 2, 2)):
        meta = field.meta
        assert meta["evaluation_path"] == "y_first"
        assert meta["xi_reflected"] == (sides == 1)
        n_xi_n_y = sum(n_xi * n_y for _lo, _hi, n_xi, n_y in meta["bands"])
        n_xi = sides * sum(n_xi for _lo, _hi, n_xi, _n_y in meta["bands"])
        assert meta["nodes"] == sides * n_xi_n_y
        assert meta["evaluations"] == hat_tables * n_xi_n_y + xs.size * n_xi
    # the L^kappa engine evaluates its integrand at every node and x point
    lk = build_identity(config=MIRROR_CONFIG).apply(gaussian(), xs)
    assert lk.meta["evaluation_path"] == "l_kappa"
    assert lk.meta["evaluations"] == xs.size * lk.meta["nodes"]


def test_y_first_shifted_tables_stay_within_the_chunk_bound(monkeypatch):
    # 64-element blocks hold one row of exp(-i y xi) or exp(i z xi) at a
    # time; the blocks change the summation order only
    from stochfio.applications import halfwave_solve, make_speed

    xs = np.linspace(-1.0, 1.0, 33)
    speed = make_speed("affine", offset=1.0, slope=0.5)
    u = builtin_map("scaled", inner=gaussian(width=0.5), factor=1.0 + 0.5j)
    default = halfwave_solve(speed, u, 0.3, xs, config=MIRROR_CONFIG)
    tables = []  # (entries, entries per row) of every table of points x nodes

    class RecordingNumpy:
        def __getattr__(self, name):
            return getattr(np, name)

        def outer(self, a, b):
            table = np.outer(a, b)
            tables.append((table.size, np.size(b)))
            return table

    monkeypatch.setattr(oscillatory, "np", RecordingNumpy())
    small = replace(MIRROR_CONFIG, max_chunk_elements=64)
    blocked = halfwave_solve(speed, u, 0.3, xs, config=small)
    assert tables and all(size <= max(64, row) for size, row in tables)
    assert max(size for size, _row in tables) > 64  # rows longer than a block
    assert blocked.meta["evaluations"] == default.meta["evaluations"]
    np.testing.assert_allclose(blocked.value, default.value, rtol=1e-12, atol=1e-14)
