"""Compact boxes, seminorm scans, homogeneity and nondegeneracy checks."""

import numpy as np
import pytest

from stochfio.jets import VarLayout, builtin_map
from stochfio.oscillatory import GridField
from stochfio.regularizer import CutoffChi, check_coefficient_symbol_bounds
from stochfio.symbol_spaces import (
    Amplitude,
    PhaseFunction,
    check_alpha_membership,
    check_homogeneity,
    compact_box,
    seminorm_p,
    seminorm_pi,
    seminorm_q,
)


def translation_phase():
    return PhaseFunction(builtin_map("linear_phase"))


def degenerate_phase():
    # Phi = (bump(x) - y) xi: grad_x vanishes at the bump's critical point
    return PhaseFunction(builtin_map("product", factors=[
        builtin_map("sum", terms=[
            builtin_map("gaussian_bump", block="x", center=0.0,
                        width=np.sqrt(0.5)),
            builtin_map("scaled", factor=-1.0,
                        inner=builtin_map("coordinate", block="y")),
        ]),
        builtin_map("coordinate", block="xi"),
    ]))


# ---------------------------------------------------------------------------
# compact boxes


def test_compact_box_whole_line():
    lo, hi = compact_box("whole", 1)
    assert lo <= hi
    assert (lo, hi) == (-1.0, 1.0)


def test_compact_box_half_line():
    assert compact_box((0.0, None), 2) == (0.5, 2.0)


def test_compact_box_small_interval_is_empty_at_coarse_index():
    lo, hi = compact_box((0.0, 1.0), 1)
    assert lo > hi
    lo, hi = compact_box((0.0, 1.0), 4)
    assert lo <= hi


def test_compact_boxes_exhaust():
    big = compact_box("whole", 8)
    small = compact_box("whole", 2)
    assert big[0] < small[0] and big[1] > small[1]


# ---------------------------------------------------------------------------
# seminorms


def test_phase_seminorm_linear_value_and_witness():
    rep = seminorm_p(translation_phase(), 1)
    assert rep.value == pytest.approx(2.0)
    assert rep.witness == (-1.0, 1.0, -1.0)


def test_phase_seminorm_nested_grids_monotone():
    phase = PhaseFunction(builtin_map("product", factors=[
        builtin_map("sum", terms=[
            builtin_map("coordinate", block="x"),
            builtin_map("scaled", factor=-1.0,
                        inner=builtin_map("coordinate", block="y")),
            builtin_map("gaussian_bump", block="x", center=0.3, width=0.4),
        ]),
        builtin_map("coordinate", block="xi"),
    ]))
    coarse = seminorm_p(phase, 2, points_per_axis=11)
    fine = seminorm_p(phase, 2, points_per_axis=21)  # nested refinement
    assert fine.value >= coarse.value


def test_amplitude_seminorm_declared_class_consistency():
    const = Amplitude(builtin_map("constant", value=1.0,
                                  layout=VarLayout(1, 1, 1)))
    rep = seminorm_q(const, 2)
    assert not rep.flagged
    assert rep.value == pytest.approx(1.0)

    growth = builtin_map("bracket_power", exponent=1.0)
    assert seminorm_q(Amplitude(growth, d=0.0), 2).flagged      # wrong order
    assert not seminorm_q(Amplitude(growth, d=1.0), 2).flagged  # right order

    osc = builtin_map("sqrt_cos_symbol", omega=2.0)
    assert not seminorm_q(Amplitude(osc, d=0.0, rho=0.5), 2).flagged
    assert seminorm_q(Amplitude(osc, d=0.0, rho=1.0), 2).flagged  # rho too good


def test_output_seminorm_on_map_and_grid_field():
    g = builtin_map("gaussian_bump", block="x", center=0.0, width=1.0)
    rep = seminorm_pi(g, 2)
    assert rep.value == pytest.approx(2.0, rel=1e-6)  # |g''(0)| = 2
    assert rep.witness[0] == pytest.approx(0.0, abs=1e-12)

    # a field's witness is the grid point where its largest entry sits
    xs = np.linspace(-1.0, 1.0, 5)
    field = GridField((xs,), {(0,): np.exp(-xs ** 2), (1,): -2.0 * xs * np.exp(-xs ** 2)})
    rep = seminorm_pi(field, 1)
    assert (rep.value, rep.witness, rep.witness_index, rep.grid_shape) == \
        (1.0, (0.0,), (2,), (5,))


def test_amplitude_class_parameters_validated():
    m = builtin_map("constant", value=1.0, layout=VarLayout(1, 1, 1))
    with pytest.raises(ValueError):
        Amplitude(m, rho=1.5)
    with pytest.raises(ValueError):
        Amplitude(m, rho=0.0)
    with pytest.raises(ValueError):
        Amplitude(m, delta=1.0)


def test_multidimensional_frequency_scan_unsupported():
    with pytest.raises(TypeError):
        builtin_map("linear_phase", n=2)
    with pytest.raises(ValueError, match="at most one coordinate"):
        builtin_map("constant", value=0.0, layout=VarLayout(2, 2, 2))


# ---------------------------------------------------------------------------
# homogeneity


def test_homogeneity_of_translation_and_wave_phases():
    assert check_homogeneity(translation_phase()).passed
    wave = PhaseFunction(builtin_map("scaled_norm_phase", speed=2.0, t=0.3, sign=1))
    rep = check_homogeneity(wave)
    assert rep.passed and rep.max_residual < 1e-12


def test_homogeneity_rejects_bracket_growth():
    bad = PhaseFunction(builtin_map("product", factors=[
        builtin_map("sum", terms=[
            builtin_map("coordinate", block="x"),
            builtin_map("scaled", factor=-1.0,
                        inner=builtin_map("coordinate", block="y")),
        ]),
        builtin_map("bracket_power", exponent=1.0),
    ]))
    rep = check_homogeneity(bad)
    assert not rep.passed
    assert rep.max_residual > 1e-2


def test_homogeneity_refuses_a_phase_without_xi():
    phase = PhaseFunction(builtin_map("gaussian_bump", block="x"))
    with pytest.raises(ValueError, match="xi coordinate"):
        check_homogeneity(phase)


@pytest.mark.parametrize("check", [
    lambda phase, box: check_alpha_membership(phase, 0.25, x_box=box),
    lambda phase, box: check_homogeneity(phase, x_box=box),
    lambda phase, box: check_coefficient_symbol_bounds(phase, CutoffChi(), x_box=box),
    lambda phase, box: seminorm_p(phase, 2, x_box=box),
    lambda phase, box: seminorm_q(Amplitude(phase.map), 2, x_box=box),
    lambda phase, box: seminorm_pi(builtin_map("gaussian_bump", block="x"), 2, x_box=box),
], ids=["membership", "homogeneity", "coefficient_bounds", "seminorm_p", "seminorm_q",
        "seminorm_pi"])
def test_checks_refuse_an_empty_box(check):
    with pytest.raises(ValueError, match=r"empty compact box: x_box=\(1.0, 0.0\)"):
        check(translation_phase(), (1.0, 0.0))


# ---------------------------------------------------------------------------
# nondegeneracy membership


def test_membership_translation_phase():
    rep = check_alpha_membership(translation_phase(), 0.25)
    assert rep.passed
    assert rep.min_x_side == pytest.approx(1.0)
    assert rep.min_y_side == pytest.approx(1.0)
    assert rep.min_observed == pytest.approx(1.0)


def test_membership_flat_spot_fails_with_witness():
    rep = check_alpha_membership(degenerate_phase(), 0.1)
    assert not rep.passed
    assert rep.min_x_side == pytest.approx(0.0, abs=1e-12)
    assert rep.witness_x[0] == pytest.approx(0.0, abs=1e-9)  # the flat spot
    # the y gradient is the full xi, so that side is healthy
    assert rep.min_y_side == pytest.approx(1.0)


def test_membership_without_x_block_is_vacuous_on_x():
    phase = PhaseFunction(builtin_map("scaled", factor=-1.0,
                                      inner=builtin_map("product", factors=[
                                          builtin_map("coordinate", block="y"),
                                          builtin_map("coordinate", block="xi"),
                                      ])))
    rep = check_alpha_membership(phase, 0.25)
    assert rep.passed
    assert rep.min_x_side is None
    assert rep.min_y_side == pytest.approx(1.0)


def test_membership_requires_positive_alpha():
    with pytest.raises(ValueError):
        check_alpha_membership(translation_phase(), 0.0)
