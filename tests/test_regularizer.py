"""Cutoff profile, order selection, coefficient identity and the L ladder."""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from _references import (
    complex_l_ladder,
    eager_coefficient_fields,
    identity_residual,
    table_building_l_ladder,
)
from stochfio.jets import (
    Coords,
    IndexSet,
    VarLayout,
    builtin_map,
)
from stochfio import regularizer
from stochfio.regularizer import (
    CutoffChi,
    _regularized_tables,
    apply_l_ladder,
    check_coefficient_symbol_bounds,
    coefficient_tables,
    select_kappa,
)
from stochfio.symbol_spaces import PhaseFunction


def translation_phase():
    return PhaseFunction(builtin_map("linear_phase"))


def point_coords(points) -> Coords:
    """Coords of a batch of (x, y, xi) points."""
    x, y, xi = (np.array(c, dtype=float) for c in zip(*points))
    return Coords(x, y, xi)


# ---------------------------------------------------------------------------
# cutoff profile


def test_chi_plateaus_are_exact():
    chi = CutoffChi()
    vals = chi.values(np.array([0.0, 0.5, 1.0, 1.01, 1.5, 1.99, 2.0, 5.0]))
    assert vals[0] == 1.0 and vals[1] == 1.0 and vals[2] == 1.0
    assert vals[3] == 1.0          # inside the guard band, clamped exactly
    assert vals[4] == pytest.approx(0.5, abs=1e-14)  # symmetric midpoint
    assert vals[5] == 0.0          # guard band on the outer edge
    assert vals[6] == 0.0 and vals[7] == 0.0
    grid = np.linspace(0.0, 3.0, 301)
    assert np.all(np.diff(chi.values(grid)) <= 1e-15)  # monotone decreasing


def test_chi_derivatives_match_finite_differences():
    chi = CutoffChi()
    h = 1e-4
    for s in (1.2, 1.5, 1.8):
        d = chi.profile_derivs(np.array([s]), 2)
        fd1 = (chi.values([s + h]) - chi.values([s - h])) / (2 * h)
        fd2 = (chi.values([s + h]) - 2 * chi.values([s]) + chi.values([s - h])) / h ** 2
        assert float(d[1][0]) == pytest.approx(float(fd1[0]), rel=1e-6)
        assert float(d[2][0]) == pytest.approx(float(fd2[0]), rel=1e-4)


def test_chi_rescaled_moves_the_bands():
    low = CutoffChi().rescaled(4.0)   # chi(4 xi): transition on [0.25, 0.5]
    assert low.inner_radius == pytest.approx(0.25)
    assert low.outer_radius == pytest.approx(0.5)
    assert float(low.values(np.array([0.2]))[0]) == 1.0
    assert float(low.values(np.array([0.6]))[0]) == 0.0


def _is_scalar_zero(v):
    return not isinstance(v, np.ndarray) and v == 0


def test_chi_table_is_blank_wholly_beyond_the_clamp():
    chi = CutoffChi()
    layout = VarLayout(1, 1, 1)
    iset = IndexSet(layout, 2, 4)
    xi = np.array([-40.0, -2.0, 1.99, 2.0, 3.5, 40.0])
    coords = Coords(np.zeros(6), np.zeros(6), xi)
    table = chi.xi_table(coords, iset)
    assert set(table) == set(iset.keys())
    assert all(_is_scalar_zero(v) for v in table.values())


def test_chi_table_has_arrays_on_a_chunk_straddling_the_clamp():
    chi = CutoffChi()
    iset = IndexSet(VarLayout(0, 0, 1), 0, 3)
    xi = np.array([1.9, 1.95, 1.99, 2.5])
    table = chi.xi_table(Coords(None, None, xi), iset)
    assert all(isinstance(v, np.ndarray) for v in table.values())
    assert np.array_equal(table[(0, 0, 0)], chi.values(xi))
    derivs = chi.profile_derivs(xi, 3)
    for k in range(4):
        assert np.array_equal(table[(0, 0, k)], derivs[k])
    assert np.any(table[(0, 0, 1)] != 0.0) and np.all(table[(0, 0, 1)][2:] == 0.0)


def test_chi_validates_radii():
    with pytest.raises(ValueError):
        CutoffChi(2.0, 1.0)


# ---------------------------------------------------------------------------
# order selection


# n_xi is the engine's one xi coordinate, which the decay target counts
@pytest.mark.parametrize("d,rho,delta,n_xi,extra,expected", [
    (0.0, 1.0, 0.0, 1, 0, 2),
    (1.0, 1.0, 0.0, 1, 0, 3),
    (1.0, 0.5, 0.0, 1, 0, 6),
    (0.0, 0.5, 0.0, 1, 0, 4),
    (0.0, 1.0, 0.0, 1, 2, 4),
])
def test_kappa_selection(d, rho, delta, n_xi, extra, expected):
    plan = select_kappa(d, rho, delta, extra_decay=extra)
    assert plan.kappa == expected
    assert plan.gain == pytest.approx(min(rho, 1.0 - delta))
    # selected kappa really clears the decay requirement
    assert d - plan.kappa * plan.gain <= -(n_xi + 1 + extra) + 1e-9


@settings(max_examples=200, deadline=None)
@given(d=st.floats(-3.0, 4.0), rho=st.floats(0.05, 1.0),
       delta=st.floats(0.0, 0.95), extra=st.integers(0, 3))
def test_kappa_selection_is_minimal_and_sufficient(d, rho, delta, extra):
    plan = select_kappa(d, rho, delta, extra_decay=extra)
    target = -(2 + extra)
    assert plan.kappa >= 0
    assert d - plan.kappa * plan.gain <= target + 1e-9          # sufficient
    if plan.kappa > 0:
        assert d - (plan.kappa - 1) * plan.gain > target - 1e-9  # minimal
    # asking for more tail decay can never lower the selected order
    assert select_kappa(d, rho, delta, extra_decay=extra + 1).kappa >= plan.kappa


def test_kappa_selection_takes_extra_decay_by_keyword_only():
    # a positional fourth argument, once the xi dimension, is refused
    with pytest.raises(TypeError):
        select_kappa(0.0, 1.0, 0.0, 1)


# ---------------------------------------------------------------------------
# r and the coefficients


def coefficients_at(phase, points):
    """Coefficient tables of order 0 and the phase table at a batch of points."""
    coords = point_coords(points)
    phase_t = phase.table(coords, IndexSet(phase.layout, 0, 1))
    return coefficient_tables(phase_t, coords, CutoffChi(), IndexSet(phase.layout, 0, 0)), phase_t


def test_r_values_translation_phase():
    # chi = 0 at these points, so s' = (1 - chi) / r = 1 / r with r = 4, 8, 18
    coeffs, _ = coefficients_at(translation_phase(),
                                [(0.0, 0.0, 2.0), (1.0, 0.0, 2.0), (1.0, 0.0, 3.0)])
    assert coeffs.gamma[coeffs.iset.zero] == pytest.approx(0.0)
    assert coeffs.s_prime[coeffs.iset.zero] == pytest.approx([1 / 4.0, 1 / 8.0, 1 / 18.0])


def test_coefficients_closed_form_outside_cutoff():
    # at (1, 0, 3): r = 18, grad_xi Phi = 1, grad_y Phi = -3, chi = 0
    coeffs, phase_t = coefficients_at(translation_phase(), [(1.0, 0.0, 3.0)])
    z = coeffs.iset.zero
    assert -1j * coeffs.alpha_prime[z] == pytest.approx([-0.5j])
    assert -1j * coeffs.beta_prime[z] == pytest.approx([1j / 6.0])
    assert coeffs.gamma[z] == pytest.approx(0.0)
    assert coeffs.s_prime[z] == pytest.approx([1 / 18.0])  # s' = 1 / r where chi = 0
    assert np.abs(identity_residual(phase_t, coeffs)) < 1e-15


@pytest.mark.parametrize("xi", [0.3, 0.9, 1.2, 1.5, 1.8, 3.0, 40.0])
def test_identity_exact_in_every_cutoff_regime(xi):
    coeffs, phase_t = coefficients_at(translation_phase(), [(0.4, -0.2, xi)])
    assert np.abs(identity_residual(phase_t, coeffs)) < 1e-14


@settings(max_examples=150, deadline=None)
@given(x=st.floats(-5.0, 5.0), y=st.floats(-5.0, 5.0),
       xi=st.floats(-60.0, 60.0), perturbed=st.booleans())
def test_identity_holds_at_arbitrary_points(x, y, xi, perturbed):
    """The partition identity is algebraic: no sampled point may break it."""
    if perturbed:
        trig = builtin_map("trig_polynomial", block="x", offset=1.0,
                           terms=[(0.2, 1.0, 0.0)])
        phase = PhaseFunction(builtin_map(
            "product", factors=[trig, builtin_map("linear_phase")]))
    else:
        phase = translation_phase()
    coeffs, phase_t = coefficients_at(phase, [(x, y, xi)])
    assert np.abs(identity_residual(phase_t, coeffs)) < 1e-12


def test_inside_cutoff_coefficients_vanish_exactly():
    coeffs, _ = coefficients_at(translation_phase(), [(0.4, -0.2, 0.5)])
    z = coeffs.iset.zero
    assert coeffs.alpha_prime[z] == 0.0
    assert coeffs.beta_prime[z] == 0.0
    assert coeffs.gamma[z] == 1.0


# ---------------------------------------------------------------------------
# the L ladder


def unit_amplitude():
    return builtin_map("constant", value=1.0, layout=VarLayout(1, 1, 1))


def gaussian_test_function():
    return builtin_map("gaussian_bump", block="y", center=0.0, width=1.0)


def l_power(phase, amp, psi, chi, kappa, points) -> np.ndarray:
    """L^kappa(a psi) at a batch of (x, y, xi) points, as the engine forms it."""
    g, _, iset_x = _regularized_tables(phase, amp, psi, chi, kappa,
                                       point_coords(points), 0)
    return np.broadcast_to(g[iset_x.zero], (len(points),))


def test_L_power_zero_is_the_product():
    val = l_power(translation_phase(), unit_amplitude(),
                  gaussian_test_function(), CutoffChi(), 0, [(0.0, 0.3, 5.0)])
    assert val == pytest.approx([math.exp(-0.09)])


def test_L_power_one_closed_form():
    # For Phi = (x - y) xi, a = 1, chi = 0 at xi = 5:
    #   L f = -d_xi(alpha f) - d_y(beta f) + gamma f with
    #   alpha = -i xi^2 (x-y) / r, beta = i xi / r, r = xi^2 (x-y)^2 + xi^2.
    # Evaluated at (x, y, xi) = (0, 0.3, 5) against psi = exp(-y^2):
    x, y, xi = 0.0, 0.3, 5.0
    psi = math.exp(-(y ** 2))
    dpsi = -2 * y * psi
    q = x - y
    r = xi ** 2 * q ** 2 + xi ** 2
    d_alpha_xi = -2j * xi * q / r + 1j * xi ** 2 * q * (2 * xi * q ** 2 + 2 * xi) / r ** 2
    d_beta_y = 1j * xi * (2 * xi ** 2 * q) / r ** 2  # -d/dy r = +2 xi^2 q
    beta = 1j * xi / r
    expected = -(d_alpha_xi * psi) - (d_beta_y * psi + beta * dpsi)
    val = l_power(translation_phase(), unit_amplitude(),
                  gaussian_test_function(), CutoffChi(), 1, [(x, y, xi)])
    assert val == pytest.approx([expected], rel=1e-12)
    assert val == pytest.approx([0.19292478854138878j], rel=1e-12)


def test_L_power_is_identity_inside_the_cutoff():
    psi_val = l_power(translation_phase(), unit_amplitude(),
                      gaussian_test_function(), CutoffChi(), 3, [(0.2, 0.4, 0.6)])
    assert psi_val == pytest.approx([math.exp(-0.16)], rel=1e-14)


@pytest.mark.parametrize("kappa", [1, 2, 3])
def test_L_ladder_gains_one_decay_order_per_step(kappa):
    phase, amp, psi, chi = (translation_phase(), unit_amplitude(),
                            gaussian_test_function(), CutoffChi())
    lo, hi = np.abs(l_power(phase, amp, psi, chi, kappa, [(0.0, 0.3, 8.0), (0.0, 0.3, 32.0)]))
    observed = math.log(lo / hi) / math.log(4.0)
    assert observed == pytest.approx(kappa, abs=0.35)


def test_coefficient_symbol_bounds_fit():
    rep = check_coefficient_symbol_bounds(translation_phase(), CutoffChi())
    assert rep.passed
    assert rep.max_misfit < 0.01
    # one frequency dimension: alpha's xi-derivative series vanish identically
    assert rep.skipped == 4


def perturbed_phase():
    trig = builtin_map("trig_polynomial", block="x", offset=1.0,
                       terms=[(0.2, 1.0, 0.0)])
    return PhaseFunction(builtin_map(
        "product", factors=[trig, builtin_map("linear_phase")]))


def real_amplitude():
    return builtin_map("product", factors=[
        builtin_map("gaussian_bump", block="y", center=0.1, width=0.8),
        builtin_map("bracket_power", exponent=0.5)])


def complex_amplitude():
    # real and imaginary parts are independent functions of (y, xi)
    wave = builtin_map("trig_polynomial", block="y", terms=[(1.0, 1.5, 0.3)])
    return builtin_map("sum", coefficients=[1.0, 0.5j], terms=[
        builtin_map("gaussian_bump", block="y", center=-0.2, width=0.7),
        builtin_map("product", factors=[wave, builtin_map("bracket_power", exponent=-1.0)])])


def ladder_points(xi_lo, xi_hi, kappa, seed, n, out_order=1):
    """Seeded points with |xi| in [xi_lo, xi_hi], the phase table and iset."""
    rng = np.random.default_rng(seed)
    xi = rng.uniform(xi_lo, xi_hi, n) * np.where(rng.random(n) < 0.5, -1.0, 1.0)
    coords = Coords(rng.uniform(-1.0, 1.0, n), rng.uniform(-1.0, 1.0, n), xi)
    layout = VarLayout(1, 1, 1)
    phase_t = perturbed_phase().table(coords, IndexSet(layout, out_order, kappa + 1))
    return coords, phase_t, IndexSet(layout, out_order, kappa)


def ladder_case(xi_lo, xi_hi, kappa, amp, seed, n=48, out_order=1):
    coords, phase_t, iset = ladder_points(xi_lo, xi_hi, kappa, seed, n, out_order)
    coeffs = coefficient_tables(phase_t, coords, CutoffChi(), iset)
    return amp.table(coords, iset), coeffs, iset, n


@pytest.mark.parametrize("band,xi_lo,xi_hi", [("transition", 1.0, 2.0),
                                              ("outer", 2.0, 40.0)])
@pytest.mark.parametrize("kappa", [1, 2, 3, 4])
@pytest.mark.parametrize("amp_kind", ["real", "complex"])
def test_ladder_matches_complex_recurrence(band, xi_lo, xi_hi, kappa, amp_kind):
    amp = real_amplitude() if amp_kind == "real" else complex_amplitude()
    f, coeffs, iset, n = ladder_case(xi_lo, xi_hi, kappa, amp, seed=100 + kappa)
    assert all(_is_scalar_zero(v) for v in coeffs.gamma.values()) == (band == "outer")
    got = apply_l_ladder(f, coeffs, kappa, iset)
    ref = complex_l_ladder(f, coeffs, kappa, iset)
    out_keys = iset.shrink_int(kappa).keys()
    assert set(got) == set(out_keys)
    for key in out_keys:
        g = np.broadcast_to(got[key], (n,))
        r = np.broadcast_to(ref[key], (n,))
        assert np.max(np.abs(r)) > 0.0
        np.testing.assert_allclose(g, r, rtol=1e-12)
    if band == "outer" and amp_kind == "real" and kappa % 2 == 0:
        # i^kappa is real: the whole outer ladder stayed in real arithmetic
        assert all(np.isrealobj(v) for v in got.values())


def assert_tables_bit_identical(got: dict, ref: dict):
    assert set(got) == set(ref)
    for key, r in ref.items():
        g = got[key]
        assert _is_scalar_zero(g) == _is_scalar_zero(r), key
        g, r = np.asarray(g), np.asarray(r)
        assert g.dtype == r.dtype and g.shape == r.shape, key
        assert g.tobytes() == r.tobytes(), key


@pytest.mark.parametrize("band,xi_lo,xi_hi", [("transition", 1.0, 2.0),
                                              ("outer", 2.0, 40.0)])
@pytest.mark.parametrize("kappa", [2, 4])
@pytest.mark.parametrize("out_order", [0, 2])
@pytest.mark.parametrize("amp_kind", ["real", "complex"])
def test_ladder_is_bit_identical_to_the_table_building_step(band, xi_lo, xi_hi, kappa,
                                                            out_order, amp_kind):
    # D g accumulated into the xi-term table and i D g into gamma g make the
    # same additions in the same order as the step that builds each table
    amp = real_amplitude() if amp_kind == "real" else complex_amplitude()
    f, coeffs, iset, _n = ladder_case(xi_lo, xi_hi, kappa, amp, seed=300 + kappa + out_order,
                                      out_order=out_order)
    assert all(_is_scalar_zero(v) for v in coeffs.gamma.values()) == (band == "outer")
    assert_tables_bit_identical(apply_l_ladder(f, coeffs, kappa, iset),
                                table_building_l_ladder(f, coeffs, kappa, iset))


def traced_peak(fn) -> int:
    """Bytes of the tracemalloc peak while ``fn()`` runs."""
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_ladder_step_peaks_30_percent_below_the_table_building_step(monkeypatch):
    # one kappa = 4, out_order 2 chunk of the transition band, where every
    # step forms gamma g + i D g on complex tables
    rng = np.random.default_rng(11)
    n = 4096
    coords = Coords(np.zeros((1, 1)), rng.uniform(-1.0, 1.0, (1, n)),
                    rng.uniform(1.0, 2.0, (1, n)))
    args = (perturbed_phase(), real_amplitude(), gaussian_test_function(), CutoffChi(),
            4, coords, 2)
    _regularized_tables(*args)  # fill the key and split caches first
    lean = traced_peak(lambda: _regularized_tables(*args))
    monkeypatch.setattr(regularizer, "apply_l_ladder", table_building_l_ladder)
    building = traced_peak(lambda: _regularized_tables(*args))
    assert lean <= 0.7 * building


@pytest.mark.parametrize("xi_lo,xi_hi", [(0.0, 1.0), (1.0, 2.0), (2.0, 40.0)])
def test_derived_fields_match_the_eager_formula(xi_lo, xi_hi):
    n = 48
    coords, phase_t, iset = ladder_points(xi_lo, xi_hi, 3, seed=7, n=n)
    coeffs = coefficient_tables(phase_t, coords, CutoffChi(), iset)
    alpha_ref, beta_ref = eager_coefficient_fields(phase_t, coords, CutoffChi(), iset)
    for prime, ref in ((coeffs.alpha_prime, alpha_ref), (coeffs.beta_prime, beta_ref)):
        assert set(prime) == set(iset.keys())
        for key in iset.keys():
            np.testing.assert_allclose(np.broadcast_to(prime[key], (n,)),
                                       np.broadcast_to(ref[key], (n,)),
                                       rtol=1e-14, atol=0)
