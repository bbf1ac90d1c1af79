"""Jet arithmetic: exact tables, finite-difference cross-checks, algebra."""

import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from _references import fd_table, point_table
from stochfio.jets import (
    DEFAULT_MAX_ORDER,
    Coords,
    IndexSet,
    VarLayout,
    builtin_map,
    make_speed,
    t_add,
    t_blank,
    t_div,
    t_mul,
    t_mul_shift,
    t_scale,
    t_shift,
)

LAYOUT_111 = VarLayout(1, 1, 1)


def test_linear_phase_jet_entries():
    phase = builtin_map("linear_phase")
    j = point_table(phase, ((0.7,), (-0.2,), (1.3,)), 3)
    assert j[(0, 0, 0)] == pytest.approx(0.9 * 1.3)
    assert j[(1, 0, 0)] == pytest.approx(1.3)       # d/dx
    assert j[(0, 1, 0)] == pytest.approx(-1.3)      # d/dy
    assert j[(0, 0, 1)] == pytest.approx(0.9)       # d/dxi
    assert j[(1, 0, 1)] == pytest.approx(1.0)
    assert j[(0, 1, 1)] == pytest.approx(-1.0)
    assert j[(2, 0, 0)] == 0.0
    assert j[(1, 1, 1)] == 0.0


def test_gaussian_bump_closed_form_derivatives():
    g = builtin_map("gaussian_bump", block="y", center=0.3, width=1.5)
    y = 0.9
    j = point_table(g, ((), (y,), ()), 2)
    u = (y - 0.3) / 1.5
    val = math.exp(-(u ** 2))
    assert j[(0, 0, 0)] == pytest.approx(val, rel=1e-14)
    assert j[(0, 1, 0)] == pytest.approx(-2 * u / 1.5 * val, rel=1e-13)
    assert j[(0, 2, 0)] == pytest.approx((4 * u ** 2 - 2) / 1.5 ** 2 * val, rel=1e-12)


def test_scaled_norm_phase_both_signs():
    # Phi(x, y, xi) = (x - y) xi + s c(x) t |xi| with c(x) = 1 + 0.5 x
    t, x = 0.25, 0.4
    c, dc = 1.0 + 0.5 * x, 0.5
    for s in (1, -1):
        phase = builtin_map("scaled_norm_phase", speed={"kind": "affine", "offset": 1.0,
                                                        "slope": 0.5}, t=t, sign=s)
        assert phase.layout == VarLayout(1, 1, 1)
        for xi in (1.3, -1.3):
            j = point_table(phase, ((x,), (-0.1,), (xi,)), 2)
            sgn = 1.0 if xi > 0 else -1.0
            assert j[(0, 0, 0)] == pytest.approx(0.5 * xi + s * c * t * abs(xi), rel=1e-14)
            assert j[(1, 0, 0)] == pytest.approx(xi + s * dc * t * abs(xi), rel=1e-14)
            assert j[(0, 0, 1)] == pytest.approx(0.5 + s * c * t * sgn, rel=1e-14)
            assert j[(1, 0, 1)] == pytest.approx(1.0 + s * dc * t * sgn, rel=1e-14)

    # a speed spec resolves to the same map as the speed it names
    affine = {"offset": 1.0, "slope": 0.5}
    from_spec = builtin_map("scaled_norm_phase", speed={"kind": "affine", **affine},
                            t=t, sign=-1)
    from_map = builtin_map("scaled_norm_phase", speed=make_speed("affine", **affine),
                           t=t, sign=-1)
    point = ((x,), (-0.1,), (-1.3,))
    assert point_table(from_spec, point, 3) == point_table(from_map, point, 3)
    # the time is a required parameter, and the map has no dimension knob
    with pytest.raises(TypeError):
        builtin_map("scaled_norm_phase", speed=2.0, sign=1)
    with pytest.raises(TypeError):
        builtin_map("scaled_norm_phase", speed=2.0, t=t, n=1)


@pytest.mark.parametrize("family,params,point", [
    ("gaussian_bump", {"block": "y", "center": 0.2, "width": 0.8},
     ((), (0.7,), ())),
    ("mollifier_bump", {"block": "y", "center": 0.0, "radius": 1.5},
     ((), (0.4,), ())),
    ("trig_polynomial", {"block": "x", "terms": [(0.5, 2.0, 0.3)], "offset": 1.0},
     ((0.6,), (), ())),
    ("bracket_power", {"exponent": 1.0}, ((), (), (1.7,))),
    ("sqrt_cos_symbol", {"omega": 2.0}, ((), (), (2.4,))),
    ("linear_phase", {}, ((0.3,), (-0.5,), (1.9,))),
])
def test_builtin_jets_match_finite_differences(family, params, point):
    f = builtin_map(family, **params)
    step = 1e-3
    # the exact table on a batch of three points, the FD point in the middle,
    # as the engine evaluates it
    batch = Coords(*(np.array([0.5, 1.0, 1.5]) * block[0] if block else None
                     for block in point))
    exact = f.table(batch, IndexSet(f.layout, 3, 3, 3))
    approx = fd_table(f, point, 3, step=step)
    assert set(approx) == set(exact)
    for key, b in approx.items():
        a = np.broadcast_to(exact[key], (3,))[1]
        # central differences are O(step^2); scale by the entry size
        assert abs(a - b) <= 200 * step ** 2 * max(1.0, abs(a)), key


def test_fd_jet_guards():
    f = builtin_map("bracket_power", exponent=1.0)
    with pytest.raises(ValueError):
        fd_table(f, ((), (), (1e-5,)), 2)       # stencil would cross xi = 0
    with pytest.raises(ValueError):
        fd_table(f, ((), (), (2.0,)), 5)        # order cap
    with pytest.raises(ValueError):
        fd_table(f, ((), (), (2.0,)), 2, step=0.0)


def test_product_and_sum_jets_agree_with_jet_algebra():
    g = builtin_map("gaussian_bump", block="y", center=0.0, width=1.0)
    s = builtin_map("trig_polynomial", block="y", terms=[(1.0, 1.5, 0.2)])
    prod = builtin_map("product", factors=[g, s])
    point = ((), (0.45,), ())
    jg, js = point_table(g, point, 3), point_table(s, point, 3)
    iset = IndexSet(g.layout, 3, 3, 3)
    jp = point_table(prod, point, 3)
    jm = t_mul(jg, js, iset)
    for k in iset.keys():
        assert jp[k] == pytest.approx(jm[k], rel=1e-12, abs=1e-12)

    tot = builtin_map("sum", terms=[g, s])
    jt = point_table(tot, point, 3)
    jl = t_add(jg, js, iset)
    for k in iset.keys():
        assert jt[k] == pytest.approx(jl[k], rel=1e-12, abs=1e-12)

    # a factor given as a nested spec builds the same product
    s_spec = {"family": "trig_polynomial", "block": "y", "terms": [[1.0, 1.5, 0.2]]}
    nested = builtin_map("product", factors=[g, s_spec])
    assert point_table(nested, point, 3) == jp


@pytest.mark.parametrize("build,params,error", [
    (builtin_map, {"family": "gaussian_bump", "widht": 1.0}, TypeError),
    (builtin_map, {"family": "bracket_power"}, TypeError),
    (builtin_map, {"family": "no_such_family"}, ValueError),
    (builtin_map, {"family": "product", "factors": [{"block": "y"}]}, ValueError),
    (make_speed, {"kind": "affine", "offest": 1.0}, TypeError),
    (make_speed, {"kind": "trig_field", "terms": [[0.5, 1.0, 0.0]]}, TypeError),
])
def test_builders_bind_parameters_as_keywords(build, params, error):
    with pytest.raises(error):
        build(**params)


def _mixed_table(rng, iset, shape, complex_values):
    """Exact zeros, scalars, (1, n) and (m, n) arrays in random places."""
    out = {}
    for key in iset.keys():
        kind = rng.integers(4)
        if kind == 0:
            out[key] = 0.0
            continue
        size = () if kind == 1 else (1, shape[1]) if kind == 2 else shape
        v = rng.normal(size=size)
        if complex_values:
            v = v + 1j * rng.normal(size=size)
        out[key] = v.item() if kind == 1 else v  # a Python scalar
    return out


@pytest.mark.parametrize("seed", range(6))
def test_shifted_product_is_the_shift_of_the_product(seed):
    rng = np.random.default_rng(seed)
    iset = IndexSet(LAYOUT_111, 2, 3)
    nxt = iset.shrink_int(1)
    a = _mixed_table(rng, iset, (4, 5), complex_values=seed % 2 == 1)
    b = _mixed_table(rng, iset, (4, 5), complex_values=seed % 3 == 0)
    for var in (1, 2):  # the y and xi variables, whose order nxt lowers
        got = t_mul_shift(a, b, var, nxt)
        ref = t_shift(t_mul(a, b, iset), var, nxt)
        assert list(got) == list(ref)
        for key in ref:
            assert type(got[key]) is type(ref[key])
            assert np.array_equal(got[key], ref[key])  # bit for bit


def test_index_set_caps_and_shrink():
    layout = VarLayout(1, 1, 1)
    iset = IndexSet(layout, 2, 3)
    assert iset.cap_for_block("x") == 2
    assert iset.max_total() >= 3
    shrunk = iset.shrink_int(1)
    assert shrunk.cap_int == 2
    assert all(sum(k) <= iset.max_total() for k in iset.keys())
    zero = iset.zero
    assert zero == (0, 0, 0)


def test_smooth_map_order_guard():
    g = builtin_map("gaussian_bump", block="y", center=0.0, width=1.0)
    with pytest.raises(ValueError):
        point_table(g, ((), (0.0,), ()), DEFAULT_MAX_ORDER + 1)


def _maps_of_every_family():
    """(name, map): one map of each built-in family and speed kind, and a
    product and a sum of maps on different blocks."""
    gauss_y = builtin_map("gaussian_bump", block="y", center=0.3, width=0.8)
    trig_x = builtin_map("trig_polynomial", block="x", terms=[(0.5, 2.0, 0.3)], offset=1.0)
    bracket = builtin_map("bracket_power", exponent=-1.0)
    return [
        ("constant", builtin_map("constant", value=1.5, layout=(0, 1, 0))),
        ("linear_phase", builtin_map("linear_phase")),
        ("scaled_norm_phase", builtin_map("scaled_norm_phase", speed={
            "kind": "affine", "offset": 1.0, "slope": 0.5}, t=0.3)),
        ("tabulated_phase", builtin_map("tabulated_phase",
                                        g_provider=lambda x, sgn, order: [x] + [1.0] * order)),
        ("gaussian_bump", gauss_y),
        ("mollifier_bump", builtin_map("mollifier_bump", block="xi", radius=7.0)),
        ("trig_polynomial", trig_x),
        ("coordinate", builtin_map("coordinate", block="xi")),
        ("bracket_power", bracket),
        ("sqrt_cos_symbol", builtin_map("sqrt_cos_symbol", omega=1.0)),
        ("product", builtin_map("product", factors=[gauss_y, bracket])),
        ("sum", builtin_map("sum", terms=[trig_x, bracket], coefficients=[2.0, -1.0])),
        ("scaled", builtin_map("scaled", inner=gauss_y, factor=-0.5)),
        ("speed_constant", make_speed("constant", value=1.2)),
        ("speed_affine", make_speed("affine", offset=1.0, slope=0.4)),
        ("speed_trig_field", make_speed("trig_field", offset=1.0, terms=[(0.2, 1.0, 0.0)])),
    ]


@pytest.mark.parametrize("name,m", _maps_of_every_family(),
                         ids=[name for name, _m in _maps_of_every_family()])
def test_tables_are_keyed_by_order_triples_on_any_covering_layout(name, m):
    iset = IndexSet(LAYOUT_111, 2, 3)
    coords = Coords(np.array([0.3, -0.4]), np.array([0.2, 0.5]), np.array([1.5, -2.0]))
    table = m.table(coords, iset)
    assert tuple(table) == iset.keys(), name
    for key, v in table.items():
        if any(order and not n for order, n in zip(key, m.layout)):
            # an order in a block the map lacks: the exact zero the kernels skip
            assert not isinstance(v, np.ndarray) and v == 0.0, (name, key)
    # a layout that lacks one of the map's blocks does not cover it: a map of
    # y alone is refused (1, 0, 1) rather than tabled on keys it cannot fill
    last = max(b for b, n in enumerate(m.layout) if n)
    short = IndexSet(VarLayout(*(int(b != last) for b in range(3))), 1, 2)
    with pytest.raises(ValueError, match="does not cover"):
        m.table(coords, short)


ISET_013 = IndexSet(VarLayout(0, 1, 1), 3, 3, 3)  # the sample tables' index set


def _sample_jets(x, y, xi):
    a = builtin_map("product", factors=[
        builtin_map("gaussian_bump", block="y", center=0.1, width=1.2),
        builtin_map("bracket_power", exponent=-1.0),
    ])
    b = builtin_map("product", factors=[
        builtin_map("trig_polynomial", block="y", terms=[(0.4, 1.1, 0.0)], offset=1.5),
        builtin_map("sqrt_cos_symbol", omega=1.0),
    ])
    point = ((), (y,), (xi,))
    return point_table(a, point, 3), point_table(b, point, 3)


coord = st.floats(min_value=-1.5, max_value=1.5, allow_nan=False)
xi_coord = st.floats(min_value=0.5, max_value=6.0, allow_nan=False)


@settings(max_examples=25, deadline=None)
@given(y=coord, xi=xi_coord)
def test_jet_multiplication_commutes(y, xi):
    pa, pb = _sample_jets(0.0, y, xi)
    iset = ISET_013
    ab, ba = t_mul(pa, pb, iset), t_mul(pb, pa, iset)
    for k in iset.keys():
        assert ab[k] == pytest.approx(ba[k], rel=1e-11, abs=1e-13)


UNIT_ROUNDOFF = 2.0 ** -53


def _abs_product(a, b, iset):
    """The jet product of the entrywise absolute values, |a| * |b|."""
    return t_mul({k: abs(v) for k, v in a.items()}, {k: abs(v) for k, v in b.items()}, iset)


@settings(max_examples=25, deadline=None)
@given(y=coord, xi=xi_coord)
@example(y=0.0, xi=2.25)  # sqrt_cos_symbol vanishes at <xi>^1/2 = pi/2, xi ~ 2.255
def test_jet_division_inverts_multiplication(y, xi):
    # Rounding leaves c = a b with an error dc <= g (|a| * |b|) and t_div's
    # triangular solve with a residual r <= 2 g (|a| * |b|), entrywise, where
    # g ~ 9 u at order <= 3 (six Leibniz terms per row, complex products, the
    # binomial factor).  The quotient error is b^-1 (dc + r), so it is at
    # most 3 g |b^-1| * |a| * |b| <= 32 u |b^-1| * |a| * |b|.  Near the zero
    # of b the entries of b^-1 grow like |b'|^k / |b0|^(k+1): that is how
    # the divisor's conditioning enters.
    pa, pb = _sample_jets(0.0, y, xi)
    iset = ISET_013
    assume(pb[iset.zero] != 0)
    back = t_div(t_mul(pa, pb, iset), pb, iset)
    unit = t_blank(iset)
    unit[iset.zero] = 1.0
    inverse = t_div(unit, pb, iset)
    bound = _abs_product(inverse, _abs_product(pa, pb, iset), iset)
    for k in iset.keys():
        assert abs(back[k] - pa[k]) <= 32 * UNIT_ROUNDOFF * bound[k], k


@settings(max_examples=15, deadline=None)
@given(y=coord, xi=xi_coord, c1=coord, c2=coord)
def test_jet_linear_combination(y, xi, c1, c2):
    pa, pb = _sample_jets(0.0, y, xi)
    iset = ISET_013
    lin = t_add(t_scale(pa, c1), t_scale(pb, c2), iset)
    for k in iset.keys():
        assert lin[k] == pytest.approx(c1 * pa[k] + c2 * pb[k],
                                       rel=1e-12, abs=1e-13)


# ---------------------------------------------------------------------------
# declared xi reflections


def _declared_maps():
    """Built-in families and compositions with a declared xi reflection."""
    from stochfio.applications import transport_phase

    lin = builtin_map("linear_phase")
    xi = builtin_map("coordinate", block="xi")
    gauss_y = builtin_map("gaussian_bump", block="y", center=0.3, width=0.8)
    bracket = builtin_map("bracket_power", exponent=-1.0)
    trig_x = builtin_map("trig_polynomial", block="x", terms=[(0.5, 2.0, 0.3)], offset=1.0)
    return [
        ("constant", builtin_map("constant", value=1.7, layout=(1, 1, 1)), "hermitian"),
        ("linear_phase", lin, "odd"),
        ("coordinate xi", xi, "odd"),
        ("coordinate y", builtin_map("coordinate", block="y"), "hermitian"),
        ("coordinate x", builtin_map("coordinate", block="x"), "hermitian"),
        ("gaussian_bump y", gauss_y, "hermitian"),
        ("gaussian_bump xi", builtin_map("gaussian_bump", block="xi", width=1.3), "hermitian"),
        ("mollifier_bump y", builtin_map("mollifier_bump", block="y", radius=1.6), "hermitian"),
        ("mollifier_bump xi", builtin_map("mollifier_bump", block="xi", radius=7.0), "hermitian"),
        ("trig_polynomial x", trig_x, "hermitian"),
        ("bracket_power", bracket, "hermitian"),
        ("sqrt_cos_symbol", builtin_map("sqrt_cos_symbol", omega=1.0), "hermitian"),
        ("transport_phase", transport_phase(make_speed("affine", offset=1.0, slope=0.4),
                                            0.3).map, "odd"),
        ("sum of odd maps", builtin_map("sum", terms=[lin, xi], coefficients=[0.5, -2.0]),
         "odd"),
        ("sum of hermitian maps", builtin_map("sum", terms=[gauss_y, bracket]), "hermitian"),
        ("product odd odd", builtin_map("product", factors=[xi, lin]), "hermitian"),
        ("product odd odd odd", builtin_map("product", factors=[xi, xi, lin]), "odd"),
        ("product hermitian", builtin_map("product", factors=[trig_x, gauss_y, bracket]),
         "hermitian"),
        ("scaled odd", builtin_map("scaled", inner=lin, factor=-1.5), "odd"),
        ("scaled hermitian", builtin_map("scaled", inner=bracket, factor=2.5), "hermitian"),
    ]


def _point(layout, x, y, xi):
    return ((x,) * layout.n_x, (y,) * layout.n_y, (xi,) * layout.n_xi)


@settings(max_examples=20, deadline=None)
@given(x=coord, y=coord, xi=st.floats(min_value=0.1, max_value=6.0, allow_nan=False))
def test_declared_xi_reflections_hold(x, y, xi):
    for name, m, kind in _declared_maps():
        assert m.xi_reflection == kind, name
        at = point_table(m, _point(m.layout, x, y, xi), 3)
        mirrored = point_table(m, _point(m.layout, x, y, -xi), 3)
        for key in at:
            sign = (-1) ** key[2]  # the xi order
            if kind == "odd":
                assert at[key].imag == 0, (name, key)
                expected = -sign * at[key]
            else:
                expected = sign * np.conj(at[key])
            assert abs(mirrored[key] - expected) <= 1e-12 * max(1.0, abs(at[key])), (name, key)


def test_undeclared_families_stay_undeclared():
    from stochfio.applications import _halfwave_phase

    lin = builtin_map("linear_phase")
    bracket = builtin_map("bracket_power", exponent=1.0)
    undeclared = [
        builtin_map("tabulated_phase", g_provider=lambda x, sgn, order: [x] + [1.0] * order),
        builtin_map("scaled_norm_phase", speed=2.0, t=0.3, sign=1),
        _halfwave_phase(make_speed("constant", value=1.0), 0.3).map,
        builtin_map("trig_polynomial", block="xi", terms=[(1.0, 2.0, 0.0)]),
        builtin_map("constant", value=1.0 + 2.0j, layout=(1, 1, 1)),
        builtin_map("gaussian_bump", block="xi", center=0.5),
        builtin_map("scaled", inner=bracket, factor=1.0j),
        builtin_map("sum", terms=[lin, lin], coefficients=[1.0, 0.5j]),
        builtin_map("sum", terms=[lin, bracket]),
        builtin_map("product", factors=[lin, bracket]),
    ]
    for m in undeclared:
        assert m.xi_reflection is None, m.describe
    with pytest.raises(ValueError):
        replace(lin, xi_reflection="even")
