"""Jet arithmetic for smooth maps on a product space X x Y x Xi.

Phases, amplitudes, cutoffs and test functions all enter the quadrature
pipeline through one interface: a *jet*, the dense table of partial
derivatives of a map up to a requested order at a point.  Points live in a
space with three coordinate blocks (output variable x, integration
variable y, frequency variable xi).  A block holds at most one
coordinate: a map's :class:`VarLayout` says which blocks it has (each
entry is 0 or 1), and a :class:`Coords` block is an array, or ``None``
where the map has no such coordinate.  The quadrature engine tables every
map on one x, one y and one xi, so a map without x runs as a map constant
in x (its x-jets are exact zeros); time is a parameter of the phases that
depend on it (``scaled_norm_phase(t=...)``, the flow phases of
``applications``), never a coordinate.

Tables are plain dicts keyed by order triples (j, k, l): the orders of the
derivative in x, y and xi, whatever blocks the map has.  An
:class:`IndexSet` holds the triples whose orders stay within its caps and
are 0 in every block its layout lacks.  A provider fills any index set
whose layout covers its own: the entries with an order in a block the map
lacks are exact zeros.  Values may be scalars or numpy arrays of mutually
broadcastable shapes: every caller evaluates a map on a :class:`Coords`
batch of points through :meth:`SmoothMap.table`.  Exact zeros are stored as
the scalar ``0.0`` and skipped by the kernels; for sparse tables
(polynomial phases, maps of fewer blocks than the table) this is the main
source of speed.

Index sets may be anisotropic: the order cap on the x block can differ from
the cap on the (y, xi) blocks.  The regularising operator downstream only
differentiates in y and xi, so its operands need full order only there.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field
from functools import lru_cache
from itertools import product as _iproduct
from typing import Callable, NamedTuple, Sequence

import numpy as np

__all__ = [
    "VarLayout",
    "IndexSet",
    "Coords",
    "SmoothMap",
    "builtin_map",
    "make_speed",
]

DEFAULT_MAX_ORDER = 8
XI_REFLECTIONS = (None, "odd", "hermitian")


class VarLayout(NamedTuple):
    """Block sizes (n_x, n_y, n_xi) of the variable groups, each 0 or 1."""

    n_x: int
    n_y: int
    n_xi: int


class Coords(NamedTuple):
    """Coordinate values of a (batch of) evaluation point(s): per block an
    array or scalar, or ``None`` for a block the point does not have."""

    x: object
    y: object
    xi: object

    def flat(self) -> tuple:
        return tuple(c for c in self if c is not None)


# ---------------------------------------------------------------------------
# index sets and cached combinatorial plans


@dataclass(frozen=True)
class IndexSet:
    """Order triples (j, k, l) with j <= ``cap_x``, k + l <= ``cap_int`` and
    order 0 in every block ``layout`` lacks.

    ``cap_total`` additionally bounds the total order; it defaults to
    ``cap_x + cap_int``.  The isotropic set of all indices of total order
    <= m is ``IndexSet(layout, m, m, m)``.
    """

    layout: VarLayout
    cap_x: int
    cap_int: int
    cap_total: int | None = None
    zero = (0, 0, 0)

    def __post_init__(self):
        if self.cap_x < 0 or self.cap_int < 0:
            raise ValueError("order caps must be nonnegative")
        if self.cap_total is None:
            object.__setattr__(self, "cap_total", self.cap_x + self.cap_int)

    def keys(self) -> tuple:
        return _enum_keys(self.layout, self.cap_x, self.cap_int, self.cap_total)

    def cap_for_block(self, block: str) -> int:
        cap = self.cap_x if block == "x" else self.cap_int
        return min(cap, self.cap_total)

    def shrink_int(self, by: int = 1) -> "IndexSet":
        return IndexSet(self.layout, self.cap_x, self.cap_int - by,
                        min(self.cap_total, self.cap_x + self.cap_int - by))

    def max_total(self) -> int:
        return min(self.cap_total, self.cap_x + self.cap_int)


@lru_cache(maxsize=None)
def _enum_keys(layout: VarLayout, cap_x: int, cap_int: int, cap_total: int) -> tuple:
    ranges = (range(c + 1 if n else 1) for c, n in zip((cap_x, cap_int, cap_int), layout))
    out = [k for k in _iproduct(*ranges) if sum(k) <= cap_total and k[1] + k[2] <= cap_int]
    out.sort(key=lambda k: (sum(k), k))
    return tuple(out)


def _binom_prod(nu: tuple, mu: tuple) -> int:
    c = 1
    for n, m in zip(nu, mu):
        c *= math.comb(n, m)
    return c


@lru_cache(maxsize=None)
def _sub_splits(sigma: tuple) -> tuple:
    """All (mu, sigma-mu, C(sigma, mu)) splits of a single multi-index."""
    rows = []
    for mu in _iproduct(*(range(s + 1) for s in sigma)):
        nu = tuple(s - m for s, m in zip(sigma, mu))
        rows.append((mu, nu, _binom_prod(sigma, mu)))
    return tuple(rows)


# ---------------------------------------------------------------------------
# table kernels.  A Table is dict[(j, k, l) order triple, scalar or ndarray].


def _is_zero(v) -> bool:
    return not isinstance(v, np.ndarray) and v == 0


def t_blank(iset: IndexSet) -> dict:
    return dict.fromkeys(iset.keys(), 0.0)


def t_mul(a: dict, b: dict, iset: IndexSet) -> dict:
    return _leibniz_rows(a, b, iset, None)


def t_mul_shift(a: dict, b: dict, var: int, out_iset: IndexSet,
                into: dict | None = None) -> dict:
    """d_var(a b) on ``out_iset``: entry sigma is (a b)[sigma + e_var].

    Only the Leibniz rows of the keys sigma + e_var are formed, in the same
    order as ``t_shift(t_mul(a, b, iset), var, out_iset)``, so the result is
    bit-identical to that expression.  Given ``into``, a table on
    ``out_iset`` whose arrays the caller owns, each row is added to its
    entry by ``_add_into`` and ``into`` is returned: bit-identical to
    ``t_add(into, t_mul_shift(a, b, var, out_iset), out_iset)``, without a
    second table.
    """
    return _leibniz_rows(a, b, out_iset, var, into)


def _add_into(a, b):
    """a + b as ``t_add`` forms it, written into ``a`` when ``a`` is an
    array that holds the sum (same dtype and shape): ``a`` must be owned by
    the caller."""
    if _is_zero(a):
        return b
    if _is_zero(b):
        return a
    if (isinstance(a, np.ndarray) and np.result_type(a, b) == a.dtype
            and np.broadcast_shapes(a.shape, np.shape(b)) == a.shape):
        a += b
        return a
    return a + b


def _leibniz_rows(a: dict, b: dict, iset: IndexSet, var, into=None) -> dict:
    """Rows of the product a b: entry ``key`` of ``iset`` is row ``key``, or
    row ``key + e_var`` when ``var`` is given; added into ``into`` when it
    is given."""
    out = {} if into is None else into
    for key in iset.keys():
        sigma = key if var is None else _inc(key, var)
        acc = None
        for mu, nu, c in _sub_splits(sigma):
            av = a[mu]
            if _is_zero(av):
                continue
            bv = b[nu]
            if _is_zero(bv):
                continue
            term = av * bv
            if c != 1:
                term = term * c
            acc = term if acc is None else acc + term
        if into is None:
            out[key] = 0.0 if acc is None else acc
        elif acc is not None:
            out[key] = _add_into(out[key], acc)
    return out


def t_div(a: dict, b: dict, iset: IndexSet) -> dict:
    b0 = b[iset.zero]
    if _is_zero(b0):
        raise ZeroDivisionError("division by zero-valued jet")
    out = {}
    for sigma in iset.keys():  # ascending total order
        acc = a[sigma]
        for mu, nu, c in _sub_splits(sigma):
            if sum(mu) == 0:
                continue
            bv = b[mu]
            if _is_zero(bv):
                continue
            hv = out[nu]
            if _is_zero(hv):
                continue
            acc = acc - c * bv * hv
        out[sigma] = acc / b0 if not _is_zero(acc) else 0.0
    return out


def _pivot(sigma: tuple) -> int:
    for i, s in enumerate(sigma):
        if s:
            return i
    raise ValueError("zero index has no pivot")


def _dec(sigma: tuple, i: int) -> tuple:
    return sigma[:i] + (sigma[i] - 1,) + sigma[i + 1:]


def _inc(sigma: tuple, i: int) -> tuple:
    return sigma[:i] + (sigma[i] + 1,) + sigma[i + 1:]


def t_pow(u: dict, p: float, iset: IndexSet) -> dict:
    """Table of u**p; u must have a nonvanishing base value."""
    out = {}
    u0 = u[iset.zero]
    for sigma in iset.keys():
        if sum(sigma) == 0:
            out[sigma] = u0 ** p
            continue
        i = _pivot(sigma)
        sp = _dec(sigma, i)
        s1 = None
        s2 = None
        for mu, nu, c in _sub_splits(sp):
            uv = u[_inc(nu, i)]
            hv = out[mu]
            if not (_is_zero(uv) or _is_zero(hv)):
                term = c * hv * uv
                s1 = term if s1 is None else s1 + term
            if sum(mu) > 0:
                uv2 = u[mu]
                hv2 = out[_inc(nu, i)]
                if not (_is_zero(uv2) or _is_zero(hv2)):
                    term = c * uv2 * hv2
                    s2 = term if s2 is None else s2 + term
        acc = 0.0
        if s1 is not None:
            acc = p * s1
        if s2 is not None:
            acc = acc - s2
        out[sigma] = acc / u0 if not _is_zero(acc) else 0.0
    return out


def t_exp(u: dict, iset: IndexSet) -> dict:
    out = {}
    for sigma in iset.keys():
        if sum(sigma) == 0:
            out[sigma] = np.exp(u[sigma])
            continue
        i = _pivot(sigma)
        sp = _dec(sigma, i)
        acc = None
        for mu, nu, c in _sub_splits(sp):
            uv = u[_inc(nu, i)]
            if _is_zero(uv):
                continue
            hv = out[mu]
            if _is_zero(hv):
                continue
            term = c * hv * uv
            acc = term if acc is None else acc + term
        out[sigma] = 0.0 if acc is None else acc
    return out


def t_compose(fderivs: Sequence, s: dict, iset: IndexSet) -> dict:
    """Table of f(s(.)) given derivatives of f at the base values of s.

    ``fderivs[k]`` holds f^(k) evaluated at s's base value (scalar or array,
    broadcastable against the table entries), for k up to the maximal total
    order of the index set.
    """
    kmax = iset.max_total()
    if len(fderivs) < kmax + 1:
        raise ValueError("not enough derivatives of the outer function")
    keys = iset.keys()
    upper = {iset.zero: fderivs[kmax]}
    for k in range(kmax - 1, -1, -1):
        cur = {}
        for sigma in keys:
            tot = sum(sigma)
            if tot > kmax - k:
                continue
            if tot == 0:
                cur[sigma] = fderivs[k]
                continue
            i = _pivot(sigma)
            sp = _dec(sigma, i)
            acc = None
            for mu, nu, c in _sub_splits(sp):
                sv = s[_inc(nu, i)]
                if _is_zero(sv):
                    continue
                gv = upper[mu]
                if _is_zero(gv):
                    continue
                term = c * gv * sv
                acc = term if acc is None else acc + term
            cur[sigma] = 0.0 if acc is None else acc
        upper = cur
    return {sigma: upper.get(sigma, 0.0) for sigma in keys}


def t_shift(a: dict, var: int, out_iset: IndexSet) -> dict:
    """Derivative in variable ``var``: entry sigma of output is a[sigma + e_var]."""
    return {sigma: a[_inc(sigma, var)] for sigma in out_iset.keys()}


def t_scale(a: dict, c) -> dict:
    return {k: (0.0 if _is_zero(v) else c * v) for k, v in a.items()}


def t_add(a: dict, b: dict, iset: IndexSet) -> dict:
    out = {}
    for k in iset.keys():
        av, bv = a[k], b[k]
        if _is_zero(av):
            out[k] = bv
        elif _is_zero(bv):
            out[k] = av
        else:
            out[k] = av + bv
    return out


@lru_cache(maxsize=None)
def _uni_iset(cap: int) -> IndexSet:
    """Index set of a scratch table in one variable, carried as the x order,
    shared: the set is frozen."""
    return IndexSet(VarLayout(1, 0, 0), cap, 0)


def _block_key(block: str, k: int) -> tuple:
    """The key of the k-th derivative in the one coordinate of ``block``."""
    return tuple(k if b == block else 0 for b in Coords._fields)


# ---------------------------------------------------------------------------
# smooth maps


@dataclass(frozen=True)
class SmoothMap:
    """A smooth function of (x, y, xi) exposing exact derivative tables.

    ``provider(coords, iset)`` returns the dense derivative table on the
    requested index set, whose layout covers the map's; coordinate entries
    of ``coords`` are scalars or broadcastable numpy arrays.  Providers must
    be pure so that maps can be shared across worker processes.
    :meth:`table` refuses an index set whose layout does not cover the
    map's, and orders above ``DEFAULT_MAX_ORDER``.

    ``xi_reflection`` declares how the map behaves under xi -> -xi:

    * ``"odd"``: a real map with m(x, y, -xi) = -m(x, y, xi);
    * ``"hermitian"``: m(x, y, -xi) = conj m(x, y, xi), which covers every
      real map that is even in xi or does not depend on xi;
    * ``None``: nothing is declared.

    ``xi_degree`` declares positive homogeneity in xi:
    m(x, y, s xi) = s^xi_degree m(x, y, xi) for every s > 0, so that
    xi d_xi m = xi_degree m (Euler's relation), on each half-line; ``None``
    declares nothing.

    The built-in families derive both declarations from their parameters.
    A hand-built map opts in only by declaring them, and the quadrature
    engine trusts the declarations without checking them.
    """

    layout: VarLayout
    provider: Callable = field(repr=False)
    describe: str = ""
    support: dict = field(default_factory=dict)
    xi_reflection: str | None = None
    xi_degree: float | None = None

    def __post_init__(self):
        if any(n not in (0, 1) for n in self.layout):
            raise ValueError(f"a block holds at most one coordinate: layout entries "
                             f"must be 0 or 1, got {tuple(self.layout)}")
        if self.xi_reflection not in XI_REFLECTIONS:
            raise ValueError(f"xi_reflection must be one of {XI_REFLECTIONS}, "
                             f"got {self.xi_reflection!r}")
        if self.xi_degree is not None and not (
                isinstance(self.xi_degree, numbers.Real)
                and not isinstance(self.xi_degree, (bool, np.bool_))
                and math.isfinite(self.xi_degree)):
            raise ValueError(f"xi_degree must be a finite real number or None, "
                             f"got {self.xi_degree!r}")

    def table(self, coords: Coords, iset: IndexSet) -> dict:
        if any(n > m for n, m in zip(self.layout, iset.layout)):
            raise ValueError(f"index set layout {tuple(iset.layout)} does not cover "
                             f"the map's {tuple(self.layout)}")
        if iset.max_total() > DEFAULT_MAX_ORDER:
            raise ValueError(f"requested order {iset.max_total()} exceeds {DEFAULT_MAX_ORDER}")
        return self.provider(coords, iset)


# ---------------------------------------------------------------------------
# builtin families: one builder per family, whose keyword parameters are the
# family's parameters


def _number(value, name: str):
    """``value``, refusing a boolean: JSON ``true`` would read as 1."""
    if isinstance(value, (bool, np.bool_)):
        raise TypeError(f"{name} must be a number, got {value!r}")
    return value


_BLOCK_LAYOUTS = {"x": VarLayout(1, 0, 0), "y": VarLayout(0, 1, 0), "xi": VarLayout(0, 0, 1)}


def _univariate_map(block: str, derivs_fn, describe: str, support=None,
                    even: bool = False) -> SmoothMap:
    """Real map depending on a single coordinate of one block.

    ``derivs_fn(v, cap)`` returns the list of derivative values d^k/dv^k for
    k = 0..cap at the array of coordinate values v.  A map of x or y is
    hermitian under xi -> -xi, and of xi degree 0; a map of xi is hermitian
    when ``even`` holds, and declares no degree.
    """
    def provider(coords: Coords, iset: IndexSet) -> dict:
        cap = iset.cap_for_block(block)
        der = derivs_fn(np.asarray(getattr(coords, block)), cap)
        t = t_blank(iset)
        for k in range(cap + 1):
            t[_block_key(block, k)] = der[k]
        return t

    sup = {block: tuple(support)} if support is not None else {}
    reflection = "hermitian" if block != "xi" or even else None
    return SmoothMap(_BLOCK_LAYOUTS[block], provider, describe, sup, reflection,
                     None if block == "xi" else 0)


_GAUSS_SUPPORT_DECADES = 6.5  # exp(-6.5^2) ~ 4.4e-19, below quadrature resolution


def _gaussian_bump(*, block="y", center=0.0, width=1.0) -> SmoothMap:
    center, width = float(_number(center, "center")), float(_number(width, "width"))
    if width <= 0:
        raise ValueError("width must be positive")

    def derivs(v, cap):
        u = (v - center) / width
        s = {(0, 0, 0): -u * u, (1, 0, 0): np.asarray(-2.0 * u / width)}
        for k in range(2, cap + 1):
            s[(k, 0, 0)] = -2.0 / width ** 2 if k == 2 else 0.0
        h = t_exp(s, _uni_iset(cap))
        return [h[(k, 0, 0)] for k in range(cap + 1)]

    halfw = _GAUSS_SUPPORT_DECADES * width
    return _univariate_map(block, derivs, f"exp(-(({block}-{center})/{width})^2)",
                           (center - halfw, center + halfw), even=center == 0.0)


def _mollifier_bump(*, block="y", center=0.0, radius=1.0) -> SmoothMap:
    center, radius = float(_number(center, "center")), float(_number(radius, "radius"))
    if radius <= 0:
        raise ValueError("radius must be positive")
    # flat outside |u| < 1 - eps: values there are below 1e-18 and are
    # clamped to exact zero so the support is genuinely compact.
    eps = 0.01

    def derivs(v, cap):
        v = np.asarray(v)
        u = (v - center) / radius
        inside = np.abs(u) < 1.0 - eps
        us = np.where(inside, u, 0.0)
        w = {(0, 0, 0): 1.0 - us * us, (1, 0, 0): np.asarray(-2.0 * us / radius)}
        for k in range(2, cap + 1):
            w[(k, 0, 0)] = -2.0 / radius ** 2 if k == 2 else 0.0
        iset = _uni_iset(cap)
        inv = t_pow(w, -1.0, iset)
        arg = t_scale(inv, -1.0)
        arg[iset.zero] = arg[iset.zero] + 1.0
        h = t_exp(arg, iset)
        return [np.where(inside, h[(k, 0, 0)], 0.0) for k in range(cap + 1)]

    return _univariate_map(block, derivs, f"bump at {center}, radius {radius}",
                           (center - radius, center + radius), even=center == 0.0)


def _trig_polynomial(*, terms, block="x", offset=0.0) -> SmoothMap:
    """offset + sum of amp * cos(freq * v + phase) over (amp, freq, phase) terms."""
    terms = [tuple(float(_number(v, "a term entry")) for v in t) for t in terms]
    offset = float(_number(offset, "offset"))

    def derivs(v, cap):
        v = np.asarray(v)
        out = []
        for k in range(cap + 1):
            acc = np.zeros(v.shape)
            for amp, freq, ph in terms:
                acc = acc + amp * freq ** k * np.cos(freq * v + ph + k * np.pi / 2.0)
            if k == 0:
                acc = acc + offset
            out.append(acc)
        return out

    return _univariate_map(block, derivs, f"trig polynomial in {block}")


def _bracket_u(v, cap: int) -> dict:
    """Table of 1 + v^2 in one variable."""
    u = {(0, 0, 0): 1.0 + v * v, (1, 0, 0): np.asarray(2.0 * v)}
    for k in range(2, cap + 1):
        u[(k, 0, 0)] = 2.0 if k == 2 else 0.0
    return u


def _bracket_power(*, exponent) -> SmoothMap:
    d = float(_number(exponent, "exponent"))

    def derivs(v, cap):
        h = t_pow(_bracket_u(np.asarray(v), cap), d / 2.0, _uni_iset(cap))
        return [h[(k, 0, 0)] for k in range(cap + 1)]

    return _univariate_map("xi", derivs, f"<xi>^{d}", even=True)


def _sqrt_cos_symbol(*, omega=2.0) -> SmoothMap:
    omega = float(_number(omega, "omega"))

    def derivs(v, cap):
        iset = _uni_iset(cap)
        q = t_pow(_bracket_u(np.asarray(v), cap), 0.25, iset)
        ep = t_exp(t_scale(q, 1j * omega), iset)
        em = t_exp(t_scale(q, -1j * omega), iset)
        return [0.5 * (ep[(k, 0, 0)] + em[(k, 0, 0)]) for k in range(cap + 1)]

    return _univariate_map("xi", derivs, f"cos({omega} <xi>^1/2)", even=True)


def _constant(*, value, layout=(0, 0, 0)) -> SmoothMap:
    value = _number(value, "value")
    layout = VarLayout(*(int(n) for n in layout))

    def provider(coords: Coords, iset: IndexSet) -> dict:
        t = t_blank(iset)
        t[iset.zero] = value
        return t

    reflection = "hermitian" if isinstance(value, numbers.Real) else None
    return SmoothMap(layout, provider, f"constant {value}", xi_reflection=reflection,
                     xi_degree=0)


def _xi_table(coords: Coords, iset: IndexSet, derivs) -> dict:
    """Table of f(xi) on ``iset``, whose layout has xi.

    ``derivs(v)`` gives the xi-derivatives of f at v for orders 0, 1, ...;
    the orders it leaves out are exactly zero.
    """
    t = t_blank(iset)
    for k, val in enumerate(derivs(np.asarray(coords.xi))):
        if (0, 0, k) in t:
            t[(0, 0, k)] = val
    return t


def _xi_norm_table(coords: Coords, iset: IndexSet) -> dict:
    """Table of |xi| (xi away from 0)."""
    return _xi_table(coords, iset, lambda v: (np.abs(v), np.sign(v)))


def _xi_norm_sq_table(coords: Coords, iset: IndexSet) -> dict:
    """Table of xi^2."""
    return _xi_table(coords, iset, lambda v: (v * v, 2.0 * v, 2.0))


def _linear_phase() -> SmoothMap:
    def provider(coords: Coords, iset: IndexSet) -> dict:
        x, y, xi = np.asarray(coords.x), np.asarray(coords.y), np.asarray(coords.xi)
        t = t_blank(iset)
        for key, v in (((1, 0, 0), xi), ((0, 1, 0), -xi), ((0, 0, 1), x - y),
                       ((1, 0, 1), 1.0), ((0, 1, 1), -1.0)):
            if key in t:
                t[key] = v
        t[iset.zero] = (x - y) * xi
        return t

    return SmoothMap(VarLayout(1, 1, 1), provider, "<x-y, xi> on R^1",
                     xi_reflection="odd", xi_degree=1)


def _scaled_norm_phase(*, speed, t, sign=1) -> SmoothMap:
    """(x - y) xi + sign * c(x) * t * |xi|, the wave branch at time ``t``."""
    if isinstance(sign, bool) or sign not in (1, -1):
        raise ValueError("sign must be +1 or -1")
    t = float(_number(t, "t"))
    speed = _resolve_speed(speed)
    if speed.layout != VarLayout(1, 0, 0):
        raise ValueError("speed must be a map of the spatial x variable only")
    lin = _linear_phase()

    def provider(coords: Coords, iset: IndexSet) -> dict:
        prod = t_mul(t_scale(speed.provider(coords, iset), sign * t),
                     _xi_norm_table(coords, iset), iset)
        return t_add(lin.provider(coords, iset), prod, iset)

    return SmoothMap(VarLayout(1, 1, 1), provider,
                     f"<x-y, xi> {'+' if sign > 0 else '-'} c(x) {t} ||xi||", xi_degree=1)


def _tabulated_phase(*, g_provider, describe: str = "xi (g(x) - y)") -> SmoothMap:
    """Phase xi * (g(x) - y) with x-jets of g supplied by a callback.

    ``g_provider(x, sgn, order)`` returns the list of d^j g / dx^j arrays for
    j = 0..order; it may depend on sign(xi) (sgn is an array broadcastable
    against x), so the map declares no xi reflection.  A caller whose g does
    not depend on the sign may declare the phase odd.  On each half-line
    the phase is xi times a function of (x, y, sign xi), so it declares
    xi degree 1 whatever g is.
    """

    def provider(coords: Coords, iset: IndexSet) -> dict:
        x, y, xi = np.asarray(coords.x), np.asarray(coords.y), np.asarray(coords.xi)
        g = g_provider(x, np.sign(xi), iset.cap_x)
        t = t_blank(iset)
        for j in range(iset.cap_x + 1):
            kj = (j, 0, 0)
            kjl = (j, 0, 1)
            gz = g[j] - y if j == 0 else g[j]
            if kj in t:
                t[kj] = xi * gz
            if kjl in t:
                t[kjl] = gz
        if (0, 1, 0) in t:
            t[(0, 1, 0)] = -xi
        if (0, 1, 1) in t:
            t[(0, 1, 1)] = -1.0
        return t

    return SmoothMap(VarLayout(1, 1, 1), provider, describe, xi_degree=1)


def _coordinate(*, block) -> SmoothMap:
    def provider(coords: Coords, iset: IndexSet) -> dict:
        t = t_blank(iset)
        t[iset.zero] = np.asarray(getattr(coords, block))
        if _block_key(block, 1) in t:
            t[_block_key(block, 1)] = 1.0
        return t

    on_xi = block == "xi"
    return SmoothMap(_BLOCK_LAYOUTS[block], provider, f"coordinate {block}",
                     xi_reflection="odd" if on_xi else "hermitian", xi_degree=int(on_xi))


def _merge_layout(maps) -> VarLayout:
    return VarLayout(max(m.layout.n_x for m in maps),
                     max(m.layout.n_y for m in maps),
                     max(m.layout.n_xi for m in maps))


def _merge_support(maps, mode: str) -> dict:
    out: dict = {}
    for block in ("x", "y", "xi"):
        intervals = [m.support[block] for m in maps if block in m.support]
        if not intervals:
            continue
        if mode == "product":
            lo = max(iv[0] for iv in intervals)
            hi = min(iv[1] for iv in intervals)
            out[block] = (lo, hi)
        else:  # sum: union only meaningful when every term is supported
            if len(intervals) == len(maps):
                out[block] = (min(iv[0] for iv in intervals), max(iv[1] for iv in intervals))
    return out


def _product_reflection(factors) -> str | None:
    """An even number of odd factors times hermitian ones is hermitian.  An
    odd number of odd factors is odd when every other factor lacks xi: a
    hermitian map free of xi equals its own conjugate, so it is real (and
    even)."""
    kinds = [f.xi_reflection for f in factors]
    if None in kinds:
        return None
    if kinds.count("odd") % 2 == 0:
        return "hermitian"
    real_even = all(kind == "odd" or not f.layout.n_xi for f, kind in zip(factors, kinds))
    return "odd" if real_even else None


def _product_degree(factors) -> float | None:
    """Degrees of homogeneity in xi add up under products."""
    degrees = [f.xi_degree for f in factors]
    return None if None in degrees else sum(degrees)


def _shared_degree(maps) -> float | None:
    """Sums and multiples of maps sharing one degree keep it."""
    degrees = {m.xi_degree for m in maps}
    return degrees.pop() if len(degrees) == 1 else None


def _real_combination_reflection(maps, coefficients) -> str | None:
    """Real multiples and sums of maps sharing one declaration keep it."""
    kinds = {m.xi_reflection for m in maps}
    if len(kinds) == 1 and all(isinstance(c, numbers.Real) for c in coefficients):
        return kinds.pop()
    return None


def _product(*, factors) -> SmoothMap:
    factors = [_resolve_map(f) for f in factors]
    if not factors:
        raise ValueError("product needs at least one factor")
    layout = _merge_layout(factors)

    def provider(coords: Coords, iset: IndexSet) -> dict:
        acc = None
        for f in factors:
            ft = f.provider(coords, iset)
            acc = ft if acc is None else t_mul(acc, ft, iset)
        return acc

    return SmoothMap(layout, provider, " * ".join(f.describe or "?" for f in factors),
                     _merge_support(factors, "product"), _product_reflection(factors),
                     _product_degree(factors))


def _sum(*, terms, coefficients=None) -> SmoothMap:
    terms = [_resolve_map(f) for f in terms]
    if not terms:
        raise ValueError("sum needs at least one term")
    coeffs = ([1.0] * len(terms) if coefficients is None
              else [_number(c, "a coefficient") for c in coefficients])
    if len(coeffs) != len(terms):
        raise ValueError("coefficients must match terms")
    layout = _merge_layout(terms)

    def provider(coords: Coords, iset: IndexSet) -> dict:
        acc = t_blank(iset)
        for c, f in zip(coeffs, terms):
            ft = f.provider(coords, iset)
            if c != 1:
                ft = t_scale(ft, c)
            acc = t_add(acc, ft, iset)
        return acc

    return SmoothMap(layout, provider, " + ".join(f.describe or "?" for f in terms),
                     _merge_support(terms, "sum"), _real_combination_reflection(terms, coeffs),
                     _shared_degree(terms))


def _scaled(*, inner, factor) -> SmoothMap:
    inner = _resolve_map(inner)
    factor = _number(factor, "factor")

    def provider(coords: Coords, iset: IndexSet) -> dict:
        return t_scale(inner.provider(coords, iset), factor)

    return SmoothMap(inner.layout, provider, f"{factor} * ({inner.describe})",
                     dict(inner.support),
                     _real_combination_reflection([inner], [factor]), inner.xi_degree)


_FAMILIES = {
    "constant": _constant,
    "linear_phase": _linear_phase,
    "scaled_norm_phase": _scaled_norm_phase,
    "tabulated_phase": _tabulated_phase,
    "gaussian_bump": _gaussian_bump,
    "mollifier_bump": _mollifier_bump,
    "trig_polynomial": _trig_polynomial,
    "coordinate": _coordinate,
    "bracket_power": _bracket_power,
    "sqrt_cos_symbol": _sqrt_cos_symbol,
    "product": _product,
    "sum": _sum,
    "scaled": _scaled,
}


def builtin_map(family: str, **params) -> SmoothMap:
    """Construct one of the built-in smooth map families.

    Families: constant, linear_phase, scaled_norm_phase, tabulated_phase,
    gaussian_bump, mollifier_bump, trig_polynomial, coordinate,
    bracket_power, sqrt_cos_symbol, product, sum, scaled.

    ``params`` bind as keywords to the family's builder, so a missing or
    unexpected parameter raises ``TypeError`` and an unknown family
    ``ValueError``.  ``coordinate`` takes a ``block`` ("x", "y" or "xi")
    and is the block's one coordinate; a ``constant``'s ``layout`` entries
    are 0 or 1, as every map's are.  Specs nest: ``product`` factors,
    ``sum`` terms and the ``scaled`` inner map may each be a map or a
    ``{"family": ...}`` dict, and the ``scaled_norm_phase`` speed a map, a
    number or a ``{"kind": ...}`` dict (see :func:`make_speed`); its time
    ``t`` is a number.

    Each builder derives the map's ``xi_reflection``: ``linear_phase`` and
    the xi ``coordinate`` are odd; real constants, maps of x or y, xi bumps
    centred at 0, ``bracket_power`` and ``sqrt_cos_symbol`` are hermitian;
    ``sum`` and ``scaled`` keep a shared declaration under real
    coefficients and ``product`` combines its factors' (an odd number of odd
    factors times maps free of xi is odd).  ``tabulated_phase``,
    ``scaled_norm_phase``, trig polynomials in xi and complex constants
    declare nothing.

    Each family also derives the map's ``xi_degree``: the linear,
    scaled-norm and tabulated phases and the xi ``coordinate`` have degree
    1; constants and maps of x or y alone degree 0; ``product`` adds its
    factors' degrees, and ``sum`` and ``scaled`` keep a shared degree.
    ``bracket_power``, ``sqrt_cos_symbol``, xi bumps and trig polynomials
    in xi declare none.
    """
    if family not in _FAMILIES:
        raise ValueError(f"unknown family {family!r}")
    return _FAMILIES[family](**params)


def _resolve_map(spec) -> SmoothMap:
    """A map given as a SmoothMap or as a ``{"family": ...}`` spec."""
    if isinstance(spec, SmoothMap):
        return spec
    if not isinstance(spec, dict) or "family" not in spec:
        raise ValueError("a map spec is an object with a 'family' key")
    return builtin_map(**spec)


# ---------------------------------------------------------------------------
# speeds c(x): maps of the x block


def _constant_speed(*, value) -> SmoothMap:
    return _constant(value=float(_number(value, "value")), layout=(1, 0, 0))


def _affine_speed(*, offset=0.0, slope=1.0) -> SmoothMap:
    offset, slope = float(_number(offset, "offset")), float(_number(slope, "slope"))
    terms = [_coordinate(block="x")]
    coeffs = [slope]
    if offset:
        terms.append(_constant(value=1.0, layout=(1, 0, 0)))
        coeffs.append(offset)
    return _sum(terms=terms, coefficients=coeffs)


def _trig_field_speed(*, offset, terms=()) -> SmoothMap:
    terms = list(terms)
    if not terms:
        return _constant_speed(value=offset)
    return _trig_polynomial(terms=terms, block="x", offset=offset)


_SPEED_KINDS = {
    "constant": _constant_speed,
    "affine": _affine_speed,
    "trig_field": _trig_field_speed,
}


def make_speed(kind: str, **params) -> SmoothMap:
    """Speed profiles c(x) as maps over the x block.

    Kinds: ``constant`` (value), ``affine`` (offset + slope * x) and
    ``trig_field`` (offset plus a cosine sum given as (amp, freq, phase)
    terms).  ``params`` bind as keywords to the kind's builder, so a
    missing or unexpected parameter raises ``TypeError`` and an unknown
    kind ``ValueError``.
    """
    if kind not in _SPEED_KINDS:
        raise ValueError(f"unknown speed kind {kind!r}")
    return _SPEED_KINDS[kind](**params)


def _resolve_speed(spec) -> SmoothMap:
    """A speed given as a map of x, a number or a ``{"kind": ...}`` spec."""
    if isinstance(spec, SmoothMap):
        return spec
    if isinstance(spec, (int, float)) and not isinstance(spec, bool):
        return make_speed("constant", value=spec)
    if not isinstance(spec, dict) or "kind" not in spec:
        raise ValueError("a speed is a number or an object with a 'kind' key")
    return make_speed(**spec)
