"""Oscillatory-integral regularizer: cutoff, coefficients and powers of L.

The identity exp(i Phi) = M[exp(i Phi)] with
M[f] = alpha d_xi f + beta d_y f + gamma f (one y and one xi coordinate)
turns the divergent integral of exp(i Phi) a psi into the absolutely
convergent integral of exp(i Phi) L^kappa[a psi], where L is the transpose
of M.  The coefficients divide by r = ||xi||^2 |grad_xi Phi|^2 +
|grad_y Phi|^2, which nondegeneracy keeps above alpha ||xi||^2 outside the
unit ball; inside it the cutoff chi makes M the identity, so r is never
actually inverted there.

With gamma = chi and s' = (1 - chi) / r, the coefficients are
alpha = -i alpha' and beta = -i beta' with the real fields
alpha' = s' ||xi||^2 grad_xi Phi and beta' = s' grad_y Phi.  So
L = gamma + i D with the real operator

    D g = d_xi(||xi||^2 d_xi Phi h) + d_y(d_y Phi h),
    h = s' g,

and the ladder runs in real arithmetic on real data.  Factoring s' out
leaves one dense product per step (s' g): the two phase-gradient fields
have few nonzero entries for phases linear in xi on each half-line, and
each derivative forms only the Leibniz rows it reads.  Where chi == 0
exactly (beyond the clamped outer edge of the profile), the cutoff table
holds exact zeros and L^kappa = i^kappa D^kappa.

Word ladder: let the phase be positively homogeneous of degree 1 in xi,
so Phi = rho phi(x, y) on each half-line xi = rho sigma (rho = ||xi||),
and a psi of degree d (``SmoothMap.xi_degree``; psi is a map of y alone,
of degree 0), so a psi = rho^d F(x, y); chi depends on rho alone.  With
R = phi^2 + phi_y^2, r = rho^2 R, and for g = f(rho) G(x, y)

    D g = [(1 - chi) f]'(rho) T_A G + ((1 - chi) f / rho) T_B G,
    T_A G = (phi / R) G,    T_B G = d_y(phi_y G / R).

So L^kappa(a psi) = sum_w c_w(rho) T_w F over the words w in {A, B} of
length at most kappa (7 at kappa = 2, 31 at kappa = 4), with
T_wA = T_A T_w.  The scalar coefficients start from c = rho^d for the
empty word, and each application of L maps c_w to chi c_w and adds
i [(1 - chi) c_w]' to c_wA and i (1 - chi) c_w / rho to c_wB.
``_unit_sphere_tables`` runs the table ladder once at xi = sigma, on
tables without xi orders, ``_band_words`` picks the words a band sums,
``_word_coefficients`` runs the scalar ladder on the band's radii, and
``_word_sums`` sums the words at each node, with Phi(rho sigma) =
rho Phi(sigma).  Two cases keep a single word.  At kappa = 0 (the inner
band, where L is the identity) it is rho^d F.  Where chi == 0 every
coefficient is a multiple of rho^(d - kappa), so the words of length
kappa merge into one table, i^kappa rho^(d - kappa) times D^kappa(a psi)
at sigma, the word T_w weighted by the product of (d - k) over its A
steps k (Euler's relation for the xi-term of degree d - k).  Each table
entry serves every xi node of its y node, so its rounding error does not
average out over the nodes as the per-node ladder's does: both ladders
run in numpy's long double and are rounded once.  The quadrature engine
takes this path on every band when the phase declares degree 1 and the
amplitude a degree; every other operator runs the ladder at each node.

Reflection xi -> -xi: for a real phase that is odd in xi, d_xi Phi and r
are even and d_y Phi is odd, so D maps a table g with g(-xi) = conj g(xi)
(hermitian) to one with (D g)(-xi) = -conj (D g)(xi).  chi is even, so
L = chi + i D maps hermitian tables to hermitian tables, and L^kappa(a psi)
is hermitian whenever a and psi are.  The quadrature engine uses this to
evaluate only the xi > 0 half-line.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import NamedTuple

import numpy as np

from .jets import (
    Coords,
    IndexSet,
    SmoothMap,
    VarLayout,
    _add_into,
    _is_zero,
    _uni_iset,
    _xi_norm_sq_table,
    _xi_norm_table,
    t_add,
    t_blank,
    t_compose,
    t_div,
    t_exp,
    t_mul,
    t_mul_shift,
    t_pow,
    t_scale,
    t_shift,
)

__all__ = [
    "CutoffChi",
    "KappaPlan",
    "RegCoeffTables",
    "select_kappa",
    "coefficient_tables",
    "apply_l_ladder",
    "check_coefficient_symbol_bounds",
]


@dataclass(frozen=True)
class CutoffChi:
    """Radial cutoff: 1 inside ``inner_radius``, 0 outside ``outer_radius``.

    The profile between the radii is the standard smooth partition
    g(1-u) / (g(1-u) + g(u)) with g(s) = exp(-1/s), u the normalised radial
    coordinate.  Within ``guard`` of either end the exact values differ from
    0 or 1 by less than 1e-18, far below quadrature resolution, so they are
    clamped to the exact constants; this keeps every derivative finite and
    exactly zero on the plateaus.
    """

    inner_radius: float = 1.0
    outer_radius: float = 2.0
    guard: float = 0.015

    def __post_init__(self):
        if not (0.0 < self.inner_radius < self.outer_radius):
            raise ValueError("need 0 < inner_radius < outer_radius")
        if not (0.0 < self.guard < 0.1):
            raise ValueError("guard must lie in (0, 0.1)")

    def rescaled(self, factor: float) -> "CutoffChi":
        """Cutoff of the dilated argument: chi(factor * xi)."""
        return CutoffChi(self.inner_radius / factor, self.outer_radius / factor, self.guard)

    def _u(self, s):
        """Normalised radial coordinate: 0 at inner_radius, 1 at outer_radius."""
        width = self.outer_radius - self.inner_radius
        return (np.asarray(s, dtype=float) - self.inner_radius) / width

    def profile_derivs(self, s, order: int) -> list:
        """Values and s-derivatives of the radial profile, orders 0..order."""
        s = np.asarray(s, dtype=float)
        width = self.outer_radius - self.inner_radius
        u = self._u(s)
        lo = u <= self.guard
        hi = u >= 1.0 - self.guard
        mid = ~(lo | hi)
        out = [np.where(lo, 1.0, 0.0)] + [np.zeros(s.shape) for _ in range(order)]
        if np.any(mid):
            um = u[mid]
            iset = _uni_iset(order)
            tu = t_blank(iset)
            tu[iset.zero] = um
            if order >= 1:
                tu[(1, 0, 0)] = 1.0 / width
            tv = t_scale(tu, -1.0)
            tv[iset.zero] = 1.0 - um
            a = t_exp(t_scale(t_pow(tv, -1.0, iset), -1.0), iset)
            b = t_exp(t_scale(t_pow(tu, -1.0, iset), -1.0), iset)
            q = t_div(a, t_add(a, b, iset), iset)
            for k in range(order + 1):
                out[k][mid] = np.broadcast_to(np.real(q[(k, 0, 0)]), um.shape)
        return out

    def values(self, xi) -> np.ndarray:
        return self.profile_derivs(np.abs(np.asarray(xi, dtype=float)), 0)[0]

    def xi_table(self, coords: Coords, iset: IndexSet) -> dict:
        """Derivative table of chi(||xi||) on ``iset``, whose layout has xi.

        When every point lies on the clamped outer plateau the table is
        ``t_blank``: exact scalar zeros, which the jet kernels skip.
        """
        norm_t = _xi_norm_table(coords, iset)
        if np.all(self._u(norm_t[iset.zero]) >= 1.0 - self.guard):
            return t_blank(iset)
        derivs = self.profile_derivs(norm_t[iset.zero], iset.max_total())
        return t_compose(derivs, norm_t, iset)


@dataclass(frozen=True)
class KappaPlan:
    """Number of L applications and the integrand decay it buys."""

    kappa: int
    gain: float
    decay_exponent: float


def select_kappa(d: float, rho: float, delta: float, *,
                 extra_decay: int = 0) -> KappaPlan:
    """Smallest kappa making the regularized integrand absolutely integrable.

    Each application of L improves the xi decay by min(rho, 1 - delta), so
    the regularized amplitude is O(||xi||^(d - kappa gain)); we require the
    exponent to be at most -(2 + extra_decay): one power for the one xi
    coordinate, one beyond bare integrability, plus any decay requested for
    tail control.
    """
    if not (0.0 < rho <= 1.0) or not (0.0 <= delta < 1.0):
        raise ValueError("need 0 < rho <= 1 and 0 <= delta < 1")
    if extra_decay < 0:
        raise ValueError("extra_decay must be nonnegative")
    gain = min(rho, 1.0 - delta)
    required = (d + 2 + extra_decay) / gain
    kappa = max(0, math.ceil(required - 1e-12))
    return KappaPlan(kappa, gain, d - kappa * gain)


@dataclass(frozen=True)
class RegCoeffTables:
    """Derivative tables of the regularizer coefficients on one index set.

    D g = d_xi(xi_field h) + d_y(y_field h) with h = s_prime g, where
    ``s_prime`` is (1 - chi) / r, ``xi_field`` holds ||xi||^2 d_xi Phi and
    ``y_field`` holds d_y Phi (exact zeros for a phase without y).  The real
    fields alpha' = s' xi_field and beta' = s' y_field of L = gamma + i D
    are formed when read.  The complex coefficients alpha = -i alpha' and
    beta = -i beta' of M are not formed at all: L needs only the real ones.
    """

    s_prime: dict
    xi_field: dict
    y_field: dict
    gamma: dict
    iset: IndexSet

    @property
    def alpha_prime(self) -> dict:
        return t_mul(self.s_prime, self.xi_field, self.iset)

    @property
    def beta_prime(self) -> dict:
        return t_mul(self.s_prime, self.y_field, self.iset)


def coefficient_tables(phase_table: dict, coords: Coords, chi: CutoffChi,
                       iset: IndexSet) -> RegCoeffTables:
    """Tables of s', ||xi||^2 d_xi Phi, d_y Phi and gamma on ``iset``.

    ``phase_table`` must contain every key of ``iset`` plus one extra order
    in each y and xi direction (it is shifted to read the phase gradient).
    On points where chi == 1 exactly, r is replaced by 1 before dividing;
    the factor (1 - chi) and all its derivatives vanish exactly there, so
    the finite quotient is multiplied away and s' = 0 exactly.  r itself is
    not kept: nothing downstream reads it, and it is freed once s' is formed.
    """
    nsq = _xi_norm_sq_table(coords, iset)
    dphi_xi = t_shift(phase_table, 2, iset)  # key entries 1 and 2 are the y and xi orders
    dphi_y = t_shift(phase_table, 1, iset) if iset.layout.n_y else t_blank(iset)
    r = t_add(t_mul(nsq, t_mul(dphi_xi, dphi_xi, iset), iset),
              t_mul(dphi_y, dphi_y, iset), iset)
    gamma = chi.xi_table(coords, iset)
    omc = t_scale(gamma, -1.0)
    omc[iset.zero] = 1.0 - np.asarray(gamma[iset.zero])
    inner = np.asarray(omc[iset.zero]) == 0.0
    r_safe = dict(r)
    r_safe[iset.zero] = np.where(inner, 1.0, np.asarray(r[iset.zero]))
    s = t_div(omc, r_safe, iset)
    del r, r_safe, omc
    return RegCoeffTables(s, t_mul(nsq, dphi_xi, iset), dphi_y, gamma, iset)


def _as_map(obj) -> SmoothMap:
    """The map of a phase or amplitude; a bare map is returned as it is."""
    return obj.map if hasattr(obj, "map") else obj


_I_POWERS = (1.0, 1.0j, -1.0, -1.0j)


def apply_l_ladder(f: dict, coeffs: RegCoeffTables, kappa: int,
                   iset: IndexSet) -> dict:
    """L^kappa f, consuming one integration order per application.

    ``f`` lives on ``iset`` (whose int cap must be at least kappa) and the
    coefficient tables on a superset.  Each step forms h = s' g on the
    current set, then D g = d_xi(xi_field h) + d_y(y_field h) on a table one
    int order smaller, computing only the product rows each derivative
    reads.  Where every gamma entry is an exact zero (chi == 0 on the whole
    chunk), L^kappa f = i^kappa D^kappa f; otherwise each step is
    g <- gamma g + i D g.

    Besides the coefficient tables, one step holds at most three tables:
    h on the current set, and g and D g on the next: once h is formed, g
    keeps only the entries gamma g reads (none on an outer chunk).  On a
    transition chunk h is dropped before gamma g is formed, so g, D g and
    gamma g.  The y-term's rows are added in place into the fresh xi-term
    table, i D g row by row into the fresh gamma g table, and h and D g are
    dropped once read.  Every sum keeps its operands and their order
    (``_add_into``), so the result is bit-identical to building each term
    as a table of its own and adding with ``t_add``.
    """
    outer = all(_is_zero(v) for v in coeffs.gamma.values())
    g = f
    cur = iset
    for _ in range(kappa):
        nxt = cur.shrink_int(1)
        h = t_mul(coeffs.s_prime, g, cur)
        # gamma g reads g on the next set alone, an outer step not at all
        g = None if outer else {key: g[key] for key in nxt.keys()}
        # key entries 2 and 1 are the xi and y orders
        dg = t_mul_shift(coeffs.xi_field, h, 2, nxt)
        dg = t_mul_shift(coeffs.y_field, h, 1, nxt, into=dg)
        del h
        if outer:
            g = dg
        else:
            g = t_mul(coeffs.gamma, g, nxt)
            for key in nxt.keys():
                d = dg.pop(key)
                g[key] = _add_into(g[key], 0.0 if _is_zero(d) else 1.0j * d)
        cur = nxt
    if outer and kappa % 4:
        g = t_scale(g, _I_POWERS[kappa % 4])
    return g


# The one layout the quadrature engine tables every map on: one x, one y and
# one xi.  A map that lacks a block writes exact zeros for every order in
# it, so a phase without x tables as a phase constant in x.
_ENGINE_LAYOUT = VarLayout(1, 1, 1)


def _regularized_tables(phase, amp: SmoothMap, psi: SmoothMap, chi: CutoffChi,
                        kappa: int, coords: Coords, out_order: int):
    """x-only tables of L^kappa(a psi) and of Phi, and their index set.

    ``phase`` is anything with ``table``; the phase, ``amp`` and ``psi``
    are all tabled on ``_ENGINE_LAYOUT``.  The product a psi carries
    ``kappa`` integration orders, one for each application of L.
    """
    layout = _ENGINE_LAYOUT
    iset_f = IndexSet(layout, out_order, kappa)
    iset_x = IndexSet(layout, out_order, 0)
    phase_t = phase.table(coords, IndexSet(layout, out_order, kappa + 1))
    f = t_mul(amp.provider(coords, iset_f), psi.provider(coords, iset_f), iset_f)
    if kappa:
        f = apply_l_ladder(f, coefficient_tables(phase_t, coords, chi, iset_f),
                           kappa, iset_f)
    keys = iset_x.keys()
    return {k: f[k] for k in keys}, {k: phase_t[k] for k in keys}, iset_x


def _cast(table: dict, real, cplx) -> dict:
    """``table`` with every array entry in the real or complex dtype given."""
    return {k: v if _is_zero(v) else np.asarray(v, cplx if np.iscomplexobj(v) else real)
            for k, v in table.items()}


class _WordLadder(NamedTuple):
    """The word tables of ``_unit_sphere_tables`` at xi = sigma on ``n_y``
    y nodes, and the tables of Phi there.

    ``generations[l]`` is the x-only table of the 2^l words of length l in
    word order: per x key an exact zero or a (words, x rows, y nodes) long
    double array.  ``phase`` holds an exact zero or an (x rows, y nodes)
    array per x key.
    """

    generations: list
    phase: dict
    iset_x: IndexSet
    n_y: int
    degree: float


def _interleave(a, b):
    """The entries ``a`` and ``b`` interleaved along the word axis 0:
    a[0], b[0], a[1], b[1], ..., the children wA and wB of each word w."""
    if _is_zero(a) and _is_zero(b):
        return 0.0
    a, b = np.broadcast_arrays(a, b)
    return np.stack((a, b), axis=1).reshape((-1,) + a.shape[1:])


def _unit_sphere_tables(phase, amp: SmoothMap, psi: SmoothMap, kappa: int, degree: float,
                        coords: Coords, out_order: int) -> _WordLadder:
    """The word tables T_w(a psi) of L^kappa(a psi) at xi = sigma, for a
    phase of xi degree 1 and an ``amp`` of xi degree ``degree``; ``psi`` is
    a map of y alone, ``coords.xi`` is sigma = +-1 everywhere and
    ``coords.y`` holds the y nodes on its last axis.

    The tables carry (x, y) orders only.  Each step maps every word table G
    of the last generation to T_A G = (phi / R) G and T_B G =
    d_y(phi_y G / R), with phi = Phi(sigma) = sigma d_xi Phi(sigma) and
    R = phi^2 + phi_y^2, one int order down; the children wA, wB of each
    word w follow in the order of w.  The ladder runs in long double.
    """
    layout = _ENGINE_LAYOUT
    iset_f = IndexSet(layout, out_order, kappa)
    iset_x = IndexSet(layout, out_order, 0)
    phase_t = phase.table(coords, IndexSet(layout, out_order, kappa + 1))
    cur = IndexSet(VarLayout(1, 1, 0), out_order, kappa)  # no xi orders
    n_y = np.shape(coords.y)[-1]
    wide = (np.longdouble, np.clongdouble)

    def rows(v):
        if _is_zero(v):
            return v
        a = np.atleast_2d(v)
        return np.broadcast_to(a, (a.shape[0], n_y))

    f = t_mul(amp.provider(coords, iset_f), psi.provider(coords, iset_f), cur)
    g = _cast({k: v if _is_zero(v) else rows(v)[None] for k, v in f.items()}, *wide)
    sigma = float(np.ravel(coords.xi)[0])
    # key entries 2 and 1 are the xi and y orders
    xi_field = _cast(t_shift(phase_t, 2, cur), *wide)
    phi = t_scale(xi_field, sigma)
    phi_y = _cast(t_shift(phase_t, 1, cur), *wide)
    one = t_blank(cur)
    one[cur.zero] = 1.0
    r_inv = t_div(one, t_add(t_mul(xi_field, xi_field, cur), t_mul(phi_y, phi_y, cur), cur),
                  cur)
    keys = iset_x.keys()
    generations = []
    for _ in range(kappa):
        nxt = cur.shrink_int(1)
        generations.append({k: g[k] for k in keys})
        h = t_mul(r_inv, g, cur)
        t_a, t_b = t_mul(phi, h, nxt), t_mul_shift(phi_y, h, 1, nxt)
        g = {k: _interleave(t_a[k], t_b[k]) for k in nxt.keys()}
        cur = nxt
    generations.append(g)
    return _WordLadder(generations, {k: rows(phase_t[k]) for k in keys}, iset_x, n_y, degree)


def _band_words(ladder: _WordLadder, kappa: int, merged: bool) -> tuple:
    """The words of ``ladder`` that a band of ``kappa`` applications of L
    sums, rounded to double: per length parity p, the words of length
    parity p in word order, per x key an exact zero or an (x rows, words,
    y nodes) array.  The coefficient of a word of length l is i^l times a
    real function of rho, so the even words make the real part of
    L^kappa(a psi) and the odd words the imaginary part.

    The inner band (kappa = 0) sums the empty word alone, the transition
    band every word of length up to kappa.  Given ``merged`` (chi == 0 on
    the band) only the words of length kappa have a nonzero coefficient,
    each i^kappa rho^(d - kappa) times the product of (d - k) over the A
    steps k (Euler's relation for the xi-term of degree d - k), so they
    merge, in long double, into one word: i^kappa rho^(d - kappa) times
    D^kappa(a psi) at sigma.
    """
    if merged:
        weights = np.ones(1, np.longdouble)
        for step in range(kappa):
            weights = _interleave((ladder.degree - step) * weights, weights)
        last = ladder.generations[kappa]
        generations = [(kappa, 1, {k: v if _is_zero(v) else np.tensordot(
            weights, np.broadcast_to(v, weights.shape + v.shape[1:]), 1)[None]
            for k, v in last.items()})]
    else:
        generations = [(length, 2 ** length, ladder.generations[length])
                       for length in range(kappa + 1)]
    words = ({}, {})
    for k in ladder.iset_x.keys():
        for parity, out in enumerate(words):
            entries = [(count, t[k]) for length, count, t in generations
                       if length % 2 == parity]
            if all(_is_zero(v) for _count, v in entries):
                out[k] = 0.0
                continue
            rows = max(np.shape(v)[1] for _count, v in entries if not _is_zero(v))
            stacked = np.concatenate([np.broadcast_to(v, (count, rows, ladder.n_y))
                                      for count, v in entries]).transpose(1, 0, 2)
            out[k] = np.ascontiguousarray(stacked,
                                          complex if np.iscomplexobj(stacked) else float)
    return words


def _word_coefficients(kappa: int, degree: float, chi: CutoffChi, rho, merged: bool) -> tuple:
    """The real factors of the word coefficients of ``_unit_sphere_tables``
    at the radii ``rho``: per length parity a read-only (rho nodes, words)
    array, the words in word order and the factor i^l of a word of length
    l folded in up to the i of the odd words.

    Given ``merged`` (chi == 0 on ``rho``) the one merged word has
    r = rho^(degree - kappa).  Otherwise the arrays come from the scalar
    ladder (``_ladder_coefficients``), which a band's radii share with
    every other apply of the same kappa and node plan.
    """
    rho = np.ascontiguousarray(rho, dtype=float)
    if merged:
        return _by_parity([(kappa, rho[None] ** (degree - kappa))], rho.size)
    return _ladder_coefficients(kappa, degree, chi, rho.tobytes())


@lru_cache(maxsize=16, typed=True)
def _ladder_coefficients(kappa: int, degree: float, chi: CutoffChi, rho_bits: bytes) -> tuple:
    """``_word_coefficients`` off the cutoff's outer plateau at the radii
    whose float64 bits are ``rho_bits``, kept for the 16 most recently used
    keys: the inner and transition bands' radii depend on kappa and the
    node plan alone.

    The ladder runs on rho-jets of real factors r_w, c_w = i^|w| r_w,
    starting from r = rho^degree for the empty word: each step maps r_w to
    chi r_w and adds [(1 - chi) r_w]' to r_wA and (1 - chi) r_w / rho to
    r_wB, consuming one rho order; the chi jets are
    ``CutoffChi.profile_derivs`` at ``rho``.  It runs in long double and is
    rounded once.
    """
    rho = np.frombuffer(rho_bits)
    cur = _uni_iset(kappa)  # the rho order, carried as the x order
    rho_t = t_blank(cur)
    rho_t[cur.zero] = np.asarray(rho, np.longdouble)
    if kappa:
        rho_t[(1, 0, 0)] = 1.0
    chi_t = {(k, 0, 0): np.asarray(v, np.longdouble)
             for k, v in enumerate(chi.profile_derivs(rho, kappa))}
    omc = t_scale(chi_t, -1.0)
    omc[cur.zero] = 1.0 - chi_t[cur.zero]
    inv_rho = t_pow(rho_t, -1.0, cur)
    r = {k: v if _is_zero(v) else v[None] for k, v in t_pow(rho_t, degree, cur).items()}
    for step in range(kappa):
        nxt = _uni_iset(kappa - step - 1)
        p = t_mul(omc, r, cur)
        kept, d_a, d_b = t_mul(chi_t, r, nxt), t_shift(p, 0, nxt), t_mul(p, inv_rho, nxt)
        words = 2 ** (step + 1) - 1
        r = {}
        for k in nxt.keys():
            r[k] = np.zeros((2 * words + 1, rho.size), np.longdouble)
            r[k][:words] += kept[k]
            r[k][1::2] += d_a[k]  # word w sits at i, wA at 2 i + 1, wB at 2 i + 2
            r[k][2::2] += d_b[k]
        cur = nxt
    return _by_parity([(length, r[cur.zero][2 ** length - 1:2 ** (length + 1) - 1])
                       for length in range(kappa + 1)], rho.size)


def _by_parity(generations, n_rho: int) -> tuple:
    """The (rho nodes, words) arrays of ``_word_coefficients`` from the
    (length, (words, rho nodes) factors) ``generations``, read-only."""
    out = []
    for parity in (0, 1):
        rows = [(-1.0) ** (length // 2) * c for length, c in generations
                if length % 2 == parity]
        out.append(np.ascontiguousarray(np.concatenate(rows).T, float) if rows
                   else np.zeros((n_rho, 0)))
        out[-1].flags.writeable = False
    return tuple(out)


def _word_sums(ladder: _WordLadder, words: tuple, coeffs: tuple, rho, nodes: slice) -> tuple:
    """``_regularized_tables`` at the nodes ``nodes`` of a band whose nodes
    run over the radii ``rho`` and, fastest, the y nodes of ``ladder``, from
    the band's ``words`` (``_band_words``) and their ``coeffs``
    (``_word_coefficients``).

    At x point x and node (rho sigma, y), L^kappa(a psi) is the sum over
    the words of c_w(rho) T_w(a psi)(x, y), and Phi is rho Phi(x, y,
    sigma).  The chunk's xi rows give one small matrix product per x row
    and length parity, (xi rows, words) by (words, y nodes), so a point's
    values depend on the chunk alone and not on the points tabled with it.
    """
    n_y = ladder.n_y
    j0, j1 = nodes.start // n_y, -(-nodes.stop // n_y)
    cut = slice(nodes.start - j0 * n_y, nodes.stop - j0 * n_y)

    def chunk(a):  # (x rows, xi rows, y nodes) -> (x rows, the chunk's nodes)
        return a.reshape(a.shape[0], -1)[:, cut]

    g = {}
    for k in ladder.iset_x.keys():
        re, im = (None if _is_zero(t[k]) else chunk(np.matmul(c[j0:j1], t[k]))
                  for t, c in zip(words, coeffs))
        g[k] = (0.0 if re is None and im is None else re if im is None
                else 1j * im if re is None else re + 1j * im)
    phase = {k: v if _is_zero(v) else chunk(v[:, None, :] * rho[j0:j1, None])
             for k, v in ladder.phase.items()}
    return g, phase, ladder.iset_x


@dataclass(frozen=True)
class CoeffBoundReport:
    """Observed symbol behaviour of the regularizer coefficients."""

    constants: dict
    exponent_fits: dict
    predicted: dict
    max_misfit: float
    skipped: int
    passed: bool


def check_coefficient_symbol_bounds(phase, chi: CutoffChi,
                                    x_box=None, y_box=None, m: int = 2,
                                    radii=(4.0, 8.0, 16.0, 32.0),
                                    points_per_axis: int = 7,
                                    negligible: float = 1e-12,
                                    tol: float = 0.15) -> CoeffBoundReport:
    """Fit the xi scaling of the coefficients beyond the cutoff.

    alpha is asymptotically 0-homogeneous and beta (-1)-homogeneous in xi,
    so each xi derivative lowers the expected exponent by one; x and y
    derivatives leave it unchanged.  Series that vanish identically (for
    instance every xi derivative of alpha: with one xi coordinate, a
    0-homogeneous function is constant on each ray) satisfy their bound
    trivially and are skipped rather than fitted.
    """
    from .symbol_spaces import _scan_points

    pm = _as_map(phase)
    layout = pm.layout
    if min(radii) <= chi.outer_radius:
        raise ValueError("radii must lie beyond the outer cutoff radius")
    iset = IndexSet(layout, m, m, m)
    series: dict = {}
    for s_val in radii:
        coords, _shape = _scan_points(layout, x_box, y_box, (-s_val, s_val),
                                      points_per_axis, 2)
        phase_t = pm.table(coords, IndexSet(layout, m, m + 1, m + m + 1))
        ct = coefficient_tables(phase_t, coords, chi, iset)
        fields = (("alpha_0", ct.alpha_prime), ("beta_0", ct.beta_prime))
        for name, table in fields[:1 + layout.n_y]:  # a phase without y has no beta
            for key in iset.keys():
                mx = float(np.max(np.abs(np.asarray(table[key]))))
                series.setdefault((name, key), []).append(mx)
    constants: dict = {}
    fits: dict = {}
    predicted: dict = {}
    skipped = 0
    misfit = 0.0
    logs = np.log(np.asarray(radii, dtype=float))
    for (name, key), vals in series.items():
        pred = (0.0 if name == "alpha_0" else -1.0) - key[2]
        arr = np.asarray(vals)
        constants[name] = max(constants.get(name, 0.0),
                              float(np.max(arr * np.asarray(radii) ** (-pred))))
        if np.max(arr) <= negligible:
            skipped += 1
            continue
        slope = float(np.polyfit(logs, np.log(arr), 1)[0])
        fits[(name, key)] = slope
        predicted[(name, key)] = pred
        misfit = max(misfit, abs(slope - pred))
    passed = misfit <= tol and all(np.isfinite(v) for v in constants.values())
    return CoeffBoundReport(constants, fits, predicted, misfit, skipped, passed)
