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
each derivative forms only the Leibniz rows it reads.  Where chi == 0 exactly (beyond the clamped outer edge of the
profile), the cutoff table holds exact zeros and L^kappa = i^kappa D^kappa.

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
    g and h on the current set and D g on the next; on a transition chunk
    h is dropped before gamma g is formed, so g, D g and gamma g.  The
    y-term's rows are added in place into the fresh xi-term table, i D g
    row by row into the fresh gamma g table, and h and D g are dropped once
    read.  Every sum keeps its operands and their order (``_add_into``), so
    the result is bit-identical to building each term as a table of its
    own and adding with ``t_add``.
    """
    outer = all(_is_zero(v) for v in coeffs.gamma.values())
    g = f
    cur = iset
    for _ in range(kappa):
        nxt = cur.shrink_int(1)
        h = t_mul(coeffs.s_prime, g, cur)
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
