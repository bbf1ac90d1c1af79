"""Phase and amplitude classes, compact exhaustions and seminorm scans.

Phases are positively 1-homogeneous in xi; amplitudes carry declared symbol
growth (d, rho, delta) meaning every derivative with l xi-orders and j+k
space-orders is bounded by a constant times <xi>^(d - rho*l + delta*(j+k)).
All checks here are grid suprema on compact boxes with xi restricted to the
unit sphere (or a list of dyadic radii); reports carry the grid used and the
witness point so failures are reproducible.  Every block holds at most one
coordinate, so a box is an interval (lo, hi) and the unit sphere is
xi = -1, 1.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .jets import (
    Coords,
    IndexSet,
    SmoothMap,
    VarLayout,
)

__all__ = [
    "PhaseFunction",
    "Amplitude",
    "SeminormReport",
    "compact_box",
    "seminorm_p",
    "seminorm_q",
    "seminorm_pi",
    "check_homogeneity",
    "check_alpha_membership",
    "check_derivative_bound",
    "swapped_map",
]


def compact_box(domain, m: int) -> tuple:
    """The m-th member of a compact exhaustion of an open subset of the line.

    A block holds at most one coordinate, so a box is an interval: the pair
    (lo, hi), empty when lo > hi.  ``domain`` is the string "whole" or one
    open interval (a, b) with ``None`` or infinities for unbounded ends.  The
    box keeps the points v with |v| <= m and distance at least 1/m from the
    complement.
    """
    if m < 1:
        raise ValueError("exhaustion index m must be >= 1")
    a, b = (None, None) if domain == "whole" else domain
    a = -math.inf if a is None else float(a)
    b = math.inf if b is None else float(b)
    return max(a + 1.0 / m, -float(m)), min(b - 1.0 / m, float(m))


@dataclass(frozen=True)
class PhaseFunction:
    """Positively 1-homogeneous real phase on X x Y x (Xi minus 0)."""

    map: SmoothMap

    @property
    def layout(self) -> VarLayout:
        return self.map.layout

    def table(self, coords, iset):
        return self.map.table(coords, iset)

    def swapped(self) -> "PhaseFunction":
        return PhaseFunction(swapped_map(self.map))


@dataclass(frozen=True)
class Amplitude:
    """Amplitude with declared symbol growth (d, rho, delta)."""

    map: SmoothMap
    d: float = 0.0
    rho: float = 1.0
    delta: float = 0.0

    def __post_init__(self):
        if not (0.0 < self.rho <= 1.0) or not (0.0 <= self.delta < 1.0):
            raise ValueError("need 0 < rho <= 1 and 0 <= delta < 1")

    @property
    def layout(self) -> VarLayout:
        return self.map.layout

    def table(self, coords, iset):
        return self.map.table(coords, iset)

    def swapped(self) -> "Amplitude":
        return Amplitude(swapped_map(self.map), self.d, self.rho, self.delta)


def swapped_map(m: SmoothMap) -> SmoothMap:
    """View of a map with the roles of the x and y blocks exchanged.

    The swap leaves xi alone, so the view keeps the map's ``xi_reflection``.
    """
    inner_layout = m.layout
    layout = VarLayout(inner_layout.n_y, inner_layout.n_x, inner_layout.n_xi)

    def provider(coords: Coords, iset: IndexSet) -> dict:
        T = iset.max_total()
        inner_iset = IndexSet(inner_layout, T, T, T)
        t = m.provider(Coords(coords.y, coords.x, coords.xi), inner_iset)
        out = {}
        nx, ny = layout.n_x, layout.n_y
        for k in iset.keys():
            out[k] = t[k[nx:nx + ny] + k[:nx] + k[nx + ny:]]
        return out

    support = dict(m.support)
    sx, sy = support.pop("x", None), support.pop("y", None)
    if sx is not None:
        support["y"] = sx
    if sy is not None:
        support["x"] = sy
    return SmoothMap(layout, provider, m.max_order, f"swapped({m.describe})", support,
                     m.xi_reflection)


@dataclass(frozen=True)
class SeminormReport:
    """Result of a seminorm grid scan."""

    name: str
    m: int
    value: float
    witness: tuple
    witness_index: tuple
    grid_shape: tuple
    scale_values: dict = field(default_factory=dict)
    flagged: bool = False
    note: str = ""


_UNIT_XI = (-1.0, 1.0)


def _scan_points(layout: VarLayout, x_box, y_box, xi_values, points_per_axis: int,
                 m: int):
    """Flat coordinate arrays over the scan grid plus the grid shape: every
    block present is an array with one entry per scan point.

    Each block of ``layout`` is one axis: ``points_per_axis`` points across
    its box for x and y (``compact_box("whole", m)`` when the box is None)
    and the values ``xi_values`` for xi.  Scan order is lexicographic: x
    varies slowest, then y, then xi; ties in suprema are broken by the first
    point reached.  None when a box of the layout is empty.
    """
    axes = []
    for n, box in ((layout.n_x, x_box), (layout.n_y, y_box)):
        if n:
            lo, hi = box if box is not None else compact_box("whole", m)
            if lo > hi:
                return None
            axes.append(np.linspace(lo, hi, points_per_axis))
    if layout.n_xi:
        axes.append(np.asarray(xi_values, dtype=float))
    grids = iter(g.ravel() for g in np.meshgrid(*axes, indexing="ij"))
    return Coords(*(next(grids) if n else None for n in layout)), tuple(a.size for a in axes)


def _report_from_scan(name, m, per_key_abs, coords, shape, scale_values=None,
                      flagged=False, note=""):
    full = np.broadcast_shapes(*(np.shape(c) for c in coords.flat()))
    stack = np.stack([np.broadcast_to(np.asarray(v, dtype=float), full)
                      for v in per_key_abs.values()])
    flat = stack.max(axis=0).ravel()
    idx = int(np.argmax(flat))
    value = float(flat[idx])
    witness = tuple(float(c[idx]) for c in coords.flat())
    unraveled = tuple(int(i) for i in np.unravel_index(idx, shape)) if shape else ()
    return SeminormReport(name, m, value, witness, unraveled, shape,
                          scale_values or {}, flagged, note)


def seminorm_p(phase: PhaseFunction, m: int, x_box: tuple | None = None,
               y_box: tuple | None = None, points_per_axis: int = 21) -> SeminormReport:
    """Sup of |d^nu Phi| over the boxes, unit xi, all |nu| <= m."""
    layout = phase.layout
    scan = _scan_points(layout, x_box, y_box, _UNIT_XI, points_per_axis, m)
    if scan is None:
        return SeminormReport("p", m, 0.0, (), (), (), note="empty compact box")
    coords, shape = scan
    iset = IndexSet(layout, m, m, m)
    per_key = {k: np.abs(np.asarray(v)) for k, v in phase.table(coords, iset).items()}
    return _report_from_scan("p", m, per_key, coords, shape)


def seminorm_q(amplitude: Amplitude, m: int, x_box: tuple | None = None,
               y_box: tuple | None = None, xi_radii=(1.0, 2.0, 4.0, 8.0, 16.0),
               points_per_axis: int = 15) -> SeminormReport:
    """Weighted sup over derivative keys: |d^nu a| <xi>^(rho l - d - delta (j+k)).

    The scan also records per-radius maxima; a value that keeps growing
    across the top radii means the declared (d, rho, delta) class does not
    hold and the report is flagged.
    """
    layout = amplitude.layout
    iset = IndexSet(layout, m, m, m)
    nx, ny = layout.n_x, layout.n_y
    scale_values = {}
    best = None
    for s in xi_radii:
        scan = _scan_points(layout, x_box, y_box, (-s, s), points_per_axis, m)
        if scan is None:
            return SeminormReport("q", m, 0.0, (), (), (), note="empty compact box")
        coords, shape = scan
        table = amplitude.table(coords, iset)
        bracket = math.sqrt(1.0 + s * s)
        per_key = {}
        for k, v in table.items():
            l = sum(k[nx + ny:])
            jk = sum(k[:nx + ny])
            w = bracket ** (amplitude.rho * l - amplitude.d - amplitude.delta * jk)
            per_key[k] = np.abs(np.asarray(v)) * w
        rep = _report_from_scan("q", m, per_key, coords, shape)
        scale_values[s] = rep.value
        if best is None or rep.value > best.value:
            best = rep
    radii = sorted(scale_values)
    vals = np.asarray([max(scale_values[s], 1e-300) for s in radii])
    slope = (float(np.polyfit(np.log(radii), np.log(vals), 1)[0])
             if len(radii) >= 3 else 0.0)
    flagged = slope > 0.2
    note = (f"weighted sup grows like ||xi||^{slope:.2f}: declared class violated"
            if flagged else "")
    return SeminormReport("q", m, best.value, best.witness, best.witness_index,
                          best.grid_shape, scale_values, flagged, note)


def seminorm_pi(v, m: int, x_box: tuple | None = None,
                points_per_axis: int = 21) -> SeminormReport:
    """Sup of |d^j v| over a compact x box, |j| <= m.

    ``v`` is either a SmoothMap over the x block alone, or a field produced
    by the quadrature engine (an object whose ``points`` hold the one x
    array and whose ``values`` map x orders to arrays over it).
    """
    if isinstance(v, SmoothMap):
        layout = v.layout
        if layout.n_y or layout.n_xi:
            raise ValueError("pi seminorm applies to maps of x only")
        scan = _scan_points(layout, x_box, None, (), points_per_axis, m)
        if scan is None:
            return SeminormReport("pi", m, 0.0, (), (), (), note="empty compact box")
        coords, shape = scan
        table = v.table(coords, IndexSet(layout, m, m, m))
        per_key = {k: np.abs(np.asarray(val)) for k, val in table.items()}
        return _report_from_scan("pi", m, per_key, coords, shape)
    # grid field: the x array in ``points`` + values keyed by x orders
    vals = {k: np.abs(np.asarray(a)) for k, a in v.values.items() if sum(k) <= m}
    if not vals:
        raise ValueError("field carries no derivative orders <= m")
    (xs,) = v.points
    xs = np.atleast_1d(np.asarray(xs, dtype=float))
    point_max = np.max([np.broadcast_to(a, xs.shape) for a in vals.values()], axis=0)
    idx = int(np.argmax(point_max))
    return SeminormReport("pi", m, float(point_max[idx]), (float(xs[idx]),), (idx,),
                          xs.shape)


@dataclass(frozen=True)
class HomogeneityReport:
    passed: bool
    max_residual: float
    scales: tuple
    witness: tuple


def check_homogeneity(phase: PhaseFunction, scales=(0.5, 2.0, 4.0, 16.0),
                      x_box: tuple | None = None, y_box: tuple | None = None,
                      points_per_axis: int = 9, tol: float = 1e-8) -> HomogeneityReport:
    """Relative residual of Phi(x, y, s*xi) = s*Phi(x, y, xi) over a grid."""
    layout = phase.layout
    coords, shape = _scan_points(layout, x_box, y_box, _UNIT_XI, points_per_axis, 2)
    iset = IndexSet(layout, 0, 0, 0)
    base = np.asarray(phase.table(coords, iset)[iset.zero])
    worst = 0.0
    witness = ()
    for s in scales:
        scaled = coords._replace(xi=s * coords.xi)
        val = np.asarray(phase.table(scaled, iset)[iset.zero])
        res = np.abs(val - s * base) / (1.0 + abs(s) * np.abs(base))
        i = int(np.argmax(res))
        if res.ravel()[i] > worst:
            worst = float(res.ravel()[i])
            witness = tuple(float(c[i]) for c in coords.flat()) + (s,)
    return HomogeneityReport(worst <= tol, worst, tuple(scales), witness)


@dataclass(frozen=True)
class MembershipReport:
    passed: bool
    alpha: float
    min_x_side: float | None
    min_y_side: float
    witness_x: tuple
    witness_y: tuple

    @property
    def min_observed(self) -> float:
        if self.min_x_side is None:
            return self.min_y_side
        return min(self.min_x_side, self.min_y_side)


def check_alpha_membership(phase: PhaseFunction, alpha: float,
                           x_box: tuple | None = None, y_box: tuple | None = None,
                           points_per_axis: int = 33, m: int = 2) -> MembershipReport:
    """Grid minimum of the two nondegeneracy gradients at unit xi.

    The x side controls the adjoint and extension to compactly supported
    distributions; the y side alone already makes r comparable to
    alpha * ||xi||^2, which is what the regularizer divides by.
    """
    if alpha <= 0:
        raise ValueError("alpha must be positive")
    layout = phase.layout
    if not layout.n_xi:
        raise ValueError("the nondegeneracy scan needs a phase with a xi coordinate")
    coords, shape = _scan_points(layout, x_box, y_box, _UNIT_XI, points_per_axis, m)
    iset = IndexSet(layout, 1, 1, 1)
    t = phase.table(coords, iset)
    nx, ny = layout.n_x, layout.n_y

    def sq(i):
        key = tuple(1 if j == i else 0 for j in range(layout.nvars))
        v = np.asarray(t[key])
        return np.abs(v) ** 2

    def minimum(g):
        """Grid minimum of ``g`` and the scan point where it sits."""
        g = np.broadcast_to(g, coords.xi.shape)
        i = int(np.argmin(g))
        return float(g[i]), tuple(float(c[i]) for c in coords.flat())

    g_xi = sq(nx + ny)
    min_y, wy = minimum(g_xi + sq(nx) if ny else g_xi)
    min_x, wx = minimum(g_xi + sq(0)) if nx else (None, ())
    observed = min_y if min_x is None else min(min_x, min_y)
    return MembershipReport(observed >= alpha, alpha, min_x, min_y, wx, wy)


@dataclass(frozen=True)
class DerivativeBoundReport:
    constant: float
    p_value: float
    exponent_fits: dict
    max_exponent_misfit: float


def check_derivative_bound(phase: PhaseFunction, m: int,
                           x_box: tuple | None = None, y_box: tuple | None = None,
                           scales=(1.0, 2.0, 4.0, 8.0, 16.0), points_per_axis: int = 9,
                           negligible: float = 1e-9) -> DerivativeBoundReport:
    """Observed constant in |d^nu Phi| <= C ||xi||^(1-l) p_m(Phi) and scaling fits.

    For each xi-order l, the max of |d^nu Phi| over the boxes is fitted
    against ||xi|| in log-log; 1-homogeneity predicts the exponent 1 - l.
    Series that vanish identically (within ``negligible`` of zero) satisfy
    the bound trivially and are skipped in the fit.
    """
    layout = phase.layout
    p_rep = seminorm_p(phase, m, x_box, y_box, points_per_axis)
    p_val = p_rep.value
    if p_val == 0:
        raise ValueError("phase has vanishing p seminorm; bound is vacuous")
    iset = IndexSet(layout, m, m, m)
    nx, ny = layout.n_x, layout.n_y
    series: dict = {}
    const = 0.0
    for s in scales:
        coords, shape = _scan_points(layout, x_box, y_box, (-s, s), points_per_axis, m)
        t = phase.table(coords, iset)
        for k, v in t.items():
            l = sum(k[nx + ny:])
            mx = float(np.max(np.abs(np.asarray(v))))
            series.setdefault(k, []).append(mx)
            ratio = mx / (s ** (1 - l) * p_val)
            const = max(const, ratio)
    fits = {}
    misfit = 0.0
    logs = np.log(np.asarray(scales, dtype=float))
    for k, vals in series.items():
        arr = np.asarray(vals)
        if np.max(arr) <= negligible:
            continue
        slope = float(np.polyfit(logs, np.log(arr), 1)[0])
        l = sum(k[nx + ny:])
        fits[k] = slope
        misfit = max(misfit, abs(slope - (1 - l)))
    return DerivativeBoundReport(const, p_val, fits, misfit)
