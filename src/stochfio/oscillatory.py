"""Vectorized quadrature engine for regularized oscillatory integrals.

The engine evaluates A[u](x) = (2 pi)^(-1) int int exp(i Phi) a u dy dxi by
replacing the integrand with exp(i Phi) L^kappa(a u), whose xi decay makes
the truncated integral converge.  Nodes are composite Gauss-Legendre: the
xi axis is split per sign (|xi| is smooth one-sided) into bands whose panel
widths resolve both the cutoff transition and the xi oscillation rate, and
the y axis into panels sized against the fastest oscillation in the band.
All node tensors are evaluated jointly over (x grid) x (nodes) chunks, so
the jet kernels see broadcast arrays instead of Python loops.

Each (band, sign) pair has its own accumulator, filled chunk by chunk with
per-row reductions and summed in the fixed band order, so results are
byte-identical for a given configuration and x grid no matter how many
workers split the grid.  The per-band sums also give the band
contributions reported in the field meta.

Mirrored half-line: when the phase is declared odd in xi
(Phi(x, y, -xi) = -Phi(x, y, xi), real) and the amplitude and the test
function hermitian (m(-xi) = conj m(xi)), the integrand at -xi is the
conjugate of its value at xi.  exp(i Phi) is conjugated, and L^kappa(a u)
stays hermitian because L = chi + i D with a real D that flips sign under
the reflection.  The xi-nodes of the two half-lines are exact mirrors, so
``apply`` evaluates xi > 0 alone and takes 2 Re of each band sum: an exact
identity, not an approximation.  Two phases with
Phi_a(-xi) = -Phi_b(xi), such as the wave branches, pair up the same way
(``_apply_mirror_pair``).  Declarations come from ``SmoothMap.xi_reflection``
and are trusted; any other input runs both half-lines.
"""

from __future__ import annotations

import math
import os
import time
from dataclasses import dataclass, field, replace
from functools import lru_cache

import numpy as np

from .jets import (
    Coords,
    IndexSet,
    SmoothMap,
    VarLayout,
    builtin_map,
    t_exp,
    t_mul,
    t_scale,
)
from .regularizer import (
    CutoffChi,
    KappaPlan,
    _regularized_tables,
    select_kappa,
)
from .symbol_spaces import Amplitude, PhaseFunction, check_alpha_membership

__all__ = [
    "QuadratureConfig",
    "GridField",
    "PointDistribution",
    "FioOperator",
    "ToleranceError",
    "apply",
    "apply_adjoint",
    "pair_distribution",
    "oscillatory_integral",
    "convergence_study",
]


class ToleranceError(RuntimeError):
    """Raised when refinement stalls above the requested tolerance."""

    def __init__(self, message: str, achieved: float):
        super().__init__(message)
        self.achieved = achieved


@dataclass(frozen=True)
class QuadratureConfig:
    """Node-placement and evaluation parameters.

    ``osc_nodes_budget * nodes_per_panel`` bounds the phase change (radians)
    allowed across one panel; 1.25 * 12 = 15 radians keeps five nodes per
    oscillation cycle, enough for ~1e-8 panel accuracy.  The transition band
    of the cutoff gets panels no wider than ``transition_panel_width``
    regardless of oscillation rate.

    ``max_chunk_elements`` bounds the (x points) x (nodes) size of one
    table entry.  Each jet product row makes temporaries of that size, so
    the default keeps them in cache: on a 2-vCPU x86 guest with 2 MB of L2
    per core, one row term (a b c + acc) took 1.3 ns per element at 16384
    elements (128 kB per real entry) and 3.3 ns at 262144 (2 MB).  The
    chunk size depends only on this value and the total point count, never
    on the worker count.
    """

    xi_radius: float = 40.0
    nodes_per_panel: int = 12
    xi_panel_max_width: float = 2.0
    y_panel_max_width: float = 0.75
    transition_panel_width: float = 0.25
    osc_nodes_budget: float = 1.25
    abs_tol: float = 1e-6
    max_refinements: int = 5
    max_chunk_elements: int = 16384
    workers: int = 1

    def __post_init__(self):
        if not self.xi_radius > 0:
            raise ValueError("xi_radius must be positive")
        if self.nodes_per_panel < 1:
            raise ValueError("nodes_per_panel must be at least 1")
        for name in ("xi_panel_max_width", "y_panel_max_width",
                     "transition_panel_width", "osc_nodes_budget"):
            if not getattr(self, name) > 0:
                raise ValueError(f"{name} must be positive")
        if self.max_chunk_elements < 1:
            raise ValueError("max_chunk_elements must be at least 1")
        if self.max_refinements < 0:
            raise ValueError("max_refinements must be nonnegative")
        if self.workers < 1:
            raise ValueError("workers must be at least 1")

    def refined(self, level: int) -> "QuadratureConfig":
        """Refinement doubles the tail radius and halves panel widths."""
        f = 2.0 ** level
        return replace(self, xi_radius=self.xi_radius * f,
                       xi_panel_max_width=self.xi_panel_max_width / f,
                       y_panel_max_width=self.y_panel_max_width / f,
                       transition_panel_width=self.transition_panel_width / f,
                       osc_nodes_budget=self.osc_nodes_budget / f)


@dataclass(frozen=True)
class GridField:
    """Values (and x derivatives) of an operator output on an x grid."""

    points: tuple
    values: dict
    meta: dict = field(default_factory=dict)

    @property
    def value(self) -> np.ndarray:
        n_x = len(self.points)
        return self.values[(0,) * n_x]

    def derivative(self, key) -> np.ndarray:
        key = (key,) if isinstance(key, int) else tuple(key)
        return self.values[key]


@dataclass(frozen=True)
class PointDistribution:
    """Finite combination of derivatives of point masses, sum w d^(r) delta."""

    points: tuple
    weights: tuple
    orders: tuple

    def __post_init__(self):
        pts = tuple(tuple(float(c) for c in np.atleast_1d(p)) for p in self.points)
        orders = tuple((o,) if isinstance(o, int) else tuple(o) for o in self.orders)
        if not (len(pts) == len(self.weights) == len(orders)):
            raise ValueError("points, weights and orders must have equal length")
        object.__setattr__(self, "points", pts)
        object.__setattr__(self, "weights", tuple(complex(w) for w in self.weights))
        object.__setattr__(self, "orders", orders)

    @property
    def max_order(self) -> int:
        return max((sum(o) for o in self.orders), default=0)


def _as_symbols(phase, amplitude) -> tuple:
    """Wrap bare maps as a PhaseFunction and an Amplitude (d = 0, rho = 1)."""
    return (phase if isinstance(phase, PhaseFunction) else PhaseFunction(phase),
            amplitude if isinstance(amplitude, Amplitude) else Amplitude(amplitude))


@dataclass(frozen=True)
class FioOperator:
    """A phase, an amplitude and a regularization plan, ready to apply."""

    phase: PhaseFunction
    amplitude: Amplitude
    chi: CutoffChi
    plan: KappaPlan
    config: QuadratureConfig
    membership: object = None

    @staticmethod
    def build(phase, amplitude, alpha: float | None = 0.25, chi: CutoffChi | None = None,
              extra_decay: int = 0, config: QuadratureConfig | None = None,
              x_box=None, y_box=None) -> "FioOperator":
        """Validate membership, pick kappa and freeze the evaluation plan.

        ``alpha = None`` skips the nondegeneracy scan (used when the caller
        has already certified the phase family analytically).
        """
        phase, amplitude = _as_symbols(phase, amplitude)
        layout = phase.layout
        if amplitude.layout.n_x > layout.n_x or amplitude.layout.n_y > layout.n_y \
                or amplitude.layout.n_xi > layout.n_xi:
            raise ValueError("amplitude layout does not fit the phase layout")
        membership = None
        if alpha is not None:
            membership = check_alpha_membership(phase, alpha, x_box=x_box, y_box=y_box)
            if not membership.passed:
                raise ValueError(
                    f"phase fails the alpha = {alpha} nondegeneracy bound: "
                    f"min observed {membership.min_observed:.3g}")
        plan = select_kappa(amplitude.d, amplitude.rho, amplitude.delta,
                            layout.n_xi, extra_decay)
        return FioOperator(phase, amplitude, chi or CutoffChi(), plan,
                           config or QuadratureConfig(), membership)

    def apply(self, u: SmoothMap, x_points, out_order: int = 0,
              workers: int | None = None) -> GridField:
        return apply(self, u, x_points, out_order=out_order, workers=workers)

    def apply_adjoint(self, v: SmoothMap, y_points, out_order: int = 0,
                      workers: int | None = None) -> GridField:
        return apply_adjoint(self, v, y_points, out_order=out_order, workers=workers)

    def swapped(self) -> "FioOperator":
        return FioOperator(self.phase.swapped(), self.amplitude.swapped(),
                           self.chi, self.plan, self.config, self.membership)


# ---------------------------------------------------------------------------
# node planning


@lru_cache(maxsize=None)
def _gl_rule(p: int):
    """Gauss-Legendre nodes and weights on [-1, 1], shared read-only."""
    x, w = np.polynomial.legendre.leggauss(p)
    x.flags.writeable = False
    w.flags.writeable = False
    return x, w


def _gl_nodes(lo: float, hi: float, p: int):
    x, w = _gl_rule(p)
    mid, half = 0.5 * (hi + lo), 0.5 * (hi - lo)
    return mid + half * x, half * w


def _panels(lo: float, hi: float, max_width: float):
    n = max(1, math.ceil((hi - lo) / max_width - 1e-12))
    edges = np.linspace(lo, hi, n + 1)
    return list(zip(edges[:-1], edges[1:]))


def _panel_nodes(lo: float, hi: float, max_width: float, p: int):
    xs, ws = [], []
    for a, b in _panels(lo, hi, max_width):
        x, w = _gl_nodes(a, b, p)
        xs.append(x)
        ws.append(w)
    return np.concatenate(xs), np.concatenate(ws)


def _probe_rates(phase: PhaseFunction, x_arrays, y_window, n_samples: int = 5):
    """Max first derivatives of the phase at unit xi over a coarse sample."""
    layout = phase.layout
    axes = []
    for a in x_arrays:
        a = np.asarray(a, dtype=float)
        axes.append(np.linspace(a.min(), a.max(), n_samples) if a.size > 1
                    else np.asarray([float(a[0])]))
    axes.append(np.linspace(y_window[0], y_window[1], n_samples))
    grids = np.meshgrid(*axes, indexing="ij")
    cols = [g.ravel() for g in grids]
    n = cols[0].size
    d_xi = 0.0
    d_y = 0.0
    iset = IndexSet(layout, 1, 1, 1)
    for sgn in (-1.0, 1.0):
        coords = Coords(tuple(cols[:layout.n_x]), (cols[layout.n_x],), (np.full(n, sgn),))
        t = phase.table(coords, iset)
        key = (0,) * (layout.nvars - 1) + (1,)  # the one xi coordinate is last
        d_xi = max(d_xi, float(np.max(np.abs(np.asarray(t[key])))))
        key = tuple(1 if j == layout.n_x else 0 for j in range(layout.nvars))
        d_y = max(d_y, float(np.max(np.abs(np.asarray(t[key])))))
    return d_xi, d_y


def _xi_bands(chi: CutoffChi, radius: float):
    """Band edges [0, r0], [r0, r1] and doubling bands up to the radius."""
    edges = [0.0, chi.inner_radius, chi.outer_radius]
    hi = chi.outer_radius
    while hi < radius:
        hi = min(2.0 * hi, radius)
        edges.append(hi)
    return [(edges[i], edges[i + 1]) for i in range(len(edges) - 1)
            if edges[i + 1] > edges[i] + 1e-15]


def _support_window(maps, block: str, default=None):
    lo, hi = -math.inf, math.inf
    for m in maps:
        if m is None:
            continue
        s = m.support.get(block)
        if s is not None:
            lo, hi = max(lo, s[0]), min(hi, s[1])
    if math.isinf(lo) or math.isinf(hi):
        if default is None:
            raise ValueError(
                "integrand has no finite effective y support; give the test "
                "function a support window or pass y_window explicitly")
        return default
    if lo >= hi:
        raise ValueError("effective y support is empty")
    return lo, hi


def _plan_nodes(phase, chi, config, x_arrays, y_window, kappa):
    """Per-band xi and y node arrays; returns list of band node groups.

    Transition panels shrink with kappa: each L application differentiates
    the cutoff once more, and the high-order profile derivatives concentrate
    on ever finer scales near the plateau edges.
    """
    d_xi, d_y = _probe_rates(phase, x_arrays, y_window)
    budget = config.osc_nodes_budget * config.nodes_per_panel
    xi_w = budget / d_xi if d_xi > 0 else math.inf
    trans_w = min(config.transition_panel_width,
                  0.75 * (chi.outer_radius - chi.inner_radius) / max(kappa, 1) ** 2)
    bands = []
    for lo, hi in _xi_bands(chi, config.xi_radius):
        w = min(config.xi_panel_max_width, xi_w)
        if lo < chi.outer_radius and hi <= chi.outer_radius + 1e-12 and lo >= chi.inner_radius - 1e-12:
            w = min(w, trans_w)
        xn, xw = _panel_nodes(lo, hi, w, config.nodes_per_panel)
        y_rate = max(d_y * hi, 1e-12)
        wy = min(config.y_panel_max_width, budget / y_rate)
        yn, yw = _panel_nodes(y_window[0], y_window[1], wy, config.nodes_per_panel)
        bands.append((lo, hi, xn, xw, yn, yw))
    return bands, {"d_xi": d_xi, "d_y": d_y}


# ---------------------------------------------------------------------------
# core evaluation


def _eval_band(phase, amp, u, chi, kappa, x_cols, xn, xw, yn, yw, sign,
               out_order, chunk_nodes, out_acc):
    """Accumulate the weighted sum of d^j_x [exp(i Phi) L^kappa(a u)] over
    one band's ``sign`` half-line into ``out_acc`` (per x-key arrays)."""
    ynodes = yn[None, :].repeat(xn.size, axis=0).ravel()
    xinodes = np.repeat(sign * xn, yn.size)
    wts = np.repeat(xw, yn.size) * np.tile(yw, xn.size)
    total = xinodes.size
    nx_cols = tuple(np.asarray(c, dtype=float)[:, None] for c in x_cols)
    for s in range(0, total, chunk_nodes):
        sl = slice(s, min(s + chunk_nodes, total))
        coords = Coords(nx_cols, (ynodes[None, sl],), (xinodes[None, sl],))
        g, phase_x, iset_x = _regularized_tables(phase, amp.map, u, chi, kappa,
                                                 coords, out_order)
        tab = t_mul(t_exp(t_scale(phase_x, 1.0j), iset_x), g, iset_x)
        w = wts[sl]
        for k in iset_x.keys():
            v = np.asarray(tab[k])
            if v.ndim < 2:
                v = np.broadcast_to(v, (len(nx_cols[0]) if nx_cols else 1, w.size))
            out_acc[k] += (v * w).sum(axis=1)
    return out_acc


def _chunk_nodes(config, npts: int) -> int:
    """Nodes per chunk, from the total x point count (not a worker's share)."""
    return max(config.nodes_per_panel, config.max_chunk_elements // max(npts, 1))


def _band_meta(bands, rates, chunk_nodes: int, signs) -> dict:
    """Band edges and node counts; ``nodes`` and ``band_chunks`` count the
    evaluated half-lines ``signs`` only."""
    sides = len(signs)
    return {"bands": [(lo, hi, int(xn.size), int(yn.size))
                      for lo, hi, xn, _xw, yn, _yw in bands],
            "nodes": sum(sides * xn.size * yn.size for _lo, _hi, xn, _xw, yn, _yw in bands),
            "chunk_nodes": chunk_nodes,
            "band_chunks": [sides * math.ceil(xn.size * yn.size / chunk_nodes)
                            for _lo, _hi, xn, _xw, yn, _yw in bands],
            "rates": rates}


def _engine(phase, amp, u, chi, kappa, x_arrays, out_order, config,
            bands, signs, x_slice=None):
    """Weighted sums over the planned ``bands`` for the x points in ``x_slice``.

    Returns one accumulator per (band, sign): ``parts[b][j]`` maps each
    x-derivative key to the sum over band ``b`` on the half-line ``signs[j]``.
    """
    layout = phase.layout
    x_arrays = tuple(np.asarray(a, dtype=float) for a in x_arrays)
    npts = x_arrays[0].size if x_arrays else 1
    cols = x_arrays if x_slice is None else tuple(a[x_slice] for a in x_arrays)
    nloc = cols[0].size if cols else 1
    chunk_nodes = _chunk_nodes(config, npts)
    keys = IndexSet(layout, out_order, 0).keys()
    parts = []
    for lo, hi, xn, xw, yn, yw in bands:
        # chi == 1 on the inner band, where L is the identity
        band_kappa = 0 if hi <= chi.inner_radius + 1e-12 else kappa
        per_sign = []
        for sign in signs:
            acc = {k: np.zeros(nloc, dtype=complex) for k in keys}
            per_sign.append(_eval_band(phase, amp, u, chi, band_kappa, cols, xn, xw,
                                       yn, yw, sign, out_order, chunk_nodes, acc))
        parts.append(per_sign)
    return parts


# worker processes read the job from module state inherited across fork; the
# maps hold closures that do not pickle
_FORK_JOB: dict = {}


def _fork_entry(args):
    i, sl = args
    job = _FORK_JOB["payload"]
    return i, _engine(*job, x_slice=sl)


def _worker_slices(npts: int, workers: int, cpus: int | None) -> list:
    """Contiguous x-point slices, one per worker process.

    The process count is at most the number of points and at most ``cpus``
    (``os.cpu_count()``, which may be None when unknown).
    """
    workers = max(1, min(workers, npts, cpus or 1))
    edges = np.linspace(0, npts, workers + 1).astype(int)
    return [slice(int(a), int(b)) for a, b in zip(edges[:-1], edges[1:]) if b > a]


def _run_engine(phase, amp, u, chi, kappa, x_arrays, out_order, config,
                y_window, signs, workers):
    """Plan the nodes, then the (band, sign) sums on every x point."""
    workers = config.workers if workers is None else workers
    npts = x_arrays[0].size if x_arrays else 1
    bands, rates = _plan_nodes(phase, chi, config, x_arrays, y_window, kappa)
    job = (phase, amp, u, chi, kappa, x_arrays, out_order, config, bands, signs)
    slices = _worker_slices(npts, workers, os.cpu_count())
    if len(slices) > 1 and hasattr(os, "fork"):
        import multiprocessing as mp
        ctx = mp.get_context("fork")
        _FORK_JOB["payload"] = job
        try:
            with ctx.Pool(len(slices)) as pool:
                pieces = pool.map(_fork_entry, list(enumerate(slices)))
        finally:
            _FORK_JOB.clear()
        pieces = [p for _i, p in sorted(pieces, key=lambda t: t[0])]
        parts = [[{k: np.concatenate([p[b][j][k] for p in pieces]) for k in acc}
                  for j, acc in enumerate(per_sign)]
                 for b, per_sign in enumerate(pieces[0])]
    else:
        parts = _engine(*job)
    return parts, _band_meta(bands, rates, _chunk_nodes(config, npts), signs)


# The half-lines the engine evaluates: both, or xi > 0 alone when the xi < 0
# half is its complex conjugate.
_BOTH_SIGNS = (-1.0, 1.0)
_POSITIVE_SIGN = (1.0,)


def _xi_mirrored(phase, amp, u: SmoothMap) -> bool:
    """Whether the integrand at -xi is the conjugate of its value at xi.

    An odd real phase conjugates exp(i Phi).  D is real and the reflection
    flips its sign, so L = chi + i D maps hermitian tables to hermitian ones
    and L^kappa(a u) stays hermitian when a and u are.
    """
    return (phase.map.xi_reflection == "odd"
            and amp.map.xi_reflection == "hermitian"
            and u.xi_reflection == "hermitian")


def _band_totals(parts, mirrored: bool) -> list:
    """Per-band sums over both half-lines from the (band, sign) accumulators.

    Mirrored parts hold the xi > 0 half P alone, and P + conj(P) = 2 Re P.
    """
    if mirrored:
        return [{k: 2.0 * v.real for k, v in pos.items()} for (pos,) in parts]
    return [{k: neg[k] + v for k, v in pos.items()} for neg, pos in parts]


def _half_line_sums(op: FioOperator, u: SmoothMap, x_points, out_order: int,
                    workers, y_window, signs):
    """Validate an apply, then return its x columns, its (band, sign)
    accumulators over ``signs`` and its meta."""
    layout = op.phase.layout
    if layout.n_y != 1 or layout.n_xi != 1:
        raise NotImplementedError("quadrature engine handles one y and one xi "
                                  "dimension")
    if u.layout.n_x or u.layout.n_xi or u.layout.n_y != 1:
        raise ValueError("test function must be a map of y alone")
    cols = _normalize_x_points(layout, x_points)
    window = _support_window([u, op.amplitude.map], "y", y_window)
    t0 = time.perf_counter()
    parts, meta = _run_engine(op.phase, op.amplitude, u, op.chi, op.plan.kappa,
                              cols, out_order, op.config, window, signs, workers)
    meta.update({"kappa": op.plan.kappa, "y_window": tuple(window),
                 "wall_time": time.perf_counter() - t0,
                 "xi_radius": op.config.xi_radius})
    return cols, parts, meta


def _band_field(layout: VarLayout, cols, band_totals, meta: dict,
                mirrored: bool) -> GridField:
    """Field of the (2 pi)^-1-normalised band totals, summed in band order.

    ``band_contributions`` holds the sup over x of each band's value.
    """
    f = (2.0 * math.pi) ** (-layout.n_xi)
    zero = (0,) * layout.nvars
    total = {k: np.zeros(np.shape(v), dtype=complex) for k, v in band_totals[0].items()}
    contributions = []
    for band in band_totals:
        for k, v in band.items():
            total[k] += v
        contributions.append(f * float(np.max(np.abs(band[zero]))))
    meta = {**meta, "xi_reflected": mirrored, "band_contributions": contributions}
    return GridField(cols, {k[:layout.n_x]: f * v for k, v in total.items()}, meta)


def _normalize_x_points(layout: VarLayout, x_points):
    if layout.n_x == 0:
        return ()
    arr = np.asarray(x_points, dtype=float)
    if arr.ndim == 1 and layout.n_x == 1:
        return (arr,)
    if arr.ndim == 2 and arr.shape[1] == layout.n_x:
        return tuple(np.ascontiguousarray(arr[:, i]) for i in range(layout.n_x))
    if isinstance(x_points, (tuple, list)) and len(x_points) == layout.n_x:
        cols = tuple(np.asarray(c, dtype=float) for c in x_points)
        if len({c.size for c in cols}) == 1:
            return cols
    raise ValueError("x points must be a 1-d array (n_x = 1), an (N, n_x) "
                     "array, or a tuple of coordinate arrays")


def apply(op: FioOperator, u: SmoothMap, x_points, out_order: int = 0,
          workers: int | None = None, y_window=None) -> GridField:
    """Evaluate A[u] (and x derivatives up to ``out_order``) on a grid.

    When the phase is declared odd and the amplitude and u hermitian in xi,
    only the xi > 0 half-line is evaluated and each band gives 2 Re of it.
    """
    mirrored = _xi_mirrored(op.phase, op.amplitude, u)
    signs = _POSITIVE_SIGN if mirrored else _BOTH_SIGNS
    cols, parts, meta = _half_line_sums(op, u, x_points, out_order, workers,
                                        y_window, signs)
    return _band_field(op.phase.layout, cols, _band_totals(parts, mirrored), meta,
                       mirrored)


def _apply_mirror_pair(op: FioOperator, mirror_phase: PhaseFunction, u: SmoothMap,
                       x_points, workers: int | None = None) -> tuple:
    """``apply`` of ``op`` and of ``op`` with ``mirror_phase``, where the two
    phases satisfy Phi(x, y, -xi) = -Phi_mirror(x, y, xi).

    With a hermitian amplitude and u, the xi < 0 half of each integrand is
    the conjugate of the other's xi > 0 half.  So only the xi > 0 halves P
    and P_mirror are evaluated, and the fields are P + conj(P_mirror) and
    P_mirror + conj(P), band by band.  Both phases probe the same rates
    (the probe takes the max over both signs of xi), so their node plans
    coincide; the check below guards that.
    """
    ops = (op, replace(op, phase=mirror_phase))
    if not (op.amplitude.map.xi_reflection == "hermitian"
            and u.xi_reflection == "hermitian"):
        return tuple(apply(o, u, x_points, workers=workers) for o in ops)
    halves = [_half_line_sums(o, u, x_points, 0, workers, None, _POSITIVE_SIGN)
              for o in ops]
    (cols, parts, meta), (_cols, mirror_parts, mirror_meta) = halves
    if (meta["bands"], meta["rates"]) != (mirror_meta["bands"], mirror_meta["rates"]):
        raise RuntimeError("mirrored phases got different node plans")
    fields = []
    for own, other, own_meta in ((parts, mirror_parts, meta),
                                 (mirror_parts, parts, mirror_meta)):
        totals = [{k: v + np.conj(q[k]) for k, v in p.items()}
                  for (p,), (q,) in zip(own, other)]
        fields.append(_band_field(op.phase.layout, cols, totals, own_meta, True))
    return tuple(fields)


def apply_adjoint(op: FioOperator, v: SmoothMap, y_points, out_order: int = 0,
                  workers: int | None = None, x_window=None) -> GridField:
    """Evaluate the transpose A^t[v](y) = int int exp(i Phi) a v(x) dx dxi.

    Implemented as ``apply`` of the block-swapped operator, so it requires
    equal x and y dimensions.
    """
    layout = op.phase.layout
    if layout.n_x != layout.n_y:
        raise ValueError("adjoint needs matching x and y dimensions")
    return apply(op.swapped(), v, y_points, out_order=out_order,
                 workers=workers, y_window=x_window)


def pair_distribution(op: FioOperator, u: PointDistribution, v: SmoothMap,
                      workers: int | None = None, x_window=None) -> complex:
    """Pairing <A[u], v> for a distributional input u = sum w d^(r) delta.

    Duality moves A onto the test function: the pairing equals
    sum_i w_i (-1)^(|r_i|) d^(r_i) (A^t v)(y_i), and the adjoint values come
    from the quadrature engine with output-derivative jets.
    """
    pts = np.asarray([p for p in u.points], dtype=float)
    field_ = apply_adjoint(op, v, pts, out_order=u.max_order, workers=workers,
                           x_window=x_window)
    out = 0.0 + 0.0j
    for i, (w, r) in enumerate(zip(u.weights, u.orders)):
        out += w * (-1.0) ** sum(r) * field_.values[tuple(r)][i]
    return out


def oscillatory_integral(phase, amplitude, chi: CutoffChi | None = None,
                         kappa: int | None = None,
                         config: QuadratureConfig | None = None,
                         y_window=None) -> complex:
    """Regularized integral int int exp(i Phi(y, xi)) a(y, xi) dy dxi.

    The phase has no x block and the measure is plain Lebesgue dxi (no
    2 pi normalisation).  The quadrature plan is refined (tail radius
    doubled, panels halved) until two consecutive values agree within
    ``abs_tol``; failure raises ToleranceError with the achieved difference.
    """
    phase, amplitude = _as_symbols(phase, amplitude)
    layout = phase.layout
    if layout.n_x != 0:
        raise ValueError("oscillatory_integral expects a phase without x block")
    if layout.n_y != 1 or layout.n_xi != 1:
        raise NotImplementedError("one y and one xi dimension are supported")
    chi = chi or CutoffChi()
    config = config or QuadratureConfig()
    if kappa is None:
        kappa = select_kappa(amplitude.d, amplitude.rho, amplitude.delta,
                             layout.n_xi, 0).kappa
    ident = builtin_map("constant", value=1.0, layout=VarLayout(0, 1, 0))
    window = _support_window([amplitude.map], "y", y_window)
    mirrored = _xi_mirrored(phase, amplitude, ident)
    signs = _POSITIVE_SIGN if mirrored else _BOTH_SIGNS
    prev = None
    achieved = math.inf
    for level in range(config.max_refinements + 1):
        cfg = config.refined(level) if level else config
        bands, _rates = _plan_nodes(phase, chi, cfg, (), window, kappa)
        parts = _engine(phase, amplitude, ident, chi, kappa, (), 0, cfg, bands, signs)
        val = complex(sum(band[(0,) * layout.nvars][0]
                          for band in _band_totals(parts, mirrored)))
        if prev is not None:
            achieved = abs(val - prev)
            if achieved <= config.abs_tol:
                return val
        prev = val
    raise ToleranceError(
        f"refinement stalled at difference {achieved:.3e} > tol {config.abs_tol:.1e}",
        achieved)


@dataclass(frozen=True)
class ConvergenceReport:
    """Tail refinement record: values on growing xi radii."""

    radii: tuple
    errors: tuple
    kappa: int
    guaranteed_rate: float
    fitted_rate: float
    values: tuple = ()

    def bound_respected(self, slack: float = 2.0) -> bool:
        """Errors stay under the envelope anchored at the coarsest radius."""
        if not self.errors or self.errors[0] == 0:
            return True
        c = self.errors[0] / self.radii[0] ** self.guaranteed_rate
        return all(e <= slack * c * r ** self.guaranteed_rate + 1e-15
                   for r, e in zip(self.radii, self.errors))


def convergence_study(phase, amplitude, u: SmoothMap, x_points, m_tilde: int = 2,
                      radii=(5.0, 10.0, 20.0, 40.0, 80.0),
                      config: QuadratureConfig | None = None,
                      chi: CutoffChi | None = None) -> ConvergenceReport:
    """Observed tail convergence against the guaranteed decay envelope.

    kappa is chosen with ``extra_decay = m_tilde``, so the regularized
    integrand is O(||xi||^(-1 - m_tilde)) and the truncation error at radius
    R is O(R^(-m_tilde)).  The study reports sup-norm deviations from the
    richest radius and the fitted decay rate.
    """
    phase, amplitude = _as_symbols(phase, amplitude)
    radii = tuple(sorted(radii))
    chi = chi or CutoffChi()
    base = config or QuadratureConfig()
    plan = select_kappa(amplitude.d, amplitude.rho, amplitude.delta,
                        phase.layout.n_xi, m_tilde)
    fields = []
    for r in radii:
        op = FioOperator(phase, amplitude, chi, plan, replace(base, xi_radius=r))
        fields.append(apply(op, u, x_points).value)
    ref = fields[-1]
    errors = tuple(float(np.max(np.abs(f - ref))) for f in fields[:-1])
    rate = plan.decay_exponent + phase.layout.n_xi
    logs = [(math.log(r), math.log(e)) for r, e in zip(radii[:-1], errors) if e > 0]
    fitted = float(np.polyfit([a for a, _ in logs], [b for _, b in logs], 1)[0]) \
        if len(logs) >= 2 else -math.inf
    return ConvergenceReport(radii[:-1], errors, plan.kappa, rate, fitted,
                             tuple(complex(f[0]) for f in fields))
