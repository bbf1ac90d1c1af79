"""Vectorized quadrature engine for regularized oscillatory integrals.

The engine evaluates A[u](x) = (2 pi)^(-1) int int exp(i Phi) a u dy dxi by
replacing the integrand with exp(i Phi) L^kappa(a u), whose xi decay makes
the truncated integral converge.  Nodes are composite Gauss-Legendre: the
xi axis is split per sign (|xi| is smooth one-sided) into the inner plateau
[0, r0], the cutoff transition [r0, r1] and doubling bands up to the radius,
and the y axis into panels sized against the fastest oscillation in the band.

Each L differentiates the cutoff once more, so L^kappa(a u) carries the
kappa-th derivatives of chi, which pile up at the plateau edges r0 and r1.
The transition band therefore gets kappa + 2 panels with cosine-spaced
edges, narrowest at both ends, and 2 kappa more nodes per panel than the
other bands.  Outside it chi is constant and the integrand varies on the
scale of exp(i Phi), so the oscillation budget alone sizes those xi-panels;
a fixed width cap would only add nodes that the phase does not ask for.
Each band's panel edges are one array, and one broadcast of the cached
Gauss-Legendre rule over them gives the band's nodes and weights.  All
node tensors are evaluated jointly over (x grid) x (nodes) chunks, so
the jet kernels see broadcast arrays instead of Python loops.

Each (band, sign) pair has its own accumulator, filled chunk by chunk with
per-row reductions and summed in the fixed band order, so results are
byte-identical for a given configuration and x grid no matter how many
workers split the grid.  The per-band sums also give the band
contributions reported in the field meta.  ``apply`` is the one driver of
the L^kappa ladder, and its ``workers`` argument the one worker count:
``apply_adjoint`` and ``pair_distribution`` apply the swapped operator,
``oscillatory_integral`` runs one ``apply`` per refinement level and
``convergence_study`` one per radius.

Mirrored half-line: when the phase is declared odd in xi
(Phi(x, y, -xi) = -Phi(x, y, xi), real) and the amplitude and the test
function hermitian (m(-xi) = conj m(xi)), the integrand at -xi is the
conjugate of its value at xi.  exp(i Phi) is conjugated, and L^kappa(a u)
stays hermitian because L = chi + i D with a real D that flips sign under
the reflection.  The xi-nodes of the two half-lines are exact mirrors, so
``apply`` evaluates xi > 0 alone and takes 2 Re of each band sum: an exact
identity, not an approximation.  Declarations come from
``SmoothMap.xi_reflection`` and are trusted; any other input runs both
half-lines.

y-first evaluation: every phase the solvers build is xi (z(x, sign xi) - y)
for a shift z: gamma(x, t) for transport, F(t; x, sign xi) for the
half-wave and x + s t c(x) sign xi for wave branch s.  Integrating by
parts in y is exact at each xi, so with an amplitude a(xi) the regularized
integral is the sum over shifted points (2 pi)^-1 sum_xi w_xi exp(i z xi)
a(xi) u_hat(xi) with u_hat(xi) = sum_y w_y exp(-i y xi) u(y).
``_y_first_plan`` plans the bands at kappa = 0 and forms u_hat on each
band's xi > 0 nodes once (N_y N_xi work; for a real u the xi < 0 half is
its conjugate); ``_shifted_sums`` sums each band against one cos / sin
table of the points (N_z N_xi work, in blocks).  No ladder is applied, so
the truncation error is the tail of |u_hat| rather than the ladder's
O(R^-m).  The solvers, the expected wave field and the quadrature Monte
Carlo engine take this path, serially; ``apply`` and the functions built
on it stay on the L^kappa ladder, whose truncation they study.
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
    oscillation cycle, enough for ~1e-8 panel accuracy.  That budget alone
    sizes the xi-panels outside the cutoff transition: there chi is constant,
    L^kappa(a u) is as smooth as the amplitude, and exp(i Phi) sets the
    scale, so no fixed width caps them.  The transition band is split into
    kappa + 2 cosine-graded panels of ``nodes_per_panel + 2 kappa`` nodes,
    whatever the phase: the kappa-th derivatives of chi that L^kappa
    brings in concentrate at the plateau edges, where the graded panels are
    narrowest.  The y-panels are at most ``y_panel_max_width`` wide.

    ``max_chunk_elements`` bounds the (x points) x (nodes) size of one
    table entry.  Each jet product row (a b c + acc) makes temporaries of
    that size, and the default keeps them in cache: on a 2-vCPU x86 guest
    with 2 MB of L2 per core, one row term took 1.3 ns per element at 16384
    elements (128 kB per real entry) and 3.3 ns at 262144 (2 MB).  The
    memory of a chunk is a few whole tables of such entries: the
    coefficient tables (s', ||xi||^2 d_xi Phi, d_y Phi, chi), and during
    one L step at most three ladder tables (g and s' g on the current
    index set and D g on the next, then on a transition chunk g, D g and
    chi g); see ``apply_l_ladder``.  A kappa = 4, out_order 2 transition
    chunk of 8,640 nodes at one x point peaks at about 16 MB (tracemalloc).
    The chunk size depends only on this value and the total point count,
    never on the worker count.  The y-first solver path builds its exp(-i y xi)
    and exp(i z xi) tables in blocks of at most this many entries (or one
    row's worth, if that is more) and runs serially.  The worker count is
    not a quadrature option: it is the ``workers`` argument of ``apply``,
    which only the L^kappa ladder takes.
    """

    xi_radius: float = 40.0
    nodes_per_panel: int = 12
    y_panel_max_width: float = 0.75
    osc_nodes_budget: float = 1.25
    abs_tol: float = 1e-6
    max_refinements: int = 5
    max_chunk_elements: int = 16384

    def __post_init__(self):
        if not 0 < self.xi_radius < math.inf:
            raise ValueError("xi_radius must be positive and finite")
        if self.nodes_per_panel < 1:
            raise ValueError("nodes_per_panel must be at least 1")
        for name in ("y_panel_max_width", "osc_nodes_budget"):
            if not getattr(self, name) > 0:
                raise ValueError(f"{name} must be positive")
        if self.max_chunk_elements < 1:
            raise ValueError("max_chunk_elements must be at least 1")
        if self.max_refinements < 0:
            raise ValueError("max_refinements must be nonnegative")

    def refined(self, level: int) -> "QuadratureConfig":
        """Refinement doubles the tail radius and halves the y-panel width
        and the oscillation budget, so the outer xi-panels halve too."""
        f = 2.0 ** level
        return replace(self, xi_radius=self.xi_radius * f,
                       y_panel_max_width=self.y_panel_max_width / f,
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


@dataclass(frozen=True)
class PointDistribution:
    """Finite combination of derivatives of point masses on the real line,
    sum w d^(r) delta_p: float points p and integer orders r."""

    points: tuple
    weights: tuple
    orders: tuple

    def __post_init__(self):
        pts = np.asarray(self.points, dtype=float)
        if pts.ndim != 1:
            raise ValueError("point masses must sit on the real line")
        if not (pts.size == len(self.weights) == len(self.orders)):
            raise ValueError("points, weights and orders must have equal length")
        object.__setattr__(self, "points", tuple(float(p) for p in pts))
        object.__setattr__(self, "weights", tuple(complex(w) for w in self.weights))
        object.__setattr__(self, "orders", tuple(int(o) for o in self.orders))

    @property
    def max_order(self) -> int:
        return max(self.orders, default=0)


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
    def build(phase, amplitude, alpha: float | None = 0.25, extra_decay: int = 0,
              config: QuadratureConfig | None = None,
              x_box=None, y_box=None) -> "FioOperator":
        """Validate membership, pick kappa and freeze the evaluation plan.

        ``alpha = None`` skips the nondegeneracy scan (used when the caller
        has already certified the phase family analytically); with it set,
        a phase the engine cannot apply (one without y or xi) is refused
        first (ValueError), before the scan, the costliest check.
        """
        phase, amplitude = _as_symbols(phase, amplitude)
        layout = phase.layout
        if any(a > p for a, p in zip(amplitude.layout, layout)):
            raise ValueError("amplitude layout does not fit the phase layout")
        membership = None
        if alpha is not None:
            _check_layouts(layout)
            membership = check_alpha_membership(phase, alpha, x_box=x_box, y_box=y_box)
            if not membership.passed:
                raise ValueError(
                    f"phase fails the alpha = {alpha} nondegeneracy bound: "
                    f"min observed {membership.min_observed:.3g}")
        plan = select_kappa(amplitude.d, amplitude.rho, amplitude.delta,
                            extra_decay=extra_decay)
        return FioOperator(phase, amplitude, CutoffChi(), plan,
                           config or QuadratureConfig(), membership)

    def apply(self, u: SmoothMap, x_points, out_order: int = 0,
              workers: int = 1) -> GridField:
        return apply(self, u, x_points, out_order=out_order, workers=workers)

    def apply_adjoint(self, v: SmoothMap, y_points, out_order: int = 0,
                      workers: int = 1) -> GridField:
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


def _panel_count(lo: float, hi: float, max_width: float) -> int:
    """The fewest equal panels of [lo, hi] at most ``max_width`` wide."""
    return max(1, math.ceil((hi - lo) / max_width - 1e-12))


def _panels(lo: float, hi: float, max_width: float) -> np.ndarray:
    """Edges of the fewest equal panels of [lo, hi] at most ``max_width`` wide."""
    return np.linspace(lo, hi, _panel_count(lo, hi, max_width) + 1)


def _graded_panels(lo: float, hi: float, n: int) -> np.ndarray:
    """Edges of ``n`` panels with cosine spacing, narrowest at both ends."""
    return lo + (hi - lo) * 0.5 * (1.0 - np.cos(np.pi * np.arange(n + 1) / n))


def _gauss_nodes(edges, p: int):
    """The ``p``-point Gauss-Legendre nodes and weights of every panel
    between consecutive ``edges``, panel by panel: one broadcast of the
    cached rule."""
    x, w = _gl_rule(p)
    mid = (0.5 * (edges[1:] + edges[:-1]))[:, None]
    half = (0.5 * (edges[1:] - edges[:-1]))[:, None]
    return (mid + half * x).ravel(), (half * w).ravel()


def _probe_points(a, n_samples: int = 5) -> np.ndarray:
    """The rate probe's x samples: evenly spaced across the points, or the one."""
    a = np.asarray(a, dtype=float)
    return np.linspace(a.min(), a.max(), n_samples) if a.size > 1 else a[:1]


def _probe_rates(phase: PhaseFunction, xs, y_window, n_samples: int = 5):
    """Max first derivatives of the phase at unit xi over a coarse sample of
    the x points ``xs`` (None for a phase without x) and the y window."""
    layout = phase.layout
    x, y = None, np.linspace(y_window[0], y_window[1], n_samples)
    if xs is not None:
        px = _probe_points(xs, n_samples)
        x, y = np.repeat(px, y.size), np.tile(y, px.size)
    d_xi = 0.0
    d_y = 0.0
    iset = IndexSet(layout, 1, 1, 1)
    for sgn in (-1.0, 1.0):
        t = phase.table(Coords(x, y, np.full(y.size, sgn)), iset)
        d_xi = max(d_xi, float(np.max(np.abs(np.asarray(t[(0, 0, 1)])))))
        d_y = max(d_y, float(np.max(np.abs(np.asarray(t[(0, 1, 0)])))))
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
                "function a support window: a gaussian_bump or mollifier_bump "
                "of y, or a product with one")
        return default
    if lo >= hi:
        raise ValueError("effective y support is empty")
    return lo, hi


# The most nodes a plan may hold, over all bands of one half-line: more than
# 100 times the largest shipped plan (78,912 nodes, converge.json at R = 32),
# and far less than would exhaust memory.
_MAX_PLAN_NODES = 10_000_000


def _plan_nodes(phase, chi, config, xs, y_window, kappa, rates=None):
    """Per-band xi and y node arrays; returns list of band node groups.

    The transition band gets kappa + 2 cosine-graded panels of
    ``nodes_per_panel + 2 kappa`` nodes: each L application differentiates
    the cutoff once more, and the high-order profile derivatives concentrate
    on ever finer scales near the plateau edges.  Every other band's
    xi-panels are sized by the oscillation budget alone.  ``rates``, when
    given, replaces the probe of ``phase``: the (d_xi, d_y) to size for.
    Every band's panels are counted before any node is built, and a plan
    of more than ``_MAX_PLAN_NODES`` xi-y nodes is refused (ValueError).
    """
    d_xi, d_y = rates or _probe_rates(phase, xs, y_window)
    p = config.nodes_per_panel
    budget = config.osc_nodes_budget * p
    xi_w = budget / d_xi if d_xi > 0 else math.inf
    specs = []  # per band: lo, hi, xi panel width (None: graded), xi nodes per panel, y panel width
    nodes = 0
    for lo, hi in _xi_bands(chi, config.xi_radius):
        wy = min(config.y_panel_max_width, budget / max(d_y * hi, 1e-12))
        if lo < chi.outer_radius and hi <= chi.outer_radius + 1e-12 and lo >= chi.inner_radius - 1e-12:
            w, p_xi, n_xi = None, p + 2 * kappa, kappa + 2
        else:
            w, p_xi, n_xi = xi_w, p, _panel_count(lo, hi, xi_w)
        specs.append((lo, hi, w, p_xi, wy))
        nodes += n_xi * p_xi * _panel_count(y_window[0], y_window[1], wy) * p
    if nodes > _MAX_PLAN_NODES:
        raise ValueError(f"the quadrature plan needs {nodes:.3g} nodes, more than "
                         f"{_MAX_PLAN_NODES:.0e}: lower xi_radius or raise osc_nodes_budget")
    bands = []
    for lo, hi, w, p_xi, wy in specs:
        xn, xw = _gauss_nodes(_graded_panels(lo, hi, kappa + 2) if w is None
                              else _panels(lo, hi, w), p_xi)
        yn, yw = _gauss_nodes(_panels(y_window[0], y_window[1], wy), p)
        bands.append((lo, hi, xn, xw, yn, yw))
    return bands, {"d_xi": d_xi, "d_y": d_y}


# ---------------------------------------------------------------------------
# core evaluation


def _eval_band(phase, amp, u, chi, kappa, xs, xn, xw, yn, yw, sign,
               out_order, chunk_nodes, out_acc):
    """Accumulate the weighted sum of d^j_x [exp(i Phi) L^kappa(a u)] over
    one band's ``sign`` half-line into ``out_acc`` (per x-key arrays)."""
    ynodes = yn[None, :].repeat(xn.size, axis=0).ravel()
    xinodes = np.repeat(sign * xn, yn.size)
    wts = np.repeat(xw, yn.size) * np.tile(yw, xn.size)
    total = xinodes.size
    x = None if xs is None else xs[:, None]
    for s in range(0, total, chunk_nodes):
        sl = slice(s, min(s + chunk_nodes, total))
        coords = Coords(x, ynodes[None, sl], xinodes[None, sl])
        g, phase_x, iset_x = _regularized_tables(phase, amp.map, u, chi, kappa,
                                                 coords, out_order)
        tab = t_mul(t_exp(t_scale(phase_x, 1.0j), iset_x), g, iset_x)
        w = wts[sl]
        for k in iset_x.keys():
            v = np.asarray(tab[k])
            if v.ndim < 2:
                v = np.broadcast_to(v, (1 if xs is None else xs.size, w.size))
            out_acc[k] += (v * w).sum(axis=1)
    return out_acc


def _chunk_nodes(config, npts: int) -> int:
    """Nodes per chunk, from the total x point count (not a worker's share)."""
    return max(config.nodes_per_panel, config.max_chunk_elements // max(npts, 1))


def _band_meta(bands, rates, chunk_nodes: int, signs, npts: int) -> dict:
    """Band edges and node counts; ``nodes`` and ``band_chunks`` count the
    evaluated half-lines ``signs`` only, and ``evaluations`` the integrand
    values, one per node and x point."""
    sides = len(signs)
    nodes = sum(sides * xn.size * yn.size for _lo, _hi, xn, _xw, yn, _yw in bands)
    return {"evaluation_path": "l_kappa",
            "bands": [(lo, hi, int(xn.size), int(yn.size))
                      for lo, hi, xn, _xw, yn, _yw in bands],
            "nodes": nodes,
            "evaluations": npts * nodes,
            "chunk_nodes": chunk_nodes,
            "band_chunks": [sides * math.ceil(xn.size * yn.size / chunk_nodes)
                            for _lo, _hi, xn, _xw, yn, _yw in bands],
            "rates": rates}


def _engine(phase, amp, u, chi, kappa, xs, out_order, config,
            bands, signs, x_slice=None):
    """Weighted sums over the planned ``bands`` for the x points ``xs`` (None
    for a phase without x), or those in ``x_slice``.

    Returns one accumulator per (band, sign): ``parts[b][j]`` maps each
    x-derivative key to the sum over band ``b`` on the half-line ``signs[j]``.
    """
    layout = phase.layout
    npts = 1 if xs is None else xs.size
    if x_slice is not None:
        xs = xs[x_slice]
    nloc = 1 if xs is None else xs.size
    chunk_nodes = _chunk_nodes(config, npts)
    keys = IndexSet(layout, out_order, 0).keys()
    parts = []
    for lo, hi, xn, xw, yn, yw in bands:
        # chi == 1 on the inner band, where L is the identity
        band_kappa = 0 if hi <= chi.inner_radius + 1e-12 else kappa
        per_sign = []
        for sign in signs:
            acc = {k: np.zeros(nloc, dtype=complex) for k in keys}
            per_sign.append(_eval_band(phase, amp, u, chi, band_kappa, xs, xn, xw,
                                       yn, yw, sign, out_order, chunk_nodes, acc))
        parts.append(per_sign)
    return parts


# worker processes read the job from module state inherited across fork; the
# maps hold closures that do not pickle
_FORK_JOB: dict = {}


def _fork_entry(x_slice):
    return _engine(*_FORK_JOB["payload"], x_slice=x_slice)


def _worker_slices(npts: int, workers: int, cpus: int | None) -> list:
    """Contiguous x-point slices, one per worker process.

    The process count is at most the number of points and at most ``cpus``
    (``os.cpu_count()``, which may be None when unknown).
    """
    workers = max(1, min(workers, npts, cpus or 1))
    edges = np.linspace(0, npts, workers + 1).astype(int)
    return [slice(int(a), int(b)) for a, b in zip(edges[:-1], edges[1:]) if b > a]


def _fork_parts(job, slices) -> list:
    """``_engine``'s (band, sign) sums of ``job``, one forked worker per x
    slice, joined in slice order."""
    import multiprocessing as mp
    _FORK_JOB["payload"] = job
    try:
        with mp.get_context("fork").Pool(len(slices)) as pool:
            pieces = pool.map(_fork_entry, slices)  # in slice order
    finally:
        _FORK_JOB.clear()
    return [[{k: np.concatenate([p[b][j][k] for p in pieces]) for k in acc}
             for j, acc in enumerate(per_sign)]
            for b, per_sign in enumerate(pieces[0])]


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


def _check_layouts(layout: VarLayout, u: SmoothMap | None = None) -> None:
    """The engine integrates over y and xi, and a test function ``u``, when
    given, is a map of y alone."""
    if not (layout.n_y and layout.n_xi):
        raise ValueError("the quadrature engine needs a phase of y and xi")
    if u is not None and u.layout != VarLayout(0, 1, 0):
        raise ValueError("test function must be a map of y alone")


def _normalize_x_points(layout: VarLayout, x_points):
    """The 1-d x point array, or None for a phase without x."""
    if layout.n_x == 0:
        return None
    arr = np.asarray(x_points, dtype=float)
    if arr.ndim != 1:
        raise ValueError(f"x points must be a 1-d array, got shape {arr.shape}")
    return arr


def apply(op: FioOperator, u: SmoothMap, x_points, out_order: int = 0,
          workers: int = 1, y_window=None) -> GridField:
    """Evaluate A[u] (and x derivatives up to ``out_order``) on a grid.

    Plans the nodes, then sums every (band, sign) over the x points, split
    into at most ``workers`` forked processes (never more than the points
    or the CPUs); the result does not depend on the split.  When the phase
    is declared odd and the amplitude and u hermitian in xi, only the
    xi > 0 half-line is evaluated and each band gives 2 Re of it.  The
    (2 pi)^-1-normalised bands are summed in band order, and the meta's
    ``band_contributions`` holds the sup over x of each band's value.
    """
    if workers < 1:
        raise ValueError(f"workers must be at least 1, got {workers}")
    layout = op.phase.layout
    _check_layouts(layout, u)
    mirrored = _xi_mirrored(op.phase, op.amplitude, u)
    signs = _POSITIVE_SIGN if mirrored else _BOTH_SIGNS
    xs = _normalize_x_points(layout, x_points)
    npts = 1 if xs is None else xs.size
    window = _support_window([u, op.amplitude.map], "y", y_window)
    t0 = time.perf_counter()
    bands, rates = _plan_nodes(op.phase, op.chi, op.config, xs, window, op.plan.kappa)
    job = (op.phase, op.amplitude, u, op.chi, op.plan.kappa, xs, out_order, op.config,
           bands, signs)
    slices = _worker_slices(npts, workers, os.cpu_count())
    if len(slices) > 1 and hasattr(os, "fork"):
        parts = _fork_parts(job, slices)
    else:
        parts = _engine(*job)
    if mirrored:  # the parts hold the xi > 0 half P alone: P + conj(P) = 2 Re P
        band_sums = [{k: 2.0 * v.real for k, v in pos.items()} for (pos,) in parts]
    else:
        band_sums = [{k: neg[k] + v for k, v in pos.items()} for neg, pos in parts]
    total = {k: np.zeros(np.shape(v), dtype=complex) for k, v in band_sums[0].items()}
    for band in band_sums:
        for k, v in band.items():
            total[k] += v
    f = (2.0 * math.pi) ** -1
    meta = _band_meta(bands, rates, _chunk_nodes(op.config, npts), signs, npts)
    meta.update({"kappa": op.plan.kappa, "y_window": tuple(window),
                 "wall_time": time.perf_counter() - t0, "xi_radius": op.config.xi_radius,
                 "xi_reflected": mirrored,
                 "band_contributions": [f * float(np.max(np.abs(band[(0, 0, 0)])))
                                        for band in band_sums]})
    return GridField(() if xs is None else (xs,),
                     {k[:layout.n_x]: f * v for k, v in total.items()}, meta)


# ---------------------------------------------------------------------------
# y-first evaluation of the solvers' shifted-point phases


def _u_hat(u_weighted, yn, xi, max_elements: int) -> np.ndarray:
    """sum_y exp(-i y xi) (w_y u(y)) on the nodes ``xi``, in blocks of at
    most ``max_elements`` exponentials.

    exp(-i t) is taken as cos t - i sin t: on band-sized tables the two real
    transcendentals took 10 to 30 % less time than numpy's complex exp.
    """
    rows = max(1, max_elements // yn.size)
    out = np.empty(xi.size, dtype=complex)
    for s in range(0, xi.size, rows):
        t = np.outer(xi[s:s + rows], yn)
        out[s:s + rows] = np.cos(t) @ u_weighted - 1j * (np.sin(t) @ u_weighted)
    return out


@dataclass(frozen=True)
class _YFirstPlan:
    """Stage one of the y-first sum: the x points, the node plan and the
    weighted u_hat tables that every sum on it shares.

    ``hats[sign]`` holds w_xi u_hat(sign xi) on the xi > 0 nodes ``xi`` of
    all bands, band b at ``xi[edges[b]:edges[b + 1]]``; ``max_elements``
    bounds one table built on it.  ``meta``'s ``evaluations`` count the
    u_hat tables alone; each field summed on it adds ``sum_evaluations``.
    """

    xs: np.ndarray
    signs: tuple
    xi: np.ndarray
    edges: np.ndarray
    hats: dict
    max_elements: int
    meta: dict

    @property
    def sum_evaluations(self) -> int:
        """N_x N_xi per evaluated half-line: one field's x sums."""
        return self.xs.size * len(self.signs) * self.xi.size


def _y_first_plan(u: SmoothMap, x_points, signs, config: QuadratureConfig,
                  rates) -> _YFirstPlan:
    """Stage one of the y-first sum on the half-lines ``signs``: plan the
    bands, form u_hat.

    ``rates(xs, window)`` gives the (d_xi, d_y) of the fastest phase the
    plan is to serve.  Each band forms u_hat(xi) = sum_y w_y exp(-i y xi)
    u(y) on its xi > 0 nodes once (N_y N_xi exponentials); a hermitian u
    (a real function of y) gets u_hat(-xi) = conj u_hat(xi) from it, any
    other u a second table.  The plan is taken at kappa = 0: no L is
    applied, so no cutoff derivatives enter.
    """
    layout = VarLayout(1, 1, 1)  # every solver phase: one x, one y, one xi
    _check_layouts(layout, u)
    xs = _normalize_x_points(layout, x_points)
    window = _support_window([u], "y")
    bands, rates = _plan_nodes(None, CutoffChi(), config, xs, window, 0,
                               rates=rates(xs, window))
    u_weighted = [yw * u.table(Coords(None, yn, None), IndexSet(u.layout, 0, 0))[(0, 0, 0)]
                  for _lo, _hi, _xn, _xw, yn, yw in bands]

    def hat_on(sign):
        return np.concatenate([xw * _u_hat(u_weighted[b], yn, sign * xn,
                                           config.max_chunk_elements)
                               for b, (_lo, _hi, xn, xw, yn, _yw) in enumerate(bands)])

    hats = {1.0: hat_on(1.0)}
    hat_tables = 1
    if -1.0 in signs:
        if u.xi_reflection == "hermitian":
            hats[-1.0] = np.conj(hats[1.0])
        else:
            hats[-1.0] = hat_on(-1.0)
            hat_tables = 2
    n_xi_n_y = sum(xn.size * yn.size for _lo, _hi, xn, _xw, yn, _yw in bands)
    meta = {"evaluation_path": "y_first",
            "bands": [(lo, hi, int(xn.size), int(yn.size))
                      for lo, hi, xn, _xw, yn, _yw in bands],
            "nodes": len(signs) * n_xi_n_y,
            "evaluations": hat_tables * n_xi_n_y,
            "rates": rates, "kappa": 0, "y_window": tuple(window),
            "xi_radius": config.xi_radius}
    return _YFirstPlan(xs, tuple(signs),
                       np.concatenate([xn for _lo, _hi, xn, _xw, _yn, _yw in bands]),
                       np.cumsum([0] + [xn.size for _lo, _hi, xn, _xw, _yn, _yw in bands]),
                       hats, config.max_chunk_elements, meta)


def _shifted_sums(plan: _YFirstPlan, z) -> tuple:
    """The band sums P_+-(z) of exp(+-i z xi) ``plan.hats[+-1]`` over each
    band's xi > 0 nodes for every entry of ``z``, each z.shape + (bands,).

    On a plan of the xi > 0 half-line P_- = conj P_+.  One cos / sin table
    of the points serves both, in blocks of at most ``plan.max_elements``
    entries (or one row); each row is summed on its own, so a point's sums
    do not depend on the points tabled with it.
    """
    flat, starts = np.ravel(z), plan.edges[:-1]
    pos = np.empty((flat.size, starts.size), dtype=complex)
    neg = np.empty_like(pos) if -1.0 in plan.signs else None
    rows = max(1, plan.max_elements // plan.xi.size)
    for s in range(0, flat.size, rows):
        theta = np.outer(flat[s:s + rows], plan.xi)
        e = np.cos(theta) + 1j * np.sin(theta)
        pos[s:s + rows] = np.add.reduceat(e * plan.hats[1.0], starts, axis=1)
        if neg is not None:
            neg[s:s + rows] = np.add.reduceat(np.conj(e) * plan.hats[-1.0], starts, axis=1)
    pos = pos.reshape(np.shape(z) + starts.shape)
    return pos, np.conj(pos) if neg is None else neg.reshape(pos.shape)


def apply_adjoint(op: FioOperator, v: SmoothMap, y_points, out_order: int = 0,
                  workers: int = 1) -> GridField:
    """Evaluate the transpose A^t[v](y) = int int exp(i Phi) a v(x) dx dxi.

    Implemented as ``apply`` of the block-swapped operator, so the phase
    needs an x coordinate: it becomes the y the engine integrates over.
    """
    return apply(op.swapped(), v, y_points, out_order=out_order, workers=workers)


def pair_distribution(op: FioOperator, u: PointDistribution, v: SmoothMap,
                      workers: int = 1) -> complex:
    """Pairing <A[u], v> for a distributional input u = sum w d^(r) delta.

    Duality moves A onto the test function: the pairing equals
    sum_i w_i (-1)^(|r_i|) d^(r_i) (A^t v)(y_i), and the adjoint values come
    from the quadrature engine with output-derivative jets.
    """
    field_ = apply_adjoint(op, v, np.asarray(u.points), out_order=u.max_order,
                           workers=workers)
    out = 0.0 + 0.0j
    for i, (w, r) in enumerate(zip(u.weights, u.orders)):
        out += w * (-1.0) ** r * field_.values[(r,)][i]
    return out


def oscillatory_integral(phase, amplitude,
                         config: QuadratureConfig | None = None) -> complex:
    """Regularized integral int int exp(i Phi(y, xi)) a(y, xi) dy dxi.

    The phase has no x block and the measure is plain Lebesgue dxi (no
    2 pi normalisation): each value is 2 pi times ``apply`` of the
    operator to the unit test function of y, with the kappa of the
    amplitude's class.  The quadrature plan is refined (tail radius
    doubled, y-panels and outer xi-panels halved; the graded transition
    band stays) until two consecutive values agree within ``abs_tol``;
    failure raises ToleranceError with the achieved difference.
    """
    phase, amplitude = _as_symbols(phase, amplitude)
    if phase.layout.n_x != 0:
        raise ValueError("oscillatory_integral expects a phase without x block")
    config = config or QuadratureConfig()
    plan = select_kappa(amplitude.d, amplitude.rho, amplitude.delta)
    unit = builtin_map("constant", value=1.0, layout=VarLayout(0, 1, 0))
    prev, achieved = None, math.inf
    for level in range(config.max_refinements + 1):
        op = FioOperator(phase, amplitude, CutoffChi(), plan, config.refined(level))
        val = 2.0 * math.pi * complex(apply(op, unit, None).value[0])
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
                      workers: int = 1) -> ConvergenceReport:
    """Observed tail convergence against the guaranteed decay envelope.

    kappa is chosen with ``extra_decay = m_tilde``, so the regularized
    integrand is O(||xi||^(-1 - m_tilde)) and the truncation error at radius
    R is O(R^(-m_tilde)).  The study reports sup-norm deviations from the
    richest radius and the fitted decay rate.  Each radius is one ``apply``
    on ``workers`` processes.
    """
    phase, amplitude = _as_symbols(phase, amplitude)
    radii = tuple(sorted(radii))
    if m_tilde < 0:
        raise ValueError("m_tilde must be nonnegative")
    if radii[0] <= 0:
        raise ValueError("radii must be positive")
    base = config or QuadratureConfig()
    plan = select_kappa(amplitude.d, amplitude.rho, amplitude.delta, extra_decay=m_tilde)
    fields = []
    for r in radii:
        op = FioOperator(phase, amplitude, CutoffChi(), plan, replace(base, xi_radius=r))
        fields.append(apply(op, u, x_points, workers=workers).value)
    ref = fields[-1]
    errors = tuple(float(np.max(np.abs(f - ref))) for f in fields[:-1])
    rate = plan.decay_exponent + 1  # the tail integral over the one xi coordinate
    logs = [(math.log(r), math.log(e)) for r, e in zip(radii[:-1], errors) if e > 0]
    fitted = float(np.polyfit([a for a, _ in logs], [b for _, b in logs], 1)[0]) \
        if len(logs) >= 2 else -math.inf
    return ConvergenceReport(radii[:-1], errors, plan.kappa, rate, fitted,
                             tuple(complex(f[0]) for f in fields))
