"""Random speed models, expected operators and streaming Monte Carlo.

The random speed is a scalar gaussian c = c0 + s W, truncated so that
c >= alpha keeps every draw hyperbolic.  It keeps the phase gaussian, so
the expected operator is again a Fourier integral operator:
E exp(i Phi) = exp(i Phi_mean - var(Phi)/2) folds the randomness into a
deterministic amplitude damping exp(-s^2 t^2 xi^2 / 2).

Monte Carlo accumulates complex moments in one streaming pass: each
replicate, or each block of replicates, enters through the pairwise merge
of Chan, Golub & LeVeque (1979).  Per-replicate seeds are spawned
deterministically from one base seed, so results are reproducible and
mergeable.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field

import numpy as np

from .applications import _wave_branches, _wave_plan, _wave_values
from .jets import SmoothMap, VarLayout, builtin_map
from .oscillatory import GridField, QuadratureConfig
from .symbol_spaces import Amplitude

__all__ = [
    "TruncatedSpeedModel",
    "sample_speeds",
    "MCStats",
    "mc_estimate",
    "expected_wave_field",
    "expected_wave_analytic",
    "mc_wave_estimate",
    "map_values",
]


def map_values(m: SmoothMap, arr, block: str = "y") -> np.ndarray:
    """Values of a single-block map on an array of coordinates."""
    from .jets import Coords, IndexSet
    arr = np.asarray(arr, dtype=float)
    coords = Coords(*(arr if b == block else None for b in Coords._fields))
    iset = IndexSet(m.layout, 0, 0)
    return np.broadcast_to(np.asarray(m.provider(coords, iset)[iset.zero]), arr.shape)


def _rng(base_seed: int, index: int | None = None) -> np.random.Generator:
    if index is None:
        ss = np.random.SeedSequence(entropy=base_seed)
    else:
        ss = np.random.SeedSequence(entropy=base_seed, spawn_key=(index,))
    return np.random.Generator(np.random.PCG64(ss))


@dataclass(frozen=True)
class TruncatedSpeedModel:
    """Scalar speed c0 + s W with W standard normal truncated to keep c >= alpha."""

    c0: float
    s: float
    alpha: float = 0.25

    def __post_init__(self):
        if self.s < 0:
            raise ValueError("s must be nonnegative")
        if self.c0 <= self.alpha:
            raise ValueError("c0 must exceed the hyperbolicity floor alpha")

    @property
    def bound(self) -> float:
        # s = 0 is the deterministic limit: W is pinned to 0.
        if self.s == 0:
            return 0.0
        return (self.c0 - self.alpha) / self.s

    @property
    def truncation_mass(self) -> float:
        """Probability mass removed by the truncation (the sampling bias scale)."""
        if self.s == 0:
            return 0.0
        from scipy.special import ndtr  # deferred: scipy costs ~0.3 s to import
        return float(2.0 * ndtr(-self.bound))


def _speeds_of_uniforms(model: TruncatedSpeedModel, u: np.ndarray) -> np.ndarray:
    """The truncated speeds at the uniforms ``u``, by the inverse CDF."""
    from scipy.special import ndtr, ndtri  # deferred: scipy costs ~0.3 s to import
    b = model.bound
    lo, hi = ndtr(-b), ndtr(b)
    w = ndtri(lo + u * (hi - lo))
    return model.c0 + model.s * w


def sample_speeds(model: TruncatedSpeedModel, rng: np.random.Generator,
                  n: int) -> np.ndarray:
    """Inverse-CDF draws of the truncated speed, c in [alpha, 2 c0 - alpha]."""
    return _speeds_of_uniforms(model, rng.random(n))


@dataclass
class MCStats:
    """Streaming complex moments: count, mean, sum of |delta|^2 and, for the
    selected flat-index ``pairs`` (p, q), the co-moment
    sum of conj(x_p - mean_p) (x_q - mean_q).

    Every update is the pairwise merge of Chan, Golub & LeVeque (1979):
    ``push`` forms a block's own moments in two passes and merges them in.
    """

    n: int
    mean: np.ndarray
    m2: np.ndarray
    failures: tuple = ()
    pairs: tuple = ()
    comoment: np.ndarray | None = None

    @staticmethod
    def empty(shape, pairs=()) -> "MCStats":
        pairs = tuple((int(p), int(q)) for p, q in pairs)
        co = np.zeros(len(pairs), dtype=complex) if pairs else None
        return MCStats(0, np.zeros(shape, dtype=complex), np.zeros(shape),
                       pairs=pairs, comoment=co)

    def _pair_indices(self):
        idx = np.asarray(self.pairs, dtype=int).reshape(len(self.pairs), 2)
        return idx[:, 0], idx[:, 1]

    def push(self, value: np.ndarray) -> None:
        """Add one replicate (shaped like ``mean``) or a block of them
        stacked along a new first axis, through one merge."""
        rows = np.asarray(value, dtype=complex)
        if rows.ndim == self.mean.ndim:
            rows = rows[None]
        k = rows.shape[0]
        # shifted by the first row, so a block of equal rows has zero spread
        mean = rows[0] + (rows - rows[0]).mean(axis=0)
        d = rows - mean
        m2 = np.sum(d.real ** 2 + d.imag ** 2, axis=0)
        co = None
        if self.pairs:
            p, q = self._pair_indices()
            flat = d.reshape(k, -1)
            co = np.sum(np.conj(flat[:, p]) * flat[:, q], axis=0)
        merged = MCStats.merge(self, MCStats(k, mean, m2, (), self.pairs, co))
        self.n, self.mean, self.m2, self.comoment = (merged.n, merged.mean, merged.m2,
                                                     merged.comoment)

    @property
    def variance(self) -> np.ndarray:
        if self.n < 2:
            return np.full_like(self.m2, np.nan)
        return self.m2 / (self.n - 1)

    @property
    def std_error(self) -> np.ndarray:
        return np.sqrt(self.variance / self.n)

    @property
    def autocovariance(self) -> np.ndarray:
        """Sample autocovariance for each selected pair, conj on the first slot."""
        if self.comoment is None:
            return np.zeros(0, dtype=complex)
        if self.n < 2:
            return np.full(len(self.pairs), np.nan, dtype=complex)
        return self.comoment / (self.n - 1)

    @staticmethod
    def merge(a: "MCStats", b: "MCStats") -> "MCStats":
        if a.pairs != b.pairs:
            raise ValueError("cannot merge stats with different autocovariance pairs")
        failures = a.failures + b.failures
        if a.n == 0 or b.n == 0:
            src = b if a.n == 0 else a
            co = None if src.comoment is None else src.comoment.copy()
            return MCStats(src.n, src.mean.copy(), src.m2.copy(), failures,
                           src.pairs, co)
        n = a.n + b.n
        delta = b.mean - a.mean
        mean = a.mean + delta * (b.n / n)
        m2 = a.m2 + b.m2 + np.real(np.conj(delta) * delta) * (a.n * b.n / n)
        co = None
        if a.pairs:
            p, q = a._pair_indices()
            flat = np.ravel(delta)
            co = a.comoment + b.comoment + np.conj(flat[p]) * flat[q] * (a.n * b.n / n)
        return MCStats(n, mean, m2, failures, a.pairs, co)


def _draw(sampler, base_seed: int, indices) -> tuple:
    """Value blocks of the replicates ``indices`` and their failures.

    A block that raises runs again one replicate at a time, so each failed
    replicate keeps its own index and message.
    """
    try:
        return [sampler(_rng(base_seed, i) for i in indices)], []
    except Exception as e:  # noqa: BLE001 - replicate isolation is the point
        if len(indices) == 1:
            return [], [(indices[0], f"{type(e).__name__}: {e}")]
    blocks, failures = [], []
    for i in indices:
        got, failed = _draw(sampler, base_seed, [i])
        blocks += got
        failures += failed
    return blocks, failures


def mc_estimate(sampler, n_samples: int, base_seed: int, shape=None,
                pairs=(), block: int | None = None) -> MCStats:
    """Stream ``sampler(rng) -> complex array`` over spawned replicate seeds.

    Replicate i draws from SeedSequence(base_seed, spawn_key=(i,)), so any
    subset of replicates is reproducible independently of the others.
    Failed replicates are recorded (index and message) and skipped.
    ``pairs`` are flat-index pairs to track autocovariance for.

    With ``block`` set, ``sampler(rngs)`` takes an iterator over the
    generators of up to ``block`` consecutive replicates and returns their
    values stacked along a new first axis; each block enters the moments
    through one merge.  A negative or boolean ``base_seed`` raises
    ValueError before any draw.
    """
    if isinstance(base_seed, (bool, np.bool_)) or base_seed < 0:
        raise ValueError(f"base_seed must be a non-negative integer, got {base_seed!r}")
    if block is None:
        block = 1

        def draw(rngs):
            return np.asarray(sampler(next(rngs)), dtype=complex)[None]
    else:
        draw = sampler
    stats = None
    failures = []
    for start in range(0, n_samples, block):
        blocks, failed = _draw(draw, base_seed,
                               range(start, min(start + block, n_samples)))
        failures += failed
        if blocks:
            rows = np.concatenate([np.asarray(b, dtype=complex) for b in blocks])
            if stats is None:
                stats = MCStats.empty(rows.shape[1:], pairs)
            stats.push(rows)
    if stats is None:
        stats = MCStats.empty(shape if shape is not None else (), pairs)
    stats.failures = tuple(failures)
    return stats


# ---------------------------------------------------------------------------
# gaussian-speed wave: expected operator and Monte Carlo


def _damping_amplitude(s: float, t: float, value: float = 0.5) -> Amplitude:
    """Amplitude value * exp(-s^2 t^2 xi^2 / 2) for the expected operator."""
    st = abs(s * t)
    if st == 0:
        return Amplitude(builtin_map("constant", value=value, layout=VarLayout(0, 0, 1)))
    width = math.sqrt(2.0) / st
    gauss = builtin_map("gaussian_bump", block="xi", center=0.0, width=width)
    return Amplitude(builtin_map("scaled", inner=gauss, factor=value))


def expected_wave_field(model: TruncatedSpeedModel, u0: SmoothMap, t: float,
                        x_points, config: QuadratureConfig | None = None) -> GridField:
    """E[u_omega(x, t)] as a single deterministic operator application.

    For gaussian W the phase average E exp(+- i s W t |xi|) equals
    exp(-s^2 t^2 xi^2 / 2), so the expected field is the mean-speed wave
    operator with a gaussian-damped amplitude on each branch.  The
    truncation of W changes this by at most ``model.truncation_mass``
    relative mass, reported in the metadata.
    """
    (field_,) = _wave_branches((model.c0,), _damping_amplitude(model.s, t), u0, t,
                               x_points, config)
    return GridField(field_.points, field_.values,
                     {**field_.meta, "truncation_mass": model.truncation_mass,
                      "t": t, "c0": model.c0, "s": model.s})


def expected_wave_analytic(model: TruncatedSpeedModel, t: float, x_points,
                           u0_center: float = 0.0, u0_width: float = 1.0) -> np.ndarray:
    """Closed-form E[u] for gaussian initial data exp(-((y-c)/w)^2).

    Averaging the translated gaussian over the (untruncated) normal speed
    is a gaussian convolution: each branch widens by 2 s^2 t^2 w^-2 in the
    exponent scale.
    """
    xs = np.atleast_1d(np.asarray(x_points, dtype=float))
    w2 = u0_width ** 2
    k = 1.0 + 2.0 * model.s ** 2 * t ** 2 / w2
    out = np.zeros_like(xs)
    for sign in (+1, -1):
        z = xs - sign * model.c0 * t - u0_center
        out += 0.5 / math.sqrt(k) * np.exp(-z ** 2 / (w2 * k))
    return out


# Field values per block of draws: a block's arrays take 16 bytes per
# value, and the handful alive at once stay under 1 MB.
_BLOCK_ELEMENTS = 8192


@dataclass(frozen=True)
class MCWaveResult:
    stats: MCStats
    model: TruncatedSpeedModel
    t: float
    points: np.ndarray
    engine: str
    meta: dict = field(default_factory=dict)

    @property
    def mean(self) -> np.ndarray:
        return self.stats.mean

    @property
    def std_error(self) -> np.ndarray:
        return self.stats.std_error


def mc_wave_estimate(model: TruncatedSpeedModel, u0: SmoothMap, t: float,
                     x_points, n_samples: int, base_seed: int,
                     engine: str = "translation",
                     config: QuadratureConfig | None = None,
                     autocov_pairs=()) -> MCWaveResult:
    """Monte Carlo mean of the random constant-speed wave field.

    ``engine="translation"`` evaluates each replicate by the exact
    d'Alembert translation u = (u0(x - ct) + u0(x + ct)) / 2, the same
    identity the quadrature engine reproduces for constant speeds.
    ``engine="fio"`` runs every replicate through the wave operator of
    ``wave_solve``, summed y first: an independent check of the translation
    path.  Its node plan and its u_hat table per band depend on u0 and the
    plan alone, so they are built once per call, before any draw, for the
    branches at the top speed c0 + s bound = 2 c0 - alpha; every draw lies
    in [alpha, 2 c0 - alpha] and a branch's xi-rate |x - y| + c t grows
    with c, so no draw gets coarser panels than its own plan would have.
    A block of draws takes its values from one table of the shifted
    points x -+ c t of all its draws (``applications._wave_values``,
    2 N_x N_xi per draw), with no operator, field or meta per draw.
    ``meta`` gives the shared ``evaluation_path`` and ``bands``, the run's
    ``evaluations`` (u_hat once, N_y N_xi, plus the x sums of every draw)
    and its ``wall_time``.  Both engines draw by the block: one call
    evaluates a block of replicates on a (replicates, points) grid, which
    enters the moments through one merge; a replicate's value does not
    depend on the block it lands in.
    ``autocov_pairs`` are grid-index pairs (p, q) whose sample
    autocovariance is tracked alongside the pointwise moments.
    """
    if n_samples < 1:
        raise ValueError(f"n_samples must be at least 1, got {n_samples!r}")
    xs = np.atleast_1d(np.asarray(x_points, dtype=float))

    def speeds(rngs):
        return _speeds_of_uniforms(model, np.fromiter((r.random() for r in rngs), float))

    if engine == "translation":
        def sampler(rngs):
            ct = (speeds(rngs) * t).reshape((-1,) + (1,) * xs.ndim)
            return 0.5 * (map_values(u0, xs - ct) + map_values(u0, xs + ct))
    elif engine == "fio":
        t0 = time.perf_counter()
        amp = Amplitude(builtin_map("constant", value=0.5, layout=VarLayout(0, 0, 1)))
        plan = _wave_plan((model.c0 + model.s * model.bound,), amp, u0, t, xs, config)

        def sampler(rngs):
            return _wave_values(plan, speeds(rngs)[:, None], t)[0]
    else:
        raise ValueError("engine must be 'translation' or 'fio'")

    stats = mc_estimate(sampler, n_samples, base_seed, shape=xs.shape,
                        pairs=autocov_pairs, block=max(1, _BLOCK_ELEMENTS // xs.size))
    meta = {}
    if engine == "fio":
        meta = {"evaluation_path": plan.meta["evaluation_path"],
                "bands": plan.meta["bands"],
                "evaluations": (plan.meta["evaluations"]
                                + stats.n * 2 * plan.sum_evaluations),
                "wall_time": time.perf_counter() - t0}
    return MCWaveResult(stats, model, t, xs, engine, meta)
