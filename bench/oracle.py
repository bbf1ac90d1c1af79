"""Reference answers for the benchmark ops, computed without stochfio.

Every answer here comes from the mathematics of the op (a closed form, or
the exact d'Alembert translation evaluated on the documented Monte Carlo
draws), so a fault in the quadrature engine cannot hide in its own
reference.  Only numpy and scipy are used.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.special import ndtr, ndtri


def gaussian_derivs(x, center: float, width: float, order: int) -> list:
    """[d^k/dx^k exp(-((x - center) / width)^2) for k = 0..order].

    Uses d^k/dz^k exp(-z^2) = (-1)^k H_k(z) exp(-z^2) with the physicists'
    Hermite recurrence H_{k+1} = 2 z H_k - 2 k H_{k-1}.
    """
    z = (np.asarray(x, dtype=float) - center) / width
    envelope = np.exp(-z * z)
    h_prev, h = np.zeros_like(z), np.ones_like(z)
    out = []
    for k in range(order + 1):
        out.append((-1.0) ** k * h * envelope / width ** k)
        h_prev, h = h, 2.0 * z * h - 2.0 * k * h_prev
    return out


def transport_derivs(x, center: float, width: float, offset: float, slope: float,
                     t: float, order: int) -> list:
    """x-derivatives of u0(gamma(x, t)) for the speed c(z) = offset + slope z.

    The characteristic dz/ds = -c(z), z(0) = x, is
    gamma = (x + offset/slope) exp(-slope t) - offset/slope; it is affine in
    x, so d^k/dx^k u0(gamma) = u0^(k)(gamma) gamma'^k with
    gamma' = exp(-slope t).
    """
    decay = math.exp(-slope * t)
    gamma = (np.asarray(x, dtype=float) + offset / slope) * decay - offset / slope
    return [d * decay ** k
            for k, d in enumerate(gaussian_derivs(gamma, center, width, order))]


def horizon(slope: float, t_max: float, dt: float, threshold: float) -> dict:
    """Observation horizon of the half-wave flow for an affine speed.

    With c(z) = offset + slope z the flow gives |G(t)| = exp(-slope sigma t)
    for sigma = +-1, so the margin min over sigma of |G| is
    exp(-|slope| t).  The scan runs over the grid times i t_max / steps,
    steps = ceil(t_max / dt), and stops at the first time whose margin is at
    most ``threshold``.
    """
    steps = max(1, math.ceil(t_max / dt))
    times, margins = [], []
    t_obs = t_max
    for i in range(1, steps + 1):
        t = i * t_max / steps
        times.append(t)
        margins.append(math.exp(-abs(slope) * t))
        if margins[-1] <= threshold:
            t_obs = t
            break
    return {"T_obs": t_obs, "times": times, "margins": margins}


def expected_wave(x, c0: float, s: float, t: float, center: float,
                  width: float) -> np.ndarray:
    """E[(u0(x - c t) + u0(x + c t)) / 2] for c ~ N(c0, s^2), gaussian u0.

    Averaging a gaussian of width w over a normal shift of deviation s t
    is a gaussian convolution: the squared width grows by 2 s^2 t^2 and the
    height shrinks by the square root of the same factor.
    """
    x = np.asarray(x, dtype=float)
    k = 1.0 + 2.0 * (s * t) ** 2 / width ** 2
    out = np.zeros_like(x)
    for shift in (-c0 * t, c0 * t):
        out += 0.5 / math.sqrt(k) * np.exp(-(x + shift - center) ** 2 / (width ** 2 * k))
    return out


def truncated_speeds(c0: float, s: float, alpha: float, base_seed: int,
                     n: int) -> np.ndarray:
    """The replicate speeds stochfio documents for its Monte Carlo.

    Replicate i draws one uniform from PCG64 seeded by
    SeedSequence(base_seed, spawn_key=(i,)) and maps it through the inverse
    CDF of the standard normal truncated to |W| <= (c0 - alpha) / s.
    """
    u = np.empty(n)
    for i in range(n):
        ss = np.random.SeedSequence(entropy=base_seed, spawn_key=(i,))
        u[i] = np.random.Generator(np.random.PCG64(ss)).random(1)[0]
    bound = (c0 - alpha) / s
    lo, hi = ndtr(-bound), ndtr(bound)
    return c0 + s * ndtri(lo + u * (hi - lo))


def translation_replicates(x, speeds, t: float, center: float,
                           width: float) -> np.ndarray:
    """Per-replicate d'Alembert fields (u0(x - c t) + u0(x + c t)) / 2."""
    x = np.asarray(x, dtype=float)[None, :]
    ct = np.asarray(speeds, dtype=float)[:, None] * t
    return 0.5 * (gaussian_derivs(x - ct, center, width, 0)[0]
                  + gaussian_derivs(x + ct, center, width, 0)[0])


def autocovariance(samples: np.ndarray, pairs) -> np.ndarray:
    """Sample autocovariance sum conj(d_p) d_q / (n - 1) for each pair."""
    d = samples - samples.mean(axis=0)
    return np.asarray([np.sum(np.conj(d[:, p]) * d[:, q]) / (len(samples) - 1)
                       for p, q in pairs])
