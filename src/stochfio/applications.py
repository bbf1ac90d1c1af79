"""Transport, half-wave and wave solvers built on the quadrature engine.

The variable-speed solvers construct their phases from bicharacteristic
flows integrated with fixed-step RK4, carrying x-derivative jets through
the variational equations so the phase exposes exact derivatives to the
regularizer.  For the half-wave Hamiltonian c(x) P(xi) with P(xi) =
|xi| (1 - chi(4 xi)), the flows stay in the region where P(G) = |G| as
long as |G| keeps away from 1/2; the solvers monitor that margin and
refuse to build a phase outside it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .jets import (
    Coords,
    IndexSet,
    SmoothMap,
    VarLayout,
    builtin_map,
    make_speed,
    t_compose,
    t_mul,
)
from .oscillatory import FioOperator, GridField, QuadratureConfig, _apply_mirror_pair, apply
from .regularizer import CutoffChi, select_kappa
from .symbol_spaces import Amplitude, PhaseFunction

__all__ = [
    "RegimeError",
    "make_speed",
    "rk4_step_count",
    "solve_characteristics",
    "transport_phase",
    "transport_solve",
    "FlowResult",
    "solve_flows",
    "eikonal_phi",
    "regime_horizon",
    "halfwave_phase",
    "halfwave_solve",
    "wave_solve",
]


class RegimeError(RuntimeError):
    """Raised when a bicharacteristic flow leaves the regime where the
    half-wave symbol acts as the exact absolute value, so the eikonal
    construction is no longer valid at the requested time."""


# ---------------------------------------------------------------------------
# jet-valued RK4


def rk4_step_count(t: float, tol: float) -> int:
    """Fixed step chosen so the O(h^4) global error sits near ``tol``."""
    h = (120.0 * tol) ** 0.25
    return max(16, math.ceil(abs(t) / h))


def _c_derivs(speed: SmoothMap, z0: np.ndarray, order: int) -> list:
    iset = IndexSet(VarLayout(1, 0, 0), order, 0)
    t = speed.provider(Coords((z0,), (), ()), iset)
    return [np.asarray(t[(k,)]) if not np.isscalar(t[(k,)]) else t[(k,)]
            for k in range(order + 1)]


def _compose_speed(speed: SmoothMap, state: list, order: int, shift: int = 0) -> dict:
    """Jets of c^(shift)(z(x)) given the jets ``state`` of z."""
    der = _c_derivs(speed, np.asarray(state[0]), order + shift)
    table = {(j,): state[j] for j in range(order + 1)}
    iset = IndexSet(VarLayout(1, 0, 0), order, 0)
    return t_compose(der[shift:], table, iset)


def _rk4(state: list, rhs, t: float, n_steps: int) -> list:
    h = t / n_steps

    def axpy(a, scale, b):
        return [ai + scale * bi for ai, bi in zip(a, b)]

    y = [np.array(v, dtype=float, copy=True) for v in state]
    for _ in range(n_steps):
        k1 = rhs(y)
        k2 = rhs(axpy(y, 0.5 * h, k1))
        k3 = rhs(axpy(y, 0.5 * h, k2))
        k4 = rhs(axpy(y, h, k3))
        y = [yi + (h / 6.0) * (a + 2 * b + 2 * c + d)
             for yi, a, b, c, d in zip(y, k1, k2, k3, k4)]
    return y


def solve_characteristics(speed: SmoothMap, x, t: float, order: int = 0,
                          tol: float = 1e-10, n_steps: int | None = None) -> list:
    """Jets of the transport characteristic gamma(x, t), dz/ds = -c(z).

    Returns [gamma, d gamma/dx, ...] up to ``order`` as arrays over x.
    """
    x = np.atleast_1d(np.asarray(x, dtype=float))
    state = [x.copy()] + [np.ones_like(x) if j == 1 else np.zeros_like(x)
                          for j in range(1, order + 1)]
    n = n_steps if n_steps is not None else rk4_step_count(t, tol)

    def rhs(s):
        c_of_z = _compose_speed(speed, s, order)
        return [-np.asarray(c_of_z[(j,)]) * np.ones_like(x) for j in range(order + 1)]

    return _rk4(state, rhs, t, n)


def transport_phase(speed: SmoothMap, t: float, tol: float = 1e-10) -> PhaseFunction:
    """Phase xi (gamma(x, t) - y) driving the transport solution.

    gamma does not depend on the sign of xi, so the phase is odd in xi.
    """
    cache = {}  # characteristic jets keyed by the x array and the order

    def g_provider(x, sgn, order):
        x = np.asarray(x, dtype=float)
        key = (x.tobytes(), x.shape, order)
        if key not in cache:
            cache[key] = [j.reshape(x.shape) for j in
                          solve_characteristics(speed, x.ravel(), t, order, tol)]
        return cache[key]

    return PhaseFunction(replace(builtin_map(
        "tabulated_phase", g_provider=g_provider,
        describe=f"xi (gamma(x, {t}) - y)"), xi_reflection="odd"))


def _order_zero_op(phase: PhaseFunction, amp: Amplitude,
                   config: QuadratureConfig | None) -> FioOperator:
    """The operator of a phase and an order-zero amplitude."""
    return FioOperator(phase, amp, CutoffChi(), select_kappa(0.0, 1.0, 0.0, 1),
                       config or QuadratureConfig())


_UNIT_AMPLITUDE = Amplitude(builtin_map("constant", value=1.0, layout=VarLayout(1, 1, 1)))


def transport_solve(speed: SmoothMap, u0: SmoothMap, t: float, x_points,
                    config: QuadratureConfig | None = None,
                    workers: int | None = None) -> GridField:
    """u(x, t) = u0(gamma(x, t)) evaluated through the operator quadrature."""
    return apply(_order_zero_op(transport_phase(speed, t), _UNIT_AMPLITUDE, config),
                 u0, x_points, workers=workers)


# ---------------------------------------------------------------------------
# half-wave bicharacteristics


@dataclass(frozen=True)
class FlowResult:
    """Bicharacteristic flow of c(x) P(xi) from (x, sigma) over [0, t]."""

    t: float
    sigma: int
    x: np.ndarray
    F: tuple
    G: tuple
    min_abs_G: float
    conservation_residual: float
    in_regime: bool


def solve_flows(speed: SmoothMap, x, t: float, sigma: int, order: int = 0,
                tol: float = 1e-10, n_steps: int | None = None,
                regime_threshold: float = 0.5) -> FlowResult:
    """Integrate dF/dt = c(F) P'(G), dG/dt = -c'(F) P(G) with x jets.

    Inside the region |G| > 1/2 the symbol P(G) = |G| (1 - chi(4G)) equals
    |G| exactly, so P(G) = s G and P'(G) = s with s the (constant) sign of
    G.  The conservation law c(F) P(G) = c(x) P(sigma) is monitored as an
    integration check, and ``in_regime`` reports whether |G| stayed above
    the threshold.
    """
    if sigma not in (1, -1):
        raise ValueError("sigma must be +1 or -1")
    x = np.atleast_1d(np.asarray(x, dtype=float))
    m = order + 1
    F = [x.copy()] + [np.ones_like(x) if j == 1 else np.zeros_like(x)
                      for j in range(1, m)]
    G = [np.full_like(x, float(sigma))] + [np.zeros_like(x) for _ in range(1, m)]
    state = F + G
    n = n_steps if n_steps is not None else rk4_step_count(t, tol)
    s = float(sigma)
    min_g = [abs(float(sigma))]

    def rhs(st):
        Fj, Gj = st[:m], st[m:]
        min_g[0] = min(min_g[0], float(np.min(np.abs(Gj[0]))))
        c_of_F = _compose_speed(speed, Fj, order)
        cp_of_F = _compose_speed(speed, Fj, order, shift=1)
        dF = [s * np.asarray(c_of_F[(j,)]) * np.ones_like(x) for j in range(m)]
        gt = {(j,): Gj[j] for j in range(m)}
        iset = IndexSet(VarLayout(1, 0, 0), order, 0)
        prod = t_mul(cp_of_F, gt, iset)
        dG = [-s * np.asarray(prod[(j,)]) * np.ones_like(x) for j in range(m)]
        return dF + dG

    out = _rk4(state, rhs, t, n)
    Fj, Gj = tuple(out[:m]), tuple(out[m:])
    c_end = np.asarray(_compose_speed(speed, [Fj[0]], 0)[(0,)])
    c_start = np.asarray(_compose_speed(speed, [x], 0)[(0,)])
    resid = float(np.max(np.abs(c_end * np.abs(Gj[0]) - c_start)))
    mg = min(min_g[0], float(np.min(np.abs(Gj[0]))))
    return FlowResult(t, sigma, x, Fj, Gj, mg, resid, mg > regime_threshold)


def eikonal_phi(speed: SmoothMap, x, t: float, sigma: int, order: int = 0,
                tol: float = 1e-10) -> dict:
    """phi(x, t, sigma) = sigma F(t; x, sigma) with jets and diagnostics.

    Along the lifted flow of the 1-homogeneous Hamiltonian the action
    integrand G dF - H vanishes identically, so the eikonal solution is the
    flow endpoint itself; the returned ``action`` integrates the integrand
    with RK4, as a third component next to the point flow (F, G), as an
    independent consistency check (analytically zero in regime).
    """
    flow = solve_flows(speed, x, t, sigma, order=order, tol=tol)
    if not flow.in_regime:
        raise RegimeError(f"flow left the |G| > 1/2 regime (min |G| = {flow.min_abs_G:.3f})")
    s = float(sigma)

    def rhs(st):
        z, g, _action = st
        c = np.asarray(_compose_speed(speed, [z], 0)[(0,)])
        cp = np.asarray(_compose_speed(speed, [z], 0, shift=1)[(0,)])
        dz = s * c * np.ones_like(z)
        return [dz, -s * cp * g, g * dz - c * np.abs(g)]

    start = [flow.x, np.full_like(flow.x, s), np.zeros_like(flow.x)]
    action = _rk4(start, rhs, t, rk4_step_count(t, tol))[2]
    phi = [s * f for f in flow.F]
    return {"phi": phi, "flow": flow, "action": action,
            "grad_x": s * flow.F[1] if order >= 1 else None}


def regime_horizon(speed: SmoothMap, x, t_max: float, dt: float = 0.05,
                   threshold: float = 0.6, tol: float = 1e-8) -> dict:
    """First time the flow margin min |G| drops to ``threshold``.

    Scans both signs of sigma on the given x grid; returns the observed
    horizon (t_max if the margin never drops) and the margin trajectory.
    """
    if not dt > 0:
        raise ValueError(f"dt must be positive, got {dt!r}")
    x = np.atleast_1d(np.asarray(x, dtype=float))
    steps = max(1, math.ceil(t_max / dt))
    times = [i * t_max / steps for i in range(1, steps + 1)]
    margins = []
    horizon = t_max
    for t in times:
        m = min(solve_flows(speed, x, t, +1, tol=tol).min_abs_G,
                solve_flows(speed, x, t, -1, tol=tol).min_abs_G)
        margins.append(m)
        if m <= threshold:
            horizon = t
            break
    return {"T_obs": horizon, "times": tuple(times[:len(margins)]),
            "margins": tuple(margins),
            "hit_threshold": margins[-1] <= threshold if margins else False}


def halfwave_phase(speed: SmoothMap, t: float, tol: float = 1e-10,
                   regime_threshold: float = 0.5) -> PhaseFunction:
    """Phase xi (g(x, sign xi) - y) with g the eikonal flow endpoint.

    phi(x, t, xi) = |xi| sigma F(t; x, sigma) = xi F(t; x, sigma) for
    sigma = sign(xi), so the half-wave phase is a tabulated transport-type
    phase whose g depends on the sign of xi.
    """
    cache = {}  # flow jets keyed by the x array, the order and sigma

    def branch(x, sigma, order):
        key = (x.tobytes(), x.shape, order, sigma)
        if key not in cache:
            flow = solve_flows(speed, x.ravel(), t, sigma, order=order, tol=tol,
                               regime_threshold=regime_threshold)
            if not flow.in_regime:
                raise RegimeError(
                    f"half-wave flow left the |G| > 1/2 regime before t = {t} "
                    f"(min |G| = {flow.min_abs_G:.3f}); shorten the time or "
                    "smooth the speed")
            cache[key] = [f.reshape(x.shape) for f in flow.F]
        return cache[key]

    def g_provider(x, sgn, order):
        x = np.asarray(x, dtype=float)
        sgn = np.asarray(sgn)
        jets_p = branch(x, +1, order)
        if np.all(sgn > 0):
            return jets_p
        jets_m = branch(x, -1, order)
        if np.all(sgn < 0):
            return jets_m
        return [np.where(sgn > 0, p, q) for p, q in zip(jets_p, jets_m)]

    return PhaseFunction(builtin_map(
        "tabulated_phase", g_provider=g_provider,
        describe=f"half-wave eikonal phase at t = {t}"))


def halfwave_solve(speed: SmoothMap, u0: SmoothMap, t: float, x_points,
                   config: QuadratureConfig | None = None,
                   workers: int | None = None) -> GridField:
    """Parametrix evolution exp(i t c(x) P(D)) u0 with unit amplitude.

    The amplitude is the leading (order zero) one, so for variable speed
    the result approximates the true half-wave solution to first order in
    t; for constant speed it is exact up to the low-frequency part where
    P differs from |xi|.
    """
    return apply(_order_zero_op(halfwave_phase(speed, t), _UNIT_AMPLITUDE, config),
                 u0, x_points, workers=workers)


def _wave_branches(speed, amp: Amplitude, u0: SmoothMap, t: float, x_points,
                   config: QuadratureConfig | None,
                   workers: int | None) -> GridField:
    """Sum of the branches exp(-+ i c t |xi|), each with amplitude ``amp``.

    The branch phases Phi_s = (x - y) xi + s c t |xi| mirror each other,
    Phi_s(-xi) = -Phi_{-s}(xi), so with a hermitian amplitude and u0 each
    branch evaluates its xi > 0 half only (see ``_apply_mirror_pair``).

    Each branch's meta goes under ``branch_+`` / ``branch_-`` without its
    wall time.  The top level has the summed ``wall_time`` and ``nodes``
    and the ``kappa``, ``xi_radius`` and ``xi_reflected`` the branches share.
    """
    xs = np.atleast_1d(np.asarray(x_points, dtype=float))
    cols = (xs, np.full(xs.size, float(t)))
    phases = [PhaseFunction(builtin_map("scaled_norm_phase", speed=speed, sign=sign))
              for sign in (+1, -1)]
    op = _order_zero_op(phases[0], amp, config)
    total = None
    meta = {"wall_time": 0.0, "nodes": 0}
    for sign, out in zip((+1, -1), _apply_mirror_pair(op, phases[1], u0, cols, workers)):
        total = out.value if total is None else total + out.value
        branch_meta = dict(out.meta)
        meta["wall_time"] += branch_meta.pop("wall_time")
        meta["nodes"] += branch_meta["nodes"]
        meta.update(kappa=branch_meta["kappa"], xi_radius=branch_meta["xi_radius"],
                    xi_reflected=branch_meta["xi_reflected"])
        meta[f"branch_{'+' if sign > 0 else '-'}"] = branch_meta
    return GridField((xs,), {(0,): total}, meta)


def wave_solve(speed, u0: SmoothMap, t: float, x_points,
               amplitude_value: float = 0.5,
               config: QuadratureConfig | None = None,
               workers: int | None = None) -> GridField:
    """Sum of the two wave branches exp(-+ i c t |xi|) with equal amplitudes.

    For constant speed this is the exact d'Alembert evolution of cos-type
    initial data (u0, zero velocity): each branch carries amplitude 1/2.
    ``speed`` is a number or a map of x; time rides along as the last x
    coordinate of the phase layout, so ``x_points`` are spatial only.
    """
    amp = Amplitude(builtin_map("constant", value=float(amplitude_value),
                                layout=VarLayout(2, 1, 1)))
    return _wave_branches(speed, amp, u0, t, x_points, config, workers)
