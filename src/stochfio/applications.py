"""Transport, half-wave and wave solvers built on the quadrature engine.

Each solver's phase is an FIO phase indexed by the time t: t is a
parameter of the phase, never a coordinate, so every phase has one x, one
y and one xi variable.  The variable-speed solvers construct their phases
from bicharacteristic flows integrated with fixed-step RK4, carrying
x-derivative jets through the variational equations so the phase exposes
exact derivatives to the regularizer.  For the half-wave Hamiltonian
c(x) P(xi) with P(xi) = |xi| (1 - chi(4 xi)), the flows stay in the region
where P(G) = |G| as long as |G| keeps away from 1/2; the solvers monitor
that margin and refuse to build a phase outside it.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, replace

import numpy as np

from .jets import (
    Coords,
    IndexSet,
    SmoothMap,
    VarLayout,
    _resolve_speed,
    _uni_iset,
    builtin_map,
    make_speed,
    t_compose,
    t_mul,
)
from .oscillatory import (
    _BOTH_SIGNS,
    _POSITIVE_SIGN,
    GridField,
    QuadratureConfig,
    _probe_points,
    _shifted_sums,
    _y_first_plan,
)
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
    t = speed.provider(Coords(z0, None, None), _uni_iset(order))
    values = (t[(k, 0, 0)] for k in range(order + 1))
    return [v if np.isscalar(v) else np.asarray(v) for v in values]


def _compose_speed(speed: SmoothMap, state: list, order: int, shift: int = 0) -> dict:
    """Jets of c^(shift)(z(x)) given the jets ``state`` of z, keyed (j, 0, 0)."""
    der = _c_derivs(speed, np.asarray(state[0]), order + shift)
    table = {(j, 0, 0): state[j] for j in range(order + 1)}
    return t_compose(der[shift:], table, _uni_iset(order))


def _rk4_path(state: list, rhs, t: float, n_steps: int):
    """Yield the state after each of ``n_steps`` RK4 steps across [0, t]."""
    h = t / n_steps

    def axpy(a, scale, b):
        return [ai + scale * bi for ai, bi in zip(a, b)]

    y = state
    for _ in range(n_steps):
        k1 = rhs(y)
        k2 = rhs(axpy(y, 0.5 * h, k1))
        k3 = rhs(axpy(y, 0.5 * h, k2))
        k4 = rhs(axpy(y, h, k3))
        y = [yi + (h / 6.0) * (a + 2 * b + 2 * c + d)
             for yi, a, b, c, d in zip(y, k1, k2, k3, k4)]
        yield y


def _rk4(state: list, rhs, t: float, n_steps: int) -> list:
    y = [np.array(v, dtype=float, copy=True) for v in state]
    for y in _rk4_path(y, rhs, t, n_steps):
        pass
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
        return [-np.asarray(c_of_z[(j, 0, 0)]) * np.ones_like(x) for j in range(order + 1)]

    return _rk4(state, rhs, t, n)


def _shift_phase(shift, describe: str, odd: bool) -> PhaseFunction:
    """The phase xi (z(x, sign xi) - y) of the x-jets ``shift(x, sigma,
    order)`` of z(., sigma) on a flat x array, cached per x array, order and
    sigma.  With ``odd`` z does not depend on the sign of xi: one branch
    serves both half-lines and the phase is declared odd in xi."""
    cache = {}  # branch jets keyed by the x array, the order and sigma

    def branch(x, sigma, order):
        key = (x.tobytes(), x.shape, order, sigma)
        if key not in cache:
            cache[key] = [j.reshape(x.shape) for j in shift(x.ravel(), sigma, order)]
        return cache[key]

    def g_provider(x, sgn, order):
        x = np.asarray(x, dtype=float)
        jets_p = branch(x, 1, order)
        if odd or np.all(sgn > 0):
            return jets_p
        jets_m = branch(x, -1, order)
        if np.all(sgn < 0):
            return jets_m
        return [np.where(sgn > 0, p, q) for p, q in zip(jets_p, jets_m)]

    phase = builtin_map("tabulated_phase", g_provider=g_provider, describe=describe)
    return PhaseFunction(replace(phase, xi_reflection="odd") if odd else phase)


def transport_phase(speed: SmoothMap, t: float, tol: float = 1e-10) -> PhaseFunction:
    """Phase xi (gamma(x, t) - y) driving the transport solution.

    gamma does not depend on the sign of xi, so the phase is odd in xi.
    """
    return _shift_phase(lambda x, _sigma, order: solve_characteristics(speed, x, t, order, tol),
                        f"xi (gamma(x, {t}) - y)", odd=True)


def _paired_sums(plan, z) -> tuple:
    """The band sums P_+(z[i]) + P_-(z[-1 - i]) (``oscillatory._shifted_sums``)
    of the rows of the shift stack ``z``, and their (2 pi)^-1 band-order totals."""
    pos, neg = _shifted_sums(plan, z)
    sums = pos + neg[::-1]
    return (2.0 * math.pi) ** -1 * sum(sums[..., b] for b in range(sums.shape[-1])), sums


def _shifted_field(u0: SmoothMap, x_points, config: QuadratureConfig | None,
                   shifts) -> GridField:
    """The field (2 pi)^-1 [P_+(z_+) + P_-(z_-)] (``_paired_sums``) of a phase
    xi (z(x, sign xi) - y) with unit amplitude; a real u0 runs xi > 0 alone.

    ``shifts(xs)`` stacks z_+ and z_- on the points ``xs``, or gives one row
    for both.  d_xi is the largest |z - y| over the probe's x samples and
    the ends of u0's y window, where |z - y| peaks, and d_y = 1.
    """
    t0 = time.perf_counter()
    mirrored = u0.xi_reflection == "hermitian"

    def rates(xs, window):
        z = shifts(_probe_points(xs))[..., None]
        return float(np.max(np.abs(z - np.asarray(window, dtype=float)))), 1.0

    plan = _y_first_plan(u0, x_points, _POSITIVE_SIGN if mirrored else _BOTH_SIGNS,
                         config or QuadratureConfig(), rates)
    values, sums = _paired_sums(plan, shifts(plan.xs))
    contributions = (2.0 * math.pi) ** -1 * np.max(np.abs(sums[0]), axis=0)
    meta = {**plan.meta, "evaluations": plan.meta["evaluations"] + plan.sum_evaluations,
            "wall_time": time.perf_counter() - t0, "xi_reflected": mirrored,
            "band_contributions": [float(v) for v in contributions]}
    return GridField((plan.xs,), {(0,): values[0]}, meta)


def transport_solve(speed: SmoothMap, u0: SmoothMap, t: float, x_points,
                    config: QuadratureConfig | None = None) -> GridField:
    """u(x, t) = u0(gamma(x, t)) evaluated through the operator quadrature.

    The phase xi (gamma(x, t) - y) shifts both half-lines to gamma, so the
    integral is the y-first sum over the shifted points gamma(x, t).
    """
    return _shifted_field(u0, x_points, config,
                          lambda xs: solve_characteristics(speed, xs, t)[0][None])


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


def _flow_rhs(speed: SmoothMap, order: int, s):
    """Right-hand side dF/dt = s c(F), dG/dt = -s c'(F) G on the state
    [F jets..., G jets...] up to x order ``order``.

    ``s`` is the sign of G, a number or an array over the points.
    """
    m = order + 1
    iset = _uni_iset(order)

    def rhs(st):
        Fj, Gj = st[:m], st[m:]
        ones = np.ones_like(Fj[0])
        c_of_F = _compose_speed(speed, Fj, order)
        cp_of_F = _compose_speed(speed, Fj, order, shift=1)
        dF = [s * np.asarray(c_of_F[(j, 0, 0)]) * ones for j in range(m)]
        prod = t_mul(cp_of_F, {(j, 0, 0): Gj[j] for j in range(m)}, iset)
        dG = [-s * np.asarray(prod[(j, 0, 0)]) * ones for j in range(m)]
        return dF + dG

    return rhs


def solve_flows(speed: SmoothMap, x, t: float, sigma: int, order: int = 0,
                tol: float = 1e-10, n_steps: int | None = None) -> FlowResult:
    """Integrate dF/dt = c(F) P'(G), dG/dt = -c'(F) P(G) with x jets.

    Inside the region |G| > 1/2 the symbol P(G) = |G| (1 - chi(4G)) equals
    |G| exactly, so P(G) = s G and P'(G) = s with s the (constant) sign of
    G.  The conservation law c(F) P(G) = c(x) P(sigma) is monitored as an
    integration check.  ``min_abs_G`` is the smallest |G| at the start and
    at every RK4 step endpoint, and ``in_regime`` reports whether it stayed
    above 1/2.
    """
    if sigma not in (1, -1):
        raise ValueError("sigma must be +1 or -1")
    x = np.atleast_1d(np.asarray(x, dtype=float))
    m = order + 1
    F = [x.copy()] + [np.ones_like(x) if j == 1 else np.zeros_like(x)
                      for j in range(1, m)]
    G = [np.full_like(x, float(sigma))] + [np.zeros_like(x) for _ in range(1, m)]
    n = n_steps if n_steps is not None else rk4_step_count(t, tol)
    out, mg = F + G, abs(float(sigma))
    for out in _rk4_path(out, _flow_rhs(speed, order, float(sigma)), t, n):
        mg = min(mg, float(np.min(np.abs(out[m]))))
    Fj, Gj = tuple(out[:m]), tuple(out[m:])
    c_end = np.asarray(_compose_speed(speed, [Fj[0]], 0)[(0, 0, 0)])
    c_start = np.asarray(_compose_speed(speed, [x], 0)[(0, 0, 0)])
    resid = float(np.max(np.abs(c_end * np.abs(Gj[0]) - c_start)))
    return FlowResult(t, sigma, x, Fj, Gj, mg, resid, mg > 0.5)


def _regime_flow(speed: SmoothMap, x, t: float, sigma: int, order: int = 0,
                 tol: float = 1e-10) -> FlowResult:
    """``solve_flows``, raising RegimeError for a flow that leaves the regime."""
    flow = solve_flows(speed, x, t, sigma, order=order, tol=tol)
    if not flow.in_regime:
        raise RegimeError(
            f"half-wave flow left the |G| > 1/2 regime before t = {t} "
            f"(min |G| = {flow.min_abs_G:.3f}); shorten the time or "
            "smooth the speed")
    return flow


def eikonal_phi(speed: SmoothMap, x, t: float, sigma: int, order: int = 0,
                tol: float = 1e-10) -> dict:
    """phi(x, t, sigma) = sigma F(t; x, sigma) with jets and diagnostics.

    Along the lifted flow of the 1-homogeneous Hamiltonian the action
    integrand G dF - H vanishes identically, so the eikonal solution is the
    flow endpoint itself; the returned ``action`` integrates the integrand
    with RK4, as a third component next to the point flow (F, G), as an
    independent consistency check (analytically zero in regime).
    """
    flow = _regime_flow(speed, x, t, sigma, order=order, tol=tol)
    s = float(sigma)

    def rhs(st):
        z, g, _action = st
        c = np.asarray(_compose_speed(speed, [z], 0)[(0, 0, 0)])
        cp = np.asarray(_compose_speed(speed, [z], 0, shift=1)[(0, 0, 0)])
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

    A scan is one flow: both signs of sigma ride in one state over the x
    grid, integrated once from 0 and continued from each scan time to the
    next.  The step is never longer than the one ``rk4_step_count(t_max,
    tol)`` gives for the whole span, and each scan interval takes a whole
    number of steps.  The margin at a scan time is the smallest |G| over
    every RK4 step endpoint so far (``FlowResult.min_abs_G`` of a flow to
    that time); the intermediate stage states undershoot |G| by about
    (lambda h)^3 / 12 and are left out.  Returns the observed horizon
    (t_max if the margin never drops) and the margin trajectory.
    """
    if not (math.isfinite(t_max) and t_max > 0):
        raise ValueError(f"t_max must be positive and finite, got {t_max!r}")
    if not dt > 0:
        raise ValueError(f"dt must be positive, got {dt!r}")
    if not math.isfinite(threshold):
        raise ValueError(f"threshold must be finite, got {threshold!r}")
    x = np.ravel(np.asarray(x, dtype=float))
    steps = max(1, math.ceil(t_max / dt))
    times = [i * t_max / steps for i in range(1, steps + 1)]
    steps_per_scan = -(-rk4_step_count(t_max, tol) // steps)
    sigma = np.repeat([1.0, -1.0], x.size)
    state = [np.tile(x, 2), sigma]
    rhs = _flow_rhs(speed, 0, sigma)
    margin = 1.0
    margins = []
    horizon = t_max
    for t in times:
        for state in _rk4_path(state, rhs, t_max / steps, steps_per_scan):
            margin = min(margin, float(np.min(np.abs(state[1]))))
        margins.append(margin)
        if margins[-1] <= threshold:
            horizon = t
            break
    return {"T_obs": horizon, "times": tuple(times[:len(margins)]),
            "margins": tuple(margins),
            "hit_threshold": margins[-1] <= threshold}


def _halfwave_phase(speed: SmoothMap, t: float, tol: float = 1e-10) -> PhaseFunction:
    """Phase xi (g(x, sign xi) - y) with g the eikonal flow endpoint.

    phi(x, t, xi) = |xi| sigma F(t; x, sigma) = xi F(t; x, sigma) for
    sigma = sign(xi), so the half-wave phase is a tabulated transport-type
    phase whose g depends on the sign of xi.  ``halfwave_solve`` sums it
    y-first and never builds it; it is the phase of the L^kappa ladder
    reference that the tests compare the y-first sum against.
    """
    return _shift_phase(
        lambda x, sigma, order: _regime_flow(speed, x, t, sigma, order=order, tol=tol).F,
        f"half-wave eikonal phase at t = {t}", odd=False)


def halfwave_solve(speed: SmoothMap, u0: SmoothMap, t: float, x_points,
                   config: QuadratureConfig | None = None) -> GridField:
    """Parametrix evolution exp(i t c(x) P(D)) u0 with unit amplitude.

    The amplitude is the leading (order zero) one, so for variable speed
    the result approximates the true half-wave solution to first order in
    t; for constant speed it is exact up to the low-frequency part where
    P differs from |xi|.

    The phase xi (F(t; x, sign xi) - y) shifts the xi > 0 and xi < 0
    half-lines to F(t; x, +1) and F(t; x, -1), the points of the y-first
    sum.  The field meta's ``min_abs_G`` is the smallest |G| of every flow
    the run integrated: both sigma on the grid and on the plan's probe points.
    """
    flows = []

    def shifts(xs):
        pair = [_regime_flow(speed, xs, t, sigma) for sigma in (1, -1)]
        flows.extend(pair)
        return np.stack([flow.F[0] for flow in pair])

    field = _shifted_field(u0, x_points, config, shifts)
    return GridField(field.points, field.values,
                     {**field.meta, "min_abs_G": min(flow.min_abs_G for flow in flows)})


def _speed_values(speed, xs: np.ndarray) -> np.ndarray:
    """c(x) on the points ``xs`` of a speed given as a number or a map of x."""
    c = _c_derivs(_resolve_speed(speed), xs, 0)[0]
    return np.broadcast_to(np.asarray(c, dtype=float), xs.shape)


def _wave_plan(speeds, amp: Amplitude, u0: SmoothMap, t: float, x_points,
               config: QuadratureConfig | None):
    """One node plan for both branches of every speed in ``speeds``; its
    ``hats[sign]`` hold a(sign xi) w_xi u_hat(sign xi) on the xi > 0 nodes.

    Phi_s = (x - y) xi + s t c(x) |xi| has the rates the probe samples in
    closed form, so no operator is built: d_xi is the largest
    |x - y| + |c(x) t| over the probe's x samples and the ends of u0's y
    window, and d_y = 1.  A plan sized for a constant speed serves every
    slower one.  The amplitude is a map of xi alone, tabled once per plan;
    with it hermitian and u0 real the plan holds the xi > 0 half-line.
    """
    if amp.layout.n_x or amp.layout.n_y:
        raise ValueError("the wave branches take an amplitude of xi alone")
    hermitian = amp.map.xi_reflection == u0.xi_reflection == "hermitian"

    def rates(xs, window):
        xs = _probe_points(xs)
        gaps = np.abs(xs[:, None] - np.asarray(window, dtype=float))
        return max(float(np.max(gaps + np.abs(_speed_values(c, xs) * t)[:, None]))
                   for c in speeds), 1.0

    plan = _y_first_plan(u0, np.atleast_1d(np.asarray(x_points, dtype=float)),
                         _POSITIVE_SIGN if hermitian else _BOTH_SIGNS,
                         config or QuadratureConfig(), rates)
    iset = IndexSet(amp.layout, 0, 0)
    return replace(plan, hats={
        sign: amp.map.table(Coords(None, None, sign * plan.xi), iset)[iset.zero] * hat
        for sign, hat in plan.hats.items()})


def _wave_values(plan, c, t: float) -> tuple:
    """The wave fields (2 pi)^-1 (branch + plus branch -) on ``plan``
    (``_wave_plan``) at the speed values ``c``, (speeds, N_x or 1), and the
    band sums of each branch, (branches, speeds, N_x, bands).

    For xi > 0, Phi_s(x, 0, +-xi) = +-z_{+-s} xi with z_s = x + s t c(x),
    so branch s is P_+(z_s) + P_-(z_{-s}) (``_paired_sums``, with the
    amplitude in the plan's hats): one table of the z of every branch and
    speed serves all the sums.
    """
    tc = t * np.asarray(c, dtype=float)
    z = np.stack(np.broadcast_arrays(plan.xs + tc, plan.xs - tc))
    branches, sums = _paired_sums(plan, z)
    return branches[0] + branches[1], sums


def _wave_branches(speeds, amp: Amplitude, u0: SmoothMap, t: float, x_points,
                   config: QuadratureConfig | None) -> list:
    """Sums of the branches exp(-+ i c t |xi|) with amplitude ``amp``, one
    field per speed c in ``speeds`` (numbers or maps of x), all in one
    ``_wave_values`` table on one ``_wave_plan``.  Runs serially.

    ``branch_+`` / ``branch_-`` hold the plan's meta without its evaluation
    count, with ``xi_reflected`` and the branch's ``band_contributions``.
    The top level has the call's wall time, the evaluations of one field
    (u_hat and 2 N_x N_xi per half-line), the summed ``nodes`` and the
    shared ``evaluation_path``, ``kappa``, ``xi_radius``, ``xi_reflected``.
    """
    t0 = time.perf_counter()
    plan = _wave_plan(speeds, amp, u0, t, x_points, config)
    values, sums = _wave_values(
        plan, np.stack([_speed_values(c, plan.xs) for c in speeds]), t)
    contributions = (2.0 * math.pi) ** -1 * np.max(np.abs(sums), axis=2)
    branch = {**{k: v for k, v in plan.meta.items() if k != "evaluations"},
              "xi_reflected": plan.signs == _POSITIVE_SIGN}
    top = {"wall_time": time.perf_counter() - t0,
           "evaluations": plan.meta["evaluations"] + 2 * plan.sum_evaluations,
           "nodes": 2 * plan.meta["nodes"],
           **{k: branch[k] for k in ("evaluation_path", "kappa", "xi_radius",
                                     "xi_reflected")}}
    return [GridField((plan.xs,), {(0,): value}, {
        **top, **{f"branch_{sign}": {**branch, "band_contributions": [float(v) for v in bands]}
                  for sign, bands in zip("+-", contributions[:, i])}})
        for i, value in enumerate(values)]


def wave_solve(speed, u0: SmoothMap, t: float, x_points,
               amplitude_value: float = 0.5,
               config: QuadratureConfig | None = None) -> GridField:
    """Sum of the two wave branches exp(-+ i c t |xi|) with equal amplitudes.

    For constant speed this is the exact d'Alembert evolution of cos-type
    initial data (u0, zero velocity): each branch carries amplitude 1/2.
    ``speed`` is a number or a map of x; the branch phases take ``t`` as a
    parameter, as ``transport_phase`` does.  The branches are summed y first
    and serially.
    """
    amp = Amplitude(builtin_map("constant", value=float(amplitude_value),
                                layout=VarLayout(0, 0, 1)))
    return _wave_branches((speed,), amp, u0, t, x_points, config)[0]
