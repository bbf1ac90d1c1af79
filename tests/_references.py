"""Shared independent oracles for the test suite.

Everything here deliberately avoids the package's own quadrature engine:
Fourier-side references use dense Gauss-Legendre panels on analytically
known transforms, characteristic curves come from scipy's adaptive
Runge-Kutta integrator at tight tolerance, and the L ladder is checked
against its plain complex recurrence, its table-building real step and
eagerly built coefficient fields.
The horizon scan and the Monte Carlo moments are checked against their
plain forms: a flow restarted from 0 for every scan time, and a Welford
update per replicate.  Exact derivative tables are checked against central
finite differences of the map's values.
"""

from __future__ import annotations

import math
from itertools import product

import numpy as np
from numpy.polynomial.legendre import leggauss
from scipy.integrate import solve_ivp

from stochfio.applications import solve_flows
from stochfio.jets import (
    Coords,
    IndexSet,
    _is_zero,
    _xi_norm_sq_table,
    t_add,
    t_div,
    t_mul,
    t_mul_shift,
    t_scale,
    t_shift,
)
from stochfio.regularizer import CutoffChi
from stochfio.stochastic import _rng, _sample_speeds, map_values


def gauss_panels(a: float, b: float, panel_width: float, nodes: int = 16):
    """Composite Gauss-Legendre nodes and weights on [a, b]."""
    n_panels = max(1, int(np.ceil((b - a) / panel_width)))
    edges = np.linspace(a, b, n_panels + 1)
    z, w = leggauss(nodes)
    half = np.diff(edges) / 2.0
    mid = (edges[:-1] + edges[1:]) / 2.0
    pts = (mid[:, None] + half[:, None] * z[None, :]).ravel()
    wts = (half[:, None] * w[None, :]).ravel()
    return pts, wts


def gaussian_hat(xi: np.ndarray, center: float = 0.0,
                 width: float = 1.0) -> np.ndarray:
    """Fourier transform of exp(-((y - center) / width)^2).

    Convention: u_hat(xi) = integral exp(-i y xi) u(y) dy.
    """
    return (width * np.sqrt(np.pi) * np.exp(-(width * xi) ** 2 / 4.0)
            * np.exp(-1j * center * xi))


def p_symbol(xi: np.ndarray) -> np.ndarray:
    """The engine's low-frequency-truncated symbol |xi| (1 - chi(4 xi))."""
    chi = CutoffChi().rescaled(4.0)
    return np.abs(xi) * (1.0 - chi.values(xi))


def halfwave_gaussian_reference(c0: float, t: float, xs, center: float = 0.0,
                                width: float = 1.0, symbol: str = "abs",
                                radius: float = 60.0) -> np.ndarray:
    """exp(i t c0 S(D)) applied to a gaussian, by dense Fourier quadrature.

    ``symbol="abs"`` uses S(xi) = |xi| (the exact half-wave group),
    ``symbol="p"`` uses the engine's truncated symbol P(xi).
    """
    xs = np.atleast_1d(np.asarray(xs, dtype=float))
    xi, w = gauss_panels(-radius, radius, 0.25, 16)
    s = np.abs(xi) if symbol == "abs" else p_symbol(xi)
    integrand = gaussian_hat(xi, center, width) * np.exp(1j * c0 * t * s)
    kernel = np.exp(1j * np.outer(xs, xi))
    return kernel @ (integrand * w) / (2.0 * np.pi)


def fourier_pair_value(amp_fn, xs, radius: float = 60.0) -> np.ndarray:
    """(2 pi)^-1 integral of a(xi) exp(i x xi) u0_hat(xi) d xi.

    Oracle for operators with x- and y-independent amplitudes applied to the
    unit gaussian u0 = exp(-y^2) through the phase (x - y) xi.
    """
    xs = np.atleast_1d(np.asarray(xs, dtype=float))
    xi, w = gauss_panels(-radius, radius, 0.25, 16)
    integrand = np.asarray(amp_fn(xi), dtype=complex) * gaussian_hat(xi)
    kernel = np.exp(1j * np.outer(xs, xi))
    return kernel @ (integrand * w) / (2.0 * np.pi)


def dalembert_gaussian(c0: float, t: float, xs, center: float = 0.0,
                       width: float = 1.0) -> np.ndarray:
    xs = np.atleast_1d(np.asarray(xs, dtype=float))
    u0 = lambda y: np.exp(-((y - center) / width) ** 2)
    return 0.5 * (u0(xs - c0 * t) + u0(xs + c0 * t))


def characteristics_rk45(c_fn, xs, t: float) -> np.ndarray:
    """Backward characteristics dz/ds = -c(z), z(0) = x, at time t."""
    xs = np.atleast_1d(np.asarray(xs, dtype=float))
    sol = solve_ivp(lambda s, z: -c_fn(z), (0.0, t), xs, method="RK45",
                    rtol=1e-12, atol=1e-14, dense_output=False)
    if not sol.success:
        raise RuntimeError(f"characteristic integration failed: {sol.message}")
    return sol.y[:, -1]


def forward_flow_rk45(c_fn, xs, t: float, sigma: int) -> np.ndarray:
    """Forward bicharacteristic base flow dF/ds = sigma c(F), F(0) = x."""
    xs = np.atleast_1d(np.asarray(xs, dtype=float))
    sol = solve_ivp(lambda s, z: sigma * c_fn(z), (0.0, t), xs, method="RK45",
                    rtol=1e-12, atol=1e-14)
    if not sol.success:
        raise RuntimeError(f"flow integration failed: {sol.message}")
    return sol.y[:, -1]


def pseudospectral_halfwave(c_fn, t: float, n_grid: int = 2048,
                            half_length: float = 4 * np.pi,
                            u0_center: float = 0.0, u0_width: float = 1.0,
                            dt: float = 2e-3):
    """Periodic spectral solve of u_t = i c(x) P(D) u, RK4 in time.

    Returns (grid, solution).  The speed must be periodic on the domain and
    the gaussian initial data must be negligible at the boundary.  Evaluate
    comparisons at grid nodes to avoid interpolation error.
    """
    xg = -half_length + 2 * half_length * np.arange(n_grid) / n_grid
    k = 2 * np.pi * np.fft.fftfreq(n_grid, d=2 * half_length / n_grid)
    pk = p_symbol(k)
    c_vals = c_fn(xg)

    def rhs(u):
        return 1j * c_vals * np.fft.ifft(pk * np.fft.fft(u))

    n_steps = max(1, int(np.ceil(t / dt)))
    h = t / n_steps
    u = np.exp(-((xg - u0_center) / u0_width) ** 2).astype(complex)
    for _ in range(n_steps):
        k1 = rhs(u)
        k2 = rhs(u + h / 2 * k1)
        k3 = rhs(u + h / 2 * k2)
        k4 = rhs(u + h * k3)
        u = u + h / 6 * (k1 + 2 * k2 + 2 * k3 + k4)
    return xg, u


def point_table(m, point, order: int) -> dict:
    """Exact derivative table of ``m`` up to total order ``order`` at one
    point ``(x_tuple, y_tuple, xi_tuple)``, evaluated on 0-d coordinates; an
    empty tuple is a block the map does not have."""
    coords = Coords(*(np.asarray(float(block[0])) if block else None for block in point))
    return m.table(coords, IndexSet(m.layout, order, order, order))


_FD_STENCILS = {
    0: ((0, 1.0),),
    1: ((-1, -0.5), (1, 0.5)),
    2: ((-1, 1.0), (0, -2.0), (1, 1.0)),
    3: ((-2, -0.5), (-1, 1.0), (1, -1.0), (2, 0.5)),
    4: ((-2, 1.0), (-1, -4.0), (0, 6.0), (1, -4.0), (2, 1.0)),
}


def fd_table(m, point, order: int, step: float = 1e-3) -> dict:
    """Central finite-difference derivative table of ``m`` at one point.

    O(step^2) accurate, keyed like ``m.table`` on the isotropic index set of
    ``order``.  The xi block of the point must stay clear of the origin so
    that no stencil point crosses it.
    """
    if step <= 0:
        raise ValueError("step must be positive")
    if order > 4:
        raise ValueError("finite differences are limited to order 4")
    layout = m.layout
    if layout.n_xi and math.hypot(*point[2]) <= 2.0 * step * max(order, 1):
        raise ValueError("stencil would reach across xi = 0; decrease step or move the point")
    table = {}
    for key in IndexSet(layout, order, order, order).keys():
        acc = 0.0
        for combo in product(*(_FD_STENCILS[k] for k in key)):
            # a block the map lacks has order 0 in every key: its stencil is (0, 1.0)
            at = tuple((float(block[0]) + off * step,) if block else ()
                       for block, (off, _) in zip(point, combo))
            acc += math.prod(c for _, c in combo) * complex(point_table(m, at, 0)[(0, 0, 0)])
        table[key] = acc / step ** sum(key)
    return table


def complex_l_ladder(f: dict, coeffs, kappa: int, iset) -> dict:
    """L^kappa f by the complex recurrence g <- gamma g - d_xi(alpha g) - d_y(beta g).

    Uses the complex coefficients alpha = -i alpha', beta = -i beta' of the
    coefficient tables, one step per application, with no real factoring.
    """
    fields = ((t_scale(coeffs.alpha_prime, -1.0j), 2),   # the xi order is key entry 2
              (t_scale(coeffs.beta_prime, -1.0j), 1))    # and the y order entry 1
    g, cur = f, iset
    for _ in range(kappa):
        nxt = cur.shrink_int(1)
        acc = t_mul(coeffs.gamma, g, nxt)
        for c, var in fields:
            acc = t_add(acc, t_scale(t_shift(t_mul(c, g, cur), var, nxt), -1.0), nxt)
        g, cur = acc, nxt
    return g


def table_building_l_ladder(f: dict, coeffs, kappa: int, iset) -> dict:
    """L^kappa f by the real recurrence, each step building whole tables.

    D g is the ``t_add`` of the two ``t_mul_shift`` terms, and a transition
    step is g <- t_add(gamma g, t_scale(D g, i)): the same additions, in the
    same order, as the ladder that accumulates in place, each into a table
    of its own.
    """
    fields = ((coeffs.xi_field, 2), (coeffs.y_field, 1))  # the xi and y key entries
    outer = all(_is_zero(v) for v in coeffs.gamma.values())
    g = f
    cur = iset
    for _ in range(kappa):
        nxt = cur.shrink_int(1)
        h = t_mul(coeffs.s_prime, g, cur)
        dg = None
        for c, var in fields:
            term = t_mul_shift(c, h, var, nxt)
            dg = term if dg is None else t_add(dg, term, nxt)
        if outer:
            g = dg
        else:
            g = t_add(t_mul(coeffs.gamma, g, nxt), t_scale(dg, 1.0j), nxt)
        cur = nxt
    if outer and kappa % 4:
        g = t_scale(g, (1.0, 1.0j, -1.0, -1.0j)[kappa % 4])
    return g


def identity_residual(phase_table: dict, coeffs):
    """gamma + i alpha d_xi Phi + i beta d_y Phi - 1 at the zero key.

    M's complex coefficients alpha = -i alpha', beta = -i beta' are formed
    here from the real fields; the identity makes the residual vanish.
    """
    z = coeffs.iset.zero
    total = coeffs.gamma[z] + 0j
    total = total + 1j * (-1j * coeffs.alpha_prime[z]) * phase_table[(0, 0, 1)]
    total = total + 1j * (-1j * coeffs.beta_prime[z]) * phase_table[(0, 1, 0)]
    return total - 1.0


def eager_coefficient_fields(phase_table: dict, coords, chi, iset) -> tuple:
    """alpha' = s' ||xi||^2 d_xi Phi and beta' = s' d_y Phi, built on all of iset.

    s' = (1 - chi) / r, with r swapped for 1 where chi == 1 exactly; one y
    and one xi coordinate, whose orders are key entries 1 and 2.
    """
    nsq = _xi_norm_sq_table(coords, iset)
    dphi_xi = t_shift(phase_table, 2, iset)
    dphi_y = t_shift(phase_table, 1, iset)
    r = t_add(t_mul(nsq, t_mul(dphi_xi, dphi_xi, iset), iset),
              t_mul(dphi_y, dphi_y, iset), iset)
    gamma = chi.xi_table(coords, iset)
    omc = t_scale(gamma, -1.0)
    omc[iset.zero] = 1.0 - np.asarray(gamma[iset.zero])
    r_safe = dict(r)
    r_safe[iset.zero] = np.where(np.asarray(omc[iset.zero]) == 0.0, 1.0,
                                 np.asarray(r[iset.zero]))
    s = t_div(omc, r_safe, iset)
    return t_mul(s, t_mul(nsq, dphi_xi, iset), iset), t_mul(s, dphi_y, iset)


def restarted_horizon(speed, x, t_max: float, dt: float = 0.05,
                      threshold: float = 0.6, tol: float = 1e-8) -> dict:
    """Horizon scan that integrates both sigma flows from 0 for every scan
    time, each with its own ``rk4_step_count(t, tol)`` steps."""
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
            "margins": tuple(margins), "hit_threshold": margins[-1] <= threshold}


def welford_moments(rows, pairs=()) -> tuple:
    """(n, mean, m2, comoment) by one Welford update per row."""
    rows = [np.asarray(r, dtype=complex) for r in rows]
    p = np.asarray([i for i, _ in pairs], dtype=int)
    q = np.asarray([j for _, j in pairs], dtype=int)
    mean = np.zeros(rows[0].shape, dtype=complex)
    m2 = np.zeros(rows[0].shape)
    co = np.zeros(len(pairs), dtype=complex)
    for n, value in enumerate(rows, start=1):
        delta = value - mean
        mean = mean + delta / n
        m2 = m2 + np.real(np.conj(delta) * (value - mean))
        co = co + np.conj(np.ravel(delta)[p]) * np.ravel(value - mean)[q]
    return len(rows), mean, m2, co


def translation_mc_moments(model, u0, t: float, xs, n_samples: int,
                           base_seed: int, pairs=()) -> tuple:
    """Per-replicate translation Monte Carlo: replicate i draws one speed
    from SeedSequence(base_seed, spawn_key=(i,)) and evaluates
    (u0(x - ct) + u0(x + ct)) / 2 on its own."""
    rows = []
    for i in range(n_samples):
        c = float(_sample_speeds(model, _rng(base_seed, i), 1)[0])
        rows.append(0.5 * (map_values(u0, xs - c * t) + map_values(u0, xs + c * t)))
    return welford_moments(rows, pairs)
