"""Numerics for Fourier integral operators with rough phases and symbols.

The package computes

    A[u](x) = (2 pi)^(-1) * integral of
              exp(i Phi(x, y, xi)) a(x, y, xi) u(y)  dy dxi

over one y and one frequency coordinate xi (every block of variables holds
at most one coordinate, x too; a phase without x is constant in x), for phase
functions that are positively homogeneous of degree one in the frequency
variable and amplitudes in standard symbol classes.  The
integrals do not converge absolutely; the engine makes them computable by
applying powers of a first-order operator L (built from the phase
gradients) that fixes the oscillatory factor exactly while improving the
amplitude's decay in xi by one order per power.

Layout
------
``jets``
    Truncated Taylor tables (jets) in the x / y / xi blocks, each of at
    most one coordinate, keyed by (x, y, xi) order triples, with exact
    arithmetic, composition and a library of built-in smooth maps.
``symbol_spaces``
    Phase/amplitude containers, seminorm scans on compact boxes (an
    interval per block), homogeneity and non-degeneracy (membership)
    checks.
``regularizer``
    The smooth frequency cutoff chi, the order-selection rule for the
    number kappa of L powers, the first-order coefficient tables and the
    iterated application of L to amplitude * test-function products.
``oscillatory``
    The quadrature engine: operator assembly, apply, regularized
    oscillatory integrals and frequency-truncation convergence studies.
``applications``
    Transport, half-wave and full wave solvers whose phases come from
    bicharacteristic flows integrated with RK4 and variational jets.
``stochastic``
    The truncated-Gaussian random speed and its sampling, the expected
    wave operator, and deterministic-seed Monte Carlo with streaming
    moments.
``io`` / ``cli``
    Serialization (CSV / JSON with manifests) and the ``stochfio``
    command-line entry point.
"""

from .jets import (
    Coords,
    IndexSet,
    SmoothMap,
    VarLayout,
    builtin_map,
    make_speed,
)
from .symbol_spaces import (
    Amplitude,
    PhaseFunction,
    check_alpha_membership,
    check_homogeneity,
    compact_box,
    seminorm_p,
    seminorm_pi,
    seminorm_q,
)
from .regularizer import (
    CutoffChi,
    KappaPlan,
    check_coefficient_symbol_bounds,
    select_kappa,
)
from .oscillatory import (
    ConvergenceReport,
    FioOperator,
    GridField,
    QuadratureConfig,
    ToleranceError,
    apply,
    convergence_study,
    oscillatory_integral,
)
from .applications import (
    FlowResult,
    RegimeError,
    eikonal_phi,
    halfwave_solve,
    regime_horizon,
    solve_characteristics,
    solve_flows,
    transport_phase,
    transport_solve,
    wave_solve,
)
from .stochastic import (
    MCStats,
    MCWaveResult,
    TruncatedSpeedModel,
    expected_wave_analytic,
    expected_wave_field,
    mc_estimate,
    mc_wave_estimate,
)

__version__ = "0.1.0"

__all__ = [
    "__version__",
    # jets
    "Coords", "IndexSet", "SmoothMap", "VarLayout", "builtin_map",
    "make_speed",
    # symbol spaces
    "Amplitude", "PhaseFunction", "check_alpha_membership",
    "check_homogeneity", "compact_box",
    "seminorm_p", "seminorm_pi", "seminorm_q",
    # regularizer
    "CutoffChi", "KappaPlan", "check_coefficient_symbol_bounds",
    "select_kappa",
    # oscillatory
    "ConvergenceReport", "FioOperator", "GridField",
    "QuadratureConfig", "ToleranceError", "apply",
    "convergence_study", "oscillatory_integral",
    # applications
    "FlowResult", "RegimeError", "eikonal_phi",
    "halfwave_solve", "regime_horizon",
    "solve_characteristics", "solve_flows", "transport_phase",
    "transport_solve", "wave_solve",
    # stochastic
    "MCStats", "MCWaveResult", "TruncatedSpeedModel",
    "expected_wave_analytic", "expected_wave_field", "mc_estimate",
    "mc_wave_estimate",
]
