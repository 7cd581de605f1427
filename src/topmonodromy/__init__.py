"""Generalized Lagrange top: spectral curves, periods, and monodromy.

The package is organized bottom-up:

- :mod:`topmonodromy.topsys` — states, first integrals, Poisson brackets,
  and a fixed-step integrator for the coupled rigid-body system;
- :mod:`topmonodromy.poly` — dense complex polynomials, root finding,
  resultants, and discriminants;
- :mod:`topmonodromy.spectral` — the (U, V, W) Lax triple and the spectral
  polynomial f = V^2 + UW with its coefficient map from integral levels;
- :mod:`topmonodromy.discriminant` — the discriminant locus of the spectral
  polynomial: plane sections, special points, and the genus-2 branch curve;
- :mod:`topmonodromy.homology` — cycle classes on a hyperelliptic curve and
  their local twist (vanishing-cycle) action;
- :mod:`topmonodromy.periods` — certified contour integrals of holomorphic
  and puncture differentials over branch-point configurations;
- :mod:`topmonodromy.tracking` — parameter loops, numerical monodromy of
  the period lattice, and its reduction to action-variable matrices;
- :mod:`topmonodromy.cli` — the ``topmonodromy`` command-line entry point.
"""

from .discriminant import (
    G2BranchPoint,
    IsolationReport,
    StratumPoint,
    a3_isolated_check,
    classify_special_points,
    delta_c_section,
    g2_branch,
    in_component_C,
    quartic_poly,
    sextic_poly,
)
from .errors import (
    DegenerateInputError,
    IntegrationBlowupError,
    NearDiscriminantError,
    QuadratureError,
    RootFindingError,
    TopmonodromyError,
    TrackingError,
    ValidationError,
)
from .homology import (
    BranchConfig,
    CycleClass,
    build_basis,
    cycle_labels,
    delta_class,
    gamma_class,
    gamma_infinity,
    intersection,
    picard_lefschetz,
)
from .periods import (
    ContourSpec,
    action_I1,
    action_I1_cubic,
    big_loop,
    cycle_integral,
    normalized_basis_contours,
    pair_loop,
    polygon_periods,
    residue_check,
)
from .poly import (
    ComplexPoly,
    discriminant,
    normalized_discriminant,
    real_root_count,
    real_roots,
    resultant,
    roots,
)
from .spectral import (
    SpectralCoeffs,
    jacobi_uvw,
    spectral_coefficient_drift,
    spectral_from_levels,
    spectral_from_state,
)
from .topsys import (
    LevelVector,
    Observable,
    TopState,
    Trajectory,
    first_integral_observables,
    first_integrals,
    gamma_coord,
    integrate,
    lax_rhs,
    level_labels,
    observable_bracket,
    omega_coord,
    poisson_bracket,
)
from .tracking import (
    MonodromyResult,
    ParameterLoop,
    compose_loops,
    fiber_polynomial,
    monodromy_actions_g1,
    monodromy_periods,
    named_loop,
    parameter_loop,
    picard_lefschetz_route,
    torus_block,
    track_roots,
)

__version__ = "0.1.0"

__all__ = [
    "BranchConfig",
    "ComplexPoly",
    "ContourSpec",
    "CycleClass",
    "DegenerateInputError",
    "G2BranchPoint",
    "IntegrationBlowupError",
    "IsolationReport",
    "LevelVector",
    "MonodromyResult",
    "NearDiscriminantError",
    "Observable",
    "ParameterLoop",
    "QuadratureError",
    "RootFindingError",
    "SpectralCoeffs",
    "StratumPoint",
    "TopState",
    "TopmonodromyError",
    "TrackingError",
    "Trajectory",
    "ValidationError",
    "a3_isolated_check",
    "action_I1",
    "action_I1_cubic",
    "big_loop",
    "build_basis",
    "classify_special_points",
    "compose_loops",
    "cycle_integral",
    "cycle_labels",
    "delta_c_section",
    "delta_class",
    "discriminant",
    "fiber_polynomial",
    "first_integral_observables",
    "first_integrals",
    "g2_branch",
    "gamma_class",
    "gamma_coord",
    "gamma_infinity",
    "in_component_C",
    "integrate",
    "intersection",
    "jacobi_uvw",
    "lax_rhs",
    "level_labels",
    "monodromy_actions_g1",
    "monodromy_periods",
    "named_loop",
    "normalized_basis_contours",
    "normalized_discriminant",
    "observable_bracket",
    "omega_coord",
    "pair_loop",
    "parameter_loop",
    "picard_lefschetz",
    "picard_lefschetz_route",
    "poisson_bracket",
    "polygon_periods",
    "quartic_poly",
    "real_root_count",
    "real_roots",
    "residue_check",
    "resultant",
    "roots",
    "sextic_poly",
    "spectral_coefficient_drift",
    "spectral_from_levels",
    "spectral_from_state",
    "torus_block",
    "track_roots",
]
