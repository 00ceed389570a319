"""p-modulus and extremal densities of parametrized surface families.

The package computes the p-modulus of a family of m-dimensional
surfaces swept through R^n by a diffeomorphism of a product of boxes,
via the reduction of the modulus to an integral of surface weights, and
cross-checks the result along two independent routes: a level-set
formulation through submersions and a discretized convex program solved
with no knowledge of the closed form.
"""

from .errors import (
    ConfigError,
    DegenerateJacobian,
    EvaluationFailure,
    InconsistentSubmersion,
    InfeasibleSurface,
    InversionFailure,
    NoConvergence,
    NonFiniteIntegrand,
    SingularMatrix,
    SurfmodError,
)
from .family import (
    AmbientMap,
    BoxDomain,
    ParametrizedFamily,
    Submersion,
    compose,
    evaluate_map,
    jacobian_full,
    jacobian_partial_y,
    submersion_jacobian,
)
from .quadrature import QuadratureScheme
from .modulus import (
    ExtremalDensity,
    ModulusReport,
    admissibility_check,
    coarea_check,
    conjugate_exponent,
    extremal_density,
    extremality_probe,
    jacobian_floor,
    modulus_p,
    submersion_modulus,
)
from .oracle import (
    CrossValidationRow,
    DiscreteModulusProblem,
    DiscreteSolution,
    cross_validate,
    discretize_family,
    solve_discrete,
)
from .catalog import (
    CatalogEntry,
    available_families,
    build_entry,
    default_quadrature,
    make_condenser,
    make_parallel,
    make_polar_annulus,
    make_pq_map,
    make_shear,
    standard_entries,
)

__version__ = "0.1.0"

__all__ = [
    "AmbientMap",
    "BoxDomain",
    "CatalogEntry",
    "ConfigError",
    "CrossValidationRow",
    "DegenerateJacobian",
    "DiscreteModulusProblem",
    "DiscreteSolution",
    "EvaluationFailure",
    "ExtremalDensity",
    "InconsistentSubmersion",
    "InfeasibleSurface",
    "InversionFailure",
    "ModulusReport",
    "NoConvergence",
    "NonFiniteIntegrand",
    "ParametrizedFamily",
    "QuadratureScheme",
    "SingularMatrix",
    "Submersion",
    "SurfmodError",
    "admissibility_check",
    "available_families",
    "build_entry",
    "coarea_check",
    "compose",
    "conjugate_exponent",
    "cross_validate",
    "default_quadrature",
    "discretize_family",
    "evaluate_map",
    "extremal_density",
    "extremality_probe",
    "jacobian_floor",
    "jacobian_full",
    "jacobian_partial_y",
    "make_condenser",
    "make_parallel",
    "make_polar_annulus",
    "make_pq_map",
    "make_shear",
    "modulus_p",
    "solve_discrete",
    "standard_entries",
    "submersion_jacobian",
    "submersion_modulus",
]
