"""Numerical splitting of vector fields on R^n into a conservative part
and a sphere-invariant part, with coercivity probing and equilibrium
location inside certified balls."""

__version__ = "0.1.0"

from .errors import (
    CatalogError,
    CertificateError,
    ConfigError,
    DimensionMismatchError,
    DomainError,
    NoCertifiedRadiusError,
    NonFiniteValueError,
    ParseError,
    PresnovError,
    QuadratureError,
)
from .fields import (
    BallRestrictedField,
    CallableField,
    CatalogEntry,
    Domain,
    ScaledField,
    ShiftedField,
    SumField,
    VectorField,
    catalog_field,
    catalog_names,
    radial_component,
)
from .dsl import (
    ExpressionField,
    evaluate_ast,
    parse_expression,
    parse_expressions,
    parse_field,
    pretty,
)
from .quadrature import QuadratureConfig, integrate_unit
from .decomposition import (
    ConservativePart,
    DecompositionSample,
    DecompositionSet,
    SphereInvariantPart,
    VerificationReport,
    compute_potential,
    decompose,
    decompose_many,
    gradient_potential,
    gradient_potential_integral,
    gradient_potential_integral_many,
    gradient_potential_many,
    potential_many,
    verify_decomposition,
)
from .radial import (
    BoundaryCertificate,
    PairedProbeReport,
    ProbeConfig,
    RadialProbeReport,
    Witness,
    boundary_certificate,
    coercivity_probe,
    paired_probe,
    radial_profile,
)
from .equilibria import (
    EquilibriumResult,
    PerturbedExistenceResult,
    SolverConfig,
    find_equilibrium,
    find_equilibrium_conservative,
    perturbed_existence,
)
from .sampling import ball_points, default_direction_count, unit_directions

__all__ = [
    "__version__",
    # errors
    "PresnovError",
    "ConfigError",
    "DimensionMismatchError",
    "NonFiniteValueError",
    "DomainError",
    "QuadratureError",
    "CatalogError",
    "ParseError",
    "CertificateError",
    "NoCertifiedRadiusError",
    # fields
    "Domain",
    "VectorField",
    "CallableField",
    "SumField",
    "ScaledField",
    "ShiftedField",
    "BallRestrictedField",
    "CatalogEntry",
    "catalog_field",
    "catalog_names",
    "radial_component",
    # dsl
    "ExpressionField",
    "parse_expressions",
    "parse_expression",
    "parse_field",
    "evaluate_ast",
    "pretty",
    # quadrature
    "QuadratureConfig",
    "integrate_unit",
    # decomposition
    "DecompositionSample",
    "DecompositionSet",
    "VerificationReport",
    "compute_potential",
    "potential_many",
    "gradient_potential",
    "gradient_potential_many",
    "gradient_potential_integral",
    "gradient_potential_integral_many",
    "decompose",
    "decompose_many",
    "verify_decomposition",
    "ConservativePart",
    "SphereInvariantPart",
    # radial
    "ProbeConfig",
    "Witness",
    "RadialProbeReport",
    "PairedProbeReport",
    "BoundaryCertificate",
    "radial_profile",
    "coercivity_probe",
    "paired_probe",
    "boundary_certificate",
    # equilibria
    "SolverConfig",
    "EquilibriumResult",
    "PerturbedExistenceResult",
    "find_equilibrium",
    "find_equilibrium_conservative",
    "perturbed_existence",
    # sampling
    "unit_directions",
    "ball_points",
    "default_direction_count",
]
