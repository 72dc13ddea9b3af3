"""Exact classification of degree-1 du Val del Pezzo surfaces.

Given the sextic equation of a degree-1 del Pezzo surface with du Val
singularities in P(1,1,2,3), this package computes -- in exact rational
arithmetic -- the singular fibers of the associated elliptic fibration, the
singularity configuration, the Picard rank, isotriviality and the j-invariant,
the coregularity invariants coreg, coreg1, coreg2, toric-model existence and
the special labels, plus combinatorial enumerators for the possible fiber
configurations.
"""

from .enumeration import (
    enumerate_instar_without_in,
    enumerate_isotrivial,
    is_miranda_excluded,
    miranda_exclusions,
)
from .errors import (
    DelPezzoError,
    EquationError,
    InvalidSurfaceError,
    MissingCubeTermError,
    MissingSquareTermError,
    NonMinimalError,
    ZeroDiscriminantError,
)
from .forms import (
    BinaryForm,
    Factorization,
    factor_over_rationals,
    form_gcd,
)
from .kodaira import (
    FiberConfiguration,
    KodairaType,
    Place,
    classify_fibration,
    classify_place,
    configuration,
    fiber_properties,
)
from .sextic import GeneralSextic, parse_binary_form, parse_sextic
from .surfaces import (
    ClassificationReport,
    SingularityConfig,
    classify_surface,
    classify_weierstrass,
    decide_coregularity,
    degree_rule,
    duval_configuration,
    label_special,
    moduli_dimension,
    picard_rank,
)
from .weierstrass import (
    JInvariant,
    WeierstrassData,
    reduce_to_short,
    weierstrass_data,
)

__all__ = [
    "BinaryForm",
    "ClassificationReport",
    "DelPezzoError",
    "EquationError",
    "Factorization",
    "FiberConfiguration",
    "GeneralSextic",
    "InvalidSurfaceError",
    "JInvariant",
    "KodairaType",
    "MissingCubeTermError",
    "MissingSquareTermError",
    "NonMinimalError",
    "Place",
    "SingularityConfig",
    "WeierstrassData",
    "ZeroDiscriminantError",
    "classify_fibration",
    "classify_place",
    "classify_surface",
    "classify_weierstrass",
    "configuration",
    "decide_coregularity",
    "degree_rule",
    "duval_configuration",
    "enumerate_instar_without_in",
    "enumerate_isotrivial",
    "factor_over_rationals",
    "fiber_properties",
    "form_gcd",
    "is_miranda_excluded",
    "label_special",
    "miranda_exclusions",
    "moduli_dimension",
    "parse_binary_form",
    "parse_sextic",
    "picard_rank",
    "reduce_to_short",
    "weierstrass_data",
]

__version__ = "0.1.0"
