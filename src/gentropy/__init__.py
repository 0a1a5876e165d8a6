"""Truncated-series group laws, generalized entropies, and MaxEnt tools."""

from .series import (
    SeriesError,
    OrderMismatchError,
    TruncatedSeries,
    from_a_sequence,
    parse_rational_list,
    normalized_from_literal,
)
from .groups import (
    GroupLawError,
    MultiPoly,
    GroupLaw,
    LawAxiomCheck,
    group_law_from_exponential,
    law_from_table,
    check_axioms,
    formal_inverse,
    lie_bracket,
    abel_coefficients,
    abel_exponential,
)
from .catalog import (
    SpecError,
    UnsupportedRepresentation,
    DistributionError,
    Distribution,
    JointDistribution,
    elementary_functional,
    Entropy,
    BoltzmannGibbs,
    Tsallis,
    Kaniadakis,
    BorgesRoditi,
    GroupEntropy,
    SThird,
    SFourth,
    SAlphaBetaQ,
    SDelta,
    SQDelta,
    GenericEntropy,
)
from .scd import (
    ScdEntropy,
    inner_polynomial_coefficients,
    delta_coefficient,
    scd_gamma_oracle,
    gamma_identity_residual,
)
from .axioms import (
    AxiomReport,
    ParameterRegion,
    check_concavity_condition,
    check_concavity_numeric,
    scan_concavity,
    check_sk2_maximum,
    check_sk3_expansibility,
    check_weak_composability,
    check_strict_composability,
    check_sk4_bg,
    lesche_probe,
)
from .thermo import (
    OccupationLaw,
    occupation_law,
    microcanonical,
    ExtensivityReport,
    extensivity_check,
    MaxEntProblem,
    MaxEntSolution,
    maxent_solve,
    legendre_residual,
    temperature_table,
    asymptotic_scan,
)

__version__ = "0.1.0"
