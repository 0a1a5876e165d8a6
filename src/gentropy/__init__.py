"""Truncated-series group laws, generalized entropies, and MaxEnt tools."""

from .series import (
    SeriesError,
    TruncatedSeries,
    from_a_sequence,
    parse_rational_list,
    normalized_from_literal,
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

__all__ = [name for name in dir() if not name.startswith("_")]

# The modules past series and catalog, and the names each exports, imported on
# first use (PEP 562): `import gentropy` executes neither numpy nor the float
# modules, and a float process does not execute the exact group-law module.
_DEFERRED = {
    "groups": ("GroupLawError", "MultiPoly", "GroupLaw", "LawAxiomCheck", "group_law_from_exponential",
               "law_from_table", "check_axioms", "formal_inverse", "lie_bracket", "abel_coefficients",
               "abel_exponential"),
    "scd": ("ScdEntropy", "inner_polynomial_coefficients", "delta_coefficient"),
    "axioms": ("AxiomReport", "ParameterRegion", "check_concavity_condition", "check_concavity_numeric",
               "scan_concavity", "check_sk2_maximum", "check_sk3_expansibility", "check_weak_composability",
               "check_strict_composability", "check_sk4_bg", "lesche_probe"),
    "thermo": ("OccupationLaw", "occupation_law", "microcanonical", "ExtensivityReport", "extensivity_check",
               "MaxEntProblem", "MaxEntSolution", "maxent_solve", "legendre_residual", "temperature_table",
               "asymptotic_scan"),
}
_HOME = {name: module for module, names in _DEFERRED.items() for name in names}
__all__ += [*_DEFERRED, *_HOME]


def __getattr__(name):
    import importlib

    if name in _DEFERRED:
        return importlib.import_module(f".{name}", __name__)  # the import binds it here as well
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = globals()[name] = getattr(importlib.import_module(f".{_HOME[name]}", __name__), name)
    return value


def __dir__():
    return sorted({*globals(), *__all__})


__version__ = "0.1.0"
