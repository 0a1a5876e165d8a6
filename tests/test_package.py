"""The package surface: every name `gentropy` exported before its float modules were deferred."""

import importlib
import os
import subprocess
import sys
from pathlib import Path

import gentropy

SRC = Path(__file__).resolve().parents[1] / "src"

# defining module -> the names `gentropy/__init__.py` imported from it eagerly
EXPORTS = {
    "series": ["SeriesError", "TruncatedSeries", "from_a_sequence", "parse_rational_list",
               "normalized_from_literal"],
    "groups": ["GroupLawError", "MultiPoly", "GroupLaw", "LawAxiomCheck", "group_law_from_exponential",
               "law_from_table", "check_axioms", "formal_inverse", "lie_bracket", "abel_coefficients",
               "abel_exponential"],
    "catalog": ["SpecError", "UnsupportedRepresentation", "DistributionError", "Distribution", "JointDistribution",
                "elementary_functional", "Entropy", "BoltzmannGibbs", "Tsallis", "Kaniadakis", "BorgesRoditi",
                "GroupEntropy", "SThird", "SFourth", "SAlphaBetaQ", "SDelta", "SQDelta", "GenericEntropy"],
    "scd": ["ScdEntropy", "inner_polynomial_coefficients", "delta_coefficient"],
    "axioms": ["AxiomReport", "ParameterRegion", "check_concavity_condition", "check_concavity_numeric",
               "scan_concavity", "check_sk2_maximum", "check_sk3_expansibility", "check_weak_composability",
               "check_strict_composability", "check_sk4_bg", "lesche_probe"],
    "thermo": ["OccupationLaw", "occupation_law", "microcanonical", "ExtensivityReport", "extensivity_check",
               "MaxEntProblem", "MaxEntSolution", "maxent_solve", "legendre_residual", "temperature_table",
               "asymptotic_scan"],
}
NAMES = [name for names in EXPORTS.values() for name in names]


def test_a_bare_import_resolves_every_name():
    probe = f"import gentropy; print([n for n in {NAMES!r} if not hasattr(gentropy, n)])"
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    proc = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True, text=True,
                          timeout=120, check=True)
    assert proc.stdout.splitlines() == ["[]"]


def test_each_name_is_its_defining_modules_object():
    for module, names in EXPORTS.items():
        home = importlib.import_module(f"gentropy.{module}")
        for name in names:
            assert getattr(gentropy, name) is getattr(home, name), name


def test_star_import_binds_the_same_names():
    namespace = {}
    exec("from gentropy import *", namespace)
    assert set(namespace) - {"__builtins__"} == {*NAMES, *EXPORTS}


def test_float_modules_resolve_as_attributes():
    for module in ("thermo", "axioms", "scd"):
        assert getattr(gentropy, module) is sys.modules[f"gentropy.{module}"]


def test_an_unknown_name_is_an_attribute_error():
    assert not hasattr(gentropy, "no_such_name")
