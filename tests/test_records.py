"""The result records: field names, order and defaults, read-only attributes and validation."""

import math
from fractions import Fraction

import pytest

from gentropy import BoltzmannGibbs, SpecError, Tsallis, formal_inverse, group_law_from_exponential
from gentropy.axioms import FAIL, PASS, AxiomReport, ParameterRegion
from gentropy.groups import GroupLaw, LawAxiomCheck
from gentropy.thermo import (ExtensivityReport, MaxEntProblem, MaxEntSolution, OccupationLaw, ScanRow,
                             ThermoRow)

LAW = group_law_from_exponential(Tsallis(Fraction(1, 2)).exp_series(6))
BG = BoltzmannGibbs()

# name -> (record class, its fields in order, the defaults it states, one valid instance, keyword sets it refuses)
RECORDS = {
    "GroupLaw": (GroupLaw, ("phi", "exp", "log"), {}, lambda: GroupLaw(phi=LAW.phi, exp=LAW.exp, log=LAW.log), []),
    "LawAxiomCheck": (LawAxiomCheck, ("symmetric", "null_composable", "associative", "first_violation"), {},
                      lambda: LawAxiomCheck(True, True, False, ("associativity", (1, 1, 2), Fraction(1, 3))), []),
    "OccupationLaw": (OccupationLaw, ("spec", "valid", "reason", "ln_W"), {"reason": "", "ln_W": ()},
                      lambda: OccupationLaw(BG, True), []),
    "ExtensivityReport": (ExtensivityReport, ("max_residual", "max_residual_rounded", "rows"), {"rows": None},
                          lambda: ExtensivityReport(0.0, None), []),
    "MaxEntProblem": (MaxEntProblem, ("spec", "energies", "beta", "target_U"), {"beta": None, "target_U": None},
                      lambda: MaxEntProblem(BG, (0.0, 1.0), beta=1.0), [
                          ({"spec": BG, "energies": (0.0,), "beta": 1.0}, SpecError),
                          ({"spec": BG, "energies": (0.0, math.inf), "beta": 1.0}, SpecError),
                          ({"spec": BG, "energies": (0.0, 1.0)}, SpecError),
                          ({"spec": BG, "energies": (0.0, 1.0), "beta": 1.0, "target_U": 0.5}, SpecError),
                          ({"spec": BG, "energies": (0.0, 1.0), "target_U": math.nan}, SpecError),
                      ]),
    "MaxEntSolution": (MaxEntSolution, ("distribution", "alpha", "beta", "Z", "U", "S", "stationarity_residual"),
                       {}, lambda: MaxEntSolution(None, 0.0, 1.0, 1.5, 0.4, 0.9, 0.0), []),
    "ThermoRow": (ThermoRow, ("beta", "U", "S", "T", "free_energy"), {},
                  lambda: ThermoRow(1.0, 0.4, 0.9, None, None), []),
    "ScanRow": (ScanRow, ("label", "family", "exponent", "values"), {}, lambda: ScanRow("bg", "(ln W)^a", 1.0, []), []),
    "AxiomReport": (AxiomReport, ("axiom", "verdict", "worst_residual", "witness", "trials", "seed", "details"),
                    {"witness": None, "trials": 0, "seed": None, "details": None},
                    lambda: AxiomReport("sk2", PASS, 0.0), [
                        ({"axiom": "sk2", "verdict": FAIL, "worst_residual": 1.0}, ValueError),
                    ]),
    "ParameterRegion": (ParameterRegion, ("intervals", "resolution"), {"resolution": 3},
                        lambda: ParameterRegion({"q": (0.0, 1.0)}), [
                            ({"intervals": {}}, ValueError),
                            ({"intervals": {"q": (0.0, 1.0)}, "resolution": 0}, ValueError),
                        ]),
}


@pytest.mark.parametrize("name", RECORDS)
def test_record(name):
    cls, fields, defaults, make, refusals = RECORDS[name]
    assert cls._fields == fields and cls._field_defaults == defaults
    record = make()
    assert type(record) is cls and repr(record).startswith(f"{name}({fields[0]}=")
    assert record == cls(**dict(zip(fields, record)))  # keyword construction gives an equal record
    for attr in (fields[0], "no_such_field"):
        with pytest.raises(AttributeError):
            setattr(record, attr, None)
    for kwargs, error in refusals:
        with pytest.raises(error):
            cls(**kwargs)


def test_each_report_has_its_own_details_and_rows():
    first, second = AxiomReport("sk2", PASS, 0.0), AxiomReport("sk2", PASS, 0.0)
    assert first.details == {} and first.details is not second.details
    first, second = ExtensivityReport(0.0, None), ExtensivityReport(0.0, None)
    assert first.rows == [] and first.rows is not second.rows


def test_group_law_equality_hash_and_seeded_inverse():
    bare = GroupLaw(LAW.phi, LAW.exp, LAW.log)
    assert bare == LAW and hash(bare) == hash(LAW) == hash((LAW.phi, LAW.exp, LAW.log))
    assert bare != GroupLaw(LAW.phi, LAW.exp, LAW.exp)
    # a constructed law holds the inverse's integers from its construction; the bare one makes them on first use
    assert "_inverse" in vars(group_law_from_exponential(LAW.exp)) and "_inverse" not in vars(bare)
    assert formal_inverse(LAW) == formal_inverse(bare) and vars(bare)["_inverse"] == vars(LAW)["_inverse"]
