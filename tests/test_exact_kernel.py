"""The divided-power kernel behind revert, the group law and the formal inverse.

Every result is compared bit for bit with ``benchmark/oracles.py``, which
computes apart from gentropy: Lagrange inversion, the power table of F, and
Horner composition.  The module is loaded from its file, the way
``tests/test_spans.py`` loads ``spans.py``; nothing in ``benchmark/`` changes.
"""

import importlib.util
from fractions import Fraction
from math import factorial
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from gentropy.catalog import BorgesRoditi, GenericEntropy, Kaniadakis, SAlphaBetaQ, SThird, Tsallis
from gentropy.cli import KINDS
from gentropy.groups import (
    GroupLaw,
    GroupLawError,
    abel_exponential,
    check_axioms,
    formal_inverse,
    group_law_from_exponential,
    law_from_table,
    _law_sums,
    _negated,
)
from gentropy.series import (TruncatedSeries, _bell_table, _divided_powers, _reversion, from_a_sequence,
                             normalized_from_literal)
from test_acceptance import exponential_catalog

ORACLES = Path(__file__).resolve().parents[1] / "benchmark" / "oracles.py"


def load_oracles():
    spec = importlib.util.spec_from_file_location("benchmark_oracles", ORACLES)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


o = load_oracles()
F = Fraction

# one parameter set for each KINDS entry that has a group exponential
PARAMS = {
    "bg": (),
    "tsallis": (F(3, 7),),
    "kaniadakis": (F(1, 3),),
    "borges_roditi": (F(1, 2), F(-1, 3)),
    "group_entropy": (F(1, 5), {1: 1, -1: -2, -2: 1}),
    "s_iii": (F(4, 5),),
    "s_iv": (F(9, 10),),
    "s_alpha_beta_q": (F(3, 4), F(3, 16), F(7, 8)),
    "generic": ([F(1), F(-1, 2), F(1, 3)],),
}
EXTRA = {
    "abel_exponential": lambda n: abel_exponential(F(2, 3), F(-1, 5), n),
    # denominators that no small scale covers: D = 1000003 * 999983
    "large primes": lambda n: from_a_sequence([F(1), F(1, 1000003), F(-7, 999983)], n),
}


def exponential(name, order):
    if name in EXTRA:
        return EXTRA[name](order)
    return KINDS[name].cls(*PARAMS[name]).exp_series(order)


def test_every_kind_with_an_exponential_is_covered():
    assert set(PARAMS) == {name for name, kind in KINDS.items() if kind.cls.has_exponential}


@pytest.mark.parametrize("order", [12, 24])
@pytest.mark.parametrize("name", [*PARAMS, *EXTRA])
def test_revert_law_and_inverse_match_the_oracles(name, order):
    G = exponential(name, order)
    g = list(G.coeffs)
    f = o.revert(g, order)
    assert list(G.revert().coeffs) == f
    law = group_law_from_exponential(G)
    assert list(law.log.coeffs) == f
    assert law.phi.terms == o.law_terms(g, order)
    assert list(formal_inverse(law).coeffs) == o.compose(g, [-c for c in f], order)


@pytest.mark.parametrize("order", [24, 32])
@pytest.mark.parametrize("monos", [((2, 2),), ((3, 1), (1, 3))], ids=["x2y2", "x3y+xy3"])
@pytest.mark.parametrize("spec", exponential_catalog(), ids=lambda spec: spec.name)
def test_a_perturbed_law_fails_at_its_degree_4_defect(spec, monos, order):
    # the benchmark's perturbed table at orders past its own: a symmetric
    # degree-4 term that is no cocycle, so the x y z^2 defect comes first
    table = group_law_from_exponential(spec.exp_series(order)).c_table()
    for m in monos:
        table[m] = table.get(m, 0) + F(-3, 7)
    defect = o.associativity_defect({(1, 0): F(1), (0, 1): F(1), **table}, 4)
    chk = check_axioms(law_from_table(table, order))
    assert (chk.symmetric, chk.null_composable, chk.associative) == (True, True, False)
    assert chk.first_violation == ("associativity", (1, 1, 2), defect[(1, 1, 2)])


@pytest.mark.parametrize("order", [12, 24])
def test_float_coefficients_keep_the_float_reversion(order):
    # t + t^2/2 reverts to dyadic rationals with Catalan numerators, exact in
    # doubles through order 24, so the float path meets the exact oracles
    G = TruncatedSeries([0, 1.0, 0.5], order)
    exact = [F(c) for c in G.coeffs]
    f = o.revert(exact, order)
    F_float = G.revert()
    assert all(type(c) is float for c in F_float.coeffs[2:])
    assert list(F_float.coeffs) == f
    law = group_law_from_exponential(G)
    assert law.log == F_float
    assert law.phi.terms == o.law_terms(exact, order)
    assert list(formal_inverse(law).coeffs) == o.compose(exact, [-c for c in f], order)


@pytest.mark.parametrize("order", [3, 6, 12])
def test_a_float_exponential_gives_the_exact_law_of_its_values(order):
    # 0.1 is not dyadic-short: F reverted in floats and rounded made a Phi with
    # Phi(x, 0) != x, and a formal inverse that did not close, from order 3 on
    G = TruncatedSeries([0, 1.0, 0.1], order)
    exact = [F(c) for c in G.coeffs]
    f = o.revert(exact, order)
    assert list(G.revert().coeffs) == [float(c) for c in f]
    law = group_law_from_exponential(G)
    assert list(law.log.coeffs) == f
    assert law.phi.terms == o.law_terms(exact, order)
    assert check_axioms(law.phi).first_violation is None
    assert list(formal_inverse(law).coeffs) == o.compose(exact, [-c for c in f], order)


@pytest.mark.parametrize(
    "spec, bound",
    [
        (Tsallis(F(3, 7)), 7),
        (SThird(F(4, 5)), 5),
        (BorgesRoditi(F(1, 2), F(-1, 3)), 6),
        (SAlphaBetaQ(F(3, 4), F(3, 16), F(7, 8)), 128),
        # c_2 = 0 and den(c_3 3!) = 9: the scale takes the square root 3
        (Kaniadakis(F(1, 3)), 3),
    ],
    ids=lambda x: getattr(x, "name", x),
)
@pytest.mark.parametrize("order", [12, 48])
def test_the_scale_stays_small(spec, bound, order):
    # the lcm of the denominators would be bound^(N - 1) for Tsallis, and a
    # scale without the k! would take in every prime up to N
    G = spec.exp_series(order)
    D, (e,) = _divided_powers(G.coeffs)
    assert D <= bound
    assert all(type(x) is int for x in e)
    assert e == [F(c) * factorial(k) * D ** (k - 1) if k else 0 for k, c in enumerate(G.coeffs)]


rationals = st.fractions(min_value=-5, max_value=5, max_denominator=60)


@settings(max_examples=60, deadline=None)
@given(st.lists(rationals, min_size=1, max_size=10), st.lists(rationals, min_size=1, max_size=10))
def test_one_scale_makes_every_series_integral(tail_g, tail_f):
    n = max(len(tail_g), len(tail_f)) + 1
    series = [TruncatedSeries([0, 1, *tail], n).coeffs for tail in (tail_g, tail_f)]
    D, scaled = _divided_powers(*series)
    for coeffs, e in zip(series, scaled):
        assert e == [F(c) * factorial(k) * D ** (k - 1) if k else 0 for k, c in enumerate(coeffs)]


def test_a_log_that_is_not_the_reversion_does_not_close():
    # 1/7919 is no factor of the exponential's scale D = 5: the integer form
    # must take it in, not drop it and return a wrong inverse
    law = group_law_from_exponential(SThird(F(4, 5)).exp_series(12))
    coeffs = list(law.log.coeffs)
    coeffs[5] += F(1, 7919)
    bent = GroupLaw(phi=law.phi, exp=law.exp, log=TruncatedSeries(coeffs, 12))
    with pytest.raises(GroupLawError, match="formal inverse does not close"):
        formal_inverse(bent)


def test_an_inverse_that_closes_without_the_reversion():
    # Phi = x + y + (4/7) x y has inverse i(x) = -x / (1 + 4x/7).  With G = t
    # and log = -i, G(-log(x)) = i(x) closes although log is not revert(G),
    # and log's 7^(k-1) denominators lie outside G's scale D = 1
    order = 12
    i = [0] + [-F(-4, 7) ** (k - 1) for k in range(1, order + 1)]
    law = GroupLaw(
        phi=law_from_table({(1, 1): F(4, 7)}, order),
        exp=TruncatedSeries.identity(order),
        log=TruncatedSeries([-c for c in i], order),
    )
    assert list(formal_inverse(law).coeffs) == i


def test_an_inverse_needs_normalized_series():
    law = group_law_from_exponential(SThird(F(4, 5)).exp_series(6))
    half = TruncatedSeries([0, F(1, 2), *law.log.coeffs[2:]], 6)
    with pytest.raises(GroupLawError, match="normalized"):
        formal_inverse(GroupLaw(phi=law.phi, exp=law.exp, log=half))


@settings(max_examples=200, deadline=None)
@given(st.lists(st.integers(-10**6, 10**6), max_size=18))
def test_one_pass_solves_the_reversion_and_its_table(tail):
    # e_0 = 0 and e_1 = 1, orders 1 to 19: the single pass against the two it replaces
    e = [0, 1, *tail]
    table = _bell_table(e, inverse=True)
    f = _reversion(_bell_table(e))
    assert [row[1] for row in table] == f
    # the single pass stops at column K, e's last nonzero index; columns 0..K are f's whole table's
    K = max(k for k, v in enumerate(e) if v)
    assert table == [row[: K + 1] for row in _bell_table(f)]


CUT_TABLE_SERIES = [(spec.name, spec.exp_series) for spec in exponential_catalog()] + [
    ("generic (1, 1/2, -1/3, 3/4)",
     lambda n: GenericEntropy([1, Fraction(1, 2), Fraction(-1, 3), Fraction(3, 4)], order=n).exp_series(n)),
    ("series 1, 1/3, 1/5, ..., 1/23",
     lambda n: normalized_from_literal("1, 1/3, 1/5, 1/7, 1/11, 1/13, 1/17, 1/19, 1/23", n)),
]


@pytest.mark.parametrize("order", [12, 24, 48])
@pytest.mark.parametrize("series", [build for _, build in CUT_TABLE_SERIES], ids=[name for name, _ in CUT_TABLE_SERIES])
def test_the_cut_table_gives_the_whole_tables_integers(series, order):
    # F's integers, the law's sums and the inverse's integers read no column of F's table past K
    D, (e,) = _divided_powers(series(order).coeffs)
    cut = _bell_table(e, inverse=True)
    f = _reversion(_bell_table(e))
    whole = _bell_table(f)
    assert [row[1] for row in cut] == f
    assert list(_law_sums(e, cut, D, order)) == list(_law_sums(e, whole, D, order))
    assert _negated(e, cut) == _negated(e, whole)
