"""Formal group laws: construction, axioms, inverses, and the Abel family."""

import functools
import random
import sys
from fractions import Fraction
from math import comb

import pytest
from hypothesis import example, given, settings, strategies as st

from gentropy.catalog import (
    BoltzmannGibbs,
    BorgesRoditi,
    GenericEntropy,
    GroupEntropy,
    Kaniadakis,
    SAlphaBetaQ,
    SFourth,
    SThird,
    Tsallis,
)
from gentropy import groups
from gentropy.cli import KINDS
from gentropy.groups import (
    GroupLaw,
    GroupLawError,
    MultiPoly,
    abel_coefficients,
    abel_exponential,
    check_axioms,
    formal_inverse,
    group_law_from_exponential,
    law_from_table,
    lie_bracket,
)
from gentropy.series import SeriesError, TruncatedSeries, from_a_sequence, normalized_from_literal
from test_acceptance import exponential_catalog


def exp_from_a(a, order):
    return from_a_sequence([Fraction(x) for x in a], order)


def _table_reference(c, order):
    """x + y + sum c_km x^k y^m as a dict, each entry a Fraction, zero terms and terms past the order dropped."""
    ref = {(1, 0): Fraction(1), (0, 1): Fraction(1)}
    for mono, coeff in c.items():
        ref[mono] = ref.get(mono, 0) + Fraction(coeff)
    return {m: v for m, v in ref.items() if v != 0 and sum(m) <= order}


class TestLawFromTable:
    def test_matches_the_dict_reference(self):
        table = {(1, 0): 2, (0, 1): -1, (1, 1): 0.5, (2, 1): Fraction(1, 3), (1, 2): 7,
                 (2, 2): 0, (0, 2): Fraction(0), (3, 3): 5, (4, 1): 0.25}
        phi = law_from_table(table, 4)
        assert phi.terms == _table_reference(table, 4)
        assert phi.terms == {(1, 0): 3, (1, 1): Fraction(1, 2), (2, 1): Fraction(1, 3), (1, 2): 7}
        assert all(type(c) is Fraction for c in phi.terms.values())

    def test_empty_table_is_x_plus_y(self):
        assert law_from_table({}, 3).terms == _table_reference({}, 3) == {(1, 0): 1, (0, 1): 1}


class TestMultiPoly:
    def test_truncation_on_construction(self):
        p = MultiPoly({(3, 3): Fraction(1), (1, 0): Fraction(2)}, 4)
        assert p.terms == {(1, 0): Fraction(2)}


class TestConstruction:
    def test_additive_law(self):
        g = exp_from_a([1], 6)  # G = t
        law = group_law_from_exponential(g)
        assert law.c_table() == {}

    def test_multiplicative_law(self):
        # G = e^t - 1 gives Phi = x + y + xy
        a = [Fraction(1, 1)]
        for k in range(1, 8):
            a.append(a[-1] / k)
        law = group_law_from_exponential(exp_from_a(a, 8))
        assert law.c_table() == {(1, 1): Fraction(1)}

    def test_rejects_unnormalized(self):
        with pytest.raises(GroupLawError):
            group_law_from_exponential(TruncatedSeries([0, 2, 1], 4))

    def test_order_cannot_exceed_series(self):
        g = exp_from_a([1, 1], 4)
        with pytest.raises(GroupLawError):
            group_law_from_exponential(g, 6)

    @pytest.mark.parametrize("order", [0, -1, -5])
    def test_an_order_below_one_is_a_group_law_error(self, order):
        # it was a SeriesError from reversion or truncation, not about the law
        with pytest.raises(GroupLawError, match=f"a group law needs order >= 1, got {order}"):
            group_law_from_exponential(exp_from_a([1, 1], 4), order)


class TestLazardRelations:
    @pytest.mark.parametrize(
        "b1,b2",
        [
            (Fraction(1), Fraction(1)),
            (Fraction(2), Fraction(-1)),
            (Fraction(1, 2), Fraction(1, 3)),
        ],
    )
    def test_low_order_coefficients(self, b1, b2):
        # F = t + b1 t^2/2 + b2 t^3/3; the a_k of G = revert(F) obey
        # a_0 = 1, a_1 = -b1, a_2 = (3/2) b1^2 - b2
        order = 6
        f = TruncatedSeries([0, 1, b1 / 2, b2 / 3], order)
        g = f.revert()
        a = [(k + 1) * g.coeffs[k + 1] for k in range(3)]
        assert a[0] == 1
        assert a[1] == -b1
        assert a[2] == Fraction(3, 2) * b1 ** 2 - b2


class TestAxioms:
    def test_constructed_law_passes(self):
        g = exp_from_a([1, Fraction(-1, 2), Fraction(1, 3), Fraction(1, 5)], 8)
        law = group_law_from_exponential(g)
        chk = check_axioms(law.phi, 8)
        assert chk.all_pass
        assert chk.first_violation is None

    def test_asymmetric_table_fails(self):
        phi = law_from_table({(2, 1): Fraction(1)}, 4)
        chk = check_axioms(phi)
        assert not chk.symmetric
        assert chk.first_violation[0] == "symmetry"

    def test_null_composability_violation(self):
        phi = law_from_table({(2, 0): Fraction(1), (0, 2): Fraction(1)}, 4)
        chk = check_axioms(phi)
        assert chk.symmetric
        assert not chk.null_composable

    def test_non_associative_table_fails(self):
        # x + y + x^2 y^2 is symmetric and null-composable but not associative
        phi = law_from_table({(2, 2): Fraction(1)}, 6)
        chk = check_axioms(phi, 6)
        assert chk.symmetric and chk.null_composable
        assert not chk.associative
        assert chk.first_violation[0] == "associativity"

    @pytest.mark.parametrize("assoc_order", [7, 8, -1])
    def test_assoc_order_outside_the_table(self, assoc_order):
        # past its order the table's missing terms read as zero: at 8 this law
        # reported ("associativity", (1, 1, 5), 3114/3125), and -1 passed vacuously
        phi = group_law_from_exponential(SThird(Fraction(4, 5)).exp_series(6)).phi
        with pytest.raises(GroupLawError, match=r"assoc_order must be in 0\.\.6, got " + str(assoc_order)):
            check_axioms(phi, assoc_order)
        assert check_axioms(phi, 6).all_pass and check_axioms(phi, 0).all_pass

    @pytest.mark.parametrize(
        "table, order, assoc_order, verdicts, violation",
        [
            # x + y + x y^2, associative through degree 2, where it is x + y
            ({(1, 2): 1}, 3, 2, (False, True, True), ("symmetry", (1, 2), 1)),
            # Phi = 0
            ({(1, 0): -1, (0, 1): -1}, 3, None, (True, False, True),
             ("null-composability", (1, 0), -1)),
            ({(2, 2): 1}, 4, None, (True, True, False), ("associativity", (1, 1, 2), -2)),
            # symmetry is reported before associativity
            ({(1, 2): 1}, 3, None, (False, True, False), ("symmetry", (1, 2), 1)),
        ],
    )
    def test_first_violation_names_the_first_failing_axiom(
        self, table, order, assoc_order, verdicts, violation
    ):
        chk = check_axioms(law_from_table(table, order), assoc_order)
        assert (chk.symmetric, chk.null_composable, chk.associative) == verdicts
        assert chk.first_violation == violation


class TestFormalInverse:
    def test_additive(self):
        law = group_law_from_exponential(exp_from_a([1], 6))
        inv = formal_inverse(law)
        assert inv.coeffs == (0, -1, 0, 0, 0, 0, 0)

    def test_multiplicative_geometric_signs(self):
        a = [Fraction(1)]
        for k in range(1, 7):
            a.append(a[-1] / k)
        law = group_law_from_exponential(exp_from_a(a, 7))
        inv = formal_inverse(law)
        # Phi(x, phi(x)) = 0 for Phi = x + y + xy means phi = -x/(1+x)
        expected = [Fraction(0)] + [Fraction((-1) ** k) for k in range(1, 8)]
        assert inv.coeffs == tuple(expected)

    def test_substituting_back_gives_zero(self):
        g = exp_from_a([1, Fraction(1, 2), Fraction(-2, 5)], 7)
        law = group_law_from_exponential(g)
        inv = formal_inverse(law)
        cand = {(k,): Fraction(inv.coeffs[k]) for k in range(1, 8)}
        assert _substitute(law.phi.terms, {(1,): Fraction(1)}, cand, 1, 7) == {}


LAW_SPECS = {  # kind -> the spec at scale c, for every kind with a group exponential
    "bg": lambda c: BoltzmannGibbs(scale_c=c),
    "tsallis": lambda c: Tsallis(Fraction(1, 2), scale_c=c),
    "kaniadakis": lambda c: Kaniadakis(Fraction(1, 3), scale_c=c),
    "borges_roditi": lambda c: BorgesRoditi(Fraction(1, 2), Fraction(-1, 3), scale_c=c),
    "group_entropy": lambda c: GroupEntropy(
        Fraction(1, 3), {2: Fraction(1, 4), 1: Fraction(1, 8), -1: Fraction(-3, 8)}, scale_c=c),
    "s_iii": lambda c: SThird(Fraction(4, 5), scale_c=c),
    "s_iv": lambda c: SFourth(Fraction(9, 10), scale_c=c),
    "s_alpha_beta_q": lambda c: SAlphaBetaQ(Fraction(1, 8), Fraction(-1, 8), Fraction(9, 10), scale_c=c),
    "generic": lambda c: GenericEntropy([1, Fraction(1, 8), Fraction(1, 10)], scale_c=c),
}
LAW_ORDER = 24


@functools.cache
def exact_law(kind, c):
    """The spec and the terms of its order-24 exact table."""
    spec = LAW_SPECS[kind](c)
    return spec, list(group_law_from_exponential(spec.exp_series(LAW_ORDER)).phi.iter_terms())


class TestExactLawIsTheFloatLaw:
    def test_every_kind_with_a_group_exponential_is_covered(self):
        assert set(LAW_SPECS) == {name for name, kind in KINDS.items() if kind.cls.has_exponential}

    @pytest.mark.parametrize("c", [1, 2])
    @pytest.mark.parametrize("kind", LAW_SPECS)
    @settings(max_examples=30, deadline=None)
    @given(x=st.floats(-0.05, 0.05, allow_subnormal=False), y=st.floats(-0.05, 0.05, allow_subnormal=False))
    @example(x=0.0, y=1e-200)  # F(1e-200) is 1e-200, not 0 within the solver's absolute tolerance
    def test_table_matches_phi(self, kind, c, x, y):
        # the table summed degree by degree; eval_with_tail gives its last retained degree, the
        # truncation indicator, unless the law is a polynomial the table holds whole.  The rest
        # is rounding: a few ulp of |x| + |y| in F, in F(x) + F(y), in G and in the table's terms
        spec, terms = exact_law(kind, c)
        by_degree = [0.0] * (LAW_ORDER + 1)
        for (a, b), coeff in terms:
            by_degree[a + b] += float(coeff) * x ** a * y ** b
        value, tail = TruncatedSeries(by_degree, LAW_ORDER).eval_with_tail(1.0)
        if max(a + b for (a, b), _ in terms) < LAW_ORDER - 1:
            tail = 0.0
        assert abs(value - spec.phi(x, y)) <= tail + 16 * sys.float_info.epsilon * (abs(x) + abs(y))


@functools.cache
def exact_series(kind):
    """The scale-1 order-24 series of G, of G' and of F = G^-1."""
    G = LAW_SPECS[kind](1).exp_series(LAW_ORDER)
    return G, G.derivative(), G.revert()


def value_and_tail(series, x):
    """eval_with_tail, with no tail for a polynomial the series holds whole."""
    value, tail = series.eval_with_tail(x)
    whole = max(deg for deg, c in enumerate(series.coeffs) if c != 0) < series.order
    return value, 0.0 if whole else tail


class TestFloatExponentialIsTheExactSeries:
    @pytest.mark.parametrize("c", [1, 2])
    @pytest.mark.parametrize("kind", LAW_SPECS)
    @settings(max_examples=30, deadline=None)
    @given(t=st.floats(-0.05, 0.05, allow_subnormal=False))
    @example(t=0.0)
    @example(t=1e-200)
    @example(t=-1e-200)
    def test_G_dG_and_F_match_the_series(self, kind, c, t):
        # G(t) = G_1(c t), G'(t) = c G_1'(c t) and F(t) = F_1(t) / c for the scale-1 series; the
        # bound is the truncation indicator plus a few ulp of rounding in the float forms
        spec = LAW_SPECS[kind](c)
        G, dG, F = exact_series(kind)
        eps = sys.float_info.epsilon
        value, tail = value_and_tail(G, c * t)
        assert abs(float(spec.G(t)) - value) <= tail + 16 * eps * abs(t)
        value, tail = value_and_tail(dG, c * t)
        assert abs(float(spec.dG(t)) - c * value) <= c * tail + 16 * eps
        value, tail = value_and_tail(F, t)
        assert abs(float(spec.F(t)) - value / c) <= tail / c + 16 * eps * abs(t)


class TestLieBracket:
    def test_commutative_laws_have_zero_bracket(self):
        g = exp_from_a([1, Fraction(2, 3), Fraction(-1, 4)], 6)
        law = group_law_from_exponential(g)
        assert lie_bracket(law.phi).terms == {}

    def test_asymmetric_table_has_nonzero_bracket(self):
        phi = law_from_table({(2, 0): Fraction(1)}, 4)
        br = lie_bracket(phi)
        assert br.terms == {(2, 0): 1, (0, 2): -1}


class TestAbelFamily:
    def test_closed_form_values(self):
        # frozen values for a=2, b=1
        beta = abel_coefficients(2, 1, 4)
        assert beta == [Fraction(3), Fraction(-1), Fraction(2), Fraction(-5)]

    def test_equal_parameters_rejected(self):
        with pytest.raises(GroupLawError):
            abel_coefficients(1, 1, 3)
        with pytest.raises(GroupLawError):
            abel_exponential(1, 1, 3)

    @pytest.mark.parametrize(
        "a,b",
        [
            (Fraction(2), Fraction(1)),
            (Fraction(1, 2), Fraction(1, 3)),
            (Fraction(3), Fraction(-1)),
        ],
    )
    def test_cross_check_against_constructed_law(self, a, b):
        # the closed-form beta_n equal the c_{1,n} = c_{n,1} coefficients of
        # the law built from the exponential, with all other mixed terms zero
        order = 6
        g = abel_exponential(a, b, order)
        law = group_law_from_exponential(g)
        beta = abel_coefficients(a, b, order - 1)
        table = law.c_table()
        for n in range(1, order):
            assert table.get((1, n), Fraction(0)) == beta[n - 1]
            assert table.get((n, 1), Fraction(0)) == beta[n - 1]
        for (k, m), coeff in table.items():
            if k >= 2 and m >= 2:
                assert coeff == 0

    def test_exponential_matches_direct_expansion(self):
        # (e^{at} - e^{bt})/(a - b) term by term
        import math

        a, b = Fraction(1, 2), Fraction(1, 3)
        g = abel_exponential(a, b, 5)
        for m in range(1, 6):
            expected = (a ** m - b ** m) / ((a - b) * math.factorial(m))
            assert g.coeffs[m] == expected

    @pytest.mark.parametrize("a, b", [
        (Fraction(1, 2), Fraction(1, 3)), (3, -1), (Fraction(-2, 3), Fraction(3, 4)), (0.1, 0.2), (0.75, -0.25),
    ], ids=str)
    def test_exponential_is_exact_for_rational_and_float_parameters(self, a, b):
        # a float a or b is taken at its exact binary value
        import math

        g = abel_exponential(a, b, 12)
        x, y = Fraction(a), Fraction(b)
        assert list(g.coeffs) == [0] + [(x ** m - y ** m) / ((x - y) * math.factorial(m)) for m in range(1, 13)]
        assert all(type(c) is Fraction for c in g.coeffs[1:])

    def test_float_parameters_are_not_rounded(self):
        assert abel_exponential(0.1, 0.2, 2).coeffs[2] == Fraction(10808639105689191, 72057594037927936)
        assert abel_exponential(0.1, 0.2, 2).coeffs[2] != Fraction(3, 20)

    @pytest.mark.parametrize("a, b", [(Fraction(1, 2), Fraction(-1, 3)), (2, 1), (Fraction(3, 5), Fraction(1, 2))],
                             ids=str)
    def test_exponential_is_borges_roditi(self, a, b):
        assert abel_exponential(a, b, 12) == BorgesRoditi(a, b).exp_series(12)


# -- independent references ------------------------------------------------------
#
# Plain-dict polynomial algebra, sharing no code with gentropy.groups beyond
# the table constructors: the trivariate associativity expansion, the
# bivariate expansion of G(F(x) + F(y)), and the degree-by-degree inverse.


def _mul(p, q, order):
    out = {}
    for m1, c1 in p.items():
        for m2, c2 in q.items():
            m = tuple(a + b for a, b in zip(m1, m2))
            if sum(m) <= order:
                out[m] = out.get(m, 0) + c1 * c2
    return {m: c for m, c in out.items() if c}


def _lin(*parts):
    """sum of coeff * poly over (coeff, poly) pairs, zeros dropped."""
    out = {}
    for coeff, poly in parts:
        for m, c in poly.items():
            out[m] = out.get(m, 0) + coeff * c
    return {m: c for m, c in out.items() if c}


def _substitute(phi, a, b, nvars, order):
    """phi(a, b) for a bivariate dict phi and dicts a, b in nvars variables."""
    one = {(0,) * nvars: Fraction(1)}
    top = max((sum(m) for m in phi), default=0)
    pa, pb = [one], [one]
    for _ in range(top):
        pa.append(_mul(pa[-1], a, order))
        pb.append(_mul(pb[-1], b, order))
    return _lin(*((c, _mul(pa[i], pb[j], order)) for (i, j), c in phi.items()))


def reference_check(terms, order, assoc_order):
    """All four check_axioms fields by trivariate expansion of the defect."""
    n = order if assoc_order is None else assoc_order
    swapped = {(b, a): c for (a, b), c in terms.items()}
    sym_diff = _lin((1, terms), (-1, swapped))
    at_zero = {m: c for m, c in terms.items() if m[1] == 0}
    null_diff = _lin((1, at_zero), (-1, {(1, 0): 1}))
    phi = {m: c for m, c in terms.items() if sum(m) <= n}
    x, y, z = ({m: Fraction(1)} if n >= 1 else {} for m in ((1, 0, 0), (0, 1, 0), (0, 0, 1)))
    left = _substitute(phi, x, _substitute(phi, y, z, 3, n), 3, n)
    right = _substitute(phi, _substitute(phi, x, y, 3, n), z, 3, n)
    assoc_diff = _lin((1, left), (-1, right))
    violation = None
    for name, diff in (
        ("symmetry", sym_diff),
        ("null-composability", null_diff),
        ("associativity", assoc_diff),
    ):
        if diff:
            violation = (name,) + min(diff.items())
            break
    return (not sym_diff, not null_diff, not assoc_diff, violation)


def reference_law(g, order):
    """[x^a y^b] G(F(x) + F(y)) by bivariate expansion, F = revert(G)."""
    f = TruncatedSeries(g, order).revert().coeffs
    u = {}
    for k in range(1, order + 1):
        if f[k]:
            u[(k, 0)] = u.get((k, 0), 0) + f[k]
            u[(0, k)] = u.get((0, k), 0) + f[k]
    power, out = {(0, 0): Fraction(1)}, {}
    for k in range(1, order + 1):
        power = _mul(power, u, order)
        out = _lin((1, out), (g[k], power))
    return out


def c_ab_formula(g, order):
    """c_ab = sum_k g_k sum_j C(k, j) [x^a]F^j [x^b]F^(k-j), term by term."""
    F = TruncatedSeries(g, order).revert()
    powers = [TruncatedSeries([1], order)]
    for _ in range(order):
        powers.append(powers[-1] * F)
    table = {}
    for a in range(order + 1):
        for b in range(order + 1 - a):
            # [x^a]F^j = 0 for j > a, so only j <= a and k - j <= b contribute
            c = sum(
                g[k] * comb(k, j) * powers[j][a] * powers[k - j][b]
                for k in range(order + 1)
                for j in range(max(0, k - b), min(k, a) + 1)
            )
            if c:
                table[(a, b)] = c
    return table


def recursive_inverse(law):
    """Solve Phi(x, i(x)) = 0 degree by degree, the inverse's first definition."""
    n = law.order
    inv = [Fraction(0)] * (n + 1)
    inv[1] = Fraction(-1)
    for m in range(2, n + 1):
        cand = {(k,): inv[k] for k in range(1, n + 1) if inv[k]}
        residual = _substitute(law.phi.terms, {(1,): Fraction(1)}, cand, 1, n)
        inv[m] -= residual.get((m,), 0)
    return inv


rationals = st.fractions(min_value=-3, max_value=3, max_denominator=4)


@st.composite
def exponentials(draw, min_order=2, max_order=8):
    order = draw(st.integers(min_order, max_order))
    rest = draw(st.lists(rationals, min_size=order - 1, max_size=order - 1))
    return [Fraction(0), Fraction(1)] + rest


@st.composite
def tables(draw):
    """(c table, order, assoc_order) across every path check_axioms takes."""
    kind = draw(st.sampled_from(["table", "non-unital", "law"]))
    symmetric = draw(st.booleans())
    if kind == "law":
        g = draw(exponentials(3, 7))
        order = len(g) - 1
        table = group_law_from_exponential(TruncatedSeries(g, order)).c_table()
    else:
        order = draw(st.integers(3, 7))
        table = {}
    mixed = st.tuples(st.integers(1, order - 1), st.integers(1, order - 1)).filter(
        lambda m: sum(m) <= order
    )
    picks = draw(st.lists(mixed, max_size=1 if kind == "law" else 4))
    if kind == "non-unital":
        k = draw(st.integers(1, order))
        picks.append(draw(st.sampled_from([(k, 0), (0, k)])))
    for a, b in picks:
        table[(a, b)] = table.get((a, b), 0) + draw(rationals.filter(bool))
        if symmetric:
            table[(b, a)] = table[(a, b)]
    # past the table's order check_axioms raises (test_assoc_order_outside_the_table)
    assoc_order = draw(st.one_of(st.none(), st.integers(0, order)))
    return table, order, assoc_order


class TestExactLayerAgainstReferences:
    @settings(max_examples=100, deadline=None)
    @given(tables())
    def test_check_axioms_matches_trivariate_expansion(self, case):
        table, order, assoc_order = case
        phi = law_from_table(table, order)
        chk = check_axioms(phi, assoc_order)
        got = (chk.symmetric, chk.null_composable, chk.associative, chk.first_violation)
        assert got == reference_check(phi.terms, order, assoc_order)

    @pytest.mark.parametrize("spec", exponential_catalog(), ids=lambda spec: spec.name)
    @pytest.mark.parametrize(
        "monos",
        [((2, 2),), ((4, 5), (5, 4)), ((2, 6), (6, 2), (3, 3))],
        ids=["deg4", "deg9", "lex-lowest-not-lowest-degree"],
    )
    def test_check_axioms_matches_trivariate_expansion_at_order_10(self, spec, monos):
        # a symmetric term that is no cocycle: associativity fails at its degree
        table = group_law_from_exponential(spec.exp_series(10)).c_table()
        for m in monos:
            table[m] = table.get(m, 0) + Fraction(-3, 7)
        phi = law_from_table(table, 10)
        chk = check_axioms(phi)
        got = (chk.symmetric, chk.null_composable, chk.associative, chk.first_violation)
        assert got == reference_check(phi.terms, 10, None)
        assert got[:3] == (True, True, False) and sum(got[3][1]) == sum(monos[0])

    def test_catalog_at_order_24(self):
        for spec in exponential_catalog():
            law = group_law_from_exponential(spec.exp_series(24))
            assert check_axioms(law.phi).all_pass, spec.name
            formal_inverse(law)  # raises unless Phi(x, i(x)) = 0 through degree 24
            if spec.name in ("s_iii", "generic"):
                assert law.phi.terms == c_ab_formula(list(law.exp.coeffs), 24), spec.name

    def test_constant_term_still_rejected(self):
        # a constant term cannot be substituted; the expansion from Phi's powers says so
        with pytest.raises(SeriesError):
            check_axioms(law_from_table({(0, 0): Fraction(1)}, 4))

    @settings(max_examples=40, deadline=None)
    @given(exponentials(2, 8))
    def test_table_matches_bivariate_expansion(self, g):
        order = len(g) - 1
        law = group_law_from_exponential(TruncatedSeries(g, order))
        assert law.phi.terms == reference_law(g, order)

    @pytest.mark.parametrize("order", [12, 16])
    def test_table_matches_c_ab_formula(self, order):
        spec = SThird(Fraction(4, 5))
        g = list(spec.exp_series(order).coeffs)
        law = group_law_from_exponential(TruncatedSeries(g, order))
        assert law.phi.terms == c_ab_formula(g, order)
        assert all(type(c) is Fraction for c in law.phi.terms.values())

    @settings(max_examples=15, deadline=None)
    @given(exponentials(8, 12))
    def test_random_tables_match_c_ab_formula(self, g):
        order = len(g) - 1
        law = group_law_from_exponential(TruncatedSeries(g, order))
        assert law.phi.terms == c_ab_formula(g, order)

    @settings(max_examples=30, deadline=None)
    @given(exponentials(2, 10))
    def test_inverse_matches_recursion(self, g):
        order = len(g) - 1
        law = group_law_from_exponential(TruncatedSeries(g, order))
        inv = formal_inverse(law)
        assert list(inv.coeffs) == recursive_inverse(law)
        assert all(type(c) is Fraction for c in inv.coeffs)

    def test_inverse_rejects_an_inconsistent_law(self):
        law = group_law_from_exponential(exp_from_a([1, Fraction(1, 2)], 5))
        bent = GroupLaw(
            phi=law_from_table({(2, 2): Fraction(1)}, 5), exp=law.exp, log=law.log
        )
        with pytest.raises(GroupLawError):
            formal_inverse(bent)


# Phi itself, not a c table, with c_10 = 0 or c_01 = 0; and the lowest degree where associativity fails
DEGENERATE = {
    "y": ({(0, 1): 1}, None),
    "x": ({(1, 0): 1}, None),
    "xy": ({(1, 1): 1}, None),
    "y+xy": ({(0, 1): 1, (1, 1): 1}, 2),
    "xy+x2y2": ({(1, 1): 1, (2, 2): 1}, 5),
    "0": ({}, None),
}


class TestDegenerateTables:
    """Tables that are not unital and have a zero linear coefficient, which ``tables()`` rarely draws."""

    @pytest.mark.parametrize("assoc_order", range(7))
    @pytest.mark.parametrize("name", DEGENERATE)
    def test_matches_trivariate_expansion(self, name, assoc_order):
        terms, fails_at = DEGENERATE[name]
        phi = MultiPoly({m: Fraction(c) for m, c in terms.items()}, 6)
        got = _fields(phi, assoc_order)
        assert got == reference_check(phi.terms, 6, assoc_order)
        assert got[2] is (fails_at is None or assoc_order < fails_at)


def _fields(phi, assoc_order=None):
    chk = check_axioms(phi, assoc_order)
    return (chk.symmetric, chk.null_composable, chk.associative, chk.first_violation)


PRIMES = "1, 1/3, 1/5, 1/7, 1/11, 1/13"


class TestSymmetryDefect:
    """The symmetry defect compares each c_ab with its mirror c_ba in the table."""

    def test_random_asymmetric_tables_match_the_swapped_difference(self):
        rng = random.Random(20261019)
        for _ in range(300):
            order = rng.randint(1, 12)
            monos = [(a, b) for a in range(order + 1) for b in range(order + 1 - a) if a + b]
            terms = {}
            for a, b in rng.sample(monos, rng.randint(0, len(monos))):
                c = Fraction(rng.randint(-9, 9), rng.randint(1, 9)) if rng.random() < 0.7 else rng.randint(-3, 3)
                terms[a, b] = c
                roll = rng.random()  # the mirror equal to c, equal as an int and a Fraction, or different
                if roll < 0.4:
                    terms[b, a] = c
                elif roll < 0.5:
                    terms[b, a] = Fraction(c) if type(c) is int else c
            phi = MultiPoly(terms, order)
            swapped = _lin((1, phi.terms), (-1, {(b, a): c for (a, b), c in phi.terms.items()}))
            assert groups._symmetry_defect(phi).terms == swapped, terms
            chk = check_axioms(phi, 0)  # symmetry is checked first, whatever the associativity order
            assert chk.symmetric == (not swapped)
            if swapped:
                assert chk.first_violation == ("symmetry", *min(swapped.items()))


class TestAssociativityInIntegers:
    """The unital associativity check rebuilds the law in divided-power integers."""

    def test_no_rational_round_trip(self, monkeypatch):
        law = group_law_from_exponential(SThird(Fraction(4, 5)).exp_series(12))

        def refuse(*args, **kwargs):
            raise AssertionError("check_axioms went through the rational law builder")

        monkeypatch.setattr(groups, "group_law_from_exponential", refuse)
        monkeypatch.setattr(TruncatedSeries, "revert", refuse)
        assert check_axioms(law.phi).all_pass

    @pytest.mark.parametrize(
        "table, order",
        [
            ({(2, 1): 1}, 6),  # x + y + x^2 y
            ({(1, 1): 1, (4, 1): Fraction(-2, 3)}, 7),
            ({(1, 1): Fraction(1, 2), (3, 2): Fraction(5, 7)}, 8),
            ("s_iii", 8),
        ],
        ids=["x2y", "xy+x4y", "xy+x3y2", "s_iii+x3y2"],
    )
    def test_a_defect_only_below_the_diagonal(self, table, order):
        # Delta = Phi - G(F(x) + F(y)) sits at a > b only, read from the mirror c_ba
        if table == "s_iii":
            table = group_law_from_exponential(SThird(Fraction(4, 5)).exp_series(order)).c_table()
            table[(3, 2)] += Fraction(2, 7)
        phi = law_from_table(table, order)
        for assoc_order in (None, *range(order + 1)):
            assert _fields(phi, assoc_order) == reference_check(phi.terms, order, assoc_order)
        assert _fields(phi)[:3] == (False, True, False)

    @pytest.mark.parametrize("order", [16, 24])
    def test_several_primes_in_the_denominators(self, order):
        # c_1k = 1/p_k: the scale D takes in every prime at once
        sparse = {(2, 2): Fraction(3, 7)}
        for k, p in enumerate((3, 5, 7, 11, 13), 1):
            sparse[(1, k)] = sparse[(k, 1)] = Fraction(1, p)
        phi = law_from_table(sparse, order)
        assert _fields(phi) == reference_check(phi.terms, order, None)
        assert check_axioms(group_law_from_exponential(normalized_from_literal(PRIMES, order)).phi).all_pass

    def test_several_primes_in_a_perturbed_law(self):
        # a dense law: its trivariate expansion takes seconds past order 16
        law = group_law_from_exponential(normalized_from_literal(PRIMES, 16))
        table = law.c_table()
        table[(3, 5)] = table[(5, 3)] = table[(3, 5)] + Fraction(2, 17)
        phi = law_from_table(table, 16)
        got = _fields(phi)
        assert got == reference_check(phi.terms, 16, None)
        assert got[3][:2] == ("associativity", (1, 2, 5))

    @pytest.mark.parametrize(
        "terms, verdict",
        [
            ({(1, 1): 2}, (True, True, True)),
            ({(1, 1): 1, (2, 2): 1}, (True, True, False)),
            ({(2, 1): 1}, (False, True, False)),
            ({(1, 1): -1, (1, 2): 3, (2, 1): 3}, (True, True, False)),
        ],
        ids=["x+y+2xy", "xy+x2y2", "x2y", "xy+xy2+x2y"],
    )
    def test_plain_int_coefficients(self, terms, verdict):
        order = 6
        phi = MultiPoly({(1, 0): 1, (0, 1): 1, **terms}, order)
        assert all(type(c) is int for c in phi.terms.values())
        got = _fields(phi)
        assert got == reference_check(phi.terms, order, None)
        assert got[:3] == verdict


# the exact-laws workload's eight kinds, one parameter set each
WORKLOAD_KINDS = {
    "tsallis": lambda n: Tsallis(Fraction(3, 4)).exp_series(n),
    "kaniadakis": lambda n: Kaniadakis(Fraction(2, 5)).exp_series(n),
    "borges_roditi": lambda n: BorgesRoditi(Fraction(1, 2), Fraction(-1, 3)).exp_series(n),
    "s_iii": lambda n: SThird(Fraction(4, 5)).exp_series(n),
    "s_iv": lambda n: SFourth(Fraction(3, 5)).exp_series(n),
    "s_alpha_beta_q": lambda n: SAlphaBetaQ(Fraction(3, 4), Fraction(3, 16), Fraction(7, 8)).exp_series(n),
    "abel_exponential": lambda n: abel_exponential(Fraction(1, 2), Fraction(-1, 3), n),
    "generic": lambda n: GenericEntropy([1, Fraction(1, 2), Fraction(-1, 3), Fraction(3, 4)], order=n).exp_series(n),
}


def _count_calls(monkeypatch, *names):
    """Wrap each named function of ``groups``; return the live call counts."""
    calls = dict.fromkeys(names, 0)
    for name in names:
        def counted(*args, _name=name, _real=getattr(groups, name), **kwargs):
            calls[_name] += 1
            return _real(*args, **kwargs)
        monkeypatch.setattr(groups, name, counted)
    return calls


class TestInverseIntegers:
    """A law from an exponential keeps the inverse's integers; a hand-built one makes them on first use."""

    @pytest.mark.parametrize("kind", WORKLOAD_KINDS)
    def test_inverse_of_a_built_law_makes_one_bell_table(self, kind, monkeypatch):
        law = group_law_from_exponential(WORKLOAD_KINDS[kind](12))
        calls = _count_calls(monkeypatch, "_bell_table", "_divided_powers")
        formal_inverse(law)
        assert calls == {"_bell_table": 1, "_divided_powers": 0}

    def test_hand_built_law_makes_its_integers_once(self, monkeypatch):
        law = group_law_from_exponential(WORKLOAD_KINDS["s_iii"](12))
        bare = GroupLaw(law.phi, law.exp, law.log)
        calls = _count_calls(monkeypatch, "_bell_table", "_divided_powers")
        first = formal_inverse(bare)
        assert calls == {"_bell_table": 2, "_divided_powers": 1}
        assert formal_inverse(bare) == first
        assert calls == {"_bell_table": 3, "_divided_powers": 1}

    @pytest.mark.parametrize("kind", WORKLOAD_KINDS)
    def test_a_law_from_an_exponential_makes_one_bell_table(self, kind, monkeypatch):
        # F's integers are solved row by row while F's table is built; G's table is never made
        G = WORKLOAD_KINDS[kind](12)
        calls = _count_calls(monkeypatch, "_bell_table", "_divided_powers")
        group_law_from_exponential(G)
        assert calls == {"_bell_table": 1, "_divided_powers": 1}

    @settings(max_examples=40, deadline=None)
    @given(exponentials(2, 10), st.booleans())
    @example([Fraction(0), Fraction(1), Fraction(1, 3), Fraction(-2, 3)], True)
    def test_built_and_hand_built_laws_give_one_inverse(self, g, as_float):
        # a float G's law is the exact law of its coefficients' exact values
        order = len(g) - 1
        G = TruncatedSeries([float(c) for c in g] if as_float else g, order)
        law = group_law_from_exponential(G)
        inv, bare = formal_inverse(law), formal_inverse(GroupLaw(law.phi, law.exp, law.log))
        assert inv.coeffs == bare.coeffs
        assert all(type(c) is Fraction for c in inv.coeffs + bare.coeffs)
        assert list(inv.coeffs) == recursive_inverse(law)


class TestOneDefectTerm:
    """A unital table's associativity defect is its lowest term alone."""

    @pytest.mark.parametrize("delta", [Fraction(-3, 7), Fraction(2)], ids=str)
    @pytest.mark.parametrize("kind", WORKLOAD_KINDS)
    def test_perturbed_workload_law_at_order_12(self, kind, delta):
        law = group_law_from_exponential(WORKLOAD_KINDS[kind](12))
        table = law.c_table()
        for m in ((3, 1), (1, 3)):
            table[m] = table.get(m, 0) + delta
        phi = law_from_table(table, 12)
        assert len(groups._associativity_defect(law.phi).terms) == 0
        assert len(groups._associativity_defect(phi).terms) == 1
        chk = check_axioms(phi)
        assert chk.associative is False
        assert _fields(phi) == reference_check(phi.terms, 12, None)

    def test_rows_past_the_lowest_term_are_not_summed(self, monkeypatch):
        # the lowest differing term is at (2, 2); rows a > 2 yield no first index below 3
        table = group_law_from_exponential(SThird(Fraction(4, 5)).exp_series(12)).c_table()
        table[2, 2] = table.get((2, 2), 0) + Fraction(-3, 7)
        phi = law_from_table(table, 12)
        rows, law_sums = [], groups._law_sums

        def recorded(*args):
            for row in law_sums(*args):
                rows.append(row[0])
                yield row

        monkeypatch.setattr(groups, "_law_sums", recorded)
        got = _fields(phi)
        assert sorted(set(rows)) == [0, 1, 2, 3]
        assert got == reference_check(phi.terms, 12, None)


class TestNonRationalCoefficients:
    """A coefficient that is not an int or a Fraction is refused by name, not by a TypeError."""

    @pytest.mark.parametrize(
        "terms",
        [{(1, 1): 0.5, (2, 1): 0.25}, {(1, 1): Fraction(1, 2), (2, 1): 0.25, (3, 0): 1.5}],
        ids=["unital", "not unital"],
    )
    def test_check_axioms_names_the_first_float(self, terms):
        phi = MultiPoly({(1, 0): 1, (0, 1): 1, **terms}, 6)
        first = min(m for m, c in terms.items() if type(c) is float)
        with pytest.raises(GroupLawError, match=rf"coefficient {terms[first]} of monomial \({first[0]}, {first[1]}\)"):
            check_axioms(phi)

    def test_formal_inverse_names_the_first_float(self):
        law = group_law_from_exponential(SThird(Fraction(4, 5)).exp_series(6))
        terms = dict(law.phi.terms)
        terms[2, 2], terms[1, 3] = 0.125, 2.0
        bent = GroupLaw(MultiPoly(terms, 6), law.exp, law.log)
        with pytest.raises(GroupLawError, match=r"coefficient 2.0 of monomial \(1, 3\) is not an int or a Fraction"):
            formal_inverse(bent)

    def test_a_table_of_floats_is_checked_exactly(self):
        # law_from_table converts each float to its exact Fraction, so the refusal never sees one
        exact = {(1, 1): Fraction(1, 2), (2, 1): Fraction(1, 4)}
        assert check_axioms(law_from_table({(1, 1): 0.5, (2, 1): 0.25}, 6)) == check_axioms(law_from_table(exact, 6))
