"""Formal group laws: construction, axioms, inverses, and the Abel family."""

import functools
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
from gentropy.series import SeriesError, TruncatedSeries, from_a_sequence
from test_acceptance import exponential_catalog


def exp_from_a(a, order):
    return from_a_sequence([Fraction(x) for x in a], order)


class TestMultiPoly:
    def test_truncation_on_construction(self):
        p = MultiPoly({(3, 3): Fraction(1), (1, 0): Fraction(2)}, 2, 4)
        assert p.terms == {(1, 0): Fraction(2)}

    def test_mul_respects_total_degree(self):
        x = MultiPoly.variable(0, 2, 2)
        y = MultiPoly.variable(1, 2, 2)
        prod = (x + y) * (x + y)
        assert prod.coefficient((1, 1)) == 2
        cube = prod * (x + y)
        assert cube.terms == {}

    def test_swap(self):
        p = MultiPoly({(2, 1): Fraction(5)}, 2, 4)
        assert p.swap(0, 1).terms == {(1, 2): Fraction(5)}

    def test_substitute_pair_requires_zero_constant(self):
        phi = law_from_table({}, 4)
        bad = MultiPoly.constant(1, 2, 4)
        with pytest.raises(Exception):
            phi.substitute_pair(bad, bad)


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
        x = MultiPoly.variable(0, 1, 7)
        cand = MultiPoly(
            {(k,): Fraction(inv.coeffs[k]) for k in range(1, 8)}, 1, 7
        )
        assert law.phi.substitute_pair(x, cand).terms == {}


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
        assert br.coefficient((2, 0)) == 1
        assert br.coefficient((0, 2)) == -1


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
        # a constant term cannot be substituted; the trivariate path says so
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
