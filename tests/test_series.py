"""Exact truncated power-series arithmetic, composition, and reversion."""

import math
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from gentropy.series import (
    OrderMismatchError,
    SeriesError,
    TruncatedSeries,
    from_a_sequence,
    normalized_from_literal,
    parse_rational_list,
)


def series(coeffs, order=None):
    return TruncatedSeries([Fraction(c) for c in coeffs], order)


class TestConstruction:
    def test_pads_to_order(self):
        s = TruncatedSeries([1, 2], order=4)
        assert s.coeffs == (1, 2, 0, 0, 0)

    def test_truncates_above_order(self):
        s = TruncatedSeries([1, 2, 3, 4], order=2)
        assert s.coeffs == (1, 2, 3)

    def test_negative_order_rejected(self):
        with pytest.raises(SeriesError):
            TruncatedSeries([1], order=-1)

    def test_identity_and_monomial(self):
        assert TruncatedSeries.identity(3).coeffs == (0, 1, 0, 0)

    def test_getitem_out_of_range_is_zero(self):
        s = series([1, 2, 3])
        assert s[10] == 0


class TestRingOps:
    def test_order_mismatch(self):
        with pytest.raises(OrderMismatchError):
            series([1, 2]) * series([1, 2, 3])

    def test_mul_truncates(self):
        # (1 + t)^2 at order 1 keeps only 1 + 2t
        a = series([1, 1], order=1)
        assert (a * a).coeffs == (1, 2)

    def test_mul_exact(self):
        a = series([1, Fraction(1, 2), Fraction(1, 3)])
        b = series([2, 0, 1])
        c = a * b
        assert c.coeffs == (2, 1, Fraction(5, 3))

    @settings(max_examples=60, deadline=None, derandomize=True, database=None)
    @given(data=st.data())
    def test_mul_on_integer_numerators_matches_the_naive_product(self, data):
        n = data.draw(st.integers(0, 9))
        # large denominators, zeros and negative numerators, as ints or Fractions
        exact = st.one_of(
            st.just(0),
            st.integers(-10**6, 10**6),
            st.builds(Fraction, st.integers(-10**20, 10**20), st.integers(1, 10**18)),
        )
        a, b = (data.draw(st.lists(exact, min_size=n + 1, max_size=n + 1)) for _ in "ab")
        got = TruncatedSeries(a, n) * TruncatedSeries(b, n)
        naive = [sum((Fraction(a[i]) * b[k - i] for i in range(k + 1)), Fraction(0))
                 for k in range(n + 1)]
        assert list(got.coeffs) == naive

    @settings(max_examples=60, deadline=None, derandomize=True, database=None)
    @given(data=st.data())
    def test_mul_with_floats_keeps_the_termwise_loop(self, data):
        n = data.draw(st.integers(0, 9))
        value = st.one_of(
            st.just(0),
            st.floats(-1e6, 1e6),
            st.builds(Fraction, st.integers(-10**6, 10**6), st.integers(1, 10**6)),
        )
        a = data.draw(st.lists(value, min_size=n + 1, max_size=n + 1))
        b = data.draw(st.lists(value, min_size=n, max_size=n)) + [0.5]  # one float at least
        for x, y in ((a, b), (b, a)):
            out = [0] * (n + 1)
            for i, c in enumerate(x):
                if c != 0:
                    for j in range(n + 1 - i):
                        if y[j] != 0:
                            out[i + j] += c * y[j]
            got = (TruncatedSeries(x, n) * TruncatedSeries(y, n)).coeffs
            assert [(type(c), c) for c in got] == [(type(c), c) for c in out]

    def test_derivative(self):
        s = series([5, 1, 2, 3])
        assert s.derivative().coeffs == (1, 4, 9)
        assert s.derivative().order == 2


class TestComposition:
    def test_compose_requires_zero_constant(self):
        outer = series([0, 1, 1])
        inner = series([1, 1, 0])
        with pytest.raises(SeriesError):
            outer.compose(inner)

    def test_compose_linear(self):
        outer = series([0, 1, 1])  # t + t^2
        inner = series([0, 2, 0])  # 2t
        assert outer.compose(inner).coeffs == (0, 2, 4)

    def test_compose_geometric_exact(self):
        # 1/(1-t) composed with t/(1+t) telescopes to 1 + t
        n = 8
        geo = series([1] * (n + 1), n)
        inner_coeffs = [0] + [Fraction((-1) ** (k - 1)) for k in range(1, n + 1)]
        inner = series(inner_coeffs, n)
        out = geo.compose(inner)
        assert out.coeffs == tuple([1, 1] + [0] * (n - 1))


class TestReversion:
    def test_requires_normalized(self):
        with pytest.raises(SeriesError):
            series([0, 2, 1]).revert()
        with pytest.raises(SeriesError):
            series([1, 1]).revert()

    def test_log_exp_pair(self):
        n = 10
        # expm1 series and log1p series are mutual inverses
        e = series([0] + [Fraction(1, math.factorial(k)) for k in range(1, n + 1)], n)
        l = e.revert()
        expected = [0] + [Fraction((-1) ** (k - 1), k) for k in range(1, n + 1)]
        assert l.coeffs == tuple(expected)

    def test_round_trip_both_sides(self):
        g = series([0, 1, Fraction(1, 2), Fraction(-1, 3), 0, Fraction(2, 7)], 5)
        f = g.revert()
        ident = TruncatedSeries.identity(5)
        assert f.compose(g) == ident
        assert g.compose(f) == ident

    @settings(max_examples=40, deadline=None)
    @given(
        st.lists(
            st.fractions(
                min_value=-3, max_value=3, max_denominator=20
            ),
            min_size=4,
            max_size=8,
        )
    )
    def test_reversion_round_trip_random(self, tail):
        order = len(tail) + 1
        g = TruncatedSeries([Fraction(0), Fraction(1)] + tail, order)
        f = g.revert()
        assert f.compose(g) == TruncatedSeries.identity(order)


class TestEvaluation:
    def test_horner_matches_direct(self):
        s = series([1, -2, 3])
        x = 0.25
        assert s.eval(x) == pytest.approx(1 - 2 * x + 3 * x * x, rel=1e-15)

    def test_eval_with_tail(self):
        s = series([0, 1, 1], order=2)
        value, tail = s.eval_with_tail(0.5)
        assert value == pytest.approx(0.75)
        assert tail == pytest.approx(0.25)

    def test_to_float(self):
        s = series([Fraction(1, 3)]).to_float()
        assert isinstance(s.coeffs[0], float)


class TestASequence:
    def test_from_a_sequence_layout(self):
        # G = sum a_k t^(k+1)/(k+1)
        g = from_a_sequence([Fraction(1), Fraction(1, 2)], 4)
        assert g.coeffs == (0, 1, Fraction(1, 4), 0, 0)

    def test_round_trip(self):
        a = [Fraction(1), Fraction(-1, 2), Fraction(1, 3)]
        g = from_a_sequence(a, 3)
        assert [(k + 1) * g.coeffs[k + 1] for k in range(g.order)] == a

    def test_all_zero_rejected(self):
        with pytest.raises(SeriesError):
            from_a_sequence([0, 0], 4)

    def test_leading_zero_allowed_for_evaluation(self):
        g = from_a_sequence([0, 2], 4)  # t^2
        assert g.coeffs == (0, 0, 1, 0, 0)
        with pytest.raises(SeriesError):
            g.revert()


class TestParsing:
    def test_parse_rational_list(self):
        assert parse_rational_list("1, -1/2, 1/3") == [
            Fraction(1),
            Fraction(-1, 2),
            Fraction(1, 3),
        ]

    def test_parse_bad_literal(self):
        with pytest.raises(SeriesError):
            parse_rational_list("1, x")

    def test_parse_empty(self):
        with pytest.raises(SeriesError):
            parse_rational_list(" , ")

    def test_normalized_from_literal(self):
        s = normalized_from_literal("1, -1/2", 4)
        assert s.coeffs == (0, 1, Fraction(-1, 2), 0, 0)
