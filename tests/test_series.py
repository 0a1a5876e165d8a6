"""Truncated power series: construction, derivative, reversion, and evaluation.

Reversions are checked by composing with ``benchmark/oracles.py``.
"""

import math
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from gentropy.series import (
    SeriesError,
    TruncatedSeries,
    from_a_sequence,
    normalized_from_literal,
    parse_rational_list,
)
from oracle_loader import o


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

    def test_getitem_out_of_range_is_zero(self):
        s = series([1, 2, 3])
        assert s[10] == 0


class TestDerivative:
    def test_derivative(self):
        s = series([5, 1, 2, 3])
        assert s.derivative().coeffs == (1, 4, 9)
        assert s.derivative().order == 2


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
        ident = list(TruncatedSeries([0, 1], 5).coeffs)
        assert o.compose(f.coeffs, g.coeffs, 5) == ident
        assert o.compose(g.coeffs, f.coeffs, 5) == ident

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
        assert o.compose(f.coeffs, g.coeffs, order) == list(TruncatedSeries([0, 1], order).coeffs)


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
