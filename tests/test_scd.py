"""Incomplete-gamma entropy family: polynomial form, oracle, gamma identity."""

import math

import numpy as np
import pytest

from gentropy.catalog import BoltzmannGibbs, Distribution, SpecError, elementary_functional
from gentropy.scd import (
    ScdEntropy,
    delta_coefficient,
    gamma_identity_residual,
    gamma_tail_closed_form,
    inner_polynomial_coefficients,
    scd_gamma_oracle,
    upper_incomplete_gamma,
)

FIX = Distribution([0.5, 0.3, 0.2])


class TestInnerPolynomial:
    def test_d0(self):
        assert inner_polynomial_coefficients(0) == [1]

    def test_d1(self):
        assert inner_polynomial_coefficients(1) == [2, 1]

    def test_d3_printed_values(self):
        assert inner_polynomial_coefficients(3) == [16, 15, 6, 1]

    def test_d5_printed_values(self):
        assert inner_polynomial_coefficients(5) == [326, 325, 160, 50, 10, 1]

    def test_negative_rejected(self):
        with pytest.raises(SpecError):
            inner_polynomial_coefficients(-1)


class TestDeltaCoefficients:
    def test_first_value_d2(self):
        from fractions import Fraction

        assert delta_coefficient(0, 2) == Fraction(-1, 3)

    def test_alternating_signs(self):
        signs = [delta_coefficient(k, 3) for k in range(4)]
        assert signs[0] < 0 < signs[1] and signs[2] < 0 < signs[3]

    def test_float_d(self):
        assert delta_coefficient(1, 2.5) == pytest.approx(2 / (1 * 4.5))


class TestParameterDomain:
    def test_c_out_of_range(self):
        with pytest.raises(SpecError):
            ScdEntropy(0, 1)
        with pytest.raises(SpecError):
            ScdEntropy(1.2, 1)

    def test_d_must_be_nonneg_integer(self):
        with pytest.raises(SpecError):
            ScdEntropy(0.5, -1)
        with pytest.raises(SpecError):
            ScdEntropy(0.5, 1.5)

    def test_singular_normalization(self):
        # c = 1, d = 0 makes 1 - c + c d vanish
        with pytest.raises(SpecError):
            ScdEntropy(1, 0)
        with pytest.raises(SpecError):
            scd_gamma_oracle(1, 0, FIX)


class TestClosedForms:
    def test_s11_printed_form(self):
        s = ScdEntropy(1, 1)
        bg = BoltzmannGibbs().evaluate(FIX)
        assert s.evaluate(FIX) == pytest.approx(1 + bg, abs=1e-12)

    def test_s12_printed_form(self):
        s = ScdEntropy(1, 2)
        bg = BoltzmannGibbs().evaluate(FIX)
        s2 = elementary_functional(2, FIX)
        assert s.evaluate(FIX) == pytest.approx(2 * (1 + bg) + 0.5 * s2, abs=1e-12)

    def test_d0_closed_form(self):
        # d = 0: S = (sum p^c - c)/(1 - c), the q-entropy shifted by 1
        c = 0.5
        expected = (sum(p ** c for p in FIX.p) - c) / (1 - c)
        assert ScdEntropy(c, 0).evaluate(FIX) == pytest.approx(expected, rel=1e-13)

    def test_stripped_evaluate(self):
        s = ScdEntropy(0.5, 2)
        assert s.stripped_evaluate(FIX) - s.evaluate(FIX) == pytest.approx(
            -s.constant_term(), rel=1e-13
        )


class TestGammaOracle:
    @pytest.mark.parametrize("d", [0, 1, 2, 3, 5])
    @pytest.mark.parametrize("c", [0.5, 1.0])
    def test_polynomial_matches_quadrature(self, c, d):
        if c == 1.0 and d == 0:
            pytest.skip("singular normalization")
        rng = np.random.default_rng(42)
        sp = ScdEntropy(c, d)
        for _ in range(5):
            dist = Distribution(rng.dirichlet(np.ones(4)))
            v_poly = sp.evaluate(dist)
            v_quad = scd_gamma_oracle(c, d, dist)
            assert abs(v_poly - v_quad) / max(1.0, abs(v_quad)) < 1e-8

    def test_zero_probability_handled(self):
        d = Distribution([0.7, 0.3, 0.0])
        assert scd_gamma_oracle(0.5, 2, d) == pytest.approx(
            scd_gamma_oracle(0.5, 2, Distribution([0.7, 0.3])), rel=1e-12
        )


class TestGammaIdentity:
    def test_quadrature_at_zero_is_factorial(self):
        assert upper_incomplete_gamma(4, 0.0) == pytest.approx(6.0, rel=1e-10)

    def test_negative_x_rejected(self):
        with pytest.raises(SpecError):
            upper_incomplete_gamma(2, -1)

    @pytest.mark.parametrize("d", range(7))
    @pytest.mark.parametrize("K", [0.0, 0.5, 1.0, 2.0])
    def test_closed_form_matches_quadrature(self, d, K):
        assert gamma_identity_residual(d, K) < 1e-8

    def test_closed_form_d0(self):
        # int_K^inf e^-t dt = e^-K
        assert gamma_tail_closed_form(0, 1.3) == pytest.approx(math.exp(-1.3))

    def test_bad_d_rejected(self):
        with pytest.raises(SpecError):
            gamma_tail_closed_form(1.5, 0.0)
