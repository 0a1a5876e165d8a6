"""The two-parameter incomplete-gamma entropy family S_{c,d}.

For c in (0, 1] and integer d >= 0 the entropy has two equivalent routes:

* a finite polynomial form in powers of ln(1/p^c) (used for evaluation), and
* the direct form through the upper incomplete gamma function, evaluated by
  adaptive quadrature (used as an independent numerical oracle).

Both carry the additive constant -c/(1 - c + c d) exactly as defined; the
constant-stripped polynomial part is reported separately.
"""

from __future__ import annotations

import math
from fractions import Fraction
from math import comb, factorial

import numpy as np
from scipy import integrate

from .catalog import Distribution, Entropy, SpecError
from .series import TruncatedSeries


class QuadratureError(ArithmeticError):
    """Adaptive quadrature failed to converge."""


def _check_params(c: float, d: int) -> None:
    if not (0 < c <= 1):
        raise SpecError("scd: c must lie in (0, 1]")
    if not (isinstance(d, (int, np.integer)) and d >= 0):
        raise SpecError("scd: d must be a nonnegative integer")
    if 1 - c + c * d == 0:
        raise SpecError("scd: parameters with 1 - c + c d = 0 are singular")


def inner_polynomial_coefficients(d: int) -> list[int]:
    """Coefficients of the degree-d polynomial in ln(1/p^c).

    Coefficient of x^n is sum_{k=0}^{d-n} d!/(d-k)! * C(d-k, n); for d = 3
    this gives [16, 15, 6, 1] and for d = 5 [326, 325, 160, 50, 10, 1].
    """
    if d < 0:
        raise SpecError("d must be nonnegative")
    coeffs = []
    for n in range(d + 1):
        total = 0
        for k in range(d - n + 1):
            total += factorial(d) // factorial(d - k) * comb(d - k, n)
        coeffs.append(total)
    return coeffs


def delta_coefficient(k: int, d: float) -> Fraction | float:
    """delta_k = (-1)^(k+1) (k+1) / (k! (k+d+1)) of the gamma tail expansion."""
    if k < 0:
        raise SpecError("k must be nonnegative")
    num = (-1) ** (k + 1) * (k + 1)
    den = factorial(k) * (k + d + 1)
    if isinstance(d, (int, Fraction)):
        return Fraction(num, 1) / den
    return num / den


class ScdEntropy(Entropy):
    """S_{c,d} via the finite polynomial form.

    Trace-form up to the additive constant: the per-state density is
    p^(c-1) * P_d(c ln(1/p)) / (1 - c + c d) with P_d the inner polynomial.
    """

    name = "s_cd"

    def __init__(self, c: float, d: int, kB: float = 1.0):
        super().__init__(kB)
        _check_params(c, d)
        self.c = c
        self.d = int(d)
        self._norm = 1 - c + c * d
        self._poly = TruncatedSeries(inner_polynomial_coefficients(self.d))

    def density(self, x):
        x = np.asarray(x, dtype=float)
        u = -self.c * np.log(x)  # ln(1/p^c)
        return x ** (self.c - 1.0) * self._poly.eval(u) / self._norm

    def constant_term(self) -> float:
        return -self.c / self._norm

    def stripped_evaluate(self, dist: Distribution) -> float:
        """The polynomial part only, without the additive constant."""
        return self.evaluate(dist) - self.kB * self.constant_term()


def upper_incomplete_gamma(s: float, x: float) -> float:
    """Gamma(s, x) = int_x^inf t^(s-1) e^-t dt by adaptive quadrature."""
    if x < 0:
        raise SpecError("need x >= 0")
    value, err = integrate.quad(
        lambda t: t ** (s - 1.0) * math.exp(-t), x, np.inf, epsabs=1e-13, epsrel=1e-12
    )
    if not math.isfinite(value) or err > 1e-8 * max(1.0, abs(value)):
        raise QuadratureError(
            f"incomplete gamma quadrature did not converge: s={s}, x={x}, "
            f"estimate={value!r}, err={err!r}"
        )
    return value


def scd_gamma_oracle(c: float, d: float, dist: Distribution, kB: float = 1.0) -> float:
    """S_{c,d} through the direct incomplete-gamma form.

    Independent of the polynomial route; accepts non-integer d as an
    experimental extension (the polynomial form does not).
    """
    if not (0 < c <= 1):
        raise SpecError("scd: c must lie in (0, 1]")
    norm = 1 - c + c * d
    if norm == 0:
        raise SpecError("scd: parameters with 1 - c + c d = 0 are singular")
    total = 0.0
    for p in dist.p:
        if p <= 0:
            continue  # Gamma(1+d, +inf) = 0
        total += upper_incomplete_gamma(1 + d, 1 - c * math.log(p))
    return kB * (math.e * total - c) / norm


def gamma_tail_closed_form(d: int, K: float) -> float:
    """Closed form of int_K^inf t^d e^-t dt for integer d.

    Equals e^-K * sum_{n=0}^d [prod_{j=0}^n (d-j+1)] / (d+1) * K^(d-n).
    """
    if not (isinstance(d, (int, np.integer)) and d >= 0):
        raise SpecError("d must be a nonnegative integer")
    if K < 0:
        raise SpecError("need K >= 0")
    total = 0.0
    for n in range(d + 1):
        prod = 1
        for j in range(n + 1):
            prod *= d - j + 1
        total += prod / (d + 1) * K ** (d - n)
    return math.exp(-K) * total


def gamma_identity_residual(d: int, K: float) -> float:
    """|quadrature - closed form| / max(1, closed form) for the tail integral."""
    lhs = upper_incomplete_gamma(d + 1, K)
    rhs = gamma_tail_closed_form(d, K)
    return abs(lhs - rhs) / max(1.0, abs(rhs))
