"""The two-parameter incomplete-gamma entropy family S_{c,d}.

For c in (0, 1] and integer d >= 0 the entropy is evaluated through a
finite polynomial form in powers of ln(1/p^c).  The direct form through the
upper incomplete gamma function, evaluated by adaptive quadrature, is an
independent oracle for it and lives with the tests (``tests/scd_oracle.py``).

Both carry the additive constant -c/(1 - c + c d) exactly as defined; the
constant-stripped polynomial part is reported separately.
"""

from __future__ import annotations

from fractions import Fraction
from math import comb, factorial
from numbers import Integral

from ._lazy import np
from .catalog import Distribution, Entropy, SpecError
from .series import TruncatedSeries


def _check_params(c: float, d: int) -> None:
    if not (0 < c <= 1):
        raise SpecError("scd: c must lie in (0, 1]")
    if not (isinstance(d, Integral) and d >= 0):  # int or np.integer
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
