"""Test-side oracles for the incomplete-gamma family S_{c,d}.

The direct form of S_{c,d} through the upper incomplete gamma function,
evaluated by scipy's adaptive quadrature, is independent of the polynomial
route ``gentropy.scd.ScdEntropy`` evaluates; so is the closed form of the
gamma tail integral for integer d.
"""

from __future__ import annotations

import math

import numpy as np
from scipy import integrate

from gentropy.catalog import Distribution, SpecError


class QuadratureError(ArithmeticError):
    """Adaptive quadrature failed to converge."""


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
