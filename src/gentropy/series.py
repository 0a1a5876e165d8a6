"""Truncated one-variable power series over exact rationals or floats.

A series is stored as its coefficient list ``c[0..N]`` (degree ascending)
together with the truncation order ``N``.  Products and composition silently
discard all terms of degree greater than ``N``.  Two backends are supported:
``Fraction`` coefficients for bit-exact identity checking, and plain floats for
numeric evaluation (a float series is reverted on its coefficients' exact
values and rounded once).  The "group series" used by the entropy machinery
are the normalized ones with ``c[0] == 0`` and ``c[1] == 1``.

Exact reversion, and the group laws and inverses of ``gentropy.groups``, run
in divided-power form: G is carried as the integers e_k = c_k k! D^(k-1), the
coefficients of G(D t)/D on t^k / k!, and summed over partial Bell polynomials.
"""

from __future__ import annotations

from fractions import Fraction
from math import comb, factorial, gcd, lcm
from operator import mul
from typing import Iterable, Sequence, Union

Number = Union[int, float, Fraction]


def common_denominator(values: Sequence) -> tuple[int, list[int]] | None:
    """The least common denominator D and numerators n_i = values[i] * D.

    Exact products summed as these integers normalise one ``Fraction`` per
    result instead of one per term.  None when a value is not an ``int`` or
    a ``Fraction``, so float coefficients keep float arithmetic.
    """
    if not {int, Fraction}.issuperset(map(type, values)):
        return None
    dens = [v.denominator for v in values]
    den = lcm(*dens)
    return den, [v.numerator * (den // d) for v, d in zip(values, dens)]


def _divided_powers(*series: Sequence) -> tuple[int, list[list[int]]]:
    """A graded scale D and each series' integers e_k = c_k k! D^(k-1): ``_scaled`` of c_k's exact ratios."""
    return _scaled(*([c.as_integer_ratio() for c in s] for s in series))


def _scaled(*ratios: Sequence[tuple[int, int]]) -> tuple[int, list[list[int]]]:
    """``_divided_powers`` of series given by pairs (p_k, d_k), c_k = p_k / d_k, in lowest terms or not.

    Each series has c_0 = 0 and an integer c_1.  At degree k, D takes in the part u of den(c_k k!) that D^(k-1)
    misses, as its exact integer root of the highest order t <= k - 1 (integer Newton steps: u may pass the float
    range).  Tsallis q = 3/7 gets D = 7, not the lcm 7^(N-1); with k! in e_k, no prime up to N enters D for k!.
    """
    scaled = [[(p * factorial(k), d) for k, (p, d) in enumerate(r)] for r in ratios]
    D = 1
    for k in range(2, len(scaled[0])):
        u = lcm(*(d // gcd(p, d) for p, d in (s[k] for s in scaled)))
        u //= gcd(u, D ** (k - 1))
        for t in range(k - 1, 0, -1) if u > 1 else ():
            x = 1 << -(-u.bit_length() // t)  # floor(u^(1/t)) from above
            while (y := ((t - 1) * x + u // x ** (t - 1)) // t) < x:
                x = y
            if x ** t == u:
                D *= x
                break
    return D, [[p * D ** (k - 1) // d if k else 0 for k, (p, d) in enumerate(s)] for s in scaled]


def _decode(e: Sequence[int], D: int) -> list[Fraction]:
    """The coefficients c_k = e_k / (k! D^(k-1)) of integers at scale D, as ``Fraction``s."""
    return [Fraction(v * D, factorial(k) * D ** k) for k, v in enumerate(e)]


def _bell_table(e: Sequence[int], inverse: bool = False) -> list[tuple[int, ...]]:
    """Partial Bell polynomials ``B[m][k]`` = B_(m,k)(f), k, m <= N, as rows, of f = e or, with ``inverse``, revert(e).

    B_(m,k) = m! [t^m] f^k / k! for f = sum_i f_i t^i / i!, zero for k > m, row by row (m ascending) by
    B_(m,k) = sum_i C(m-1, i-1) f_i B_(m-i,k-1); for k >= 2, row m reads only f_1..f_(m-1).  Composing
    with e (e_1 = 1) gives sum_k e_k B_(m,k)(f) = 0 at m >= 2 for f = revert(e), so row m solves
    f_m = -sum_(k=2..m) e_k B_(m,k)(f) from its own entries; column 1, B_(m,1) = f_m, holds the integers of f.
    With ``inverse`` the rows stop at column K, e's last nonzero index: every reader weights column k by e_k
    or by e at a higher index, so the columns past K are left out.
    """
    n = len(e) - 1
    K = max(k for k, v in enumerate(e) if v) if inverse else n
    f = [0, 1] + [0] * (n - 1) if inverse else [0, *e[1:]]
    cols = [[1] + [0] * n, f] + [[0] * (n + 1) for _ in range(K - 1)]
    for m in range(2, n + 1):
        weights = [comb(m - 1, j) * f[m - j] for j in range(1, m)]
        for k in range(2, min(m, K) + 1):
            cols[k][m] = sum(map(mul, weights[k - 2 :], cols[k - 1][k - 1 : m]))
        if inverse:
            f[m] = -sum(e[k] * cols[k][m] for k in range(2, min(m, K) + 1))
    return list(zip(*cols[: K + 1]))


def _reversion(bell: Sequence[Sequence[int]]) -> list[int]:
    """Integers phi_m = -sum_(k<m) phi_k B_(m,k)(e) of revert(e), bell = ``_bell_table(e)``."""
    phi = [0, 1]
    for m in range(2, len(bell)):
        phi.append(-sum(map(mul, phi[1:], bell[m][1:m])))
    return phi


def horner(coeffs: Sequence, x, acc=0.0):
    """sum_k coeffs[k] x^k by Horner's rule from acc, the zero of the wanted type, at the highest
    nonzero coefficient: a leading zero would keep a finite x's acc at exactly 0.0, so the bits are
    the untrimmed rule's.  The first step forms acc * x, so a non-finite x gives nan."""
    n = len(coeffs)
    while n > 1 and coeffs[n - 1] == 0:
        n -= 1
    for c in reversed(coeffs[:n]):
        acc = acc * x + c
    return acc


class SeriesError(ValueError):
    """Invalid operand for a truncated-series operation."""


class OrderMismatchError(SeriesError):
    """Binary operation on series with different truncation orders."""


class TruncatedSeries:
    """A power series truncated at a fixed degree.

    Immutable; all operations return new instances.  Coefficients keep
    whatever numeric type they were given, so building a series from
    ``Fraction`` values keeps every derived quantity exact.
    """

    __slots__ = ("coeffs", "order")

    def __init__(self, coeffs: Sequence[Number], order: int | None = None):
        coeffs = list(coeffs)
        if order is None:
            order = len(coeffs) - 1
        if order < 0:
            raise SeriesError("truncation order must be nonnegative")
        if len(coeffs) < order + 1:
            coeffs = coeffs + [0] * (order + 1 - len(coeffs))
        elif len(coeffs) > order + 1:
            coeffs = coeffs[: order + 1]
        self.coeffs = tuple(coeffs)
        self.order = order

    # -- construction helpers -------------------------------------------------

    @classmethod
    def identity(cls, order: int) -> "TruncatedSeries":
        """The series t."""
        return cls([0, 1], order)

    # -- basic queries --------------------------------------------------------

    def __getitem__(self, degree: int) -> Number:
        if 0 <= degree <= self.order:
            return self.coeffs[degree]
        return 0

    @property
    def constant(self) -> Number:
        return self.coeffs[0]

    def is_normalized(self) -> bool:
        """True for a normalized group series: zero constant, unit linear term."""
        return self.coeffs[0] == 0 and self.order >= 1 and self.coeffs[1] == 1

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, TruncatedSeries):
            return NotImplemented
        return self.order == other.order and all(
            a == b for a, b in zip(self.coeffs, other.coeffs)
        )

    def __hash__(self):
        return hash((self.order, self.coeffs))

    def __repr__(self) -> str:
        return f"TruncatedSeries({list(self.coeffs)!r}, order={self.order})"

    # -- products and derivative -----------------------------------------------

    def _check_order(self, other: "TruncatedSeries") -> None:
        if self.order != other.order:
            raise OrderMismatchError(
                f"orders differ: {self.order} != {other.order}"
            )

    def __mul__(self, other: "TruncatedSeries") -> "TruncatedSeries":
        """Cauchy product, degrees above the common order discarded."""
        self._check_order(other)
        n = self.order
        exact = common_denominator(self.coeffs), common_denominator(other.coeffs)
        if all(exact):
            (den1, a), (den2, b) = exact
            sums = (sum(map(mul, a[: k + 1], b[k::-1])) for k in range(n + 1))
            return TruncatedSeries([Fraction(c, den1 * den2) if c else 0 for c in sums], n)
        # float (or other non-rational) coefficients: the termwise loop
        out = [0] * (n + 1)
        for i, a in enumerate(self.coeffs):
            if a == 0:
                continue
            for j in range(0, n + 1 - i):
                b = other.coeffs[j]
                if b != 0:
                    out[i + j] += a * b
        return TruncatedSeries(out, n)

    def derivative(self) -> "TruncatedSeries":
        """Termwise derivative; the result is truncated at order N - 1."""
        if self.order == 0:
            return TruncatedSeries([0], 0)
        out = [k * self.coeffs[k] for k in range(1, self.order + 1)]
        return TruncatedSeries(out, self.order - 1)

    # -- composition and reversion -------------------------------------------

    def compose(self, inner: "TruncatedSeries") -> "TruncatedSeries":
        """self(inner(t)); requires inner to have zero constant term."""
        self._check_order(inner)
        if inner.constant != 0:
            raise SeriesError(
                "composition requires the inner series to vanish at 0"
            )
        n = self.order
        acc = TruncatedSeries([self.coeffs[n]], n)
        for k in range(n - 1, -1, -1):
            acc = acc * inner
            acc = TruncatedSeries(
                [acc.coeffs[0] + self.coeffs[k]] + list(acc.coeffs[1:]), n
            )
        return acc

    def revert(self) -> "TruncatedSeries":
        """Compositional inverse of a normalized group series.

        Solves coefficient-by-coefficient for f with self(f(t)) = t, the workhorse form of Lagrange
        inversion, in divided-power form on the coefficients' exact values: one ``_bell_table`` pass
        solves f_m from row m of f's own table.  A series with a float coefficient gets that inverse
        rounded to floats once.
        """
        if not self.is_normalized():
            raise SeriesError(
                "reversion requires a normalized series (g(0)=0, g'(0)=1)"
            )
        D, (e,) = _divided_powers(self.coeffs)
        inv = TruncatedSeries(_decode([row[1] for row in _bell_table(e, inverse=True)], D), self.order)
        return inv if {int, Fraction}.issuperset(map(type, self.coeffs)) else inv.to_float()

    # -- evaluation -----------------------------------------------------------

    def eval(self, x):
        """Horner evaluation of the truncated polynomial at x (``horner``: nan at a non-finite x).

        x may be a float or a numpy array; an array is evaluated elementwise.
        """
        return horner([float(c) for c in self.coeffs], x)

    def eval_with_tail(self, x: float) -> tuple[float, float]:
        """Value plus |highest nonzero retained term|, a truncation indicator."""
        deg = max((k for k, c in enumerate(self.coeffs) if c != 0), default=0)
        return self.eval(x), abs(float(self.coeffs[deg]) * x ** deg)

    def to_float(self) -> "TruncatedSeries":
        return TruncatedSeries([float(c) for c in self.coeffs], self.order)


def from_a_sequence(a: Iterable[Number], order: int) -> TruncatedSeries:
    """Build the exponential-type series sum_k a_k t^(k+1)/(k+1).

    The sequence ``a`` is read up to degree ``order``.  A leading a_0 of zero
    gives a non-invertible series; reversion and group-law construction will
    reject it downstream, but plain evaluation is still allowed.
    """
    a = list(a)
    if not a or all(x == 0 for x in a):
        raise SeriesError("invalid exponential: need a nonzero coefficient")
    coeffs: list[Number] = [0] * (order + 1)
    for k, ak in enumerate(a):
        deg = k + 1
        if deg > order:
            break
        coeffs[deg] = Fraction(ak.numerator, ak.denominator * deg) if isinstance(ak, (int, Fraction)) else ak / deg
    return TruncatedSeries(coeffs, order)


def exponential_sum_a_sequence(sigma: Fraction, rates: dict, count: int) -> list[Fraction]:
    """a_j = sum_r k_r r^(j+1) / (sigma j!), j < count, of G(t) = (1/sigma) sum_r k_r (e^(r t) - 1).

    ``rates`` maps each rational rate r to its rational weight k_r.  The sums
    run on integer numerators over the common denominators of the rates and
    of the weights, so each a_j is one ``Fraction``.
    """
    (dr, r), (dk, terms) = common_denominator(list(rates)), common_denominator(list(rates.values()))
    den, out = dk * sigma.numerator, []
    for j in range(count):
        terms = list(map(mul, terms, r))  # the numerators of k_r r^(j+1) over dk dr^(j+1)
        den *= dr * max(j, 1)  # dk dr^(j+1) j! times sigma's numerator
        out.append(Fraction(sum(terms) * sigma.denominator, den))
    return out


def parse_rational_list(text: str) -> list[Fraction]:
    """Parse a comma-separated list of rationals like ``1, -1/2, 1/3``."""
    items = [chunk.strip() for chunk in text.split(",")]
    out = []
    for item in items:
        if not item:
            continue
        try:
            out.append(Fraction(item))
        except (ValueError, ZeroDivisionError) as exc:
            raise SeriesError(f"bad rational literal {item!r}") from exc
    if not out:
        raise SeriesError("empty coefficient list")
    return out


def normalized_from_literal(text: str, order: int) -> TruncatedSeries:
    """Series from a CLI literal; coefficients are degree-1 ascending."""
    vals = parse_rational_list(text)
    return TruncatedSeries([Fraction(0)] + vals, order)
