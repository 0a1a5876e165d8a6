"""Formal group laws built from a group exponential, plus axiom checks.

The central construction is Phi(x, y) = G(F(x) + F(y)) with F the
compositional inverse of G, expanded as a bivariate polynomial truncated at
a total degree.  Everything here runs in exact rational arithmetic, so the
symmetry / null-composability / associativity verdicts are bit-exact to the
truncation order, not approximate.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import comb, factorial
from operator import add, itemgetter, mul
from typing import Iterator

from .series import SeriesError, TruncatedSeries, _bell_table, _divided_powers, common_denominator

Monomial = tuple[int, ...]


class MultiPoly:
    """Sparse multivariate polynomial truncated at a total degree.

    Coefficients are rationals (``Fraction`` or ``int``) kept in a dict keyed
    by exponent tuples; any term whose total degree exceeds ``order`` is
    dropped on construction.
    """

    __slots__ = ("terms", "nvars", "order")

    def __init__(self, terms: dict[Monomial, Fraction], nvars: int, order: int):
        clean = {}
        for mono, coeff in terms.items():
            if coeff != 0 and sum(mono) <= order:
                clean[mono] = coeff
        self.terms = clean
        self.nvars = nvars
        self.order = order

    @classmethod
    def zero(cls, nvars: int, order: int) -> "MultiPoly":
        return cls({}, nvars, order)

    @classmethod
    def constant(cls, value, nvars: int, order: int) -> "MultiPoly":
        return cls({(0,) * nvars: Fraction(value)}, nvars, order)

    @classmethod
    def variable(cls, index: int, nvars: int, order: int) -> "MultiPoly":
        mono = tuple(1 if i == index else 0 for i in range(nvars))
        return cls({mono: Fraction(1)}, nvars, order)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, MultiPoly):
            return NotImplemented
        return self.terms == other.terms

    def __hash__(self):
        return hash(frozenset(self.terms.items()))

    def __add__(self, other: "MultiPoly") -> "MultiPoly":
        out = dict(self.terms)
        for mono, coeff in other.terms.items():
            mine = out.get(mono)
            out[mono] = coeff if mine is None else mine + coeff
        return MultiPoly(out, self.nvars, self.order)

    def __sub__(self, other: "MultiPoly") -> "MultiPoly":
        out = dict(self.terms)
        for mono, coeff in other.terms.items():
            mine = out.get(mono)
            # equal terms, most of a symmetry defect, cancel with no Fraction made
            out[mono] = -coeff if mine is None else 0 if mine == coeff else mine - coeff
        return MultiPoly(out, self.nvars, self.order)

    def __mul__(self, other: "MultiPoly") -> "MultiPoly":
        # Products are summed as integers over the product of the operands'
        # common denominators, so only one Fraction is normalised per output
        # monomial instead of one per pair of terms.
        den1, left = _integer_terms(self.terms)
        den2, right = _integer_terms(other.terms)
        acc: dict[Monomial, int] = {}
        for m1, d1, c1 in left:
            budget = self.order - d1
            for m2, d2, c2 in right:
                if d2 > budget:
                    break
                mono = tuple(map(add, m1, m2))
                acc[mono] = acc.get(mono, 0) + c1 * c2
        den = den1 * den2
        return MultiPoly(
            {m: Fraction(c, den) for m, c in acc.items() if c}, self.nvars, self.order
        )

    def scale(self, factor) -> "MultiPoly":
        factor = Fraction(factor)
        return MultiPoly(
            {m: c * factor for m, c in self.terms.items()}, self.nvars, self.order
        )

    def coefficient(self, mono: Monomial) -> Fraction:
        return self.terms.get(tuple(mono), Fraction(0))

    def iter_terms(self) -> Iterator[tuple[Monomial, Fraction]]:
        return iter(sorted(self.terms.items()))

    def swap(self, i: int, j: int) -> "MultiPoly":
        """Exchange two variables."""
        out = {}
        for mono, coeff in self.terms.items():
            m = list(mono)
            m[i], m[j] = m[j], m[i]
            out[tuple(m)] = coeff
        return MultiPoly(out, self.nvars, self.order)

    substitute_univariate = None  # never called: benchmark/spans.py wraps MultiPoly.substitute_univariate by name, so it stays bound

    def substitute_pair(self, a: "MultiPoly", b: "MultiPoly") -> "MultiPoly":
        """Evaluate a bivariate self at (a, b), both with zero constant term."""
        if self.nvars != 2:
            raise SeriesError("substitute_pair needs a bivariate polynomial")
        nvars, order = a.nvars, a.order
        zero_mono = (0,) * nvars
        if a.coefficient(zero_mono) != 0 or b.coefficient(zero_mono) != 0:
            raise SeriesError("substitution requires zero constant terms")
        max_deg = max((sum(m) for m in self.terms), default=0)
        pow_a = [MultiPoly.constant(1, nvars, order)]
        pow_b = [MultiPoly.constant(1, nvars, order)]
        for _ in range(max_deg):
            pow_a.append(pow_a[-1] * a)
            pow_b.append(pow_b[-1] * b)
        out = MultiPoly.zero(nvars, order)
        for (i, j), coeff in self.terms.items():
            out = out + (pow_a[i] * pow_b[j]).scale(coeff)
        return out


def _integer_terms(terms: dict[Monomial, Fraction]) -> tuple[int, list[tuple[Monomial, int, int]]]:
    """A common denominator D and (monomial, degree, numerator) by degree.

    Each coefficient equals numerator / D exactly.
    """
    den, nums = common_denominator(list(terms.values()))
    return den, sorted(zip(terms, map(sum, terms), nums), key=itemgetter(1))


class GroupLawError(ValueError):
    """Invalid input for group-law construction."""


@dataclass(frozen=True)
class GroupLaw:
    """A formal group law with its exponential and logarithm series."""

    phi: MultiPoly  # bivariate, truncated at total degree `order`
    exp: TruncatedSeries  # G
    log: TruncatedSeries  # F = G^-1, exact also for a float G

    @property
    def order(self) -> int:
        return self.phi.order

    def c_table(self) -> dict[tuple[int, int], Fraction]:
        """The coefficients c_km of Phi - (x + y)."""
        out = {}
        for (k, m), coeff in self.phi.terms.items():
            if (k, m) in ((1, 0), (0, 1)):
                continue
            out[(k, m)] = coeff
        return out


@dataclass(frozen=True)
class LawAxiomCheck:
    """Exact verdicts for one constructed (or hand-supplied) law."""

    symmetric: bool
    null_composable: bool
    associative: bool
    first_violation: tuple[str, Monomial, Fraction] | None

    @property
    def all_pass(self) -> bool:
        return self.symmetric and self.null_composable and self.associative


def group_law_from_exponential(G: TruncatedSeries, order: int | None = None) -> GroupLaw:
    """Construct Phi(x, y) = G(F(x) + F(y)) truncated at total degree.

    With e_k and phi_k the divided-power integers of G and F = revert(G) at
    one scale D (``series._divided_powers``), Faa di Bruno gives

        c_ab a! b! D^(a+b-1) = sum_(i,j) e_(i+j) B_(a,j)(phi) B_(b,i)(phi),

    B the partial Bell polynomials (B_(a,j)(phi) / a! is [x^a] F(D x)^j /
    (j! D^j)), summed through v_i = sum_j e_(i+j) B_(a,j)(phi) for a <= b.
    """
    if order is None:
        order = G.order
    if order < 1:
        raise GroupLawError(f"a group law needs order >= 1, got {order}")
    if not G.is_normalized():
        raise GroupLawError("group exponential must be normalized (G(0)=0, G'(0)=1)")
    if order > G.order:
        raise GroupLawError("requested order exceeds the exponential's order")
    Gn = TruncatedSeries(G.coeffs[: order + 1], order)
    F = Gn.exact_inverse()  # of a float G too, so that Phi is the exact law of Gn
    D, (e, f) = _divided_powers(Gn.coeffs, F.coeffs)
    bell = _bell_table(f)
    terms = {}
    for a in range(order // 2 + 1):
        v = [sum(map(mul, e[i : i + a + 1], bell[a])) for i in range(order - a + 1)]
        for b in range(a, order - a + 1):
            if p := sum(map(mul, v[: b + 1], bell[b])):
                terms[(a, b)] = terms[(b, a)] = Fraction(p, factorial(a) * factorial(b) * D ** (a + b - 1))
    return GroupLaw(phi=MultiPoly(terms, 2, order), exp=Gn, log=F)


def law_from_table(c: dict[tuple[int, int], Fraction], order: int) -> MultiPoly:
    """Phi = x + y + sum c_km x^k y^m from a user-supplied coefficient table."""
    terms: dict[Monomial, Fraction] = {(1, 0): Fraction(1), (0, 1): Fraction(1)}
    for (k, m), coeff in c.items():
        terms[(k, m)] = terms.get((k, m), Fraction(0)) + Fraction(coeff)
    return MultiPoly(terms, 2, order)


def check_axioms(phi: MultiPoly, assoc_order: int | None = None) -> LawAxiomCheck:
    """Symmetry, null-composability and associativity, coefficientwise.

    Each axiom holds when its defect polynomial vanishes: Phi(x, y) -
    Phi(y, x), Phi(x, 0) - x, and D(x, y, z) = Phi(x, Phi(y, z)) -
    Phi(Phi(x, y), z).  ``first_violation`` names the lexicographically
    lowest monomial of the first nonzero defect in that order.
    Associativity is decided to total degree N = assoc_order (by default the
    law's own order) on the terms of Phi of degree at most N: D must vanish
    through degree N.

    Call Phi unital when Phi(x, 0) = x and Phi(0, y) = y.  Then D has no x^0
    terms (both sides reduce to Phi(y, z) at x = 0), and its x^1 coefficient
    is the bivariate

        P(y, z) = L(Phi(y, z)) - d_1 Phi(y, z) L(y),  L(w) = d_x Phi(0, w),

    through degree N - 1.  L(0) = 1, so L is a unit and F with F' = 1/L,
    F(0) = 0 is a series over Q; let G be its reversion.  Associativity is
    decided by rebuilding Phi* = G(F(y) + F(z)), a law that is associative
    exactly, and taking Delta = Phi - Phi* through degree N; Delta(0, z) = 0,
    as both laws are unital.  Put H(y, z) = F(Phi(y, z)) - F(y) - F(z).

    - H = F(Phi* + Delta) - F(Phi*) = Delta U with U = int_0^1 F'(Phi* +
      s Delta) ds, whose constant term is F'(0) = 1.
    - d_y H = d_1 Phi / L(Phi) - 1/L(y), so P = -d_y H L(Phi) L(y).
    - Multiplying by a series with constant term 1 keeps the
      lexicographically lowest term as it is, so truncation at degree N
      keeps it too.
    - d_y keeps the lexicographic order: every term of H has b >= 1, since
      Delta(0, z) = 0, and y^b z^c goes to b y^(b-1) z^c.

    So if d_bc y^b z^c is the lowest term of Delta, -b d_bc y^(b-1) z^c is
    the lowest of P, and x times it is the lowest term of D.  If Delta is
    zero, so is P: Phi agrees with Phi* through degree N, and D, which
    depends on Phi only through degree N, vanishes through degree N.  The
    terms -b d_bc x y^(b-1) z^c therefore stand in for D: they vanish
    exactly when D does and share its lowest term.

    Tables that are not unital are checked by expanding both trivariate
    compositions.
    """
    if assoc_order is None:
        assoc_order = phi.order
    if not 0 <= assoc_order <= phi.order:
        raise GroupLawError(f"assoc_order must be in 0..{phi.order}, got {assoc_order}")
    # Phi(x, 0): drop every term containing y
    at_zero = MultiPoly({m: c for m, c in phi.terms.items() if m[1] == 0}, 2, phi.order)
    phi_n = MultiPoly(
        {m: c for m, c in phi.terms.items() if sum(m) <= assoc_order}, 2, assoc_order
    )
    defects = {
        "symmetry": phi - phi.swap(0, 1),
        "null-composability": at_zero - MultiPoly.variable(0, 2, phi.order),
        "associativity": _associativity_defect(phi_n),
    }
    symmetric, null_composable, associative = (not d.terms for d in defects.values())
    first_violation = next(
        ((name, *min(d.iter_terms())) for name, d in defects.items() if d.terms), None
    )
    return LawAxiomCheck(symmetric, null_composable, associative, first_violation)


def _associativity_defect(phi: MultiPoly) -> MultiPoly:
    """Phi(x, Phi(y, z)) - Phi(Phi(x, y), z) through Phi's order N.

    For a unital Phi, a polynomial with the same zero set and the same
    lexicographically lowest term: with r = 1/L by the triangular recursion,
    L(w) = sum_k c_1k w^k, F = integral of r, G = revert(F) and the rebuilt
    law Phi*(y, z) = G(F(y) + F(z)), each term d_bc y^b z^c of
    Delta = Phi - Phi* gives -b d_bc x y^(b-1) z^c (proof in
    ``check_axioms``).
    """
    n = phi.order
    if {m: c for m, c in phi.terms.items() if 0 in m} != {(1, 0): 1, (0, 1): 1}:
        x, y, z = (MultiPoly.variable(i, 3, n) for i in range(3))
        left = phi.substitute_pair(x, phi.substitute_pair(y, z))
        return left - phi.substitute_pair(phi.substitute_pair(x, y), z)
    L = [phi.coefficient((1, k)) for k in range(n)]
    r = [Fraction(1)]
    for k in range(1, n):
        r.append(-sum(map(mul, L[1 : k + 1], r[k - 1 :: -1])))
    F = TruncatedSeries([0] + [c / (k + 1) for k, c in enumerate(r)], n)
    delta = phi - group_law_from_exponential(F.exact_inverse()).phi
    return MultiPoly({(1, b - 1, c): -b * d for (b, c), d in delta.terms.items()}, 3, n)


def formal_inverse(law: GroupLaw) -> TruncatedSeries:
    """The series i with Phi(x, i(x)) = 0 to the law's order.

    For a law with logarithm F and exponential G, i(x) = G(-F(x)), in the
    divided-power form of ``group_law_from_exponential``: iota_m =
    sum_k (-1)^k e_k B_(m,k)(phi).  The result is checked against Phi
    itself, in integers: m! D^m [x^m] Phi(x, i(x)) = sum_ab c_ab a! b!
    D^(a+b) C(m, a) B_(m-a,b)(iota).  Purely formal, no claim about real
    arguments.
    """
    n = law.order
    G, F = (TruncatedSeries(s.coeffs, n) for s in (law.exp, law.log))
    if not (G.is_normalized() and F.is_normalized()):
        raise GroupLawError("formal inverse needs a normalized exponential and logarithm")
    D, (e, f) = _divided_powers(G.coeffs, F.coeffs)
    signed = [(-1) ** k * c for k, c in enumerate(e)]
    iota = [sum(map(mul, signed, row)) for row in _bell_table(f)]
    powers = _bell_table(iota)
    _, terms = _integer_terms(law.phi.terms)
    closure = [0] * (n + 1)
    for (a, b), _, c in terms:
        c *= factorial(a) * factorial(b) * D ** (a + b)
        for m in range(b, n + 1 - a):
            closure[a + m] += c * comb(a + m, a) * powers[m][b]
    if any(closure):
        raise GroupLawError("formal inverse does not close: Phi(x, i(x)) != 0")
    inv = [Fraction(v, factorial(m) * D ** (m - 1)) if m else Fraction(0) for m, v in enumerate(iota)]
    return TruncatedSeries(inv, n)


def lie_bracket(phi: MultiPoly) -> MultiPoly:
    """Antisymmetrized quadratic part Phi_2(x,y) - Phi_2(y,x)."""
    quad = MultiPoly(
        {m: c for m, c in phi.terms.items() if sum(m) == 2}, 2, phi.order
    )
    return quad - quad.swap(0, 1)


def abel_coefficients(a: Fraction, b: Fraction, count: int) -> list[Fraction]:
    """Closed-form coefficients beta_1..beta_count of the Abel group law.

    beta_1 = a + b and, for n > 1,
    beta_n = (-1)^(n-1) / (n! (n-1)) * prod_{i+j=n-1, i,j>=0} (i a + j b).
    """
    a, b = Fraction(a), Fraction(b)
    if a == b:
        raise GroupLawError("Abel coefficients need distinct parameters a != b")
    if count < 1:
        raise GroupLawError("count must be at least 1")
    out = [a + b]
    for n in range(2, count + 1):
        prod = Fraction(1)
        for i in range(n):
            j = n - 1 - i
            prod *= i * a + j * b
        sign = Fraction((-1) ** (n - 1))
        out.append(sign * prod / (factorial(n) * (n - 1)))
    return out


def abel_exponential(a: Fraction, b: Fraction, order: int) -> TruncatedSeries:
    """Exact expansion of (e^{at} - e^{bt}) / (a - b)."""
    a, b = Fraction(a), Fraction(b)
    if a == b:
        raise GroupLawError("Abel exponential needs distinct parameters a != b")
    coeffs = [Fraction(0)]
    for m in range(1, order + 1):
        coeffs.append((a ** m - b ** m) / ((a - b) * factorial(m)))
    return TruncatedSeries(coeffs, order)
