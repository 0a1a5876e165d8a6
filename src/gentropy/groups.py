"""Formal group laws built from a group exponential, plus axiom checks.

The central construction is Phi(x, y) = G(F(x) + F(y)) with F the
compositional inverse of G, expanded as a bivariate polynomial truncated at
a total degree.  Everything here runs in exact rational arithmetic, so the
symmetry / null-composability / associativity verdicts are bit-exact to the
truncation order, not approximate.
"""

from __future__ import annotations

import functools
from fractions import Fraction
from math import comb, factorial
from operator import mul
from typing import Iterator, NamedTuple

from .series import (SeriesError, TruncatedSeries, _bell_table, _decode, _divided_powers, _reversion, _scaled,
                     common_denominator, exponential_sum_a_sequence, from_a_sequence)

Monomial = tuple[int, ...]


class MultiPoly:
    """Sparse multivariate polynomial truncated at a total degree.

    Coefficients are rationals (``Fraction`` or ``int``) kept in a dict keyed
    by exponent tuples; any term whose total degree exceeds ``order`` is
    dropped on construction.
    """

    __slots__ = ("terms", "order")

    def __init__(self, terms: dict[Monomial, Fraction], order: int):
        self.terms = {m: c for m, c in terms.items() if c and sum(m) <= order}
        self.order = order

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, MultiPoly):
            return NotImplemented
        return self.terms == other.terms

    def __hash__(self):
        return hash(frozenset(self.terms.items()))

    def iter_terms(self) -> Iterator[tuple[Monomial, Fraction]]:
        return iter(sorted(self.terms.items()))

    # never called: benchmark/spans.py wraps these three by name, so they stay bound
    substitute_univariate = substitute_pair = __mul__ = None


class GroupLawError(ValueError):
    """Invalid input for group-law construction."""


class _GroupLaw(NamedTuple):
    phi: MultiPoly  # bivariate, truncated at total degree `order`
    exp: TruncatedSeries  # G
    log: TruncatedSeries  # F = G^-1, exact also for a float G


class GroupLaw(_GroupLaw):
    """A formal group law with its exponential and logarithm series.

    A read-only record; its instance dict holds only the ``_inverse`` cache.
    """

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot set GroupLaw.{name}: a group law is read-only")

    @property
    def order(self) -> int:
        return self.phi.order

    @functools.cached_property
    def _inverse(self) -> tuple[int, list[int]]:
        """D and the integers iota_m of G(-F(x)) for ``formal_inverse``; ``group_law_from_exponential`` seeds them."""
        G, F = (TruncatedSeries(s.coeffs, self.order) for s in (self.exp, self.log))
        if not (G.is_normalized() and F.is_normalized()):
            raise GroupLawError("formal inverse needs a normalized exponential and logarithm")
        D, (e, f) = _divided_powers(G.coeffs, F.coeffs)
        return D, _negated(e, _bell_table(f))

    def c_table(self) -> dict[tuple[int, int], Fraction]:
        """The coefficients c_km of Phi - (x + y)."""
        return {m: c for m, c in self.phi.terms.items() if m not in ((1, 0), (0, 1))}


class LawAxiomCheck(NamedTuple):
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

    F = revert(G), exact also for a float G.  The integer route runs from G's ``_divided_powers``
    through F's table, solved row by row in one ``_bell_table`` pass, to ``_law_sums``, one Fraction per term.
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
    D, (e,) = _divided_powers(Gn.coeffs)  # of a float G's exact values too, so that Phi is the exact law of Gn
    bell, terms = _bell_table(e, inverse=True), {}  # F's integers are its column 1
    for a, b, p, s in _law_sums(e, bell, D, order):
        if p:
            terms[(a, b)] = terms[(b, a)] = Fraction(p, s)
    law = GroupLaw(phi=MultiPoly(terms, order), exp=Gn, log=TruncatedSeries(_decode([r[1] for r in bell], D), order))
    law.__dict__["_inverse"] = D, _negated(e, bell)  # O(N) integers; the Bell table is dropped
    return law


def _negated(e: list[int], bell: list) -> list[int]:
    """iota_m = sum_k (-1)^k e_k B_(m,k)(phi) of G(-F(x)), for bell = ``_bell_table(phi)`` of F."""
    signed = [(-1) ** k * c for k, c in enumerate(e)]
    return [sum(map(mul, signed, row)) for row in bell]


def _law_sums(e: list[int], bell: list, D: int, order: int) -> Iterator[tuple[int, int, int, int]]:
    """(a, b, p, s), a <= b, 1 <= a + b <= order, with p / s = [x^a y^b] G(F(x) + F(y)).

    For e and bell = ``_bell_table(phi)``, G's and F's integers at scale D, Faa di
    Bruno gives s = a! b! D^(a+b-1) and p = sum_(i,j) e_(i+j) B_(a,j)(phi) B_(b,i)(phi).
    """
    up = [factorial(k) * D**k for k in range(order + 1)]
    for a in range(order // 2 + 1):
        v = [sum(map(mul, e[i : i + a + 1], bell[a])) for i in range(order - a + 1)]
        for b in range(max(a, 1), order - a + 1):
            yield a, b, sum(map(mul, v[: b + 1], bell[b])), up[a] * up[b] // D


def _require_rational(phi: MultiPoly) -> None:
    """GroupLawError at the lowest monomial whose coefficient is not an ``int`` or a ``Fraction``."""
    if not {int, Fraction}.issuperset(map(type, phi.terms.values())):
        m = min(m for m, c in phi.terms.items() if type(c) not in (int, Fraction))
        raise GroupLawError(f"coefficient {phi.terms[m]!r} of monomial {m} is not an int or a Fraction")


def law_from_table(c: dict[tuple[int, int], Fraction], order: int) -> MultiPoly:
    """Phi = x + y + sum c_km x^k y^m from a user-supplied coefficient table."""
    terms: dict[Monomial, Fraction] = {(1, 0): Fraction(1), (0, 1): Fraction(1)}
    for mono, coeff in c.items():
        coeff = coeff if type(coeff) is Fraction else Fraction(coeff)
        terms[mono] = terms[mono] + coeff if mono in terms else coeff
    return MultiPoly(terms, order)


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
    one term -b d_bc x y^(b-1) z^c therefore stands in for D: it is absent
    exactly when D vanishes, and it is D's lowest term, which is all that
    ``first_violation`` reads.

    Tables that are not unital expand both trivariate compositions from one
    table of Phi's powers.
    """
    if assoc_order is None:
        assoc_order = phi.order
    if not 0 <= assoc_order <= phi.order:
        raise GroupLawError(f"assoc_order must be in 0..{phi.order}, got {assoc_order}")
    _require_rational(phi)
    # Phi(x, 0) - x: the terms free of y, less x
    at_zero = {m: c for m, c in phi.terms.items() if m[1] == 0}
    at_zero[1, 0] = at_zero.get((1, 0), 0) - Fraction(1)
    phi_n = phi if assoc_order == phi.order else MultiPoly(
        {m: c for m, c in phi.terms.items() if sum(m) <= assoc_order}, assoc_order
    )
    defects = {
        "symmetry": _symmetry_defect(phi),
        "null-composability": MultiPoly(at_zero, phi.order),
        "associativity": _associativity_defect(phi_n),
    }
    symmetric, null_composable, associative = (not d.terms for d in defects.values())
    first_violation = next(
        ((name, *min(d.iter_terms())) for name, d in defects.items() if d.terms), None
    )
    return LawAxiomCheck(symmetric, null_composable, associative, first_violation)


def _symmetry_defect(phi: MultiPoly) -> MultiPoly:
    """Phi(x, y) - Phi(y, x), from the terms where c_ab differs from its mirror c_ba."""
    terms, out = phi.terms, {}
    for (a, b), c in terms.items():
        if a < b:
            mirror = terms.get((b, a), 0)
            if c != mirror:
                out[a, b], out[b, a] = c - mirror, mirror - c
        elif a > b and (b, a) not in terms:
            out[a, b], out[b, a] = c, -c
    return MultiPoly(out, phi.order)


def _associativity_defect(phi: MultiPoly) -> MultiPoly:
    """Phi(x, Phi(y, z)) - Phi(Phi(x, y), z) through Phi's order N.

    For a unital Phi, only its lexicographically lowest term, or zero: with
    L(w) = sum_k c_1k w^k, F = integral of 1/L, G = revert(F) and the rebuilt law
    Phi*(y, z) = G(F(y) + F(z)), the lowest term d_bc y^b z^c of Delta = Phi - Phi*
    gives -b d_bc x y^(b-1) z^c (proof in ``check_axioms``).  Integers run from ``_scaled`` of the integral of
    L as pairs (num c_1k, den c_1k (k + 1)) (scale D, l_k = c_1k k! D^k) through F's f_(k+1) = rho_k = -sum_j
    C(k, j) l_j rho_(k-j), one Bell table, ``_reversion`` and ``_law_sums`` to a cross-multiplied
    compare with each c_ab and its mirror c_ba, row by row until the row past the lowest term that
    differs; only that term becomes a Fraction.  Tables that are not unital: ``_expanded_defect``.
    """
    n = phi.order
    if {m: c for m, c in phi.terms.items() if 0 in m} != {(1, 0): 1, (0, 1): 1}:
        return _expanded_defect(phi)
    L = [phi.terms.get((1, k), 0) for k in range(n)]
    D, (ell,) = _scaled([(0, 1)] + [(c.numerator, c.denominator * (k + 1)) for k, c in enumerate(L)])
    f = [0, 1]
    for k in range(1, n):
        f.append(-sum(comb(k, j) * ell[j + 1] * f[k - j + 1] for j in range(1, k + 1)))
    bell = _bell_table(f)
    low = None  # (monomial, c, p, s) of the lowest term where c != p / s
    for a, b, p, s in _law_sums(_reversion(bell), bell, D, n):
        if low is not None and a > low[0][0]:
            break  # row a yields first indices a and up, none below the lowest found
        for m in {(a, b), (b, a)}:
            d = phi.terms.get(m, 0)
            if d.numerator * s != p * d.denominator and (low is None or m < low[0]):
                low = m, d, p, s
    if low is None:
        return MultiPoly({}, n)
    (a, b), d, p, s = low
    return MultiPoly({(1, a - 1, b): -a * (d - Fraction(p, s))}, n)


def _expanded_defect(phi: MultiPoly) -> MultiPoly:
    """Phi(x, Phi(y, z)) - Phi(Phi(x, y), z) through Phi's order N, every term.

    From one table of the powers P_k = Phi^k through degree N, the left side is
    sum c_ij x^i P_j(y, z) and the right side sum c_ij P_i(x, y) z^j.
    """
    n, terms = phi.order, phi.terms
    if (0, 0) in terms:
        raise SeriesError("substitution requires zero constant terms")
    powers = [{(0, 0): Fraction(1)}]
    for _ in range(max((max(m) for m in terms), default=0)):  # P_k is read for k up to Phi's largest exponent
        power = {}
        for (a, b), p in powers[-1].items():
            for (i, j), c in terms.items():
                if a + b + i + j <= n:
                    power[a + i, b + j] = power.get((a + i, b + j), 0) + p * c
        powers.append(power)
    out = {}
    for (i, j), c in terms.items():
        for (a, b), p in powers[j].items():
            out[i, a, b] = out.get((i, a, b), 0) + c * p
        for (a, b), p in powers[i].items():
            out[a, b, j] = out.get((a, b, j), 0) - c * p
    return MultiPoly(out, n)


def formal_inverse(law: GroupLaw) -> TruncatedSeries:
    """The series i with Phi(x, i(x)) = 0 to the law's order.

    For a law with logarithm F and exponential G, i(x) = G(-F(x)), in the
    divided-power form of ``_law_sums``: iota_m =
    sum_k (-1)^k e_k B_(m,k)(phi), which the law keeps (``GroupLaw._inverse``):
    ``group_law_from_exponential`` makes them from its own integers, a
    hand-built law on first use.  The result is checked against Phi
    itself, in integers: m! D^m [x^m] Phi(x, i(x)) = sum_ab c_ab a! b!
    D^(a+b) C(m, a) B_(m-a,b)(iota).  Purely formal, no claim about real
    arguments.
    """
    _require_rational(law.phi)
    n = law.order
    D, iota = law._inverse
    powers = _bell_table(iota)
    _, nums = common_denominator(list(law.phi.terms.values()))
    closure = [0] * (n + 1)
    for (a, b), c in zip(law.phi.terms, nums):
        c *= factorial(a) * factorial(b) * D ** (a + b)
        for m in range(b, n + 1 - a):
            closure[a + m] += c * comb(a + m, a) * powers[m][b]
    if any(closure):
        raise GroupLawError("formal inverse does not close: Phi(x, i(x)) != 0")
    return TruncatedSeries(_decode(iota, D), n)


def lie_bracket(phi: MultiPoly) -> MultiPoly:
    """Antisymmetrized quadratic part Phi_2(x,y) - Phi_2(y,x)."""
    return _symmetry_defect(MultiPoly({m: c for m, c in phi.terms.items() if sum(m) == 2}, phi.order))


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
    # Borges-Roditi's G; a_0 = 1 keeps order 0 a series
    return from_a_sequence(exponential_sum_a_sequence(a - b, {a: 1, b: -1}, max(order, 1)), order)
