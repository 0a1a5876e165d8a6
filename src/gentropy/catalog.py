"""Catalog of generalized entropies and their group exponentials.

Every entropy here is trace-form: S = kB * sum_i p_i * g(p_i) (plus, for the
incomplete-gamma family, an additive constant).  Where the entropy belongs to
the exponential class, the class also exposes the group exponential G with
S = kB * sum_i p_i * G(ln 1/p_i), its closed-form derivatives, the exact
rational coefficient sequence a_k with G(t) = sum a_k t^(k+1)/(k+1), and the
generalized logarithm G(ln x) / its inverse.

Each family is written once, and its known entropies are parameter points
of it: S_delta is S_{q,delta} at q = 1, and the q-deformed kinds take
sigma = 1 - q from one rule.  ``Entropy`` holds what every kind with a group
exponential shares: G, G' and G'' on arrays, the generalized logarithm, and
the one stub that kinds without a group exponential raise.

A scale constant c turns G(t) into G(c t), so S scales every elementary
functional S_k by c^k; it defaults to 1 and is folded into the public
wrappers once, so subclasses only implement the unscaled forms.  The
composition law G(F(x) + F(y)) is the same for every c.

Closed forms are authoritative for evaluation; series expansions are only
used for coefficient reporting and cross-checks.

Float roots, here and in ``thermo``, are solved on arrays by ``_newton`` with
exact slopes; the numeric inverse's brackets come from ``_ladder``.
"""

from __future__ import annotations

import functools
import math
import operator
import sys
from fractions import Fraction
from math import factorial
from typing import Sequence

from ._lazy import np
from .series import TruncatedSeries, exponential_sum_a_sequence, from_a_sequence, horner

brentq = None  # never called: benchmark/spans.py wraps catalog.brentq by name, so it stays bound


class SpecError(ValueError):
    """Invalid entropy specification parameters."""


class UnsupportedRepresentation(SpecError):
    """The requested representation does not exist for this entropy."""


class DistributionError(ValueError):
    """Invalid probability data."""


_SUM_TOL = 1e-12


class Distribution:
    """A discrete probability vector."""

    __slots__ = ("p",)

    def __init__(self, p: Sequence[float]):
        arr = np.asarray(p, dtype=float)
        if arr.ndim != 1 or arr.size < 1:
            raise DistributionError("need a nonempty 1-d probability vector")
        if np.any(arr < 0):
            raise DistributionError("probabilities must be nonnegative")
        total = arr.sum()
        # with no negative entries, a nan or an inf entry makes the sum nan or inf
        if not math.isfinite(total):
            raise DistributionError("probabilities must be finite")
        if abs(total - 1.0) > _SUM_TOL:
            raise DistributionError(
                f"probabilities sum to {float(total)!r}, not 1 within {_SUM_TOL}"
            )
        self.p = arr

    @classmethod
    def uniform(cls, W: int) -> "Distribution":
        if W < 1:
            raise DistributionError("need at least one state")
        try:
            p = np.full(W, 1.0 / W)
        except (ValueError, OverflowError, MemoryError) as exc:
            # W past the largest double, more states than an array can index, or than memory holds
            raise DistributionError(f"cannot hold a uniform distribution on W = {W} states") from exc
        return cls(p)

    @property
    def W(self) -> int:
        return self.p.size

    def append_zero(self) -> "Distribution":
        return Distribution(np.append(self.p, 0.0))

    def __repr__(self):
        return f"Distribution({self.p.tolist()!r})"


class JointDistribution:
    """A W_A x W_B joint probability matrix."""

    __slots__ = ("p",)

    def __init__(self, p) -> None:
        arr = np.asarray(p, dtype=float)
        if arr.ndim != 2 or arr.size < 1:
            raise DistributionError("need a 2-d probability matrix")
        Distribution(arr.reshape(-1))  # the entries pass the 1-d checks
        self.p = arr

    @classmethod
    def product(cls, a: Distribution, b: Distribution) -> "JointDistribution":
        return cls(np.outer(a.p, b.p))

    def marginal_a(self) -> Distribution:
        return Distribution(self.p.sum(axis=1))

    def marginal_b(self) -> Distribution:
        return Distribution(self.p.sum(axis=0))

    def flatten(self) -> Distribution:
        return Distribution(self.p.reshape(-1))


def elementary_functional(k: int, dist: Distribution, kB: float = 1.0) -> float:
    """S_k = kB * sum_i p_i (ln 1/p_i)^k with the 0 * log(0) -> 0 convention."""
    if k < 1:
        raise SpecError("elementary functional index must be >= 1")
    p = dist.p
    mask = p > 0
    terms = p[mask] * (-np.log(p[mask])) ** k
    return kB * float(terms.sum())


def _is_rational(x) -> bool:
    return isinstance(x, (int, Fraction))


def _fraction(x) -> Fraction:
    """Fraction(x), with a SpecError where Fraction raises on a nan or an infinite float."""
    try:
        return Fraction(x)
    except (ValueError, OverflowError) as exc:
        raise SpecError(f"parameters must be finite, got {x!r}") from exc


def _as_fraction(x) -> Fraction:
    if _is_rational(x):
        return Fraction(x)
    f = Fraction(x).limit_denominator(10 ** 12)
    if float(f) != float(x):
        raise SpecError(
            "exact coefficients need rational parameters; got %r" % (x,)
        )
    return f


def _inside(bracket, x):
    """x where it lies inside its bracket, else the Newton step from an end that does, else the
    midpoint; but an end where f is 0, where there is one."""
    (a, b), (f_a, f_b), (d_a, d_b) = bracket
    for fallback in (a - f_a / d_a, b - f_b / d_b, 0.5 * (a + b)):
        x = np.where((a < x) & (x < b), x, fallback)
    return np.where(f_a == 0, a, np.where(f_b == 0, b, x))


def _newton(fdf, bracket, x=None):
    """Roots of increasing functions by safeguarded Newton steps, one per element.

    ``fdf(x, i)`` gives the functions of the elements i and their exact slopes
    at x.  ``bracket`` (3, 2, n) holds x, f and the slope d at both ends of
    each element's bracket, across which its function changes sign, and is
    updated in place.  ``_inside`` places the start (at an end where f is 0,
    and inside where x is outside it or not given) and a Newton step that
    leaves it.  An element freezes once f is 0 (the step may be 0 / 0) or its
    Newton step, or its bracket, is within 4 ulp of max(|x|, 1); that is
    decided before any fallback, so a converged step that rounds onto an end
    does not bisect.  Its last step is taken if it stays inside.  An element
    still live after 200 steps keeps its x.  Returns x and the slope at the
    last x evaluated.
    """
    n = bracket.shape[2]
    d_x = np.empty(n)
    live = np.arange(n)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        x = _inside(bracket, np.full(n, np.nan) if x is None else np.array(x, dtype=float))
        for _ in range(200):
            if not live.size:
                break
            xi = x[live]
            f, d = fdf(xi, live)
            d_x[live] = d
            bracket[:, (f > 0).astype(int), live] = xi, f, d
            a, b = bracket[0, :, live].T
            step = f / d
            tol = 4 * np.spacing(np.maximum(np.abs(xi), 1.0))
            done = (f == 0) | (np.abs(step) <= tol) | (b - a <= tol)
            new = xi - step
            inside = (a < new) & (new < b)
            if not np.all(done | inside):
                new = _inside(bracket[:, :, live], new)
            x[live] = np.where(done & ~inside, xi, new)
            live = live[~done]
    return x, d_x


class InverseError(SpecError):
    """G does not reach ``s`` before it stops being finite or turns: G^-1(s) has no value."""

    def __init__(self, s: float):
        super().__init__(f"could not bracket inverse at {s!r}")
        self.s = s


def _long(x) -> np.longdouble:
    """x as np.longdouble: a rational from its exact numerator and denominator, a float exactly."""
    if not _is_rational(x):
        return np.longdouble(x)
    return np.longdouble(x.numerator) / np.longdouble(x.denominator)


def _ladder(G, dG, goal, sign):
    """``_newton``'s brackets in u = |t| of f(u) = sign (G(sign u) - goal), each [0, 1] or [2^(k-1), 2^k].

    One ladder per sign evaluates G and G' once at each rung u = 2^k for all
    elements of that sign, and climbs until sign G reaches its farthest finite
    |goal|, G is not finite, its slope is negative, or u = 2^200.  An element's
    high end is its first rung where f is not below 0 (a ``searchsorted`` on
    the running maximum of sign G), or not finite (by the running minimum).
    """
    g, side = np.abs(goal), (sign < 0).astype(int)  # side 0 climbs u > 0, side 1 u < 0
    finite = np.where(np.isfinite(goal), goal, 0.0)
    reach = float(finite.max()), -float(finite.min())  # each side's farthest finite |goal|
    d0 = dG(0.0)
    rungs = [(0.0, d0)], [(0.0, d0)]  # each side's (G, G') at u = 0, 1, 2, 4, ...
    sides = live = np.flatnonzero(np.bincount(side, minlength=2)).tolist()
    for k in range(201):
        if not live:
            break
        x = np.ldexp(np.array([1.0, -1.0])[live], k)
        step, live = zip(live, G(x).tolist(), dG(x).tolist()), []
        for c, y, d in step:
            rungs[c].append((y, d))
            if math.isfinite(y) and not d < 0 and (-y if c else y) < reach[c]:
                live.append(c)
    sizes = list(map(len, rungs))
    rungs = np.array([r + [(math.nan, math.nan)] * (max(sizes) - size) for r, size in zip(rungs, sizes)]).T
    low = np.empty(g.size, int)  # each element's low end, its high end one rung up
    for c in sides:
        j = np.flatnonzero(side == c)
        h = (1 - 2 * c) * rungs[0, 1:sizes[c], c]
        low[j] = np.minimum(np.searchsorted(np.maximum.accumulate(h), g[j]), h.size - 1)
        least = np.minimum.accumulate(h)  # sign G - |goal| first passes the largest double at its least
        over = j[~np.isfinite(least[low[j]] - g[j])]
        low[over] = np.argmax(~np.isfinite(least[:, None] - g[over]), axis=0)
    ends = np.array([low, low + 1])
    y, d = rungs[:, ends, side]
    return np.array([np.where(ends > 0, np.ldexp(1.0, ends - 1), 0.0), sign * (y - goal), d])


def _numeric_inverse(G, dG, s, G_long):
    """t with G(t) = s for each element of s, for a G with G(0) = 0 that rises from 0.

    Each element solves for u = |t| on sign(s) (G(sign(s) u) - s), whose slope
    in u is G'.  ``_ladder`` gives its bracket, from G evaluated once per rung
    for all elements of its sign.  Where G turns first, ``_newton`` finds its turning point t* on -G', with slope -G'' =
    -Im G'(t + ih) / h from a complex step h = 1e-100 (so dG must take
    complex t); if G(t*) reaches s, t* is the high end.  Where G stops being
    finite or turns first, InverseError names the first such s.  ``_newton``
    then solves with the exact slope dG, and one last Newton step takes the
    residual G(t) - s from ``G_long``, which evaluates G in np.longdouble
    from exact constants.  With the 64-bit mantissa np.longdouble has on
    x86-64 Linux, that step rounds t to the double nearest the root except
    in rare near-ties.  s == 0 gives exactly 0.0.
    """
    s = np.asarray(s, dtype=float)
    t = np.zeros(s.size)
    i = np.flatnonzero(s)
    if not i.size:
        return t.reshape(s.shape)
    goal = s.ravel()[i]
    sign = np.where(goal > 0, 1.0, -1.0)

    def fdf(u, j):
        return sign[j] * (G(sign[j] * u) - goal[j]), dG(sign[j] * u)

    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        bracket = _ladder(G, dG, goal, sign)
        short = ~((bracket[1, 0] <= 0) & (bracket[1, 1] >= 0))
        k = np.flatnonzero(short & (bracket[2, 1] < 0))  # G turned before it reached s
        if k.size:
            def turn(u, j):
                g = dG(sign[k[j]] * u + 1e-100j)
                return -g.real, -sign[k[j]] * g.imag * 1e100

            top = bracket[:, :, k]
            top[1:] = turn(top[0], slice(None))
            u, _ = _newton(turn, top)
            f, d = fdf(u, k)
            reach = f >= 0
            bracket[:, 1, k[reach]] = u[reach], f[reach], d[reach]
            short[k[reach]] = False
        if short.any():
            raise InverseError(float(goal[np.argmax(short)]))
        u, d = _newton(fdf, bracket)
        x = sign * u
        step = (G_long(x) - goal.astype(np.longdouble)) / d
    t[i] = np.where(np.isfinite(step), x - step, x)
    return t.reshape(s.shape)


def _exp(f):
    """exp of f's elements by math.exp, inf past the largest double with no warning.

    Not np.exp: on x86-64 glibc math.exp is correctly rounded on doubles where numpy's SIMD exp is not.
    """
    try:
        return np.fromiter(map(math.exp, f.tolist()), float, f.size) if f.ndim else math.exp(f)
    except OverflowError:  # math.exp raises where np.exp warns; ln of the largest double has a finite exp
        return _exp(np.where(f > math.log(sys.float_info.max), math.inf, f))


class _Built(type):
    """Marks a spec built once its whole constructor has returned."""

    def __call__(cls, *args, **kwargs):
        spec = super().__call__(*args, **kwargs)
        spec._built = True
        return spec


class Entropy(metaclass=_Built):
    """Base class for catalog entropies; a built spec's public attributes are read-only."""

    name = "entropy"
    has_exponential = False
    has_group_law = False  # a usable composition rule Phi exists
    monoid_only = False

    def __setattr__(self, name, value):
        # private attributes, the float tables and the occupation law a spec keeps, stay writable
        if "_built" in self.__dict__ and not name.startswith("_"):
            raise AttributeError(f"cannot set {type(self).__name__}.{name}: a built spec is read-only")
        object.__setattr__(self, name, value)

    def __init__(self, kB: float = 1.0, scale_c=1):
        if not 0 < kB < math.inf:
            raise SpecError("kB must be positive and finite")
        if not 0 < scale_c <= sys.float_info.max:  # every float table reads it as a double
            raise SpecError("scale constant must be positive and finite, at most the largest double")
        self.kB = float(kB)
        self.scale = scale_c  # kept rational if given rational

    # -- evaluation -----------------------------------------------------------

    def density(self, x):
        """Per-state term g with S = kB * (sum_i p_i g(p_i) + constant_term).

        Vectorized over numpy arrays of probabilities in (0, 1].  This is
        G(scale * ln(1/x)); a kind without a group exponential overrides it.
        """
        return self.G(-np.log(np.asarray(x, dtype=float)))

    def constant_term(self) -> float:
        return 0.0

    def evaluate(self, dist: Distribution) -> float:
        p = dist.p
        mask = p > 0
        total = float(np.sum(p[mask] * self.density(p[mask])))
        return self.kB * (total + self.constant_term())

    # -- group-exponential representation -------------------------------------

    def _G(self, t):
        raise UnsupportedRepresentation(f"{self.name} has no group exponential")

    _dG = _d2G = _G

    def _F(self, s):
        # _G_long: _G in np.longdouble from exact constants, for the inverse's last step
        return _numeric_inverse(self._G, self._dG, s, self._G_long)

    def dh(self, t):
        """h'(t) = G'(t) - G''(t), the slope of the stationarity function G - G'."""
        return self.dG(t) - self.d2G(t)

    def G(self, t):
        return self._G(float(self.scale) * np.asarray(t, dtype=float))

    def dG(self, t):
        c = float(self.scale)
        return c * self._dG(c * np.asarray(t, dtype=float))

    def d2G(self, t):
        c = float(self.scale)
        return c * c * self._d2G(c * np.asarray(t, dtype=float))

    def F(self, s):
        """Inverse of G on the relevant real domain (closed form or numeric), elementwise."""
        if not self.has_exponential:
            raise UnsupportedRepresentation(f"{self.name} has no group exponential")
        return self._F(np.asarray(s, dtype=float)) / float(self.scale)

    def base_a_sequence(self, count: int) -> list[Fraction]:
        """Exact a_k, k = 0..count-1, before the scale-constant rescaling."""
        raise UnsupportedRepresentation(f"{self.name} has no group exponential")

    def a_sequence(self, count: int) -> list[Fraction]:
        """Exact a_k; the scale constant c rescales term k by c^k."""
        base = self.base_a_sequence(count)
        if self.scale == 1:
            return base
        c = _as_fraction(self.scale)
        return [ak * c ** k for k, ak in enumerate(base)]

    def exp_series(self, order: int) -> TruncatedSeries:
        """Truncated expansion of G at scale 1, exact: its law G(F(x) + F(y)) holds at every c."""
        return from_a_sequence(self.base_a_sequence(order), order)

    def expansion_coefficients(self, count: int) -> list[Fraction]:
        """Coefficients a_{k-1} c^k / k of S/kB = sum_k coefficient_k S_k."""
        c = _as_fraction(self.scale)
        return [c * ak / (k + 1) for k, ak in enumerate(self.a_sequence(count))]

    # -- generalized logarithm -------------------------------------------------

    def generalized_log(self, x):
        """Log(x) = G(ln x), with the scale constant."""
        if not self.has_exponential:
            raise UnsupportedRepresentation(f"{self.name} has no generalized logarithm")
        if np.any(np.asarray(x) <= 0):
            raise SpecError("logarithm needs a positive argument")
        return self.G(np.log(x))

    def log_inverse(self, y):
        """E = inverse of the generalized logarithm, exp(F(y)) with the scale constant."""
        if not self.has_exponential:
            raise UnsupportedRepresentation(f"{self.name} has no generalized logarithm")
        return _exp(self.F(y))

    # -- composition rule ------------------------------------------------------

    def phi(self, x: float, y: float) -> float:
        """The composition value Phi(x, y); arguments are entropy values."""
        if not self.has_exponential:
            raise UnsupportedRepresentation(f"{self.name} has no composition rule")
        kb = self.kB
        return kb * self.G(self.F(x / kb) + self.F(y / kb))


class BoltzmannGibbs(Entropy):
    name = "bg"
    has_exponential = True
    has_group_law = True

    def _G(self, t):
        return t

    def _dG(self, t):
        return np.ones_like(t)

    def _d2G(self, t):
        return np.zeros_like(t)

    def _F(self, s):
        return s

    def base_a_sequence(self, count):
        return [Fraction(1)] + [Fraction(0)] * (count - 1)


class ExponentialSum(Entropy):
    """Group exponential G(t) = (1/sigma) sum_r k_r (e^(r t) - 1) over a few rates r.

    ``rates`` maps each rate r to its weight k_r.  Every term is an expm1, so
    G keeps its relative accuracy as the rates go to 0 (the BG limit).  Two
    close rates r, r' with weights k and -k are one term, k (e^(r t) -
    e^(r' t)) = e^(r' t) k expm1((r - r') t), so G keeps it as they meet
    (Borges-Roditi as a -> b); rates farther apart than half the larger one
    keep their own terms.  The generalized logarithm is G(ln x), and its
    inverse is exp(F(y)), both with the scale constant.
    """

    has_exponential = True
    has_group_law = True

    def __init__(self, sigma, rates: dict, kB: float = 1.0, scale_c=1):
        super().__init__(kB, scale_c)
        self.sigma = sigma
        self.rates = rates
        # converted here, so that a nan or an inf parameter raises at construction
        self._exact = {_fraction(r): _fraction(k) for r, k in rates.items()}, _fraction(sigma), Fraction(scale_c)
        self._sigma = float(sigma)

    @functools.cached_property
    def _terms(self):
        """The terms of sigma G, G', G'', of G exactly and of h', made on first float use: the exact
        a-sequence reads none of them.

        Each float is one int / int true division of products of the integer parts of r, k, sigma
        and c.  That division is correctly rounded, as ``float`` of the exact ``Fraction`` is, and
        every denominator is positive, so a zero weight is +0.0.
        """
        exact, s, c = self._exact
        # each rate r = a / b with weight k = kn / kd, b, kd > 0, as (a, b, kn, kd)
        ratio = {r: (*r.as_integer_ratio(), *k.as_integer_ratio()) for r, k in exact.items()}
        # rates r, r' with weights k, -k and 0 < |r - r'| < max(|r|, |r'|) / 2 are summed as one pair;
        # times b b' > 0, that is 0 < 2 |a b' - a' b| < max(|a| b', |a'| b)
        single, pairs = dict(ratio), []
        for r, (a, b, kn, kd) in ratio.items():
            mate = next((q for q, (a2, b2, vn, vd) in single.items() if (vn, vd) == (-kn, kd)
                         and 0 < 2 * abs(a * b2 - a2 * b) < max(abs(a) * b2, abs(a2) * b)), None)
            if r in single and mate is not None:
                pairs.append((r, mate))
                del single[r], single[mate]
        # 1/sigma = u / v and c = m / n with v, n > 0; a weight w(r) of r = a / b is (numerator, denominator > 0)
        u, v = (s.denominator, s.numerator) if s > 0 else (-s.denominator, -s.numerator)
        m, n = c.as_integer_ratio()

        def terms(weight, to=operator.truediv):
            """(r, k w(r)) of each single rate, (r', r - r', k w(r), k w(r) - k w(r')) of each pair."""
            out = []
            for a, b, kn, kd in single.values():
                p, d = weight(a, b)
                out.append((to(a, b), to(kn * p, kd * d)))
            for r, q in pairs:
                (a, b, kn, kd), (a2, b2, _, _) = ratio[r], ratio[q]
                (p, d), (p2, d2) = weight(a, b), weight(a2, b2)
                out.append((to(a2, b2), to(a * b2 - a2 * b, b * b2), to(kn * p, kd * d),
                            to(kn * (p * d2 - p2 * d), kd * d * d2)))
            return tuple(out)

        try:
            # h' = G' - G'' at scale c, as one sum over e^(r c t)
            return {"G": terms(lambda a, b: (1, 1)), "dG": terms(lambda a, b: (a * u, b * v)),
                    "d2G": terms(lambda a, b: (a * a * u, b * b * v)), "G_exact": terms(lambda a, b: (u, v), Fraction),
                    "dh": terms(lambda a, b: (-m * a * (m * a - n * b) * u, n * n * b * b * v))}
        except OverflowError:  # h''s weights, about c^2 r^2 / sigma, past the largest double
            raise SpecError(f"scale constant {float(c)!r} is too large: h' has no double weights") from None

    @staticmethod
    def _sum(func, terms, t):
        """The sum of w func(r t) over the single rates and of e^(r' t) (w expm1(d t) + w0) over the pairs."""
        out = None  # not 0.0, which would turn a lone -0.0 term into 0.0
        for term in terms:
            if len(term) == 2:
                r, w = term
                value = w * func(r * t)
            else:
                r, d, w, w0 = term
                value = np.exp(r * t) * (w * np.expm1(d * t) + w0)
            out = value if out is None else out + value
        return out

    def _G(self, t):
        return self._sum(np.expm1, self._terms["G"], t) / self._sigma

    @functools.cached_property
    def _G_long_terms(self):
        """The terms of G in np.longdouble, made on first use: building an entropy needs no numpy."""
        return tuple(tuple(map(_long, term)) for term in self._terms["G_exact"])

    def _G_long(self, t):
        return self._sum(np.expm1, self._G_long_terms, np.asarray(t, dtype=np.longdouble))

    def _dG(self, t):
        return self._sum(np.exp, self._terms["dG"], t)

    def _d2G(self, t):
        return self._sum(np.exp, self._terms["d2G"], t)

    def base_a_sequence(self, count):
        s = _as_fraction(self.sigma)
        rates = {_as_fraction(r): _as_fraction(k) for r, k in self.rates.items()}
        return exponential_sum_a_sequence(s, rates, count)

    def dh(self, t):
        return self._sum(np.exp, self._terms["dh"], float(self.scale) * np.asarray(t, dtype=float))


def _q_sigma(q):
    """sigma = 1 - q of a q-deformed kind; q = 1 is BG itself."""
    if q == 1:
        raise SpecError("q = 1 is the BG case; use BoltzmannGibbs")
    return 1 - q


class Tsallis(ExponentialSum):
    """S_q = kB (sum p^q - 1)/(1 - q), q != 1."""

    name = "tsallis"

    def __init__(self, q, kB: float = 1.0, scale_c=1):
        sigma = _q_sigma(q)
        super().__init__(sigma, {sigma: 1}, kB, scale_c)
        self.q = q

    def _F(self, s_val):
        """ln(1 + (1-q) s) / (1-q): -inf for q < 1, +inf for q > 1, at and past 1 + (1-q) s = 0."""
        s = self._sigma
        with np.errstate(divide="ignore"):
            return np.log1p(np.maximum(s * s_val, -1.0)) / s

    def expansion_coefficients(self, count):
        # the printed decomposition uses 1-q below q=1 but q-1 above it
        if self.scale != 1:
            return super().expansion_coefficients(count)
        s = _as_fraction(self.sigma)
        if not (self.q < 1):
            s = -s
        return [s ** k / factorial(k + 1) for k in range(count)]

    def log_inverse(self, y):
        """The q-exponential exp(F(y)): 0 at and past the cut-off for q < 1.

        For q > 1 it diverges as 1 + (1-q) y falls to 0 and has no value past it.
        """
        if self._sigma < 0 and np.any(1.0 + self._sigma * np.asarray(y) <= 0):
            raise SpecError(f"the q-exponential has no value at {y!r} for q > 1")
        return super().log_inverse(y)


class Kaniadakis(ExponentialSum):
    """S_kappa = kB sum p (p^-kappa - p^kappa) / (2 kappa), -1 < kappa <= 1."""

    name = "kaniadakis"

    def __init__(self, kappa, kB: float = 1.0, scale_c=1):
        if not (-1 < kappa <= 1) or kappa == 0:
            raise SpecError("kappa must lie in (-1, 1], nonzero")
        super().__init__(2 * kappa, {kappa: 1, -kappa: -1}, kB, scale_c)
        self.kappa = kappa

    def _F(self, s):
        k = float(self.kappa)
        return np.arcsinh(k * s) / k


class BorgesRoditi(ExponentialSum):
    """Two-parameter entropy with logarithm (x^a - x^b)/(a - b)."""

    name = "borges_roditi"

    def __init__(self, a, b, kB: float = 1.0, scale_c=1):
        if a == b:
            raise SpecError("Borges-Roditi needs distinct parameters a != b")
        super().__init__(a - b, {a: 1, b: -1}, kB, scale_c)
        self.a = a
        self.b = b


class GroupEntropy(ExponentialSum):
    """Entropy from a generalized logarithm (1/sigma) sum k_n x^(sigma n).

    The coefficients must satisfy sum k_n = 0 and sum n k_n = 1, with the
    extreme coefficients nonzero; this forces Log(1) = 0 and the small-sigma
    limit to the natural logarithm.
    """

    name = "group_entropy"

    def __init__(self, sigma, coeffs: dict[int, object], kB: float = 1.0, scale_c=1):
        if sigma == 0:
            raise SpecError("sigma must be nonzero (sigma -> 0 is the BG limit)")
        if len(coeffs) < 2:
            raise SpecError("need coefficients at more than one index")
        lo, hi = min(coeffs), max(coeffs)
        if coeffs[lo] == 0 or coeffs[hi] == 0:
            raise SpecError("extreme coefficients k_l, k_m must be nonzero")
        exact = {n: _fraction(v) for n, v in coeffs.items()}
        if sum(exact.values()) != 0 or sum(n * v for n, v in exact.items()) != 1:
            raise SpecError(
                "generalized-log coefficients must satisfy sum k_n = 0 and "
                "sum n k_n = 1"
            )
        self.coeffs = dict(sorted(coeffs.items()))
        super().__init__(sigma, {n * sigma: v for n, v in self.coeffs.items()}, kB, scale_c)


class SThird(GroupEntropy):
    """Group entropy of the third-order discrete derivative, parameter q."""

    name = "s_iii"

    def __init__(self, q, kB: float = 1.0, scale_c=1):
        super().__init__(_q_sigma(q), {1: 1, -1: -2, -2: 1}, kB, scale_c)
        self.q = q


class SFourth(GroupEntropy):
    """Group entropy of the fourth-order discrete derivative, parameter q."""

    name = "s_iv"

    def __init__(self, q, kB: float = 1.0, scale_c=1):
        super().__init__(_q_sigma(q), {2: 1, 1: Fraction(-3, 2), -1: Fraction(3, 2), -2: -1}, kB, scale_c)
        self.q = q


class SAlphaBetaQ(GroupEntropy):
    """Three-parameter group entropy with indices -2..2."""

    name = "s_alpha_beta_q"

    def __init__(self, alpha, beta, q, kB: float = 1.0, scale_c=1):
        sigma = _q_sigma(q)
        # exact binary fractions keep the two coefficient constraints exact
        al = _fraction(alpha)
        be = _fraction(beta)
        coeffs = {
            2: al,
            1: (1 - 3 * al + be) / 2,
            -1: (al - 1 - 3 * be) / 2,
            -2: be,
        }
        coeffs = {n: v for n, v in coeffs.items() if v != 0}
        super().__init__(sigma, coeffs, kB, scale_c)
        self.alpha = alpha
        self.beta = beta
        self.q = q


class SQDelta(Entropy):
    """S_{q,delta} = kB sum p (ln_q 1/p)^delta; delta = 1 recovers Tsallis, q = 1 is S_delta.

    The uniform-distribution composition rule is (u + v + (1-q) u v)^delta
    with u = x^(1/delta), v = y^(1/delta): a monoid rather than a group law
    in general.  Evaluated as defined; no concavity or admissibility claim is
    made for general (q, delta).
    """

    name = "s_q_delta"
    has_exponential = False
    has_group_law = True
    monoid_only = True

    def __init__(self, q, delta, kB: float = 1.0):
        super().__init__(kB)
        if q == 1:
            raise SpecError("q = 1 with general delta is the s_delta case")
        self._deform(q, delta)

    def _deform(self, q, delta):
        if delta <= 0:
            raise SpecError("delta must be positive")
        self.q = q
        self.delta = delta
        self.sigma = 1 - q

    def density(self, x):
        s = float(self.sigma)
        ln = -np.log(np.asarray(x, dtype=float))  # ln(1/x), the q -> 1 limit of ln_q(1/x)
        return (np.expm1(s * ln) / s if s else ln) ** float(self.delta)

    def phi(self, x, y):
        d = float(self.delta)
        s = float(self.sigma)
        kb = self.kB
        u = (x / kb) ** (1 / d)
        v = (y / kb) ** (1 / d)
        w = u + v
        return kb * (w + s * u * v if s else w) ** d  # S_delta's w at s = 0: 0 * u v is nan if u v overflows


class SDelta(SQDelta):
    """S_delta = kB sum p (ln 1/p)^delta, 0 < delta <= 1 + ln W: S_{q,delta} at q = 1.

    Its composition rule (x^(1/delta) + y^(1/delta))^delta is a group law
    only where delta is an odd integer.
    """

    name = "s_delta"

    def __init__(self, delta, kB: float = 1.0):
        Entropy.__init__(self, kB)  # the q = 1 point that SQDelta's constructor turns away
        self._deform(1, delta)

    def validate_for(self, W: int) -> None:
        """The stated admissibility range; the defining sum exists regardless.

        Evaluation itself stays lenient so composition identities can be
        checked across state counts; call this to enforce the range.
        """
        if W > 1 and self.delta > 1 + math.log(W):
            raise SpecError(f"delta = {self.delta} exceeds 1 + ln W for W = {W}")


class GenericEntropy(Entropy):
    """Entropy from a raw a-sequence: G(t) = sum_k a_k t^(k+1)/(k+1).

    G is evaluated to degree ``order``, by default len(a): the whole sequence,
    by ``series.horner``, so an order past it changes no bit; non-finite t gives nan.
    A leading coefficient a_0 != 1 is accepted but flagged: such a series is
    not a normalized group exponential and is excluded from group-law checks.
    """

    name = "generic"
    has_exponential = True
    has_group_law = True

    def __init__(self, a: Sequence, order: int | None = None, kB: float = 1.0, scale_c=1):
        super().__init__(kB, scale_c)
        a = list(a)
        if not a or all(x == 0 for x in a):
            raise SpecError("generic entropy needs a nonzero coefficient sequence")
        if not all(_is_rational(x) or math.isfinite(x) for x in a):
            raise SpecError("a-sequence coefficients must be finite")
        self.a = a
        self.order = len(a) if order is None else order
        self.normalized = a[0] == 1
        if a[0] == 0:
            # G is not invertible at the origin: no usable composition rule
            self.has_group_law = False
        self._series = from_a_sequence(
            [Fraction(x) if _is_rational(x) else x for x in a], self.order
        )
        try:
            self._float = self._series.to_float()
        except OverflowError:
            raise SpecError("a-sequence coefficients must fit in a float")
        self._dfloat = self._float.derivative()
        self._d2float = self._dfloat.derivative()

    @functools.cached_property
    def _long_coeffs(self):
        """The series' coefficients in np.longdouble, made on first use."""
        return [_long(c) for c in self._series.coeffs]

    def _G(self, t):
        return self._float.eval(t)

    def _G_long(self, t):
        return horner(self._long_coeffs, np.asarray(t, dtype=np.longdouble), np.longdouble(0))

    def _dG(self, t):
        return self._dfloat.eval(t)

    def _d2G(self, t):
        return self._d2float.eval(t)

    def base_a_sequence(self, count):
        out = [_as_fraction(x) for x in self.a[:count]]
        out += [Fraction(0)] * (count - len(out))
        return out

    def truncation_indicator(self, t: float) -> float:
        """Magnitude of the last retained series term at argument t."""
        return self._float.eval_with_tail(t)[1]
