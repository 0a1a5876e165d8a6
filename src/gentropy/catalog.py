"""Catalog of generalized entropies and their group exponentials.

Every entropy here is trace-form: S = kB * sum_i p_i * g(p_i) (plus, for the
incomplete-gamma family, an additive constant).  Where the entropy belongs to
the exponential class, the class also exposes the group exponential G with
S = kB * sum_i p_i * G(ln 1/p_i), its closed-form derivatives, the exact
rational coefficient sequence a_k with G(t) = sum a_k t^(k+1)/(k+1), and the
generalized logarithm / its inverse when one exists in closed form.

A scale constant c turns G(t) into G(c t), so S scales every elementary
functional S_k by c^k; it defaults to 1 and is folded into the public
wrappers once, so subclasses only implement the unscaled forms.  The
composition law G(F(x) + F(y)) is the same for every c.

Closed forms are authoritative for evaluation; series expansions are only
used for coefficient reporting and cross-checks.
"""

from __future__ import annotations

import math
from fractions import Fraction
from math import factorial
from typing import Sequence

import numpy as np
# never called here: bound only because the benchmark's tracer wraps catalog.brentq by name
from scipy.optimize import brentq  # noqa: F401

from .series import TruncatedSeries, from_a_sequence


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
        return cls(np.full(W, 1.0 / W))

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


def _as_fraction(x) -> Fraction:
    if _is_rational(x):
        return Fraction(x)
    f = Fraction(x).limit_denominator(10 ** 12)
    if float(f) != float(x):
        raise SpecError(
            "exact coefficients need rational parameters; got %r" % (x,)
        )
    return f


def bracket_increasing(f, lo: float, hi: float, failure: str) -> tuple[float, float, float, float]:
    """lo, hi, f(lo) <= 0 and f(hi) >= 0 for an increasing f, by doubling the wrong-signed end.

    An end at 0 stays put.  A wrong-signed value that is not finite, or no
    bracket after 200 doublings, raises SpecError(failure).
    """
    f_lo, f_hi = f(lo), f(hi)
    for _ in range(200):
        if f_lo <= 0 <= f_hi:
            return lo, hi, f_lo, f_hi
        if not math.isfinite(f_hi if f_lo <= 0 else f_lo):
            break
        if f_lo <= 0:
            hi, f_hi = 2 * hi, f(2 * hi)
        else:
            lo, f_lo = 2 * lo, f(2 * lo)
    raise SpecError(failure)


def _newton(fdf, x, lo, hi, f_lo, f_hi, d_lo, d_hi):
    """Roots of increasing functions by safeguarded Newton steps, one per element of x.

    ``fdf(x, i)`` gives the functions of the elements i and their exact slopes
    at x.  Each element keeps a bracket lo < x < hi across which its function
    changes sign, with the values f and slopes d at both ends.  A Newton step
    that leaves the bracket is replaced by a Newton step from an end that lands
    inside, or else by bisection.  An element freezes once its Newton step, or
    its bracket, is within 4 ulp of max(|x|, 1); that is decided before any
    fallback, so a converged step that rounds onto an end does not bisect.  Its
    last step is taken if it stays inside.  An element still live after 200
    steps keeps its x.  Returns x and the slope at the last x evaluated.
    """
    x = np.array(x, dtype=float)
    d_x = np.empty_like(x)
    bracket = np.empty((3, 2, x.size))  # x, f and d at the low and the high end
    for row, value in zip(bracket.reshape(6, -1), (lo, hi, f_lo, f_hi, d_lo, d_hi)):
        row[...] = value
    live = np.arange(x.size)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
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
                (f_a, f_b), (d_a, d_b) = bracket[1:, :, live]
                for fallback in (a - f_a / d_a, b - f_b / d_b, 0.5 * (a + b)):
                    new = np.where((a < new) & (new < b), new, fallback)
            x[live] = np.where(done & ~inside, xi, new)
            live = live[~done]
    return x, d_x


class InverseError(SpecError):
    """G does not reach ``s`` before it stops being finite: G^-1(s) has no value."""

    def __init__(self, s: float):
        super().__init__(f"could not bracket inverse at {s!r}")
        self.s = s


def _long(x) -> np.longdouble:
    """x as np.longdouble: a rational from its exact numerator and denominator, a float exactly."""
    if not _is_rational(x):
        return np.longdouble(x)
    return np.longdouble(x.numerator) / np.longdouble(x.denominator)


def _numeric_inverse(G, dG, s, G_long):
    """t with G(t) = s for each element of s, for an increasing G with G(0) = 0.

    Each element solves for u = |t| on sign(s) (G(sign(s) u) - s), which
    increases in u with slope G'.  Its bracket starts at [0, 1] and doubles
    its high end, the low end moving up to the last high end, until G there
    reaches s (at most 200 times).  Where G stops being finite first, or no
    bracket is found, InverseError names the first such s.  ``_newton`` then
    solves with the exact slope dG, and one last Newton step takes the
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

    def f(u, j):
        return sign[j] * (G(sign[j] * u) - goal[j])

    lo, hi, f_lo = np.zeros(i.size), np.ones(i.size), -np.abs(goal)
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        f_hi = f(hi, slice(None))
        short = ~(f_hi >= 0)  # the root lies past hi, or G is nan there
        for _ in range(200):
            grow = np.flatnonzero(short & np.isfinite(f_hi))
            if not grow.size:
                break
            lo[grow], f_lo[grow] = hi[grow], f_hi[grow]
            hi[grow] *= 2
            f_hi[grow] = f(hi[grow], grow)
            short[grow] = ~(f_hi[grow] >= 0)
        if short.any():
            raise InverseError(float(goal[np.argmax(short)]))
        d_lo, d_hi = dG(sign * lo), dG(sign * hi)
        u = 0.5 * (lo + hi)
        for start in (lo - f_lo / d_lo, hi - f_hi / d_hi):
            u = np.where((lo < start) & (start < hi), start, u)
        u, d = _newton(lambda u, j: (f(u, j), dG(sign[j] * u)), u, lo, hi, f_lo, f_hi, d_lo, d_hi)
        x = sign * u
        step = (G_long(x) - goal.astype(np.longdouble)) / d
    t[i] = np.where(np.isfinite(step), x - step, x)
    return t.reshape(s.shape)


class Entropy:
    """Base class for catalog entropies."""

    name = "entropy"
    has_exponential = False
    has_group_law = False  # a usable composition rule Phi exists
    monoid_only = False

    def __init__(self, kB: float = 1.0, scale_c=1):
        if not 0 < kB < math.inf:
            raise SpecError("kB must be positive and finite")
        if scale_c <= 0:
            raise SpecError("scale constant must be positive")
        self.kB = float(kB)
        self.scale = scale_c  # kept rational if given rational

    # -- evaluation -----------------------------------------------------------

    def density(self, x):
        """Per-state term g with S = kB * (sum_i p_i g(p_i) + constant_term).

        Vectorized over numpy arrays of probabilities in (0, 1].  For
        exponential-class entropies this is G(scale * ln(1/x)).
        """
        if not self.has_exponential:
            raise NotImplementedError
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

    def _dG(self, t):
        raise UnsupportedRepresentation(f"{self.name} has no group exponential")

    def _d2G(self, t):
        raise UnsupportedRepresentation(f"{self.name} has no group exponential")

    def _F(self, s):
        # _G_long: _G in np.longdouble from exact constants, for the inverse's last step
        return _numeric_inverse(self._G, self._dG, s, self._G_long)

    def dh(self, t):
        """h'(t) = G'(t) - G''(t), the slope of the stationarity function G - G'."""
        return self.dG(t) - self.d2G(t)

    def G(self, t):
        c = float(self.scale)
        return self._G(c * np.asarray(t, dtype=float)) if np.ndim(t) else self._G(c * t)

    def dG(self, t):
        c = float(self.scale)
        t = np.asarray(t, dtype=float) if np.ndim(t) else t
        return c * self._dG(c * t)

    def d2G(self, t):
        c = float(self.scale)
        t = np.asarray(t, dtype=float) if np.ndim(t) else t
        return c * c * self._d2G(c * t)

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
        """Truncated expansion of the group exponential, exact coefficients."""
        return from_a_sequence(self.a_sequence(order), order)

    def expansion_coefficients(self, count: int) -> list[Fraction]:
        """Coefficients a_{k-1} c^k / k of S/kB = sum_k coefficient_k S_k."""
        c = _as_fraction(self.scale)
        return [c * ak / (k + 1) for k, ak in enumerate(self.a_sequence(count))]

    # -- generalized logarithm -------------------------------------------------

    def generalized_log(self, x):
        raise UnsupportedRepresentation(f"{self.name} has no generalized logarithm")

    def log_inverse(self, y):
        """E = inverse of the generalized logarithm."""
        raise UnsupportedRepresentation(f"{self.name} has no generalized logarithm")

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
        return np.ones_like(t) if np.ndim(t) else 1.0

    def _d2G(self, t):
        return np.zeros_like(t) if np.ndim(t) else 0.0

    def _F(self, s):
        return s

    def base_a_sequence(self, count):
        return [Fraction(1)] + [Fraction(0)] * (count - 1)

    def generalized_log(self, x):
        if np.any(np.asarray(x) <= 0):
            raise SpecError("logarithm needs a positive argument")
        return self.G(np.log(x))

    def log_inverse(self, y):
        return np.exp(self.F(y))


class ExponentialSum(Entropy):
    """Group exponential G(t) = (1/sigma) sum_r k_r (e^(r t) - 1) over a few rates r.

    ``rates`` maps each rate r to its weight k_r.  Every term is an expm1, so
    G keeps its relative accuracy as the rates go to 0 (the BG limit).  The
    generalized logarithm is G(ln x), and its inverse is exp(F(y)), both with
    the scale constant.
    """

    has_exponential = True
    has_group_law = True

    def __init__(self, sigma, rates: dict, kB: float = 1.0, scale_c=1):
        super().__init__(kB, scale_c)
        self.sigma = sigma
        self.rates = rates
        exact = {Fraction(r): Fraction(k) for r, k in rates.items()}
        s = Fraction(sigma)
        self._sigma = float(sigma)
        # (rate, weight) pairs of sigma G, G' and G'', each weight rounded once
        self._G_terms = tuple((float(r), float(k)) for r, k in exact.items())
        self._dG_terms = tuple((float(r), float(k * r / s)) for r, k in exact.items())
        self._d2G_terms = tuple((float(r), float(k * r * r / s)) for r, k in exact.items())
        self._G_long_terms = tuple((_long(r), _long(k / s)) for r, k in exact.items())
        # h' = G' - G'' at scale c, as one sum over e^(r c t)
        c = Fraction(scale_c)
        self._dh_terms = tuple((float(r), float(-k * c * r * (c * r - 1) / s)) for r, k in exact.items())

    @staticmethod
    def _sum(func, terms, t):
        out = None  # not 0.0, which would turn a lone -0.0 term into 0.0
        for r, w in terms:
            term = w * func(r * t)
            out = term if out is None else out + term
        return out

    def _G(self, t):
        return self._sum(np.expm1, self._G_terms, t) / self._sigma

    def _G_long(self, t):
        return self._sum(np.expm1, self._G_long_terms, np.asarray(t, dtype=np.longdouble))

    def _dG(self, t):
        return self._sum(np.exp, self._dG_terms, t)

    def _d2G(self, t):
        return self._sum(np.exp, self._d2G_terms, t)

    def base_a_sequence(self, count):
        s = _as_fraction(self.sigma)
        rates = {_as_fraction(r): _as_fraction(k) for r, k in self.rates.items()}
        return [
            sum(k * r ** (j + 1) for r, k in rates.items()) / (s * factorial(j))
            for j in range(count)
        ]

    def dh(self, t):
        return self._sum(np.exp, self._dh_terms, float(self.scale) * np.asarray(t, dtype=float))

    def generalized_log(self, x):
        if np.any(np.asarray(x) <= 0):
            raise SpecError("logarithm needs a positive argument")
        return self.G(np.log(x))

    def log_inverse(self, y):
        # math.exp, not np.exp: their last bits differ on some doubles, and Z keeps them
        f = self.F(y)
        return np.array([math.exp(v) for v in f.tolist()]) if np.ndim(f) else math.exp(f)


class Tsallis(ExponentialSum):
    """S_q = kB (sum p^q - 1)/(1 - q), q != 1."""

    name = "tsallis"

    def __init__(self, q, kB: float = 1.0, scale_c=1):
        if q == 1:
            raise SpecError("q = 1 is the BG case; use BoltzmannGibbs")
        super().__init__(1 - q, {1 - q: 1}, kB, scale_c)
        self.q = q

    def _F(self, s_val):
        s = self._sigma
        with np.errstate(divide="ignore", invalid="ignore"):
            return np.log1p(s * s_val) / s

    def expansion_coefficients(self, count):
        # the printed decomposition uses 1-q below q=1 but q-1 above it
        if self.scale != 1:
            return super().expansion_coefficients(count)
        s = _as_fraction(self.sigma)
        if not (self.q < 1):
            s = -s
        return [s ** k / factorial(k + 1) for k in range(count)]

    def log_inverse(self, y):
        """The q-exponential [1 + (1-q) y]^(1/((1-q) c)), cut off at 0 for q < 1.

        For q > 1 it diverges as 1 + (1-q) y falls to 0 and has no value past it.
        """
        s = self._sigma
        base = 1.0 + s * y
        if s > 0:
            base = np.maximum(base, 0.0)
        elif np.any(base <= 0):
            raise SpecError(f"the q-exponential has no value at {y!r} for q > 1")
        e = 1.0 / (s * float(self.scale))
        # elementwise scalar powers: numpy's array power differs in the last bit on some doubles
        return np.array([np.float64(b) ** e for b in base.tolist()]) if np.ndim(base) else base ** e


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
        exact = {n: Fraction(v) for n, v in coeffs.items()}
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
        if q == 1:
            raise SpecError("q = 1 is the BG case; use BoltzmannGibbs")
        super().__init__(1 - q, {1: 1, -1: -2, -2: 1}, kB, scale_c)
        self.q = q


class SFourth(GroupEntropy):
    """Group entropy of the fourth-order discrete derivative, parameter q."""

    name = "s_iv"

    def __init__(self, q, kB: float = 1.0, scale_c=1):
        if q == 1:
            raise SpecError("q = 1 is the BG case; use BoltzmannGibbs")
        super().__init__(
            1 - q,
            {2: 1, 1: Fraction(-3, 2), -1: Fraction(3, 2), -2: -1},
            kB,
            scale_c,
        )
        self.q = q


class SAlphaBetaQ(GroupEntropy):
    """Three-parameter group entropy with indices -2..2."""

    name = "s_alpha_beta_q"

    def __init__(self, alpha, beta, q, kB: float = 1.0, scale_c=1):
        if q == 1:
            raise SpecError("q = 1 is the BG case; use BoltzmannGibbs")
        # exact binary fractions keep the two coefficient constraints exact
        al = Fraction(alpha)
        be = Fraction(beta)
        coeffs = {
            2: al,
            1: (1 - 3 * al + be) / 2,
            -1: (al - 1 - 3 * be) / 2,
            -2: be,
        }
        coeffs = {n: v for n, v in coeffs.items() if v != 0}
        super().__init__(1 - q, coeffs, kB, scale_c)
        self.alpha = alpha
        self.beta = beta
        self.q = q


class SDelta(Entropy):
    """S_delta = kB sum p (ln 1/p)^delta, 0 < delta <= 1 + ln W.

    The uniform-distribution composition rule is
    (x^(1/delta) + y^(1/delta))^delta, a monoid rather than a group law
    unless delta is an odd integer.
    """

    name = "s_delta"
    has_exponential = False
    has_group_law = True
    monoid_only = True

    def __init__(self, delta, kB: float = 1.0):
        super().__init__(kB)
        if delta <= 0:
            raise SpecError("delta must be positive")
        self.delta = delta

    def validate_for(self, W: int) -> None:
        """The stated admissibility range; the defining sum exists regardless.

        Evaluation itself stays lenient so composition identities can be
        checked across state counts; call this to enforce the range.
        """
        if W > 1 and self.delta > 1 + math.log(W):
            raise SpecError(f"delta = {self.delta} exceeds 1 + ln W for W = {W}")

    def density(self, x):
        return (-np.log(np.asarray(x, dtype=float))) ** float(self.delta)

    def phi(self, x, y):
        d = float(self.delta)
        kb = self.kB
        return kb * ((x / kb) ** (1 / d) + (y / kb) ** (1 / d)) ** d


class SQDelta(Entropy):
    """S_{q,delta} = kB sum p (ln_q 1/p)^delta; delta = 1 recovers Tsallis.

    Evaluated as defined; no concavity or admissibility claim is made for
    general (q, delta).
    """

    name = "s_q_delta"
    has_exponential = False
    has_group_law = True
    monoid_only = True

    def __init__(self, q, delta, kB: float = 1.0):
        super().__init__(kB)
        if q == 1:
            raise SpecError("q = 1 with general delta is the s_delta case")
        if delta <= 0:
            raise SpecError("delta must be positive")
        self.q = q
        self.delta = delta
        self.sigma = 1 - q

    def density(self, x):
        s = float(self.sigma)
        lnq = np.expm1(-s * np.log(np.asarray(x, dtype=float))) / s  # ln_q(1/x)
        return lnq ** float(self.delta)

    def phi(self, x, y):
        d = float(self.delta)
        s = float(self.sigma)
        kb = self.kB
        u = (x / kb) ** (1 / d)
        v = (y / kb) ** (1 / d)
        return kb * (u + v + s * u * v) ** d


class GenericEntropy(Entropy):
    """Entropy from a raw a-sequence: G(t) = sum_k a_k t^(k+1)/(k+1).

    G is evaluated to degree ``order``, by default len(a): the whole sequence.
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
        self._long_coeffs = [_long(c) for c in reversed(self._series.coeffs)]

    def _G(self, t):
        return self._float.eval(t)

    def _G_long(self, t):
        t = np.asarray(t, dtype=np.longdouble)
        acc = np.longdouble(0)
        for c in self._long_coeffs:  # Horner, as TruncatedSeries.eval
            acc = acc * t + c
        return acc

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
