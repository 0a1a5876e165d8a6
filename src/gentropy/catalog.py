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

Float roots, here and in ``thermo``, are solved on arrays: ``_bracket``
grows brackets by doubling and ``_newton`` solves in them with exact slopes.
"""

from __future__ import annotations

import math
from fractions import Fraction
from math import factorial
from typing import Sequence

import numpy as np

from .series import TruncatedSeries, from_a_sequence

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


def _bracket(fdf, bracket):
    """Grow brackets of increasing functions until each function changes sign across its own.

    ``fdf`` and ``bracket`` are ``_newton``'s, both ends filled in.  A high end
    with f < 0 (or nan) doubles, the low end taking its old place; a low end
    with f > 0, the reverse.  An element stops where f at that end is not finite,
    where its slope there is negative (its function has turned), or after 200
    doublings.  Returns the mask of the elements with no sign change.
    """
    live = np.arange(bracket.shape[2])  # the elements that grew last
    for _ in range(200):
        _, (f_a, f_b), (d_a, d_b) = bracket[:, :, live]
        up = ~(f_b >= 0)  # the high end is wrong-signed; else the low end may be
        grow = (up | (f_a > 0)) & np.isfinite(np.where(up, f_b, f_a)) & ~(np.where(up, d_b, d_a) < 0)
        live, side = live[grow], up[grow].astype(int)
        if not live.size:
            break
        moved = bracket[:, side, live]
        bracket[:, 1 - side, live] = moved
        x = 2 * moved[0]
        bracket[:, side, live] = x, *fdf(x, live)
    _, (f_a, f_b) = bracket[:2]
    return ~((f_a <= 0) & (f_b >= 0))


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
    updated in place.  ``_inside`` places an x outside it (every x, with none
    given) and a Newton step that leaves it.  An element freezes once its
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
        x = np.full(n, np.nan) if x is None else np.array(x, dtype=float)
        if not np.all((bracket[0, 0] < x) & (x < bracket[0, 1])):
            x = _inside(bracket, x)
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


def _numeric_inverse(G, dG, s, G_long):
    """t with G(t) = s for each element of s, for a G with G(0) = 0 that rises from 0.

    Each element solves for u = |t| on sign(s) (G(sign(s) u) - s), whose slope
    in u is G'.  ``_bracket`` grows its bracket from [0, 1].  Where G turns
    first, ``_newton`` finds its turning point t* on -G', with slope -G'' =
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
        bracket = np.empty((3, 2, i.size))  # [0, 1], where G(0) = 0 is known
        bracket[0], bracket[1, 0], bracket[2, 0] = [[0.0], [1.0]], -np.abs(goal), dG(0.0)
        bracket[1:, 1] = fdf(bracket[0, 1], slice(None))
        short = _bracket(fdf, bracket)
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
        return np.ones_like(t)

    def _d2G(self, t):
        return np.zeros_like(t)

    def _F(self, s):
        return s

    def base_a_sequence(self, count):
        return [Fraction(1)] + [Fraction(0)] * (count - 1)

    def log_inverse(self, y):
        # E past the largest double is inf, with no warning, as _partition_value gives it for every kind
        with np.errstate(over="ignore"):
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

    def log_inverse(self, y):
        # math.exp, not np.exp: their last bits differ on some doubles, and Z keeps them
        f = self.F(y)
        return np.array([math.exp(v) for v in f.tolist()]) if np.ndim(f) else math.exp(f)


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
        al = Fraction(alpha)
        be = Fraction(beta)
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
