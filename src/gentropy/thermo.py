"""Extensivity, microcanonical entropy, canonical MaxEnt, and scans.

The occupation law W(N) = exp(F(N)) is the phase-space growth for which a
given entropy is extensive on uniform distributions.  The extensivity check
works in log space (directly on F(N)), so huge state counts such as e^1000
never have to be materialized as floats; a rounded-W variant is reported
separately for ranges where W fits in a double.

Canonical MaxEnt solves the stationarity condition h(ln 1/p_i) = alpha +
beta E_i, h = kB (G - G'), with exact slopes from ``Entropy.dh``.  At fixed
beta, alpha and every level's t = ln 1/p are one Newton iteration on that
system and sum p = 1: each step evaluates h once on the free levels (levels
clamped to [_P_LO, _P_HI] are masked and never evaluated) and eliminates
them, which leaves alpha's step in closed form.  The alpha bracket where the
levels clamp safeguards it: where a step is refused, the levels are solved
to 4 ulp (``catalog._newton``, elementwise) to place alpha in it.  In
target-U mode alpha, beta and the levels are one Newton iteration the same
way, in units of the spectrum's span; where a joint step is refused, the
levels are solved to 4 ulp and the step is damped on the convex MaxEnt dual,
with an Armijo test on it.  A target it cannot reach on the clamped levels
raises SpecError.
"""

from __future__ import annotations

import functools
import math
import sys
from dataclasses import dataclass, field
from typing import NamedTuple

from ._lazy import np
from .catalog import (
    Distribution,
    Entropy,
    InverseError,
    SpecError,
    UnsupportedRepresentation,
    _inside,
    _newton,
)

brentq = None  # never called: benchmark/spans.py wraps thermo.brentq by name, so it stays bound
_MAX_EXP = 700.0  # the rounded-W rows of extensivity_check stop here


@dataclass(frozen=True)
class OccupationLaw:
    spec: Entropy
    valid: bool
    reason: str = ""
    ln_W: tuple[float, ...] = ()  # ln W(N) for N = 0, 1, ... as far as checked

    def log_W(self, N: float) -> float:
        return float(self.spec.F(N))

    def W(self, N: float) -> float:
        try:
            return math.exp(self.log_W(N))
        except OverflowError:  # W past the largest double
            return math.inf


def occupation_law(spec: Entropy, N_max: int = 100) -> OccupationLaw:
    """Build W(N) = exp(F(N)) and test admissibility on 0..N_max.

    Admissible means: F defined and finite on the whole range, W(0) = 1,
    W strictly increasing and unbounded-looking (F increasing).  F is taken
    over the whole range in one call; ``reason`` names the first N that
    fails, and ``ln_W`` holds the values before it.
    """
    if not spec.has_exponential:
        raise UnsupportedRepresentation(f"{spec.name} has no group exponential")
    if N_max < 0:
        raise SpecError(f"N_max must be nonnegative, got {N_max}")
    N = np.arange(N_max + 1.0)
    try:
        ln_W, reason = spec.F(N), ""
    except InverseError as exc:  # F is defined below the first N it raises at
        ln_W, reason = spec.F(N[:int(exc.s)]), f"F undefined at N={int(exc.s)}"
    finite = np.isfinite(ln_W)
    rising = np.r_[ln_W[:1] == 0.0, ln_W[1:] > ln_W[:-1]]
    bad = np.flatnonzero(~(finite & rising))
    if bad.size:
        k = int(bad[0])
        reason = (f"F not finite at N={k}" if not finite[k] else "W(0) != 1" if k == 0
                  else f"W not increasing at N={k}")
        ln_W = ln_W[:k]
    return OccupationLaw(spec, not reason, reason, tuple(ln_W.tolist()))


def microcanonical(spec: Entropy, W: float) -> float:
    """Uniform-distribution entropy kB * G(ln W), defined for real W >= 1."""
    if W < 1:
        raise SpecError("need W >= 1")
    t = math.log(W)
    if spec.has_exponential:
        return spec.kB * float(spec.G(t))
    # trace form directly: all W states contribute identically
    return spec.kB * (
        float(spec.density(np.array([1.0 / W]))[0]) + spec.constant_term()
    )


@dataclass(frozen=True)
class ExtensivityReport:
    max_residual: float
    max_residual_rounded: float | None
    rows: list = field(default_factory=list)


def extensivity_check(
    spec: Entropy, N_max: int, law: OccupationLaw | None = None
) -> ExtensivityReport:
    """max |S(uniform over W(N)) - kB N| over N = 1..N_max, in log space.

    The primary check uses the real-valued W(N); a rounded-W variant is
    evaluated wherever W fits in a double.  W(N) must be admissible on all of
    0..N_max, or SpecError is raised.  ``law`` is spec's occupation law if the
    caller built it; its ln W(N) are read, not solved again (a law that stops
    short of N_max is rebuilt).
    """
    if law is None or len(law.ln_W) <= N_max:
        law = occupation_law(spec, N_max)
    if not law.valid:
        raise SpecError(f"occupation law not admissible: {law.reason}")
    kB, N = spec.kB, np.arange(1, N_max + 1)
    lw = np.array(law.ln_W[1:N_max + 1])
    s = kB * spec.G(lw)
    resid = np.abs(s - kB * N)
    # W rounded to an integer where it fits in a double; math.exp and math.log
    # elementwise, as their last bits differ from numpy's on some doubles
    fits = lw[lw < _MAX_EXP].tolist()
    w_round = np.maximum(1.0, np.rint(list(map(math.exp, fits))))  # rint rounds half to even, as round does
    r_resid = np.abs(kB * spec.G(np.array(list(map(math.log, w_round.tolist())))) - kB * N[:len(fits)])
    rows = list(zip(N.tolist(), lw.tolist(), s.tolist(), resid.tolist(),
                    r_resid.tolist() + [None] * (N_max - len(fits))))
    return ExtensivityReport(float(np.fmax.reduce(resid, initial=0.0)),
                             float(np.fmax.reduce(r_resid, initial=0.0)) if fits else None, rows)


@dataclass(frozen=True)
class MaxEntProblem:
    spec: Entropy
    energies: tuple[float, ...]
    beta: float | None = None  # fixed-multiplier mode
    target_U: float | None = None  # fixed-energy mode

    def __post_init__(self):
        if len(self.energies) < 2:
            raise SpecError("need at least two energy levels")
        if not all(math.isfinite(e) for e in self.energies):
            raise SpecError("energies must be finite")
        if (self.beta is None) == (self.target_U is None):
            raise SpecError("specify exactly one of beta or target_U")
        if not math.isfinite(self.target_U if self.beta is None else self.beta):
            raise SpecError("beta and target_U must be finite")


@dataclass(frozen=True)
class MaxEntSolution:
    distribution: Distribution
    alpha: float
    beta: float
    Z: float
    U: float
    S: float
    stationarity_residual: float


_P_LO = 1e-15
_P_HI = 1.0 - 1e-15
_T_LO, _T_HI = -math.log(_P_HI), -math.log(_P_LO)  # t = ln 1/p at the clamps, the bits of -np.log
# where h is checked for monotonicity: 64 points from _T_HI down to _T_LO spaced evenly in t, and
# 16 more spaced evenly in ln t over the last gap (_T_LO, 0.55), where h' may change sign near p = 1
_T_GAP = (_T_HI - _T_LO) / 63
_T_POINTS = ([_T_HI - k * _T_GAP for k in range(63)]
             + [_T_GAP * (_T_LO / _T_GAP) ** (j / 17) for j in range(1, 17)] + [_T_LO])
_REACH = 2.0 ** 200  # the alpha bracket is clipped to [-_REACH, _REACH]
_EPS = sys.float_info.epsilon


@functools.cache
def _t_grid():
    """_T_POINTS as an array, made on first use so that importing thermo needs no numpy."""
    return np.array(_T_POINTS)


def _stationarity(spec: Entropy, t):
    """kB (G(t) - G'(t)) at t = ln 1/p: d/dp of the per-state term kB p G(ln 1/p)."""
    return spec.kB * (spec.G(t) - spec.dG(t))


def _check_monotone(spec: Entropy) -> tuple:
    """Check that h = kB (G - G') falls as p rises; returns h at _P_LO and _P_HI, then kB h' there.

    h is sampled on _t_grid(), and kB h' must be positive at both ends.
    """
    vals = _stationarity(spec, _t_grid())
    slopes = spec.kB * spec.dh(np.array([_T_HI, _T_LO]))
    if not (np.all(np.diff(vals) < 0) and np.all(slopes > 0)):
        raise UnsupportedRepresentation(
            f"{spec.name}: stationarity function is not strictly monotone"
        )
    return (float(vals[0]), float(vals[-1]), *slopes)


def _free_levels(spec: Entropy, t: np.ndarray, target: np.ndarray) -> tuple:
    """At the free levels' t: p = e^-t, kB h'(t), w = p / kB h'(t) and r = target - h(t)."""
    d = spec.kB * spec.dh(t)
    p = np.exp(-t)
    return p, d, p / d, target - _stationarity(spec, t)


def _invert_h(spec: Entropy, target: np.ndarray, ends: tuple, t: np.ndarray):
    """Solve h(ln 1/p_i) = target_i for every level at once, Newton started at t = ln 1/p.

    ``ends`` is ``_check_monotone(spec)``: h_lo and h_hi, the values of h at
    _P_LO and _P_HI, then kB h' there.  A level whose target lies outside
    (h_hi, h_lo) is clamped to _P_HI or _P_LO and never evaluated.  Returns p, t and w = p / (kB h'(t)),
    the rate -dp/dtarget, which is 0 on the clamped levels.
    """
    h_lo, h_hi, d_lo, d_hi = ends
    low, high = target >= h_lo, target <= h_hi
    free = ~(low | high)
    t = np.where(low, _T_HI, np.where(high, _T_LO, t))
    w = np.zeros(t.shape)
    if free.any():
        goal = target[free]
        bracket = np.empty((3, 2, goal.size))
        bracket[0], bracket[1], bracket[2] = [[_T_LO], [_T_HI]], (h_hi - goal, h_lo - goal), [[d_hi], [d_lo]]
        x, d = _newton(lambda x, i: (_stationarity(spec, x) - goal[i], spec.kB * spec.dh(x)),
                       bracket, t[free])
        t[free] = x
        w[free] = np.exp(-x) / d
    p = np.exp(-t)
    p[low], p[high] = _P_LO, _P_HI
    return p, t, w


class _Levels(NamedTuple):
    """The levels at one beta: p normalized, t = ln 1/p before that, w = -dp/dtarget."""

    alpha: float
    beta: float
    p: np.ndarray
    t: np.ndarray
    w: np.ndarray


def _solve_fixed_beta(spec: Entropy, E: np.ndarray, beta: float, ends: tuple) -> _Levels:
    """alpha and the levels it normalizes at beta, by one Newton iteration on the joint system.

    The system is h(t_i) = alpha + beta E_i, sum_i e^-t_i = 1, in alpha and
    the t_i = ln 1/p_i of the free levels; a level whose target lies outside
    (h_hi, h_lo) is clamped as ``_invert_h`` clamps it.  Each step evaluates
    h and kB h' once on the free levels and eliminates them: with
    r_i = alpha + beta E_i - h(t_i) and w_i = p_i / kB h'_i, alpha moves by
    d = (sum p - 1 - sum w r) / sum w and each t_i by (r_i + d) / kB h'_i.

    alpha keeps the bracket where the levels clamp, with -ln sum p and its
    slope at both ends.  A step is taken only if it stays inside the
    bracket, clamps no level (-ln sum p has a kink where one clamps), and is
    smaller than the last one (relative to alpha and to each t); otherwise
    the levels are solved to 4 ulp at this alpha, which moves the end of the
    bracket on that side there, and the next alpha is the Newton step from
    those levels, or ``_inside``'s fallback.  The iteration ends after a step within 4 ulp
    of alpha and of each t, or after a solve whose step is within 4 ulp of
    alpha, or whose bracket is; that last step is taken in p to first
    order.
    """
    h_lo, h_hi = ends[:2]
    bE = beta * E
    # t of the Gibbs weights, and the alpha that fits the lowest level to it, or frees that level
    # from _P_HI: -ln sum p has a kink where the level clamps
    low = int(np.argmin(bE))
    t = bE - bE[low] + math.log(np.exp(bE[low] - bE).sum())
    alpha = max(float(_stationarity(spec, t[low:low + 1])[0] - bE[low]),
                np.nextafter(h_hi - bE[low], math.inf))

    # every level is clamped at _P_HI below the bracket and at _P_LO above it, but for rounding:
    # the levels left free at an end are solved from that clamp, unless sum p lies strictly on
    # that end's side of 1 with every one of them at the other clamp
    bracket = np.zeros((3, 2, 1))  # alpha, -ln sum p and its slope, at the low and the high end
    ends_at = ((max(h_hi - bE.max(), -_REACH), _T_LO, _P_LO), (min(h_lo - bE.min(), _REACH), _T_HI, _P_HI))
    for side, (a, t_clamp, p_other) in enumerate(ends_at):
        target = a + bE
        n_low, n_high = np.count_nonzero(target >= h_lo), np.count_nonzero(target <= h_hi)
        n_free = E.size - n_low - n_high
        s = n_low * _P_LO + n_high * _P_HI + n_free * p_other
        if n_free and (s <= 1 if side == 0 else s >= 1):
            p, _, w = _invert_h(spec, target, ends, np.full(E.size, t_clamp))
            s = p.sum()
            bracket[2, side] = w.sum() / s
        bracket[:2, side] = [[a], [-math.log(s)]]
    if not bracket[1, 0, 0] <= 0 <= bracket[1, 1, 0]:
        raise SpecError(f"no alpha normalizes the clamped levels at beta = {beta!r}")

    def inside(a: float) -> float:
        """a where it lies inside the bracket, else ``_inside``'s fallback."""
        if bracket[0, 0, 0] < a < bracket[0, 1, 0]:
            return a
        with np.errstate(divide="ignore", invalid="ignore"):  # a clamped end has slope 0
            return float(_inside(bracket, np.array([a]))[0])

    alpha, last = inside(alpha), math.inf  # last: the size of the last step
    for _ in range(200):
        target = alpha + bE
        low, high = target >= h_lo, target <= h_hi
        n_low, n_high = np.count_nonzero(low), np.count_nonzero(high)
        if n_low + n_high < E.size:
            free = ~(low | high)
            x = np.clip(t[free], _T_LO, _T_HI)
            p, d, w, r = _free_levels(spec, x, target[free])
            sw = float(w.sum())
            d_alpha = (p.sum() + n_low * _P_LO + n_high * _P_HI - 1 - float(w @ r)) / sw if sw > 0 else math.nan
            step = (r + d_alpha) / d
            size = max(abs(d_alpha) / max(abs(alpha), 1.0), float(np.max(np.abs(step) / np.maximum(x, 1.0))))
            a = alpha + d_alpha
            moved = a + bE  # alpha only shifts the targets: a level clamps iff a count grows
            clamps = (np.count_nonzero(moved >= h_lo) - n_low, np.count_nonzero(moved <= h_hi) - n_high)
            if bracket[0, 0, 0] < a < bracket[0, 1, 0] and size < last and max(clamps) <= 0:
                t[free], alpha, last = x + step, a, size
                if size <= 4 * _EPS and clamps == (0, 0):
                    t = np.where(low, _T_HI, np.where(high, _T_LO, t))
                    p = np.exp(-t)
                    p[low], p[high] = _P_LO, _P_HI
                    w = np.zeros(E.size)
                    w[free] = p[free] / d
                    break
                continue
        # the step is refused: the levels solved to 4 ulp at alpha move an end of the bracket there
        p, t, w = _invert_h(spec, target, ends, t)
        s, sw = p.sum(), w.sum()
        bracket[:, int(s < 1), 0] = alpha, -math.log(s), sw / s
        d_alpha = (s - 1) / sw if sw > 0 else math.nan
        tol = 4 * np.spacing(max(abs(alpha), 1.0))
        if s == 1 or abs(d_alpha) <= tol or bracket[0, 1, 0] - bracket[0, 0, 0] <= tol:
            if bracket[0, 0, 0] < alpha + d_alpha < bracket[0, 1, 0]:
                p, alpha = p - d_alpha * w, alpha + d_alpha
            break
        alpha, last = inside(alpha + d_alpha), math.inf
    else:
        p, t, w = _invert_h(spec, alpha + bE, ends, t)
    return _Levels(float(alpha), beta, p / p.sum(), t, w)


def _solution(spec: Entropy, energies: tuple, levels: _Levels) -> MaxEntSolution:
    p, alpha, beta = levels.p, levels.alpha, levels.beta
    dist = Distribution(p)
    with np.errstate(over="ignore"):  # beta E past the largest double is inf, and so is the residual
        bE = beta * np.asarray(energies)
    resid = np.max(np.abs(_stationarity(spec, -np.log(p)) - (alpha + bE)))
    return MaxEntSolution(dist, alpha, beta, _partition_value(spec, energies, beta),
                          float(np.dot(p, energies)), spec.evaluate(dist), float(resid))


def _partition_value(spec: Entropy, energies, beta: float) -> float:
    """sum_i E(-beta E_i), summed left to right; nan where the log inverse does not exist there,
    inf where a term is past the largest double."""
    with np.errstate(over="ignore"):
        y = -beta * np.asarray(energies, dtype=float)
    try:
        return float(sum(spec.log_inverse(y).tolist()))
    except SpecError:
        return math.nan
    except OverflowError:  # math.exp raises where np.exp gives inf
        return math.inf


_JOINT_CAP = 200  # steps, joint or through a level solve, before the target counts as out of reach


def _solve_target_U(spec: Entropy, E: np.ndarray, target: float, ends: tuple) -> _Levels:
    """The levels whose mean energy is target, by Newton on the joint system, damped on the MaxEnt dual.

    Energies are taken from the target in units of the span E_max - E_min:
    the levels solve h = alpha + b x, x = (E - target) / span and
    b = beta span, so that on a spectrum far from 0 neither the targets nor
    the residual cancel, and the weighted variance below stays finite
    whatever the span.  g = (sum p - 1, sum p x) is minus the gradient of
    the dual D(alpha, b) = kB sum p G(t) - alpha g_1 - b g_2, convex with p
    clamped to [_P_LO, _P_HI], and D's Hessian is
    [[sum w, sum w x], [sum w x, sum w x^2]]; the Newton step is solved in
    centred form, with m = sum w x / sum w and the weighted variance
    sum w (x - m)^2.  The iteration starts from the uniform levels at b = 0
    (t = ln L, alpha = h(ln L)).

    A step is first tried as one Newton step on the joint system in alpha,
    b and the t_i of the free levels: it evaluates h and kB h' once on the
    free levels and, with r_i = alpha + b x_i - h(t_i), solves the same
    centred system with g shifted to (sum p - 1 - sum w r, sum p x - sum w r x),
    then moves each t_i by (r_i + d_alpha + d_b x_i) / kB h'_i.  It is taken
    only as a full step, neither cut nor halved, that clamps or frees no
    level, keeps every t inside (_T_LO, _T_HI) and is smaller than the last
    joint step (each level's move in h relative to max(|h|, 1)).  Otherwise
    the levels are solved to 4 ulp at (alpha, b) by ``_invert_h``, unless
    they already are, and the step is tried from there as below, each
    trial's levels solved by ``_invert_h`` started at the last.

    A step that frees a level clamped at _P_HI is cut to land just past the
    first such clamp: the clamped level adds no curvature, so the full step
    overshoots there by about 10^4.  The step is then halved until it leaves
    two free levels at distinct energies and either lowers the residual
    |g_1| + |g_2| or, while that residual is above its rounding level, meets
    the Armijo condition on D with c = 1e-4 (below it, such steps would
    alternate at rounding level).  It stops once the step moves no level's
    target by more than 4 ulp of max(|target|, 1) and each level's own
    Newton step r_i / kB h'_i is within 4 ulp of max(t_i, 1), or once a
    first step fails to lower a residual already at rounding level; that
    last step, r included, is taken in p to first order.  A step halved to
    nothing, a last step that takes a p to 0 or below, or _JOINT_CAP
    iterations mean that no beta reaches the target on the clamped levels:
    SpecError.
    """
    span, eps, (h_lo, h_hi) = float(E.max() - E.min()), np.finfo(float).eps, ends[:2]
    x = (E - target) / span
    past = 1e-9 * max(1.0, abs(h_hi))  # where a cut step puts the first level it frees from _P_HI

    def state(alpha, b, p, t, w, resid):
        """The levels at (alpha, b) (b in their ``beta``), the residual, its rounding level, the Newton
        step, g and resid (alpha + b x - h(t)); None with fewer than two free levels at distinct energies."""
        free = x[w > 0]
        if not (free.size and free.min() < free.max()):
            return None
        sw = w.sum()
        m = float(w @ x) / sw
        var = float(w @ (x - m) ** 2)
        if not 0 < var < math.inf:  # rounded to 0, or w past the largest double
            return None
        wr = w * resid
        g1, g2 = p.sum() - 1.0 - wr.sum(), float(p @ x) - float(wr @ x)
        d_b = (g2 - m * g1) / var
        # rounding: t to a few ulp, each target alpha + b x_i to one, and the sums
        floor = 16 * eps * (E.size + float(p @ np.maximum(t, 1.0)) + float(w @ (abs(alpha) + abs(b * x))))
        return _Levels(alpha, b, p, t, w), abs(g1) + abs(g2), floor, (g1 / sw - m * d_b, d_b), (g1, g2), resid

    def joint(levels, h, a, b, move):
        """The levels at (a, b), each free t moved by its step in h over kB h', as one Newton step
        from levels at targets h; None where that clamps or frees a level or takes a t past the clamps."""
        target = a + b * x
        low, high = target >= h_lo, target <= h_hi
        free, t = ~(low | high), levels.t.copy()
        t[free] += move[free] * levels.w[free] / levels.p[free]
        if not (np.array_equal(low, h >= h_lo) and np.array_equal(high, h <= h_hi)
                and t[free].min() > _T_LO and t[free].max() < _T_HI):
            return None
        p, w, resid = levels.p.copy(), np.zeros(E.size), np.zeros(E.size)
        p[free], _, w[free], resid[free] = _free_levels(spec, t[free], target[free])
        return state(a, b, p, t, w, resid)

    def dual(levels, g):  # D(alpha, b)
        return spec.kB * float(levels.p @ spec.G(levels.t)) - levels.alpha * g[0] - levels.beta * g[1]

    def first_lam(levels, step):
        """1, or the share of the full step that takes the first level it frees from _P_HI past the clamp."""
        h = levels.alpha + levels.beta * x
        move = step[0] + step[1] * x
        freed = (h <= h_hi) & (h + move > h_hi)
        return min(1.0, float(np.min((h_hi + past - h[freed]) / move[freed]))) if freed.any() else 1.0

    exact = np.zeros(E.size)  # resid of levels solved to 4 ulp
    t = np.full(E.size, math.log(E.size))
    p = np.exp(-t)
    now = state(float(_stationarity(spec, t[:1])[0]), 0.0, p, t, p / (spec.kB * spec.dh(t)), exact)
    lam = lam0 = 1.0  # no uniform level is clamped
    d_now = None  # D at now, evaluated once a trial fails to lower the residual
    last = math.inf  # the size of the last joint step: inf after a trial, 0 after a level solve at now
    for _ in range(_JOINT_CAP if now else 0):
        levels, r, floor, step, g, resid = now
        d_alpha, d_b = lam * step[0], lam * step[1]
        h = levels.alpha + levels.beta * x
        move = d_alpha + d_b * x + resid  # each level's step in h
        scale = np.maximum(np.abs(h), 1.0)
        # within 4 ulp: the step in each target, and each level's own Newton step in t at its target
        if (np.all(np.abs(d_alpha + d_b * x) <= 4 * np.spacing(scale))
                and np.all(np.abs(resid) * levels.w <= 4 * np.spacing(np.maximum(levels.t, 1.0)) * levels.p)):
            if lam < lam0:
                break  # halved to nothing
        else:
            a, b = levels.alpha + d_alpha, levels.beta + d_b
            finite = math.isfinite(a) and math.isfinite(b)
            size = float(np.max(np.abs(move) / scale))
            trial = joint(levels, h, a, b, move) if finite and lam == 1 and size < last else None
            if trial is not None:
                now, last = trial, size
                continue
            if resid.any():  # the joint step is refused: solve the levels at now, and step from there
                now, last = state(levels.alpha, levels.beta, *_invert_h(spec, h, ends, levels.t), exact), 0.0
                if now is None:
                    break
                lam = lam0 = first_lam(now[0], now[3])
                continue
            trial = state(a, b, *_invert_h(spec, a + b * x, ends, levels.t), exact) if finite else None
            if trial is not None and trial[1] >= r:  # the residual did not fall: the Armijo test on D
                if r > floor and d_now is None:
                    d_now = dual(levels, g)
                descent = g[0] * step[0] + g[1] * step[1]  # -dD along the full step
                if r <= floor or dual(trial[0], trial[4]) > d_now - 1e-4 * lam * descent:
                    trial = None
            if trial is not None:
                now, d_now, last = trial, None, math.inf
                lam = lam0 = first_lam(now[0], now[3])
                continue
            if lam < lam0 or r > floor:
                lam /= 2
                continue
        p = levels.p - (step[0] + step[1] * x + resid) * levels.w  # the last step, in p to first order
        if not p.min() > 0:
            break  # the target lies past the clamps
        beta = (levels.beta + step[1]) / span
        return levels._replace(alpha=levels.alpha + step[0] - beta * target, beta=beta, p=p / p.sum())
    raise SpecError(f"no beta reaches the target energy {target!r} on the clamped levels")


def maxent_solve(problem: MaxEntProblem) -> MaxEntSolution:
    """Maximize the entropy under normalization and a mean-energy constraint.

    Uses the standard linear energy constraint.  Each probability solves the
    stationarity condition h(ln 1/p_i) = alpha + beta E_i, h = kB (G - G'),
    which needs a strictly monotone h (checked at solve time).  At fixed beta
    the levels and alpha are one Newton iteration (``_solve_fixed_beta``); in
    target-U mode the levels, alpha and beta are, damped on the convex dual
    (``_solve_target_U``).
    """
    spec = problem.spec
    if not spec.has_exponential:
        raise UnsupportedRepresentation(f"{spec.name} is not supported by the solver")
    ends = _check_monotone(spec)
    E = np.asarray(problem.energies, dtype=float)
    if problem.beta is None and not (E.min() < problem.target_U < E.max()):
        raise SpecError("target energy must lie strictly between the extreme levels")
    with np.errstate(over="ignore", invalid="ignore"):
        if problem.beta is not None:
            levels = _solve_fixed_beta(spec, E, problem.beta, ends)
        else:
            levels = _solve_target_U(spec, E, problem.target_U, ends)
    return _solution(spec, problem.energies, levels)


def legendre_residual(solution: MaxEntSolution, spec: Entropy) -> float:
    """|Log_G(Z) + beta U - S| for specs with a generalized logarithm."""
    if math.isnan(solution.Z):
        raise UnsupportedRepresentation(f"{spec.name} has no generalized logarithm")
    return abs(
        spec.kB * float(spec.generalized_log(solution.Z))
        + solution.beta * solution.U
        - solution.S
    )


@dataclass(frozen=True)
class ThermoRow:
    beta: float
    U: float
    S: float
    T: float | None
    free_energy: float | None


def temperature_table(spec: Entropy, energies, betas) -> list[ThermoRow]:
    """(U, S, T, F) along a beta grid; T = dU/dS by central differences."""
    betas = list(betas)
    if len(betas) < 3:
        raise SpecError("need at least three grid points for central differences")
    sols = [maxent_solve(MaxEntProblem(spec, tuple(energies), beta=b)) for b in betas]
    rows = []
    for i, sol in enumerate(sols):
        if 0 < i < len(sols) - 1:
            dU = sols[i + 1].U - sols[i - 1].U
            dS = sols[i + 1].S - sols[i - 1].S
            T = dU / dS if dS != 0 else math.nan
            F = sol.U - T * sol.S
        else:
            T = F = None
        rows.append(ThermoRow(sol.beta, sol.U, sol.S, T, F))
    return rows


@dataclass(frozen=True)
class ScanRow:
    label: str
    family: str  # "(ln W)^a" or "W^b"
    exponent: float
    values: list


def asymptotic_scan(
    specs: dict[str, Entropy],
    W_max: float = 1e12,
    points: int = 13,
) -> list[ScanRow]:
    """S(uniform W) on a log-spaced W grid, with a fitted growth classification.

    The growth family is chosen by least-squares fit quality on the top half
    of the grid: log S against log ln W (poly-log growth) versus log S
    against log W (power growth).  S must be positive and finite there, or
    SpecError names the spec.  Both lines fit two points exactly, so the top
    half needs three points, and the grid five.
    """
    if not (points >= 5 and 1 < W_max < math.inf):
        raise SpecError("a scan needs at least five points (three on the fitted half) "
                        "and a finite W_max > 1")
    Ws = np.geomspace(10.0, W_max, points)
    rows = []
    for label, spec in specs.items():
        vals = np.array([microcanonical(spec, float(W)) for W in Ws])
        top = slice(points // 2, None)
        if not np.all((vals[top] > 0) & (vals[top] < math.inf)):
            raise SpecError(f"{label}: S(uniform W) is not positive and finite "
                            "on the fitted half of the scan grid")
        y = np.log(vals[top])
        x_poly = np.log(np.log(Ws[top]))
        x_pow = np.log(Ws[top])
        a, res_a = _fit_slope(x_poly, y)
        b, res_b = _fit_slope(x_pow, y)
        if res_a <= res_b:
            rows.append(ScanRow(label, "(ln W)^a", a, list(zip(Ws, vals))))
        else:
            rows.append(ScanRow(label, "W^b", b, list(zip(Ws, vals))))
    return rows


def _fit_slope(x: np.ndarray, y: np.ndarray) -> tuple[float, float]:
    coeffs, residuals, *_ = np.polyfit(x, y, 1, full=True)
    res = float(residuals[0]) if len(residuals) else 0.0
    return float(coeffs[0]), res
