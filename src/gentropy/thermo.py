"""Extensivity, microcanonical entropy, canonical MaxEnt, and scans.

The occupation law W(N) = exp(F(N)) is the phase-space growth for which a
given entropy is extensive on uniform distributions.  The extensivity check
works in log space (directly on F(N)), so huge state counts such as e^1000
never have to be materialized as floats; a rounded-W variant is reported
separately for ranges where W fits in a double.

Canonical MaxEnt solves the stationarity condition h(ln 1/p_i) = alpha +
beta E_i, h = kB (G - G'), with exact slopes from ``Entropy.dh``, by one
Newton iteration (``_joint_solve``) on h(t_i) = alpha + b x_i in alpha, b
and every level's t = ln 1/p, with sum p = 1 and, for a target mean energy,
sum p x = 0.  At fixed beta, x = beta (E - E_0), E_0 the level of least
beta E, and b = 1 is held; at a target U*, x = (E - U*) / span and
b = beta span is free, starting from b = 0.  Holding b changes the Newton
step only; the start (the Gibbs weights at the first b), the safeguards and
the stop are one rule set.  Each step evaluates h once and eliminates the
free levels (levels clamped to [_P_LO, _P_HI] are set to the clamp), which
leaves the step in alpha and b in closed form.  Where such a joint step is
refused, the levels are solved to 4 ulp (``catalog._newton``, elementwise)
and the step is cut at the _P_HI clamp and halved until it lowers the
residual or, above its rounding level, the convex MaxEnt dual.  Each rule
is pinned by a bit, a count or a refusal in the tests (see the README).  A
target that no beta reaches on the clamped levels raises SpecError.
"""

from __future__ import annotations

import functools
import math
import sys
from typing import NamedTuple

from ._lazy import np
from .catalog import (
    Distribution,
    Entropy,
    InverseError,
    SpecError,
    UnsupportedRepresentation,
    _exp,
    _newton,
)

brentq = None  # never called: benchmark/spans.py wraps thermo.brentq by name, so it stays bound
_MAX_EXP = 700.0  # the rounded-W rows of extensivity_check stop here


class OccupationLaw(NamedTuple):
    spec: Entropy
    valid: bool
    reason: str = ""
    ln_W: tuple[float, ...] = ()  # ln W(N) for N = 0, 1, ... as far as checked

    def W(self, N: float) -> float:
        return _exp(self.spec.F(N))


def occupation_law(spec: Entropy, N_max: int = 100) -> OccupationLaw:
    """Build W(N) = exp(F(N)) and test admissibility on 0..N_max.

    Admissible means: F defined and finite on the whole range, W(0) = 1,
    W strictly increasing and unbounded-looking (F increasing).  F is taken
    over the whole range in one call; ``reason`` names the first N that
    fails, and ``ln_W`` holds the values before it.

    The spec keeps ``(N_max, reason, ln_W)`` as ``_occupation``, so a later
    call with the same N_max (``extensivity_check``'s) solves no F; another
    N_max replaces it.  It keeps no ``OccupationLaw``, whose reference back
    would make a cycle.
    """
    if not spec.has_exponential:
        raise UnsupportedRepresentation(f"{spec.name} has no group exponential")
    if N_max < 0:
        raise SpecError(f"N_max must be nonnegative, got {N_max}")
    if getattr(spec, "_occupation", (None,))[0] != N_max:
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
        spec._occupation = N_max, reason, tuple(ln_W.tolist())
    _, reason, ln_W = spec._occupation
    return OccupationLaw(spec, not reason, reason, ln_W)


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


class _ExtensivityReport(NamedTuple):
    max_residual: float
    max_residual_rounded: float | None
    rows: list | None = None


class ExtensivityReport(_ExtensivityReport):
    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        report = super().__new__(cls, *args, **kwargs)
        return report if report.rows is not None else report._replace(rows=[])  # a new list per report


def extensivity_check(spec: Entropy, N_max: int) -> ExtensivityReport:
    """max |S(uniform over W(N)) - kB N| over N = 1..N_max, in log space.

    The primary check uses the real-valued W(N); a rounded-W variant is
    evaluated wherever W fits in a double.  W(N) must be admissible on all of
    0..N_max, or SpecError is raised.  The law is ``occupation_law(spec,
    N_max)``, so a law the caller has built for N_max is read, not solved again.
    """
    law = occupation_law(spec, N_max)
    if not law.valid:
        raise SpecError(f"occupation law not admissible: {law.reason}")
    kB, N = spec.kB, np.arange(1, N_max + 1)
    lw = np.array(law.ln_W[1:])
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


class _MaxEntProblem(NamedTuple):
    spec: Entropy
    energies: tuple[float, ...]
    beta: float | None = None  # fixed-multiplier mode
    target_U: float | None = None  # fixed-energy mode


class MaxEntProblem(_MaxEntProblem):
    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        problem = super().__new__(cls, *args, **kwargs)
        if len(problem.energies) < 2:
            raise SpecError("need at least two energy levels")
        if not all(math.isfinite(e) for e in problem.energies):
            raise SpecError("energies must be finite")
        if (problem.beta is None) == (problem.target_U is None):
            raise SpecError("specify exactly one of beta or target_U")
        if not math.isfinite(problem.target_U if problem.beta is None else problem.beta):
            raise SpecError("beta and target_U must be finite")
        return problem


class MaxEntSolution(NamedTuple):
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


_JOINT_CAP = 200  # steps, joint or through a level solve, before the target counts as out of reach


def _joint_solve(spec: Entropy, x: np.ndarray, ends: tuple, b: float, ground: int, held: bool) -> _Levels | None:
    """The levels that solve h(t_i) = alpha + b x_i, sum p = 1 and, unless b is held, sum p x = 0.

    Newton on the MaxEnt dual D(alpha, b) = kB sum p G(t) - alpha (sum p - 1)
    - b sum p x, convex with p clamped to [_P_LO, _P_HI]: g = (sum p - 1,
    sum p x) is minus its gradient, and [[sum w, sum w x], [sum w x,
    sum w x^2]], w = p / kB h', its Hessian.  Whether b is held is read only
    where the Newton step is formed: with b free it is solved in centred form
    (m = sum w x / sum w, variance sum w (x - m)^2) and the residual is
    |g_1| + |g_2|; with b held, d_b = 0, d_alpha = g_1 / sum w (0 where
    every level is clamped and sum p = 1) and the residual is |g_1|.  Every
    other rule below holds in both modes.

    The start is the Gibbs weights at b on x, t = b x + ln sum e^(-b x)
    clipped to the clamps, with the alpha that fits level ``ground`` to its
    weight, but never so low that it clamps at _P_HI (sum p has a kink
    there).  A step is first tried jointly in alpha, b and the free levels'
    t: h and kB h' are evaluated once, the same system is solved with g
    shifted by the resid r = alpha + b x - h(t) to (g_1 - sum w r,
    g_2 - sum w r x), and each free t moves by (r_i + d_alpha + d_b x_i) /
    kB h'_i.  It is taken only as a full step that clamps or frees no level
    at _P_HI (the kink at _P_LO is negligible), keeps every free t in
    (_T_LO, _T_HI] and is smaller than the last joint step since a trial.
    Otherwise the levels are solved to 4 ulp by ``_invert_h`` and the step
    is tried jointly from there first, then as a trial, each trial's levels
    solved likewise.  A trial that frees a level from _P_HI is cut to land
    just past the clamp (the clamped level adds no curvature, so the full
    step overshoots there by about 10^4), and one that clamps a level there
    is cut to land just short of it (halved steps would approach a root
    there linearly).  The step is then halved until it has a Newton step
    (with b free, two free levels at distinct energies) and lowers the
    residual or, above its rounding level 16 eps L, lowers D (below it,
    such steps would alternate).

    Each target's scale is max(|alpha + b x_i|, 1).  The iteration stops
    once the step moves no target by more than 4 ulp of its scale and each
    level's r_i is within 4 ulp of it or its own Newton step
    r_i / kB h'_i within 4 ulp of max(t_i, 1), or once a first trial fails
    to lower a residual at rounding level; that last step, r included, is
    taken in p to first order.  A step halved to nothing, a last step that
    takes a p to 0 or below, or _JOINT_CAP iterations return None, and so
    does a start with no Newton step.

    Each rule is pinned by the bits of the CLI corpus or of 2,226 seeded
    problems and their 258 refusals (TestSeededMaxEntBits), by counts of h
    evaluations and level solves, or by a refusal; the README names which.
    """
    h_lo, h_hi = ends[:2]
    past = 1e-9 * max(1.0, abs(h_hi))  # where a cut step puts the first level it frees from _P_HI

    def state(alpha, b, p, t, w, resid):
        """The levels at (alpha, b) (b in their ``beta``), the residual, the Newton step and resid
        (alpha + b x - h(t)); None where there is no Newton step."""
        sw = w.sum()
        wr = w * resid
        g1 = p.sum() - 1.0 - wr.sum()
        if held:
            if not (sw > 0 or g1 == 0):  # with every level clamped, the step is 0 where sum p = 1
                return None
            return _Levels(alpha, b, p, t, w), abs(g1), (g1 / sw if sw > 0 else 0.0, 0.0), resid
        free = x[w > 0]
        if not (free.size and free.min() < free.max()):
            return None
        m = float(w @ x) / sw
        var = float(w @ (x - m) ** 2)
        if not var > 0:  # rounded to 0, or nan where w is past the largest double
            return None
        g2 = float(p @ x) - float(wr @ x)
        d_b = (g2 - m * g1) / var
        return _Levels(alpha, b, p, t, w), abs(g1) + abs(g2), (g1 / sw - m * d_b, d_b), resid

    def settle(alpha, b, target, t, h_t, low, high):
        """``state`` of the levels at t as if free, with h(t) = h_t, and then those past h's range
        clamped: at _P_LO where the target is at least h_lo, at _P_HI where it is at most h_hi."""
        p = np.exp(-t)
        w, resid = p / (spec.kB * spec.dh(t)), target - h_t
        clamped = low | high
        p[low], p[high] = _P_LO, _P_HI
        w[clamped] = resid[clamped] = 0.0
        return state(alpha, b, p, t, w, resid)

    def joint(levels, h, a, b, move):
        """The levels at (a, b), each free t moved by its step in h over kB h', as one Newton step
        from levels at targets h; None where that clamps or frees a level at _P_HI or takes a free t
        past the clamps."""
        target = a + b * x
        low, high = target >= h_lo, target <= h_hi
        t = np.where(low, _T_HI, levels.t + move * levels.w / levels.p)
        if np.count_nonzero(high != (h <= h_hi)) or np.count_nonzero(~(low | high) & ((t <= _T_LO) | (t > _T_HI))):
            return None
        return settle(a, b, target, t, _stationarity(spec, t), low, high)

    def dual(levels):  # D(alpha, b) on levels solved to 4 ulp
        p = levels.p
        return spec.kB * float(p @ spec.G(levels.t)) - levels.alpha * (p.sum() - 1.0) - levels.beta * float(p @ x)

    def first_lam(h, step):
        """1, or the share of the full step that takes the first level it frees from or clamps at _P_HI
        to just on the free side of the clamp."""
        move = step[0] + step[1] * x
        cross = ((h <= h_hi) & (h + move > h_hi)) | ((h > h_hi + past) & (h + move < h_hi + past))
        return min(1.0, float(np.min((h_hi + past - h[cross]) / move[cross]))) if cross.any() else 1.0

    t = np.clip(b * x + math.log(np.exp(-b * x).sum()), _T_LO, _T_HI)
    h_t = _stationarity(spec, t)
    alpha = max(float(h_t[ground]), math.nextafter(h_hi, math.inf))
    target = alpha + b * x
    low = target >= h_lo  # and no level clamps at _P_HI
    t[low] = _T_HI
    now = settle(alpha, b, target, t, h_t, low, np.zeros(x.size, bool))
    exact = np.zeros(x.size)  # resid of levels solved to 4 ulp
    lam = lam0 = 1.0  # the start clamps no level at _P_HI
    last = math.inf  # the size of the last joint step, inf after a trial
    floor = 16 * _EPS * x.size  # the residual's rounding level
    for _ in range(_JOINT_CAP if now else 0):
        levels, r, step, resid = now
        h = levels.alpha + levels.beta * x
        d_alpha, d_b = lam * step[0], lam * step[1]
        d_h = d_alpha + d_b * x  # the step in each target
        scale = np.maximum(np.abs(h), 1.0)
        tol = 4 * np.spacing(scale)  # nan at an infinite target, which no step exceeds
        if not (np.count_nonzero(np.abs(d_h) > tol) or np.count_nonzero(
                (np.abs(resid) > tol)
                & (np.abs(resid) * levels.w > 4 * np.spacing(np.maximum(levels.t, 1.0)) * levels.p))):
            if lam < lam0:
                break  # halved to nothing
        else:
            move = d_h + resid  # each level's step in h
            a, b = levels.alpha + d_alpha, levels.beta + d_b
            size = float((np.abs(move) / scale).max())
            trial = joint(levels, h, a, b, move) if lam == 1 and size < last else None
            if trial is not None:
                now, last = trial, size
                continue
            if resid.any():  # the joint step is refused: solve the levels at now, and step from there
                now = state(levels.alpha, levels.beta, *_invert_h(spec, h, ends, levels.t), exact)
                if now is None:
                    break
                lam = lam0 = first_lam(h, now[2])
                continue
            target = a + b * x
            trial = state(a, b, *_invert_h(spec, target, ends, levels.t), exact)
            if trial is not None and trial[1] >= r and (r <= floor or dual(trial[0]) > dual(levels)):
                trial = None  # the residual did not fall, and at rounding level or D did not either
            if trial is not None:
                now, last = trial, math.inf
                lam = lam0 = first_lam(target, now[2])
                continue
            if lam < lam0 or r > floor:
                lam /= 2
                continue
        p = levels.p - (step[0] + step[1] * x + resid) * levels.w  # the last step, in p to first order
        if not p.min() > 0:
            break  # the system has no solution on the clamped levels
        return levels._replace(alpha=levels.alpha + step[0], beta=levels.beta + step[1], p=p / p.sum())
    return None


def _solve_fixed_beta(spec: Entropy, E: np.ndarray, beta: float, ends: tuple) -> _Levels:
    """alpha and the levels it normalizes at beta: ``_joint_solve`` on x = beta (E - E_0) with b = 1 held.

    E_0, the ground level, has the least beta E, so every x_i >= 0 and the
    loop's alpha' = alpha + beta E_0 lies in [h_hi, h_lo]: at h_hi the ground
    level clamps at _P_HI and no level lies below _P_LO, and at h_lo every
    level clamps at _P_LO.  x is capped at the largest double (its level
    clamps at _P_LO whatever alpha'), and is beta E - beta E_0 where E - E_0
    is past it.  The loop starts from the Gibbs weights at beta, with alpha'
    fitted to the ground level.  alpha = alpha' - beta E_0 is formed once,
    at the end.
    """
    ground = int(np.argmin(E) if beta >= 0 else np.argmax(E))
    gap = E - E[ground]  # infinite where the energies span more than the largest double
    x = np.minimum(np.where(np.isfinite(gap), beta * gap, beta * E - beta * E[ground]), sys.float_info.max)
    levels = _joint_solve(spec, x, ends, 1.0, ground, True)
    if levels is None:
        raise SpecError(f"no alpha normalizes the clamped levels at beta = {beta!r}")
    return levels._replace(alpha=levels.alpha - beta * E[ground], beta=beta)


def _solve_target_U(spec: Entropy, E: np.ndarray, target: float, ends: tuple) -> _Levels:
    """The levels whose mean energy is target: ``_joint_solve`` on x = (E - target) / span, with b free.

    With b = beta span, on a spectrum far from 0 neither the targets nor the
    residual cancel, and the weighted variance stays finite whatever the
    span; a span past the largest double is taken in halves, E / 2 over
    span / 2.  The loop starts from the uniform levels at b = 0.  Where it
    finds no solution, SpecError.
    """
    half = 0.5 if E.max() - E.min() == math.inf else 1.0
    span = float(half * E.max() - half * E.min())
    levels = _joint_solve(spec, (half * E - half * target) / span, ends, 0.0, 0, False)
    if levels is None:
        raise SpecError(f"no beta reaches the target energy {target!r} on the clamped levels")
    beta = half * levels.beta / span
    return levels._replace(alpha=levels.alpha - beta * target, beta=beta)


def _solution(spec: Entropy, energies: tuple, levels: _Levels) -> MaxEntSolution:
    p, alpha, beta = levels.p, levels.alpha, levels.beta
    dist = Distribution(p)
    # over the free levels, from alpha and beta: beta E past the largest double is inf on a clamped
    # level, and where alpha is -inf or inf (beta E_0 past it), the residual is nan
    with np.errstate(over="ignore", invalid="ignore"):
        resid = np.max(np.abs(_stationarity(spec, -np.log(p)) - (alpha + beta * np.asarray(energies))),
                       where=levels.w > 0, initial=0.0)
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


def maxent_solve(problem: MaxEntProblem) -> MaxEntSolution:
    """Maximize the entropy under normalization and a mean-energy constraint.

    Uses the standard linear energy constraint.  Each probability solves the
    stationarity condition h(ln 1/p_i) = alpha + beta E_i, h = kB (G - G'),
    which needs a strictly monotone h (checked at solve time).  The levels,
    alpha and beta are one Newton iteration on the convex dual
    (``_joint_solve``): at fixed beta with b = 1 held on x = beta (E - E_0),
    E_0 the ground level (``_solve_fixed_beta``), in target-U mode with b
    free on the energies in span units from the target (``_solve_target_U``).
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


class ThermoRow(NamedTuple):
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


class ScanRow(NamedTuple):
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
