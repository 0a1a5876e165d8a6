"""Extensivity, microcanonical entropy, canonical MaxEnt, and scans.

The occupation law W(N) = exp(F(N)) is the phase-space growth for which a
given entropy is extensive on uniform distributions.  The extensivity check
works in log space (directly on F(N)), so huge state counts such as e^1000
never have to be materialized as floats; a rounded-W variant is reported
separately for ranges where W fits in a double.

Canonical MaxEnt solves the stationarity condition h(ln 1/p_i) = alpha +
beta E_i, h = kB (G - G'), with one safeguarded array Newton iteration
(``catalog._newton``) and exact slopes from ``Entropy.dh``: every level at once in
t = ln 1/p (levels clamped to [_P_LO, _P_HI] are masked and never
evaluated), and alpha on -ln sum p.  In target-U mode alpha and beta are one
damped Newton iteration on (sum p - 1, sum p E - target), whose 2 x 2
Jacobian is the Hessian of the convex MaxEnt dual; where it cannot move,
beta is solved on the shortfall target - U instead, in a bracket
``catalog._bracket`` grows from [0, 1] or [-1, 0].  Each solve is
warm-started from the one before.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .catalog import (
    Distribution,
    Entropy,
    InverseError,
    SpecError,
    UnsupportedRepresentation,
    _bracket,
    _newton,
)

brentq = None  # never called: benchmark/spans.py wraps thermo.brentq by name, so it stays bound
_MAX_EXP = 700.0  # exp() overflow guard


@dataclass(frozen=True)
class OccupationLaw:
    spec: Entropy
    valid: bool
    reason: str = ""
    ln_W: tuple[float, ...] = ()  # ln W(N) for N = 0, 1, ... as far as checked

    def log_W(self, N: float) -> float:
        return float(self.spec.F(N))

    def W(self, N: float) -> float:
        lw = self.log_W(N)
        if lw > _MAX_EXP:
            return math.inf
        return math.exp(lw)


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
    w_round = [max(1.0, round(math.exp(v))) for v in fits]
    r_resid = np.abs(kB * spec.G(np.array([math.log(w) for w in w_round])) - kB * N[:len(fits)])
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
_T_LO, _T_HI = -np.log(_P_HI), -np.log(_P_LO)  # t = ln 1/p at the clamps
# where h is checked for monotonicity: 64 points from _T_HI down to _T_LO spaced evenly in t, and
# 16 more spaced evenly in ln t over the last gap (_T_LO, 0.55), where h' may change sign near p = 1;
# built in Python floats, as numpy's geomspace would add half a megabyte to every import
_T_GAP = (_T_HI - _T_LO) / 63
_T_GRID = np.array([_T_HI - k * _T_GAP for k in range(63)]
                   + [_T_GAP * (_T_LO / _T_GAP) ** (j / 17) for j in range(1, 17)] + [_T_LO])
_REACH = 2.0 ** 200  # the alpha bracket is clipped to [-_REACH, _REACH]


def _stationarity(spec: Entropy, t):
    """kB (G(t) - G'(t)) at t = ln 1/p: d/dp of the per-state term kB p G(ln 1/p)."""
    return spec.kB * (spec.G(t) - spec.dG(t))


def _check_monotone(spec: Entropy) -> tuple:
    """Check that h = kB (G - G') falls as p rises; returns h at _P_LO and _P_HI, then kB h' there.

    h is sampled on _T_GRID, and kB h' must be positive at both ends.
    """
    vals = _stationarity(spec, _T_GRID)
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


def _solve_fixed_beta(spec: Entropy, E: np.ndarray, beta: float, ends: tuple,
                      start: _Levels | None = None) -> _Levels:
    """alpha, by Newton on -ln sum p, and the levels it normalizes at beta.

    The slope of -ln sum p in alpha is sum w / sum p.  ``start``, the levels at
    a nearby beta, gives the first t and, to first order, the first alpha.
    """
    h_lo, h_hi = ends[:2]
    bE = beta * E
    if start is None:  # t of the Gibbs weights, and the alpha that fits the lowest level to it,
        # or frees that level from _P_HI: -ln sum p has a kink where the level clamps
        low = int(np.argmin(bE))
        t = bE - bE[low] + math.log(np.exp(bE[low] - bE).sum())
        alpha = max(float(_stationarity(spec, t[low:low + 1])[0] - bE[low]),
                    np.nextafter(h_hi - bE[low], math.inf))
    else:
        t, alpha, w = start.t, start.alpha, start.w
        if w.sum() > 0:
            alpha -= (beta - start.beta) * float(w @ E) / float(w.sum())

    def sums(a: float, t_start):
        p, t, w = _invert_h(spec, a + bE, ends, t_start)
        s = p.sum()
        return -math.log(s), float(w.sum()) / s, (p, t, w)

    # every level is clamped at _P_HI below the bracket and at _P_LO above it
    lo, hi = max(h_hi - bE.max(), -_REACH), min(h_lo - bE.min(), _REACH)
    (f_lo, d_lo, _), (f_hi, d_hi, _) = sums(lo, t), sums(hi, t)
    if not f_lo <= 0 <= f_hi:
        raise SpecError(f"no alpha normalizes the clamped levels at beta = {beta!r}")
    last = None  # alpha and the levels of the last evaluation

    def fdf(a, _):
        nonlocal last
        f, d, levels = sums(float(a[0]), t if last is None else last[1][1])
        last = float(a[0]), levels
        return np.array([f]), np.array([d])

    (alpha,), _ = _newton(fdf, np.array([[[lo], [hi]], [[f_lo], [f_hi]], [[d_lo], [d_hi]]]), [alpha])
    a_last, (p, t, w) = last
    p = p - (alpha - a_last) * w  # the last step, taken in p to first order
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


_JOINT_CAP = 100  # level solves before the joint iteration gives way to the bracketed one


def _solve_target_U(spec: Entropy, E: np.ndarray, target: float, ends: tuple) -> _Levels:
    """The levels whose mean energy is target, by damped Newton on (alpha, beta) jointly.

    Energies and alpha are taken at the target: the levels solve
    h = alpha + beta (E - target), so that on a spectrum far from 0 neither
    the targets nor the residual cancel.  The residual
    g = (sum p - 1, sum p (E - target)) has the Jacobian
    -[[sum w, sum w E], [sum w E, sum w E^2]] in these E, the Hessian of the
    convex MaxEnt dual; its step is solved in centred form, with
    m = sum w E / sum w and the weighted variance sum w (E - m)^2.  The
    iteration starts from the uniform levels at beta = 0 (t = ln L,
    alpha = h(ln L)), and each iterate's levels come from ``_invert_h``
    started at the last.  A step is halved until it lowers
    |g_1| + |g_2| / (E_max - E_min) and leaves two free levels at distinct
    energies, so a positive variance.  It stops once the step moves no
    level's target alpha + beta (E - target) by more than 4 ulp of
    max(|target|, 1), which holds however small beta's scale is, or once a
    full step fails to lower a residual that is already at rounding level;
    that last step is taken in p to first order.  Where no step can move
    (fewer than two free levels, a variance past the largest double, no
    halving lowers the residual, or _JOINT_CAP level solves), the bracketed
    beta solve takes over: it reaches targets the joint steps do not, some
    with levels at the clamps and some near an extreme level, where one
    level holds p near 1.
    """
    span, eps = float(E.max() - E.min()), np.finfo(float).eps
    dE = E - target  # alpha is taken at the target: on E far from 0, alpha + beta E would cancel

    def state(alpha, beta, p, t, w):
        """The levels at (alpha, beta) with their residual, its rounding level and the Newton step;
        None with fewer than two free levels at distinct energies."""
        free = dE[w > 0]
        if not (free.size and free.min() < free.max()):
            return None
        sw = w.sum()
        m = float(w @ dE) / sw
        var = float(w @ (dE - m) ** 2)
        if not 0 < var < math.inf:  # past the largest double, every step would round to 0
            return None
        g1, g2 = p.sum() - 1.0, float(p @ dE)
        d_beta = (g2 - m * g1) / var
        # rounding: t to a few ulp, each target alpha + beta E_i to one, and the sums
        floor = 16 * eps * (E.size + float(p @ np.maximum(t, 1.0)) + float(w @ (abs(alpha) + abs(beta * dE))))
        return _Levels(alpha, beta, p, t, w), abs(g1) + abs(g2) / span, floor, (g1 / sw - m * d_beta, d_beta)

    t = np.full(E.size, math.log(E.size))
    p = np.exp(-t)
    now, lam = state(float(_stationarity(spec, t[:1])[0]), 0.0, p, t, p / (spec.kB * spec.dh(t))), 1.0
    for _ in range(_JOINT_CAP if now else 0):
        levels, r, floor, step = now
        d_alpha, d_beta = lam * step[0], lam * step[1]
        h = levels.alpha + levels.beta * dE
        if np.all(np.abs(d_alpha + d_beta * dE) <= 4 * np.spacing(np.maximum(np.abs(h), 1.0))):
            if lam < 1.0:
                break  # halved to nothing: no step lowers the residual
            return _last_step(levels, dE, target, *step)
        a, b = levels.alpha + d_alpha, levels.beta + d_beta
        finite = math.isfinite(a) and math.isfinite(b)
        trial = state(a, b, *_invert_h(spec, a + b * dE, ends, levels.t)) if finite else None
        if trial is not None and trial[1] < r:
            now, lam = trial, 1.0
        elif lam == 1.0 and r <= floor:
            return _last_step(levels, dE, target, *step)
        else:
            lam /= 2
    return _solve_target_U_bracketed(spec, E, target, ends)


def _last_step(levels: _Levels, dE: np.ndarray, target: float, d_alpha: float, d_beta: float) -> _Levels:
    """The levels after a last (alpha, beta) step, taken in p to first order, with p normalized.

    alpha is taken at the target, with dE = E - target; the alpha returned is taken at E = 0.
    """
    p = levels.p - (d_alpha + d_beta * dE) * levels.w
    beta = levels.beta + d_beta
    return levels._replace(alpha=levels.alpha + d_alpha - beta * target, beta=beta, p=p / p.sum())


def _solve_target_U_bracketed(spec: Entropy, E: np.ndarray, target: float, ends: tuple) -> _Levels:
    """The levels whose mean energy is target, by Newton on the shortfall target - U(beta).

    ``_solve_target_U`` hands its problem here where its joint steps cannot
    move.  Newton runs on b = beta (E_max - E_min), so that its 4-ulp stop is
    relative to the spectrum's scale.  The shortfall's slope in beta is
    -dU/dbeta = sum w E^2 - (sum w E)^2 / sum w, a variance, kept at 0 or
    above where rounding would take it below.  U(0) is the mean level; the
    sign of target - U(0) as solved (the mean may round to the other side)
    picks the bracket [0, 1] or [-1, 0] of b, and ``_bracket`` grows it.
    Each fixed-beta solve starts from the one before.
    """
    last = None
    span = float(E.max() - E.min())

    def fdf(b, _):
        nonlocal last
        last = _solve_fixed_beta(spec, E, float(b[0]) / span, ends, last)
        w = last.w
        slope = max(0.0, float(w @ E ** 2 - (w @ E) ** 2 / w.sum())) if w.sum() > 0 else 0.0
        return np.array([target - float(last.p @ E)]), np.array([slope / span])

    bracket = np.zeros((3, 2, 1))
    bracket[1:, 0] = fdf(bracket[0, 0], None)
    up = int(bracket[1, 0, 0] < 0)  # U(0) lies above the target: beta > 0, and 0 stays the low end
    bracket[:, 1 - up], bracket[0, up] = bracket[:, 0], 2 * up - 1
    bracket[1:, up] = fdf(bracket[0, up], None)
    if _bracket(fdf, bracket)[0]:
        raise SpecError(f"no beta reaches the target energy {target!r} on the clamped levels")
    _newton(fdf, bracket)
    return last  # beta's last step, within 4 ulp, is not solved again


def maxent_solve(problem: MaxEntProblem) -> MaxEntSolution:
    """Maximize the entropy under normalization and a mean-energy constraint.

    Uses the standard linear energy constraint.  Each probability solves the
    stationarity condition h(ln 1/p_i) = alpha + beta E_i, h = kB (G - G'),
    which needs a strictly monotone h (checked at solve time).  The levels
    and alpha are each found by ``_newton``; in target-U mode alpha and beta
    are one joint Newton iteration, with the bracketed beta solve behind it.
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
