"""Extensivity, microcanonical entropy, canonical MaxEnt, and scans.

The occupation law W(N) = exp(F(N)) is the phase-space growth for which a
given entropy is extensive on uniform distributions.  The extensivity check
works in log space (directly on F(N)), so huge state counts such as e^1000
never have to be materialized as floats; a rounded-W variant is reported
separately for ranges where W fits in a double.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from scipy.optimize import brentq

from .catalog import Distribution, Entropy, SpecError, UnsupportedRepresentation, solve_increasing

_MAX_EXP = 700.0  # exp() overflow guard


@dataclass(frozen=True)
class OccupationLaw:
    spec: Entropy
    valid: bool
    reason: str = ""
    ln_W: tuple[float, ...] = ()  # ln W(N) for N = 0, 1, ... as far as checked

    def log_W(self, N: float) -> float:
        return float(self.spec.F(N / self.spec.kB))

    def W(self, N: float) -> float:
        lw = self.log_W(N)
        if lw > _MAX_EXP:
            return math.inf
        return math.exp(lw)


def occupation_law(spec: Entropy, N_max: int = 100) -> OccupationLaw:
    """Build W(N) = exp(F(N)) and test admissibility on 0..N_max.

    Admissible means: F defined and finite on the whole range, W(0) = 1,
    W strictly increasing and unbounded-looking (F increasing).
    """
    if not spec.has_exponential:
        raise UnsupportedRepresentation(f"{spec.name} has no group exponential")
    if N_max < 0:
        raise SpecError(f"N_max must be nonnegative, got {N_max}")
    ln_W = []
    for N in range(0, N_max + 1):
        try:
            lw = float(spec.F(N / spec.kB))
        except (ValueError, SpecError, ZeroDivisionError, OverflowError):
            return OccupationLaw(spec, False, f"F undefined at N={N}", tuple(ln_W))
        if not math.isfinite(lw):
            return OccupationLaw(spec, False, f"F not finite at N={N}", tuple(ln_W))
        if N == 0 and lw != 0.0:
            return OccupationLaw(spec, False, "W(0) != 1", tuple(ln_W))
        if ln_W and lw <= ln_W[-1]:
            return OccupationLaw(spec, False, f"W not increasing at N={N}", tuple(ln_W))
        ln_W.append(lw)
    return OccupationLaw(spec, True, "", tuple(ln_W))


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
    worst = 0.0
    worst_rounded = None
    rows = []
    for N in range(1, N_max + 1):
        lw = law.ln_W[N]
        s = spec.kB * float(spec.G(lw))
        resid = abs(s - spec.kB * N)
        worst = max(worst, resid)
        r_resid = None
        if lw < _MAX_EXP:
            w_round = max(1.0, round(math.exp(lw)))
            s_round = spec.kB * float(spec.G(math.log(w_round)))
            r_resid = abs(s_round - spec.kB * N)
            worst_rounded = max(worst_rounded or 0.0, r_resid)
        rows.append((N, lw, s, resid, r_resid))
    return ExtensivityReport(worst, worst_rounded, rows)


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


def _stationarity(spec: Entropy, p: float) -> float:
    """d/dp of the per-state contribution p G(ln 1/p), times kB."""
    t = -math.log(p)
    return spec.kB * (float(spec.G(t)) - float(spec.dG(t)))


def _check_monotone(spec: Entropy) -> None:
    grid = np.geomspace(_P_LO, _P_HI, 64)
    vals = [_stationarity(spec, float(x)) for x in grid]
    diffs = np.diff(vals)
    if not np.all(diffs < 0):
        raise UnsupportedRepresentation(
            f"{spec.name}: stationarity function is not strictly monotone"
        )


def _invert_h(spec: Entropy, target: float, h_lo: float, h_hi: float) -> float:
    """Solve h(p) = target on [_P_LO, _P_HI], where h falls from h_lo to h_hi."""
    if target >= h_lo:
        return _P_LO
    if target <= h_hi:
        return _P_HI
    # h_lo and h_hi are h at the ends, so brentq need not evaluate them again
    ends = {_P_LO: h_lo - target, _P_HI: h_hi - target}
    return float(
        brentq(
            lambda p: ends[p] if p in ends else _stationarity(spec, p) - target,
            _P_LO,
            _P_HI,
            xtol=1e-16,
            rtol=8.9e-16,
            maxiter=200,
        )
    )


def _solve_fixed_beta(spec: Entropy, energies, beta: float) -> MaxEntSolution:
    h_lo, h_hi = _stationarity(spec, _P_LO), _stationarity(spec, _P_HI)

    def total_p(alpha: float) -> float:
        return sum(_invert_h(spec, alpha + beta * e, h_lo, h_hi) for e in energies)

    alpha = solve_increasing(lambda a: 1.0 - total_p(a), -1.0, 1.0, 1e-14,
                             f"no alpha normalizes the clamped levels at beta = {beta!r}")
    p = np.array([_invert_h(spec, alpha + beta * e, h_lo, h_hi) for e in energies])
    p = p / p.sum()  # remove the last normalization rounding
    dist = Distribution(p)
    U = float(np.dot(p, energies))
    S = spec.evaluate(dist)
    resid = max(
        abs(_stationarity(spec, float(pi)) - (alpha + beta * e))
        for pi, e in zip(p, energies)
    )
    Z = _partition_value(spec, energies, beta)
    return MaxEntSolution(dist, alpha, beta, Z, U, S, resid)


def _partition_value(spec: Entropy, energies, beta: float) -> float:
    """sum_i E(-beta E_i), or nan where the log inverse does not exist there."""
    try:
        return float(sum(spec.log_inverse(-beta * e) for e in energies))
    except SpecError:
        return math.nan


def maxent_solve(problem: MaxEntProblem) -> MaxEntSolution:
    """Maximize the entropy under normalization and a mean-energy constraint.

    Uses the standard linear energy constraint.  Each probability comes from
    monotone inversion of the per-state stationarity function; the spec must
    have a strictly monotone one (checked at solve time).
    """
    spec = problem.spec
    if not spec.has_exponential:
        raise UnsupportedRepresentation(f"{spec.name} is not supported by the solver")
    _check_monotone(spec)
    if problem.beta is not None:
        return _solve_fixed_beta(spec, problem.energies, problem.beta)

    target = problem.target_U
    e_min, e_max = min(problem.energies), max(problem.energies)
    if not (e_min < target < e_max):
        raise SpecError("target energy must lie strictly between the extreme levels")

    def shortfall(beta: float) -> float:
        return target - _solve_fixed_beta(spec, problem.energies, beta).U

    beta = solve_increasing(shortfall, -1.0, 1.0, 1e-12,
                            f"no beta reaches the target energy {target!r} on the clamped levels")
    return _solve_fixed_beta(spec, problem.energies, beta)


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
    SpecError names the spec.
    """
    if not (points >= 1 and 1 < W_max < math.inf):
        raise SpecError("a scan needs at least one point and a finite W_max > 1")
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
