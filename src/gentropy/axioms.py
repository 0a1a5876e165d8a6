"""Property checkers: SK axioms, composability, concavity, Lesche probe.

Each checker returns an AxiomReport.  Checks based on sufficient conditions
or empirical sampling never report "fail" for the axiom itself when the
condition merely fails to apply; they report "inconclusive" instead.  Every
randomized check is seeded and bit-reproducible.
"""

from __future__ import annotations

import math
from itertools import product
from typing import Callable, Iterator, NamedTuple, Sequence

from ._lazy import np
from .catalog import (
    BoltzmannGibbs,
    Distribution,
    DistributionError,
    Entropy,
    JointDistribution,
    UnsupportedRepresentation,
)

PASS = "pass"
FAIL = "fail"
INCONCLUSIVE = "inconclusive"


class _AxiomReport(NamedTuple):
    axiom: str
    verdict: str
    worst_residual: float
    witness: object = None
    trials: int = 0
    seed: int | None = None
    details: dict | None = None


class AxiomReport(_AxiomReport):
    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        report = super().__new__(cls, *args, **kwargs)
        if report.verdict == FAIL and report.witness is None:
            raise ValueError("a fail verdict requires a reproducible witness")
        return report if report.details is not None else report._replace(details={})  # a new dict per report


class _ParameterRegion(NamedTuple):
    intervals: dict[str, tuple[float, float]]
    resolution: int = 3


class ParameterRegion(_ParameterRegion):
    """Closed per-parameter intervals with a uniform sampling grid."""

    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        region = super().__new__(cls, *args, **kwargs)
        if not region.intervals or region.resolution < 1:
            raise ValueError("region must be nonempty with a positive grid")
        return region

    def grid(self) -> Iterator[dict[str, float]]:
        names = list(self.intervals)
        axes = []
        for name in names:
            lo, hi = self.intervals[name]
            # interior grid: avoid the open endpoints of claimed regions
            pts = np.linspace(lo, hi, self.resolution + 2)[1:-1]
            axes.append(pts)
        for combo in product(*axes):
            yield dict(zip(names, (float(v) for v in combo)))


def check_concavity_condition(a: Sequence) -> AxiomReport:
    """The coefficient inequality a_k > (k+1) a_{k+1}, all terms nonnegative.

    Sufficient only: a sequence that violates it is reported inconclusive,
    never fail.  An all-zero consecutive pair is accepted as the degenerate
    limit, so the BG sequence (1, 0, 0, ...) passes.  Fewer than two terms
    hold no inequality, which is inconclusive.
    """
    a = list(a)
    table = []
    ok = True
    for k, ak in enumerate(a):
        if ak < 0:
            ok = False
            table.append((k, "negative"))
            continue
        if k + 1 < len(a):
            nxt = a[k + 1]
            holds = ak > (k + 1) * nxt or (ak == 0 and nxt == 0)
            table.append((k, "ok" if holds else "strictness"))
            ok = ok and holds
    return AxiomReport(
        axiom="concavity-condition",
        verdict=PASS if ok and len(a) > 1 else INCONCLUSIVE,
        worst_residual=0.0,
        details={"per_k": table},
    )


def _second_derivative_closed(spec: Entropy, x: np.ndarray) -> np.ndarray:
    # d^2/dx^2 of x G(ln 1/x) is -h'(t)/x, free of the cancellation in G'' - G'
    return -spec.dh(-np.log(x)) / x


def _second_derivative_numeric(
    density: Callable[[np.ndarray], np.ndarray], x: np.ndarray
) -> np.ndarray:
    def s(v):
        return v * density(v)

    step = 1e-5
    d2 = (s(x + step) - 2.0 * s(x) + s(x - step)) / step ** 2
    # Richardson sanity: the halved step must agree to leading order
    h2 = step / 2.0
    d2h = (s(x + h2) - 2.0 * s(x) + s(x - h2)) / h2 ** 2
    refined = (4.0 * d2h - d2) / 3.0
    return refined


def check_concavity_numeric(spec: Entropy) -> AxiomReport:
    """Sign of the second derivative of x -> x g(x) on a log grid in (0, 1).

    The grid is fixed: 400 geometric points from 1e-8 to 1 - 1e-8.  Central
    differences, used where no closed form exists, keep only the points in
    (1e-4, 1 - 1e-4).
    """
    x = np.geomspace(1e-8, 1.0 - 1e-8, 400)
    try:
        d2 = _second_derivative_closed(spec, x)
        method = "closed-form"
    except UnsupportedRepresentation:
        inner = x[(x > 1e-4) & (x < 1 - 1e-4)]  # keep finite differences stable
        x = inner
        d2 = _second_derivative_numeric(spec.density, x)
        method = "central-differences"
    worst_idx = int(np.argmax(d2))
    worst = float(d2[worst_idx])
    verdict = PASS if worst < 0 else FAIL
    return AxiomReport(
        axiom="concavity-numeric",
        verdict=verdict,
        worst_residual=max(0.0, worst),
        witness={"x": float(x[worst_idx]), "second_derivative": worst},
        trials=len(x),
        details={"method": method},
    )


def scan_concavity(factory: Callable[..., Entropy], region: ParameterRegion) -> AxiomReport:
    """check_concavity_numeric over every grid point of a parameter region."""
    worst = -math.inf
    witness = None
    count = 0
    for params in region.grid():
        rep = check_concavity_numeric(factory(**params))
        count += 1
        if rep.witness["second_derivative"] > worst:
            worst = rep.witness["second_derivative"]
            witness = {"params": params, **rep.witness}
    verdict = PASS if worst < 0 else FAIL
    return AxiomReport(
        axiom="concavity-numeric",
        verdict=verdict,
        worst_residual=max(worst, 0.0),
        witness=witness,
        trials=count,
    )


def _dirichlet_draws(rng: np.random.Generator, widths: tuple, trials: int) -> tuple:
    """trials Dirichlet(1) samples of each width in turn, one array per width.

    One gamma draw for all of them: bit for bit the stream of per-trial
    ``rng.dirichlet(np.ones(W))`` calls, one per width, as numpy's dirichlet
    divides each sample's gamma variates the same way, by a left-to-right sum
    and a multiply by its reciprocal.
    """
    if min(widths) < 1:
        raise DistributionError("need at least one state")
    gamma = np.split(rng.standard_gamma(1.0, size=(trials, sum(widths))), np.cumsum(widths)[:-1], axis=1)
    return tuple(g * (1.0 / np.cumsum(g, axis=1)[:, -1:]) for g in gamma)


def _batch_entropy(spec: Entropy, samples: np.ndarray) -> np.ndarray:
    p = np.where(samples > 0, samples, 1.0)
    terms = np.where(samples > 0, samples * spec.density(p), 0.0)
    return spec.kB * (terms.sum(axis=1) + spec.constant_term())


def check_sk2_maximum(
    spec: Entropy, W: int, trials: int = 10_000, seed: int = 0
) -> AxiomReport:
    """S(random) <= S(uniform) + 1e-12 over Dirichlet(1) samples."""
    samples, = _dirichlet_draws(np.random.default_rng(seed), (W,), trials)
    values = _batch_entropy(spec, samples)
    s_uniform = spec.evaluate(Distribution.uniform(W))
    if trials == 0:  # nothing was checked
        return AxiomReport("sk2-maximum", INCONCLUSIVE, 0.0, trials=0, seed=seed)
    residuals = values - s_uniform
    worst_idx = int(np.argmax(residuals))
    worst = float(residuals[worst_idx])
    ok = worst <= 1e-12
    return AxiomReport(
        axiom="sk2-maximum",
        verdict=PASS if ok else FAIL,
        worst_residual=max(worst, 0.0),
        witness=None if ok else {"p": samples[worst_idx].tolist(), "excess": worst},
        trials=trials,
        seed=seed,
    )


def check_sk3_expansibility(spec: Entropy, dist: Distribution) -> AxiomReport:
    """Adding an impossible event must leave the entropy exactly unchanged."""
    before = spec.evaluate(dist)
    after = spec.evaluate(dist.append_zero())
    residual = abs(after - before)
    ok = residual == 0.0
    return AxiomReport(
        axiom="sk3-expansibility",
        verdict=PASS if ok else FAIL,
        worst_residual=residual,
        witness=None if ok else {"p": dist.p.tolist(), "delta": after - before},
        trials=1,
    )


def check_weak_composability(spec: Entropy, W_A: int, W_B: int) -> AxiomReport:
    """S(uniform W_A W_B) against Phi(S(uniform W_A), S(uniform W_B)).

    Passes at a relative residual |S_AB - Phi| / max(1, |S_AB|) of at most
    1e-9.  W_B = 1 is exactly the null-composability test Phi(x, 0) = x.
    """
    s_a = spec.evaluate(Distribution.uniform(W_A))
    s_b = spec.evaluate(Distribution.uniform(W_B))
    s_ab = spec.evaluate(Distribution.uniform(W_A * W_B))
    composed = spec.phi(s_a, s_b)
    residual = abs(s_ab - composed) / max(1.0, abs(s_ab))
    ok = residual <= 1e-9
    return AxiomReport(
        axiom="weak-composability",
        verdict=PASS if ok else FAIL,
        worst_residual=residual,
        witness=None
        if ok
        else {"W_A": W_A, "W_B": W_B, "S_AB": s_ab, "composed": composed},
        trials=1,
        details={"monoid_only": getattr(spec, "monoid_only", False)},
    )


def check_strict_composability(
    spec: Entropy,
    W_A: int,
    W_B: int,
    trials: int = 100,
    seed: int = 0,
    tol: float = 1e-10,
    extra_marginals: Sequence[tuple[Sequence[float], Sequence[float]]] = (),
) -> AxiomReport:
    """Composition rule on random product distributions of independent parts.

    Each extra (p_A, p_B) pair is checked before the random ones; p_A needs
    W_A states and p_B needs W_B.
    """
    extra = [(Distribution(pa).p, Distribution(pb).p) for pa, pb in extra_marginals]
    # A then B within each trial, so a seed's samples do not depend on the batching
    drawn = _dirichlet_draws(np.random.default_rng(seed), (W_A, W_B), trials)
    cases = len(extra) + trials
    if not cases:  # nothing was checked
        return AxiomReport("strict-composability", INCONCLUSIVE, 0.0, trials=0, seed=seed)
    pa, pb = (np.vstack([case[k] for case in extra] + [drawn[k]]) for k in (0, 1))
    s_ab = _batch_entropy(spec, (pa[:, :, None] * pb[:, None, :]).reshape(cases, -1))
    composed = spec.phi(_batch_entropy(spec, pa), _batch_entropy(spec, pb))
    residuals = np.abs(s_ab - composed) / np.maximum(1.0, np.abs(s_ab))
    i = int(np.argmax(residuals))
    worst = float(residuals[i])
    ok = worst <= tol
    witness = {"p_A": pa[i].tolist(), "p_B": pb[i].tolist(), "S_AB": float(s_ab[i]),
               "composed": float(composed[i])}
    return AxiomReport(
        axiom="strict-composability",
        verdict=PASS if ok else FAIL,
        worst_residual=worst,
        witness=None if ok else witness,
        trials=cases,
        seed=seed,
    )


def check_sk4_bg(joint: JointDistribution, kB: float = 1.0) -> AxiomReport:
    """The BG chain rule S(A u B) = S(A) + S(B|A), to 1e-12 absolute."""
    bg = BoltzmannGibbs(kB=kB)
    p = joint.p
    pa = p.sum(axis=1)
    s_joint = bg.evaluate(joint.flatten())
    s_a = bg.evaluate(Distribution(pa))
    s_cond = 0.0
    for i in range(p.shape[0]):
        if pa[i] <= 0:
            continue
        s_cond += pa[i] * bg.evaluate(Distribution(p[i] / pa[i]))
    residual = abs(s_joint - s_a - s_cond)
    ok = residual <= 1e-12
    return AxiomReport(
        axiom="sk4-bg",
        verdict=PASS if ok else FAIL,
        worst_residual=residual,
        witness=None if ok else {"joint": p.tolist()},
        trials=1,
    )


def lesche_probe(
    spec: Entropy, W: int, delta: float, trials: int = 200, seed: int = 0
) -> AxiomReport:
    """Empirical continuity modulus max |dS| / S_max at l1 distance <= delta.

    A measurement, not a proof: the verdict is always inconclusive, with the
    measured modulus attached.
    """
    if not delta >= 0:
        raise DistributionError("perturbation size must be nonnegative")
    if W < 2:
        raise DistributionError("a continuity modulus needs at least two states")
    s_max = spec.evaluate(Distribution.uniform(W))
    # p then r within each trial, so a seed's samples do not depend on the batching
    p, r = _dirichlet_draws(np.random.default_rng(seed), (W, W), trials)
    l1 = np.abs(p - r).sum(axis=1)
    eps = np.minimum(1.0, delta / np.where(l1 == 0, 1.0, l1)) * (l1 != 0)
    p2 = (1 - eps[:, None]) * p + eps[:, None] * r
    ratios = np.abs(_batch_entropy(spec, p) - _batch_entropy(spec, p2)) / s_max
    modulus, witness = 0.0, None
    if trials and ratios.max() > 0:
        i = int(np.argmax(ratios))
        modulus = float(ratios[i])
        witness = {"p": p[i].tolist(), "p_perturbed": p2[i].tolist()}
    return AxiomReport(
        axiom="lesche-probe",
        verdict=INCONCLUSIVE,
        worst_residual=modulus,
        witness=witness,
        trials=trials,
        seed=seed,
        details={"delta": delta},
    )
