"""Property checkers: SK axioms, composability, concavity, Lesche probe.

Each checker returns an AxiomReport.  Checks based on sufficient conditions
or empirical sampling never report "fail" for the axiom itself when the
condition merely fails to apply; they report "inconclusive" instead.  Every
randomized check is seeded and bit-reproducible.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from itertools import product
from typing import Callable, Iterator, Sequence

import numpy as np

from .catalog import (
    BoltzmannGibbs,
    Distribution,
    Entropy,
    JointDistribution,
    UnsupportedRepresentation,
)

PASS = "pass"
FAIL = "fail"
INCONCLUSIVE = "inconclusive"


@dataclass(frozen=True)
class AxiomReport:
    axiom: str
    verdict: str
    worst_residual: float
    witness: object = None
    trials: int = 0
    seed: int | None = None
    details: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.verdict == FAIL and self.witness is None:
            raise ValueError("a fail verdict requires a reproducible witness")


@dataclass(frozen=True)
class ParameterRegion:
    """Closed per-parameter intervals with a uniform sampling grid."""

    intervals: dict[str, tuple[float, float]]
    resolution: int = 3

    def __post_init__(self):
        if not self.intervals or self.resolution < 1:
            raise ValueError("region must be nonempty with a positive grid")

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
    limit, so the BG sequence (1, 0, 0, ...) passes.
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
        verdict=PASS if ok else INCONCLUSIVE,
        worst_residual=0.0,
        details={"per_k": table},
    )


def _second_derivative_closed(spec: Entropy, x: np.ndarray) -> np.ndarray:
    t = -np.log(x)
    return (spec.d2G(t) - spec.dG(t)) / x


def _second_derivative_numeric(
    density: Callable[[np.ndarray], np.ndarray], x: np.ndarray, step: float = 1e-5
) -> np.ndarray:
    def s(v):
        return v * density(v)

    d2 = (s(x + step) - 2.0 * s(x) + s(x - step)) / step ** 2
    # Richardson sanity: the halved step must agree to leading order
    h2 = step / 2.0
    d2h = (s(x + h2) - 2.0 * s(x) + s(x - h2)) / h2 ** 2
    refined = (4.0 * d2h - d2) / 3.0
    return refined


def check_concavity_numeric(
    spec: Entropy,
    points: int = 400,
    x_min: float = 1e-8,
    x_max: float = 1.0 - 1e-8,
) -> AxiomReport:
    """Sign of the second derivative of x -> x g(x) on a log grid in (0, 1)."""
    x = np.geomspace(x_min, x_max, points)
    try:
        d2 = _second_derivative_closed(spec, x)
        method = "closed-form"
    except (UnsupportedRepresentation, NotImplementedError):
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
        worst_residual=max(worst, 0.0),
        witness={"x": float(x[worst_idx]), "second_derivative": worst},
        trials=len(x),
        details={"method": method},
    )


def scan_concavity(
    factory: Callable[..., Entropy], region: ParameterRegion, points: int = 400
) -> AxiomReport:
    """check_concavity_numeric over every grid point of a parameter region."""
    worst = -math.inf
    witness = None
    count = 0
    for params in region.grid():
        rep = check_concavity_numeric(factory(**params), points=points)
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


def _dirichlet(rng: np.random.Generator, trials: int, W: int) -> np.ndarray:
    return rng.dirichlet(np.ones(W), size=trials)


def _batch_entropy(spec: Entropy, samples: np.ndarray) -> np.ndarray:
    p = np.where(samples > 0, samples, 1.0)
    terms = np.where(samples > 0, samples * spec.density(p), 0.0)
    return spec.kB * (terms.sum(axis=1) + spec.constant_term())


def check_sk2_maximum(
    spec: Entropy, W: int, trials: int = 10_000, seed: int = 0
) -> AxiomReport:
    """S(random) <= S(uniform) + 1e-12 over Dirichlet(1) samples."""
    rng = np.random.default_rng(seed)
    samples = _dirichlet(rng, trials, W)
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


def check_weak_composability(
    spec: Entropy, W_A: int, W_B: int, tol: float = 1e-9
) -> AxiomReport:
    """S(uniform W_A W_B) against Phi(S(uniform W_A), S(uniform W_B)).

    W_B = 1 is exactly the null-composability test Phi(x, 0) = x.
    """
    s_a = spec.evaluate(Distribution.uniform(W_A))
    s_b = spec.evaluate(Distribution.uniform(W_B))
    s_ab = spec.evaluate(Distribution.uniform(W_A * W_B))
    composed = spec.phi(s_a, s_b)
    residual = abs(s_ab - composed) / max(1.0, abs(s_ab))
    ok = residual <= tol
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
    """Composition rule on random product distributions of independent parts."""
    rng = np.random.default_rng(seed)
    worst = 0.0
    witness = None
    cases = [
        (Distribution(np.asarray(pa)), Distribution(np.asarray(pb)))
        for pa, pb in extra_marginals
    ]
    cases += [
        (
            Distribution(rng.dirichlet(np.ones(W_A))),
            Distribution(rng.dirichlet(np.ones(W_B))),
        )
        for _ in range(trials)
    ]
    for da, db in cases:
        joint = JointDistribution.product(da, db).flatten()
        s_ab = spec.evaluate(joint)
        composed = spec.phi(spec.evaluate(da), spec.evaluate(db))
        residual = abs(s_ab - composed) / max(1.0, abs(s_ab))
        if residual > worst:
            worst = residual
            witness = {
                "p_A": da.p.tolist(),
                "p_B": db.p.tolist(),
                "S_AB": float(s_ab),
                "composed": float(composed),
            }
    ok = worst <= tol
    if not cases:
        verdict = INCONCLUSIVE  # nothing was checked
    else:
        verdict = PASS if ok else FAIL
    return AxiomReport(
        axiom="strict-composability",
        verdict=verdict,
        worst_residual=worst,
        witness=None if ok else witness,
        trials=len(cases),
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
    if delta < 0:
        raise ValueError("perturbation size must be nonnegative")
    rng = np.random.default_rng(seed)
    s_max = spec.evaluate(Distribution.uniform(W))
    modulus = 0.0
    witness = None
    for _ in range(trials):
        p = rng.dirichlet(np.ones(W))
        r = rng.dirichlet(np.ones(W))
        l1 = float(np.abs(p - r).sum())
        eps = 0.0 if l1 == 0 else min(1.0, delta / l1)
        p2 = (1 - eps) * p + eps * r
        ds = abs(
            spec.evaluate(Distribution(p)) - spec.evaluate(Distribution(p2))
        )
        ratio = ds / s_max
        if ratio > modulus:
            modulus = ratio
            witness = {"p": p.tolist(), "p_perturbed": p2.tolist()}
    return AxiomReport(
        axiom="lesche-probe",
        verdict=INCONCLUSIVE,
        worst_residual=modulus,
        witness=witness,
        trials=trials,
        seed=seed,
        details={"delta": delta},
    )
