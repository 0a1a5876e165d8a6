"""Occupation laws, extensivity, canonical MaxEnt, and asymptotic scans."""

import gc
import hashlib
import math
import random
import re
import statistics
import warnings
import weakref
from fractions import Fraction

import mpmath as mp
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from fixed_beta_oracle import solve_fixed_beta_nested
from scipy.optimize import minimize
from target_u_oracle import solve_target_U_bracketed

from gentropy import thermo
from gentropy.catalog import (
    BoltzmannGibbs,
    BorgesRoditi,
    Distribution,
    GenericEntropy,
    Kaniadakis,
    SAlphaBetaQ,
    SDelta,
    SFourth,
    SThird,
    SpecError,
    Tsallis,
    UnsupportedRepresentation,
)
from gentropy.thermo import (
    MaxEntProblem,
    asymptotic_scan,
    extensivity_check,
    legendre_residual,
    maxent_solve,
    microcanonical,
    occupation_law,
    temperature_table,
)

ENERGIES = (0.0, 0.7, 1.3, 2.0)
CLOSED_FORM_SPECS = {
    "bg": BoltzmannGibbs(),
    "tsallis 1/2": Tsallis(Fraction(1, 2)),
    "tsallis 3/10": Tsallis(Fraction(3, 10)),
    "kaniadakis 1/3": Kaniadakis(Fraction(1, 3)),
    "kaniadakis -3/5 c=2": Kaniadakis(Fraction(-3, 5), scale_c=2),
}
INVERSE_KINDS = {  # kind with a numeric F -> the spec at a given kB
    "borges_roditi 1/2 -1/3": lambda kB: BorgesRoditi(Fraction(1, 2), Fraction(-1, 3), kB=kB),
    "borges_roditi 1/10 -3/5": lambda kB: BorgesRoditi(Fraction(1, 10), Fraction(-3, 5), kB=kB),
    "s_iii 4/5": lambda kB: SThird(Fraction(4, 5), kB=kB),
    "generic": lambda kB: GenericEntropy([1, Fraction(1, 8), Fraction(1, 10)], kB=kB),
}
INVERSE_SPECS = {name: make(1.0) for name, make in INVERSE_KINDS.items()}
KB_SPECS = {  # kind -> the spec at a given kB
    "bg": lambda kB: BoltzmannGibbs(kB=kB),
    "tsallis": lambda kB: Tsallis(Fraction(1, 2), kB=kB),
    "borges_roditi": lambda kB: BorgesRoditi(Fraction(1, 2), Fraction(-1, 3), kB=kB),
}


def scalar_extensivity_rows(spec, ln_W):
    """The extensivity rows, one scalar G evaluation per N and per rounded W."""
    rows = []
    for N in range(1, len(ln_W)):
        lw = ln_W[N]
        s = spec.kB * float(spec.G(lw))
        r_resid = None
        if lw < 700:
            w_round = max(1.0, round(math.exp(lw)))
            r_resid = abs(spec.kB * float(spec.G(math.log(w_round))) - spec.kB * N)
        rows.append((N, lw, s, abs(s - spec.kB * N), r_resid))
    return rows


def mp_G(spec, t):
    """G(t) at working precision, from each kind's defining formula."""
    if isinstance(spec, GenericEntropy):
        return sum(mp.mpf(Fraction(a).numerator) / Fraction(a).denominator * t ** (k + 1) / (k + 1)
                   for k, a in enumerate(spec.a))
    if isinstance(spec, BoltzmannGibbs):
        return t
    r = {name: mp.mpf(Fraction(v).numerator) / Fraction(v).denominator
         for name, v in vars(spec).items() if name in ("q", "kappa", "a", "b")}
    if isinstance(spec, Tsallis):
        s = 1 - r["q"]
        return mp.expm1(s * t) / s
    if isinstance(spec, Kaniadakis):
        return mp.sinh(r["kappa"] * t) / r["kappa"]
    if isinstance(spec, BorgesRoditi):
        return (mp.exp(r["a"] * t) - mp.exp(r["b"] * t)) / (r["a"] - r["b"])
    if isinstance(spec, SThird):  # (1/s) (x^s - 2 x^-s + x^-2s) at x = e^t, s = 1 - q
        s = 1 - r["q"]
        return (mp.exp(s * t) - 2 * mp.exp(-s * t) + mp.exp(-2 * s * t)) / s
    raise TypeError(spec)


def mp_level_p(spec, targets):
    """p = e^-t with kB (G(t) - G'(t)) = target, each root at 50 digits, clamped as the solver clamps."""
    out = []
    with mp.workdps(50):
        def h(t):
            return spec.kB * (mp_G(spec, t) - mp.diff(lambda x: mp_G(spec, x), t))

        t_lo, t_hi = -mp.log(mp.mpf(thermo._P_HI)), -mp.log(mp.mpf(thermo._P_LO))
        for target in np.asarray(targets, dtype=float).tolist():
            if target >= h(t_hi):
                out.append(thermo._P_LO)
            elif target <= h(t_lo):
                out.append(thermo._P_HI)
            else:
                a, b = t_lo, t_hi
                for _ in range(40):  # bisect to start the secant iteration near the root
                    a, b = (a, (a + b) / 2) if h((a + b) / 2) > target else ((a + b) / 2, b)
                root = mp.findroot(lambda t: h(t) - target, (a + b) / 2)
                assert a <= root <= b
                out.append(float(mp.exp(-root)))
    return np.array(out)


def mp_maxent_p(spec, levels, beta, sol):
    """The MaxEnt p at beta, every level free, with alpha and each level's root at 50 digits.

    Unlike p at the float targets sol.alpha + beta E, this does not carry the rounding of alpha.
    """
    with mp.workdps(50):
        def h(t):
            return spec.kB * (mp_G(spec, t) - mp.diff(lambda x: mp_G(spec, x), t))

        def p(alpha):
            return [mp.exp(-mp.findroot(lambda t: h(t) - alpha - beta * E, -mp.log(p0)))
                    for E, p0 in zip(levels, sol.distribution.p.tolist())]

        return np.array([float(v) for v in p(mp.findroot(lambda a: mp.fsum(p(a)) - 1, sol.alpha))])


def mp_target_U(spec, levels, target, sol):
    """The MaxEnt p, alpha and beta with mean energy target, alpha, beta and each level's root solved at 50 digits.

    Every level is free; the roots start from the solver's t = ln 1/p, and (alpha, beta) from its own.
    """
    with mp.workdps(50):
        def h(t):
            return spec.kB * (mp_G(spec, t) - mp.diff(lambda x: mp_G(spec, x), t))

        start = (-np.log(sol.distribution.p)).tolist()

        def p(alpha, beta):
            return [mp.exp(-mp.findroot(lambda t: h(t) - alpha - beta * E, t0)) for E, t0 in zip(levels, start)]

        def residual(alpha, beta):
            ps = p(alpha, beta)
            return [mp.fsum(ps) - 1, mp.fsum(pi * E for pi, E in zip(ps, levels)) - target]

        alpha, beta = mp.findroot(residual, (mp.mpf(sol.alpha), mp.mpf(sol.beta)))
        return np.array([float(v) for v in p(alpha, beta)]), float(alpha), float(beta)


class TestOccupationLaw:
    def test_bg_exponential_growth(self):
        law = occupation_law(BoltzmannGibbs())
        assert law.valid
        assert law.W(3) == pytest.approx(math.exp(3), rel=1e-12)

    def test_tsallis_q_half_power_growth(self):
        law = occupation_law(Tsallis(0.5))
        assert law.valid
        # W(N) = (1 + N/2)^2 from inverting the q-logarithm
        assert law.W(4) == pytest.approx((1 + 0.5 * 4) ** 2, rel=1e-10)

    def test_tsallis_q_two_invalid(self):
        law = occupation_law(Tsallis(2))
        assert not law.valid
        assert "N=1" in law.reason

    def test_huge_argument_does_not_overflow(self):
        law = occupation_law(BoltzmannGibbs())
        assert law.W(10_000) == math.inf
        assert law.log_W(10_000) == pytest.approx(10_000.0)

    def test_W_is_inf_only_where_exp_overflows(self):
        law = occupation_law(BoltzmannGibbs())
        assert law.W(709) == pytest.approx(8.218407461554972e+307, rel=1e-15)  # once inf past ln W = 700
        assert law.W(710) == math.inf

    def test_non_exponential_rejected(self):
        with pytest.raises(UnsupportedRepresentation):
            occupation_law(SDelta(2))

    def test_negative_range_rejected(self):
        with pytest.raises(SpecError, match="nonnegative"):
            occupation_law(BoltzmannGibbs(), -1)

    def test_keeps_the_checked_values(self):
        spec = Kaniadakis(0.3)
        assert occupation_law(spec, 7).ln_W == tuple(float(spec.F(N)) for N in range(8))

    @pytest.mark.parametrize("spec", CLOSED_FORM_SPECS.values(), ids=CLOSED_FORM_SPECS.keys())
    def test_closed_forms_match_a_scalar_reference(self, spec):
        # one array F call over 0..1000 gives the bits of one scalar closed-form call per N
        law = occupation_law(spec, 1000)
        ln_W = tuple(float(spec.F(N)) for N in range(1001))
        assert law.valid and law.ln_W == ln_W
        assert extensivity_check(spec, 1000).rows == scalar_extensivity_rows(spec, ln_W)

    @pytest.mark.parametrize("kB", [1.0, 2.0], ids=str)
    @pytest.mark.parametrize("kind", INVERSE_KINDS)
    def test_numeric_inverses_match_a_scalar_reference(self, kind, kB):
        # the rounded-W rows of a numeric F: exp, rint and log mapped over the rows give the scalar bits
        spec = INVERSE_KINDS[kind](kB)
        law = occupation_law(spec, 300)
        assert law.valid
        assert extensivity_check(spec, 300).rows == scalar_extensivity_rows(spec, law.ln_W)

    @pytest.mark.parametrize(
        "spec, reason",
        [(GenericEntropy([1, -1]), "F undefined at N=1"),
         # G peaks at 50 at t = 100: the bracket stops at 128, where G' < 0, and F(50) = 100 is the last value
         (GenericEntropy([1, Fraction(-1, 100)]), "F undefined at N=51"),
         (Tsallis(Fraction(3, 2)), "F not finite at N=2")],
        ids=["generic bounded at 1/2", "generic bounded at 50", "tsallis 3/2"],
    )
    def test_first_fault_and_the_values_before_it(self, spec, reason):
        law = occupation_law(spec, 1000)
        assert (law.valid, law.reason) == (False, reason)
        N = int(reason.rsplit("=", 1)[1])
        assert law.ln_W == tuple(float(spec.F(n)) for n in range(N))

    @pytest.mark.parametrize("spec", INVERSE_SPECS.values(), ids=INVERSE_SPECS.keys())
    def test_numeric_ln_W_is_correctly_rounded(self, spec):
        # the last Newton step, in np.longdouble, rounds each ln W(N) to the double nearest the
        # root, except in a near-tie: generic N = 28 sits 0.50012 ulp from it, so 0.501 ulp is allowed
        ln_W = occupation_law(spec, 300).ln_W
        assert ln_W[0] == 0.0 and math.copysign(1.0, ln_W[0]) == 1.0
        with mp.workdps(50):
            for N, lw in enumerate(ln_W[1:], start=1):
                root = mp.findroot(lambda t: mp_G(spec, t) - N, mp.mpf(lw))
                assert abs(mp.mpf(lw) - root) <= 0.501 * math.ulp(lw), N

    @pytest.mark.parametrize("make", KB_SPECS.values(), ids=KB_SPECS.keys())
    def test_kb_scales_the_entropy_not_the_law(self, make):
        # W(N) = exp(F(N)) gives S(W(N)) = kB N; F(N / kB) gave N, a residual that grew as N
        spec = make(2.0)
        law = occupation_law(spec, 200)
        assert law.ln_W == occupation_law(make(1.0), 200).ln_W
        for N, lw, S, resid, _ in extensivity_check(spec, 200).rows:
            assert resid <= 1e-9 * N
        assert law.log_W(5) == law.ln_W[5]


@pytest.mark.parametrize("spec", [*CLOSED_FORM_SPECS.values(), Tsallis(Fraction(5, 4))],
                         ids=[*CLOSED_FORM_SPECS, "tsallis 5/4"])
def test_partition_value_keeps_the_scalar_bits(spec):
    # one log_inverse call over all levels, summed left to right as one scalar call per level was
    levels = tuple(5 * i / 19 for i in range(20))
    for beta in (-2.0, 0.5, 1.0, 3.0):
        try:
            scalar = float(sum(spec.log_inverse(-beta * e) for e in levels))
        except SpecError:  # tsallis 5/4 at beta = -2: no q-exponential past 1 + (1-q) y = 0
            scalar = math.nan
        assert np.array(thermo._partition_value(spec, levels, beta)).tobytes() == np.array(scalar).tobytes()


class TestMicrocanonical:
    def test_bg_value(self):
        assert microcanonical(BoltzmannGibbs(), 2.0) == pytest.approx(math.log(2))

    def test_bg_huge_state_count(self):
        assert microcanonical(BoltzmannGibbs(), 1e80) == pytest.approx(
            80 * math.log(10), rel=1e-9
        )

    def test_matches_uniform_evaluation(self):
        for spec in (Tsallis(0.5), Kaniadakis(0.3), SDelta(2)):
            assert microcanonical(spec, 6) == pytest.approx(
                spec.evaluate(Distribution.uniform(6)), rel=1e-12
            )

    def test_w_below_one_rejected(self):
        with pytest.raises(SpecError):
            microcanonical(BoltzmannGibbs(), 0.5)


class TestExtensivity:
    @pytest.mark.parametrize(
        "spec",
        [BoltzmannGibbs(), Tsallis(0.5), Kaniadakis(0.3)],
        ids=["bg", "tsallis0.5", "kaniadakis0.3"],
    )
    def test_linear_growth_in_log_space(self, spec):
        report = extensivity_check(spec, 1000)
        assert report.max_residual <= 1e-8

    def test_rounded_variant_reported(self):
        report = extensivity_check(BoltzmannGibbs(), 20)
        assert report.max_residual_rounded is not None
        assert report.max_residual_rounded > 0  # integer rounding bites at small W

    def test_invalid_law_raises(self):
        with pytest.raises(SpecError):
            extensivity_check(Tsallis(2), 10)

    def test_admissibility_is_checked_over_the_whole_range(self):
        # ln_q N is finite only below N = 1/(q-1) = 200
        with pytest.raises(SpecError, match="F not finite at N=200"):
            extensivity_check(Tsallis(Fraction(201, 200)), 300)

    def test_a_short_law_is_rebuilt(self):
        spec = BoltzmannGibbs()
        occupation_law(spec, 3)
        report = extensivity_check(spec, 8)
        assert [row[0] for row in report.rows] == list(range(1, 9))

    def test_a_law_kept_for_another_range_is_rebuilt(self):
        # the law kept for 300 stops at N = 200, yet the law over 0..100 is admissible
        spec = Tsallis(Fraction(201, 200))
        assert occupation_law(spec, 300).reason == "F not finite at N=200"
        assert len(extensivity_check(spec, 100).rows) == 100
        with pytest.raises(SpecError, match="F not finite at N=200"):
            extensivity_check(spec, 300)

    @pytest.mark.parametrize(
        "make",
        [lambda: BorgesRoditi(Fraction(1, 2), Fraction(-3, 10)),
         lambda: GenericEntropy([1, Fraction(1, 8), Fraction(1, 10)])],
        ids=["borges_roditi 1/2 -3/10", "generic"],
    )
    def test_reads_the_law_the_caller_built(self, make):
        # occupation_law then extensivity_check, as the occupation op makes them, solves F once, not twice
        spec, calls = make(), []
        solve = spec._F

        def counted(s):
            calls.append(s)
            return solve(s)

        spec._F = counted
        law = occupation_law(spec, 300)
        report = extensivity_check(spec, 300)
        assert len(calls) == 1
        assert law.valid and report.rows == extensivity_check(make(), 300).rows

    @pytest.mark.parametrize("make", [BoltzmannGibbs, lambda: Tsallis(Fraction(1, 2)),
                                      lambda: BorgesRoditi(Fraction(1, 2), Fraction(-3, 10))],
                             ids=["bg", "tsallis 1/2", "borges_roditi 1/2 -3/10"])
    def test_a_kept_law_leaves_no_cycle(self, make):
        # the kept law holds no reference back to the spec, so the spec goes without the collector
        gc.disable()
        try:
            spec = make()
            occupation_law(spec, 50)
            ref = weakref.ref(spec)
            del spec
            assert ref() is None
        finally:
            gc.enable()

    def test_rows_shape(self):
        report = extensivity_check(BoltzmannGibbs(), 5)
        assert len(report.rows) == 5
        N, lw, s, resid, r_resid = report.rows[2]
        assert N == 3 and lw == pytest.approx(3.0)


class TestMaxEntBG:
    def test_two_level_analytic(self):
        sol = maxent_solve(MaxEntProblem(BoltzmannGibbs(), (0.0, 1.0), beta=1.0))
        z = 1 + math.exp(-1.0)
        assert sol.distribution.p[0] == pytest.approx(1 / z, abs=1e-10)
        assert sol.distribution.p[1] == pytest.approx(math.exp(-1.0) / z, abs=1e-10)
        assert sol.stationarity_residual <= 1e-10

    @pytest.mark.parametrize("beta", [0.1, 0.5, 1.0, 3.0, 10.0])
    def test_gibbs_form_any_beta(self, beta):
        sol = maxent_solve(MaxEntProblem(BoltzmannGibbs(), ENERGIES, beta=beta))
        w = np.exp(-beta * np.array(ENERGIES))
        assert np.allclose(sol.distribution.p, w / w.sum(), atol=1e-10)

    @pytest.mark.parametrize("beta", [0.1, 1.0, 10.0])
    def test_legendre_relation(self, beta):
        spec = BoltzmannGibbs()
        sol = maxent_solve(MaxEntProblem(spec, ENERGIES, beta=beta))
        assert legendre_residual(sol, spec) <= 1e-10

    def test_fixed_energy_mode(self):
        target = 0.9
        sol = maxent_solve(
            MaxEntProblem(BoltzmannGibbs(), ENERGIES, target_U=target)
        )
        assert sol.U == pytest.approx(target, abs=1e-9)

    def test_target_outside_range_rejected(self):
        with pytest.raises(SpecError):
            maxent_solve(MaxEntProblem(BoltzmannGibbs(), ENERGIES, target_U=5.0))

    def test_exactly_one_mode_required(self):
        with pytest.raises(SpecError):
            MaxEntProblem(BoltzmannGibbs(), ENERGIES)
        with pytest.raises(SpecError):
            MaxEntProblem(BoltzmannGibbs(), ENERGIES, beta=1.0, target_U=1.0)

    def test_need_two_levels(self):
        with pytest.raises(SpecError):
            MaxEntProblem(BoltzmannGibbs(), (1.0,), beta=1.0)


class TestMaxEntTsallis:
    def test_stationarity_residual(self):
        sol = maxent_solve(MaxEntProblem(Tsallis(0.5), ENERGIES, beta=1.0))
        assert sol.stationarity_residual <= 1e-8

    def test_matches_simplex_search_oracle(self):
        spec = Tsallis(0.5)
        beta = 1.0
        sol = maxent_solve(MaxEntProblem(spec, ENERGIES, beta=beta))

        def neg_objective(p):
            p = p / p.sum()
            return -(spec.evaluate(Distribution(p)) - beta * float(np.dot(p, ENERGIES)))

        res = minimize(
            neg_objective,
            np.full(len(ENERGIES), 1.0 / len(ENERGIES)),
            method="SLSQP",
            bounds=[(1e-12, 1.0)] * len(ENERGIES),
            constraints={"type": "eq", "fun": lambda p: p.sum() - 1.0},
            options={"ftol": 1e-14, "maxiter": 500},
        )
        assert res.success
        assert np.max(np.abs(res.x - sol.distribution.p)) <= 1e-6

    def test_invert_h_reuses_the_end_values(self, monkeypatch):
        spec = Tsallis(0.5)
        ends = thermo._check_monotone(spec)
        h_lo, h_hi = ends[:2]
        target = np.array([0.3 * h_lo + 0.7 * h_hi, 0.5 * (h_lo + h_hi), 1.0, h_lo, h_hi])
        calls = []

        def stationarity(spec, t):
            calls.extend(np.atleast_1d(t).tolist())
            return original(spec, t)

        original = thermo._stationarity
        monkeypatch.setattr(thermo, "_stationarity", stationarity)
        p, t, w = thermo._invert_h(spec, target, ends, np.full(target.shape, 1.0))
        assert calls and not {thermo._T_LO, thermo._T_HI} & set(calls)
        assert p[3:].tolist() == [thermo._P_LO, thermo._P_HI] and w[3:].tolist() == [0.0, 0.0]
        assert np.max(np.abs(p - mp_level_p(spec, target))) <= 1e-15

    def test_fixed_energy_mode_without_log_inverse(self):
        # every inner solve meets s_iii's missing log inverse at -beta E
        sol = maxent_solve(MaxEntProblem(SThird(Fraction(4, 5)), (0, 1, 2, 3), target_U=1.0))
        assert sol.U == pytest.approx(1.0, abs=1e-9)
        assert math.isnan(sol.Z)

    def test_fixed_energy_mode_on_a_slow_alpha_solve(self):
        # two equal top levels: the target-U solve whose inner alpha solves once ran out of
        # iterations still lands U within 1e-9
        target = 3.0468555453721207
        levels = (0.269555408149792, 5.253742259270281, 5.253742259270281)
        sol = maxent_solve(MaxEntProblem(Tsallis(Fraction(3, 2)), levels, target_U=target))
        assert abs(sol.U - target) <= 1e-9

    def test_non_exponential_spec_rejected(self):
        with pytest.raises(UnsupportedRepresentation):
            maxent_solve(MaxEntProblem(SDelta(2), ENERGIES, beta=1.0))


def test_clamp_constants_and_grid_keep_numpys_bits():
    # made with math and Python floats so that importing thermo needs no numpy
    t_lo, t_hi = -np.log(thermo._P_HI), -np.log(thermo._P_LO)
    assert (thermo._T_LO.hex(), thermo._T_HI.hex()) == (float(t_lo).hex(), float(t_hi).hex())
    assert thermo._EPS == np.finfo(float).eps
    gap = (t_hi - t_lo) / 63  # the grid as numpy's float64 scalars built it
    grid = np.array([t_hi - k * gap for k in range(63)]
                    + [gap * (t_lo / gap) ** (j / 17) for j in range(1, 17)] + [t_lo])
    assert thermo._t_grid().tobytes() == grid.tobytes()
    assert thermo._t_grid() is thermo._t_grid()


SOLVER_SPECS = {
    "tsallis": Tsallis(Fraction(1, 2)),
    "kaniadakis": Kaniadakis(Fraction(1, 3)),
    "s_iii": SThird(Fraction(4, 5)),
    "generic": GenericEntropy([1, Fraction(1, 8), Fraction(1, 10)]),
    "borges_roditi": BorgesRoditi(Fraction(1, 2), Fraction(-1, 3)),
}


class TestMaxEntNewtonSolver:
    @pytest.mark.parametrize("kind", SOLVER_SPECS)
    @pytest.mark.parametrize("clamped", [False, True], ids=["free", "clamped"])
    def test_levels_match_fifty_digit_roots(self, kind, clamped):
        spec = SOLVER_SPECS[kind]
        h_lo, h_hi = thermo._check_monotone(spec)[:2]
        levels, beta = tuple(5 * i / 19 for i in range(20)), 1.0
        if clamped:  # the targets span 1.5 times h's range, so the top levels clamp at _P_LO
            levels, beta = (0.0, 1.0, 2.0, 3.0), (h_lo - h_hi) / 2
        sol = maxent_solve(MaxEntProblem(spec, levels, beta=beta))
        targets = sol.alpha + sol.beta * np.array(levels)
        assert bool(np.any(targets >= h_lo)) == clamped
        assert np.max(np.abs(sol.distribution.p - mp_level_p(spec, targets))) <= 1e-15

    def test_converged_steps_that_round_onto_an_end_do_not_bisect(self, monkeypatch):
        # a solver that bisects once its Newton step rounds onto a bracket end
        # converges linearly: hundreds of array evaluations instead of a few dozen.  The solve takes 9
        # (10 when its start evaluated h twice); the bound 11 leaves 2
        calls = []
        original = thermo._stationarity

        def stationarity(spec, t):
            calls.append(np.size(t))
            return original(spec, t)

        monkeypatch.setattr(thermo, "_stationarity", stationarity)
        levels = tuple(5 * i / 19 for i in range(20))
        maxent_solve(MaxEntProblem(Tsallis(Fraction(1, 2)), levels, beta=1.0))
        assert len(calls) <= 11

    @pytest.mark.parametrize("beta", [30.0, -30.0])
    def test_an_alpha_start_at_the_clamp_kink_does_not_crawl(self, monkeypatch, beta):
        # the Gibbs weight of the lowest level rounds past _P_HI, where -ln sum p has a kink (the
        # clamped level adds no slope); started on the kink, the solve made 113 and 110 array
        # calls, and started just past it, 20 and 19; it now takes 14 and 14, and the bound 17 leaves 3.
        # alpha is near -1 and 149, so p is checked against the normalized MaxEnt p, not against roots
        # at the rounded targets
        calls = []
        original = thermo._stationarity

        def stationarity(spec, t):
            calls.append(np.size(t))
            return original(spec, t)

        monkeypatch.setattr(thermo, "_stationarity", stationarity)
        spec, levels = SThird(Fraction(3, 4)), (0.0, 1.25, 2.5, 3.75, 5.0)
        sol = maxent_solve(MaxEntProblem(spec, levels, beta=beta))
        assert len(calls) <= 17
        assert np.max(np.abs(sol.distribution.p - mp_maxent_p(spec, levels, beta, sol))) <= 1e-15

    @pytest.mark.parametrize("target", [0.2, 4.8], ids=["beta near 6.6", "beta near -6.6"])
    def test_target_energy_near_an_extreme_level_takes_few_level_solves(self, monkeypatch, target):
        # beta is about +-6.6, far from the start at 0: 2 level solves and then 8 joint steps (10 level
        # solves when each iterate's levels were solved), and a beta solve in a bracket grown from
        # [0, 1] or [-1, 0] takes 23
        calls = count_calls(monkeypatch, "_invert_h")
        levels = tuple(5 * i / 19 for i in range(20))
        sol = maxent_solve(MaxEntProblem(Tsallis(Fraction(1, 2)), levels, target_U=target))
        assert len(calls) <= 12
        assert 4 < abs(sol.beta) < 8 and math.copysign(1.0, sol.beta) == (1.0 if target < 2.5 else -1.0)
        assert abs(sol.U - target) <= 1e-9

    def test_a_target_at_the_mean_level_is_met_at_beta_near_0(self):
        # U(0) as solved may round to either side of the mean, so the side of 0 is read off U(0):
        # an end at 0 with the wrong sign cannot be doubled away
        levels = (2.718, 4.675, 4.079, 0.014, 4.287, 0.168)
        target = float(np.mean(levels))
        sol = maxent_solve(MaxEntProblem(BoltzmannGibbs(), levels, target_U=target))
        assert abs(sol.beta) <= 1e-15 and abs(sol.U - target) <= 1e-15

    def test_alpha_bracket_follows_the_sign_of_beta(self):
        # at beta < 0 the ground level, from which alpha is measured, is the highest
        levels = (0.0, 1.0, 2.0, 3.0)
        spec = Tsallis(Fraction(3, 2))
        sol = maxent_solve(MaxEntProblem(spec, levels, beta=-2.0))
        targets = sol.alpha + sol.beta * np.array(levels)
        assert np.max(np.abs(sol.distribution.p - mp_level_p(spec, targets))) <= 1e-15

    def test_beta_energy_past_the_old_alpha_reach_is_solved(self):
        # beta E reaches 1e61, past 2^200, where the alpha bracket in absolute energy was clipped and held
        # no sign change.  Measured from the ground level (E = 2), alpha' lies in [h_hi, h_lo]: the ground
        # level is at 1 - 2e-15 before normalization, and the others are clamped at 1e-15
        p = maxent_solve(MaxEntProblem(Tsallis(Fraction(1, 2)), (0.0, 1.0, 2.0), beta=-1e61)).distribution.p
        assert p.sum() == pytest.approx(1.0, abs=1e-15)
        assert p.tolist() == pytest.approx([thermo._P_LO, thermo._P_LO, 1 - 2 * thermo._P_LO], rel=2e-16)


TARGET_U_SPECS = {
    "tsallis 1/2": Tsallis(Fraction(1, 2)),
    "tsallis 3/4": Tsallis(Fraction(3, 4)),
    "kaniadakis 1/3": Kaniadakis(Fraction(1, 3)),
    "borges_roditi 1/2 -1/3": BorgesRoditi(Fraction(1, 2), Fraction(-1, 3)),
    "generic 1 1/8 1/10": GenericEntropy([1, Fraction(1, 8), Fraction(1, 10)]),
    "s_iii 4/5": SThird(Fraction(4, 5)),
}
# specs for the comparison with the bracketed solve, with kB and the scale constant varied
COMPARED_SPECS = [
    BoltzmannGibbs(), BoltzmannGibbs(kB=2.0), Tsallis(Fraction(1, 2)), Tsallis(Fraction(1, 2), scale_c=2),
    Tsallis(Fraction(3, 2)), Tsallis(Fraction(9, 8), kB=2.0), Kaniadakis(Fraction(1, 3)),
    Kaniadakis(Fraction(-3, 5), scale_c=2), BorgesRoditi(Fraction(1, 2), Fraction(-1, 3), kB=2.0),
    GenericEntropy([1, Fraction(1, 8), Fraction(1, 10)]), SThird(Fraction(4, 5)), SThird(Fraction(7, 10), kB=2.0),
]


def count_calls(monkeypatch, name):
    """Count the calls of thermo's function ``name`` from now on."""
    calls = []
    original = getattr(thermo, name)

    def counted(*args):
        calls.append(1)
        return original(*args)

    monkeypatch.setattr(thermo, name, counted)
    return calls


def solve_outcome(problem):
    """maxent_solve's p, or the text of its SpecError."""
    try:
        return maxent_solve(problem).distribution.p
    except SpecError as exc:
        return str(exc)


CORPUS_KINDS = {  # kind -> the spec at a given kB and scale constant
    "bg": lambda kB, c: BoltzmannGibbs(kB=kB, scale_c=c),
    "tsallis 1/2": lambda kB, c: Tsallis(Fraction(1, 2), kB=kB, scale_c=c),
    "tsallis 3/2": lambda kB, c: Tsallis(Fraction(3, 2), kB=kB, scale_c=c),
    "kaniadakis 1/3": lambda kB, c: Kaniadakis(Fraction(1, 3), kB=kB, scale_c=c),
    "borges_roditi 3/5 -1/2": lambda kB, c: BorgesRoditi(Fraction(3, 5), Fraction(-1, 2), kB=kB, scale_c=c),
    "s_iii 4/5": lambda kB, c: SThird(Fraction(4, 5), kB=kB, scale_c=c),
    "s_iv 4/5": lambda kB, c: SFourth(Fraction(4, 5), kB=kB, scale_c=c),
    "s_alpha_beta_q 3/4 3/16 7/8": lambda kB, c: SAlphaBetaQ(
        Fraction(3, 4), Fraction(3, 16), Fraction(7, 8), kB=kB, scale_c=c),
    "generic 1 1/8 1/10": lambda kB, c: GenericEntropy([1, Fraction(1, 8), Fraction(1, 10)], kB=kB, scale_c=c),
}


def target_u_corpus(seed, n):
    """n seeded target-U problems (spec, levels, target).

    kB and the scale constant are 1 or 2, and L is 2, 3, 5, 20 or 100 levels
    over a span from 1e-6 to 1e150, half of them offset from 0 by 1 to 1e4
    spans.  Half of the targets lie 1e-12 to 1e-3 of the span from an extreme
    level, the rest anywhere in between.
    """
    rng = random.Random(seed)
    for _ in range(n):
        spec = CORPUS_KINDS[rng.choice(sorted(CORPUS_KINDS))](rng.choice((1.0, 2.0)), rng.choice((1, 2)))
        L = rng.choice((2, 3, 5, 20, 100))
        span = 10 ** rng.uniform(-6, 150)
        offset = 0.0 if rng.random() < 0.5 else rng.choice((-1, 1)) * span * 10 ** rng.uniform(0, 4)
        levels = [offset + span * u for u in [0.0, 1.0] + [rng.random() for _ in range(L - 2)]]
        rng.shuffle(levels)
        lo, hi = min(levels), max(levels)
        if rng.random() < 0.5:
            f = 10 ** rng.uniform(-12, -3)
            target = lo + f * (hi - lo) if rng.random() < 0.5 else hi - f * (hi - lo)
        else:
            target = lo + rng.uniform(1e-3, 1 - 1e-3) * (hi - lo)
        yield spec, tuple(levels), target


def target_u_grid(seed):
    """(spec, levels, target) for bg and each of TARGET_U_SPECS, on L = 3 and 20 levels in [0, 5]:
    equally spaced, seeded uniform draws, and degenerate (L // 3 draws, at least 2, the rest repeats
    of them), at 0.25, 0.6 and 0.9 of the way from the lowest level to the mean."""
    rng = random.Random(seed)
    for spec in (BoltzmannGibbs(), *TARGET_U_SPECS.values()):
        for L in (3, 20):
            distinct = [rng.uniform(0.0, 5.0) for _ in range(max(2, L // 3))]
            for levels in ([5 * i / (L - 1) for i in range(L)], [rng.uniform(0.0, 5.0) for _ in range(L)],
                           distinct + [rng.choice(distinct) for _ in range(L - len(distinct))]):
                lo, mean = min(levels), sum(levels) / L
                for f in (0.25, 0.6, 0.9):
                    yield spec, tuple(sorted(levels)), lo + f * (mean - lo)


class TestTargetUJointSolve:
    def test_joint_steps_leave_few_level_solves(self, monkeypatch):
        # solving the levels at every iterate took 4 to 9 level solves on this grid, median 6.  The
        # grid takes 46 in all; the bound 55 leaves 9 (20 %), and a start state whose w is p kB h' in
        # place of p / (kB h'), a first step rescaled that the halving absorbs, takes 71
        calls, counts = count_calls(monkeypatch, "_invert_h"), []
        for k, (spec, levels, target) in enumerate(target_u_grid(27)):
            calls.clear()
            sol = maxent_solve(MaxEntProblem(spec, levels, target_U=target))
            assert len(calls) <= 4, (spec.name, levels, target)
            counts.append(len(calls))
            if k % 17 == 0:  # alpha is off by 1.6e-15 on k = 102 with d_b in place of d_alpha in the last step
                p, alpha, beta = mp_target_U(spec, levels, target, sol)
                assert np.max(np.abs(sol.distribution.p - p)) <= 1e-15
                assert abs(sol.alpha - alpha) <= 1e-15 and abs(sol.beta - beta) <= 1e-15
        assert len(counts) == 126 and statistics.median(counts) == 0
        assert sum(counts) <= 55

    @pytest.mark.parametrize("kind", TARGET_U_SPECS)
    @pytest.mark.parametrize("L", [3, 20])
    def test_p_matches_a_fifty_digit_alpha_beta_solve(self, kind, L):
        spec = TARGET_U_SPECS[kind]
        levels, target = ((0.0, 1.0, 2.5), 0.8) if L == 3 else (tuple(5 * i / 19 for i in range(20)), 1.5)
        sol = maxent_solve(MaxEntProblem(spec, levels, target_U=target))
        p, alpha, beta = mp_target_U(spec, levels, target, sol)
        assert np.max(np.abs(sol.distribution.p - p)) <= 1e-15
        assert abs(sol.alpha - alpha) <= 1e-15 and abs(sol.beta - beta) <= 1e-15

    @settings(max_examples=80, deadline=None, derandomize=True, database=None)
    @given(spec=st.sampled_from(COMPARED_SPECS),
           levels=st.lists(st.integers(0, 20), min_size=2, max_size=6).filter(lambda e: min(e) < max(e)),
           f=st.one_of(st.floats(0.01, 0.99), st.sampled_from([1e-6, 1e-3, 1 - 1e-3, 1 - 1e-6])))
    # the top level sits at the q-exponential cut-off
    @example(spec=Tsallis(Fraction(9, 8)), levels=[0, 1, 100], f=5e-6)
    def test_same_outcome_as_the_bracketed_solve(self, spec, levels, f):
        levels = tuple(e / 4 for e in levels)
        lo, hi = min(levels), max(levels)
        problem = MaxEntProblem(spec, levels, target_U=lo + f * (hi - lo))
        joint = solve_outcome(problem)
        with pytest.MonkeyPatch.context() as mp_:
            mp_.setattr(thermo, "_solve_target_U", solve_target_U_bracketed)
            bracketed = solve_outcome(problem)
        assert type(joint) is type(bracketed)
        if isinstance(joint, str):
            assert joint == bracketed
        else:
            assert np.max(np.abs(joint - bracketed)) <= 1e-13

    @pytest.mark.parametrize("spec", [BoltzmannGibbs(), *TARGET_U_SPECS.values()],
                             ids=["bg", *TARGET_U_SPECS])
    @pytest.mark.parametrize("levels", [(0.0, 1.3, 2.9), (0.4, 3.1, 3.1)], ids=["spaced", "degenerate"])
    def test_three_levels_take_few_level_solves(self, monkeypatch, spec, levels):
        # the nested beta, alpha and level solves took 32 to 36 level solves
        calls = count_calls(monkeypatch, "_invert_h")
        target = levels[0] + 0.6 * (np.mean(levels) - levels[0])
        sol = maxent_solve(MaxEntProblem(spec, levels, target_U=target))
        assert len(calls) <= 15
        assert abs(sol.U - target) <= 1e-15 * (1 + target)

    def test_a_degenerate_overshoot_is_halved(self, monkeypatch):
        # the first full step clamps the lowest level and leaves the two free levels at one energy:
        # their weighted variance rounds to a tiny positive number, and the next step to 1e31
        calls = count_calls(monkeypatch, "_invert_h")
        levels, target = (0.2825779087061063, 0.802086975471106, 0.802086975471106), 0.3713765359692684
        sol = maxent_solve(MaxEntProblem(BoltzmannGibbs(), levels, target_U=target))
        assert len(calls) <= 12
        assert abs(sol.U - target) <= 1e-15

    def test_levels_near_a_large_energy_offset_do_not_crawl(self, monkeypatch):
        # every level is near 1.8 and the spread is 0.018: a residual that weighs |sum p - 1| by
        # E / (E_max - E_min) took a hundred halved steps and then the bracketed solve
        calls = count_calls(monkeypatch, "_invert_h")
        levels, target = (1.8106055071204263, 1.8286153035617074, 1.8286153035617074), 1.8144741754193057
        sol = maxent_solve(MaxEntProblem(BoltzmannGibbs(), levels, target_U=target))
        assert len(calls) <= 20
        assert abs(sol.U - target) <= 1e-15 * target

    @pytest.mark.parametrize("levels, target", [
        ((0.0, 1e19, 3e19), 1e19),
        ((1e5, 1e5 + 1e-6, 1e5 + 3e-6), 1e5 + 1e-6),
        ((-1e308, 1e308), 0.0),
        ((-1e308, 1e308), 1e307),
        ((-1e308, 0.0, 1.7e308), -5e307),
    ], ids=["spread 3e19", "spread 3e-6 at 1e5", "spread 2e308 at 0", "spread 2e308 at 1e307",
            "spread 2.7e308 at -5e307"])
    def test_bg_far_from_unit_energies(self, levels, target):
        # taken at E = 0, alpha + beta E cancels at 1e5, and at 1e19 beta's steps of 1e-20 stop
        # as if converged: the bracketed solve misses U by 0.11 % and 0.74 % of the span.  Past the
        # largest double the span was inf, every x = (E - U*) / span 0, and every target refused
        sol = maxent_solve(MaxEntProblem(BoltzmannGibbs(), levels, target_U=target))
        with mp.workdps(50):
            span = mp.mpf(max(levels)) - mp.mpf(min(levels))
            dE = [(mp.mpf(e) - mp.mpf(target)) / span for e in levels]  # from the target, in spans

            def weights(b):
                return [mp.exp(-b * d) for d in dE]

            b = mp.findroot(lambda b: mp.fsum(w * d for w, d in zip(weights(b), dE)), sol.beta * span)
            ref = np.array([float(w / mp.fsum(weights(b))) for w in weights(b)])
        assert np.max(np.abs(sol.distribution.p - ref)) <= 1e-15

    def test_energies_past_1e154_stop_relative_to_the_span(self, monkeypatch):
        # beta is 2.3e-201: a stop absolute in beta would stop at once, with U at 4e185, and past
        # 1.3e154 the slope sum w E^2 overflows, so the step is taken in units of the span
        calls = count_calls(monkeypatch, "_invert_h")
        sol = maxent_solve(MaxEntProblem(BoltzmannGibbs(), (0.0, 1e200, 3e200), target_U=1e200))
        assert len(calls) <= 8
        assert abs(sol.U - 1e200) <= 1e-12 * 1e200

    def test_kaniadakis_with_two_top_levels_meets_the_target(self):
        # beta is 151.2, and the two top levels hold 1/160 each
        sol = maxent_solve(MaxEntProblem(Kaniadakis(Fraction(1, 3)), (0.0, 0.04, 0.04), target_U=0.0005))
        assert abs(sol.beta - 151.2) < 0.1
        assert abs(sol.U - 0.0005) <= 1e-15

    def test_a_level_at_the_cut_off_is_reached(self, monkeypatch):
        # the top level sits at _P_LO, past the q-exponential cut-off, and the lowest near _P_HI:
        # a full step that frees it from that clamp overshoots unless it is cut at the kink.  The
        # solve takes 4 level solves (11 when only held-b steps were cut short of that clamp); the
        # bound 6 leaves 2
        calls = count_calls(monkeypatch, "_invert_h")
        sol = maxent_solve(MaxEntProblem(Tsallis(Fraction(9, 8)), (0.0, 0.02, 2.0), target_U=1e-5))
        assert len(calls) <= 6
        assert sol.distribution.p[2] == pytest.approx(thermo._P_LO, rel=1e-12)
        assert abs(sol.U - 1e-5) <= 1e-15

    def test_a_seeded_corpus_is_met_or_refused_as_the_bracketed_solve_refuses(self, monkeypatch):
        # every problem is met to 1e-12 of the span, plus the rounding of sum p E, or refused as the
        # bracketed beta solve refuses it.  The corpus takes 1,151 level solves, at most 33 in one
        # problem; the bounds 1,300 and 38 leave 149 (13 %) and 5 (15 %).  With only held-b steps cut
        # short of the _P_HI clamp and no joint step tried right after a level solve, it took 1,865, at
        # most 56 in one, and with the cut's move taken as d_alpha - d_b x, 1,579
        calls, solved, total = count_calls(monkeypatch, "_invert_h"), 0, 0
        for spec, levels, target in target_u_corpus(20261019, 300):
            calls.clear()
            problem = MaxEntProblem(spec, levels, target_U=target)
            try:
                sol, refused = maxent_solve(problem), None
            except SpecError as exc:
                refused = exc
            assert len(calls) <= 38, (spec.name, levels, target)
            total += len(calls)
            if refused is None:
                bound = 1e-12 * (max(levels) - min(levels)) + 16 * np.finfo(float).eps * len(levels) * max(
                    map(abs, levels))
                assert abs(sol.U - target) <= bound, (spec.name, levels, target)
                solved += 1
                continue
            with pytest.MonkeyPatch.context() as mp_:
                mp_.setattr(thermo, "_solve_target_U", solve_target_U_bracketed)
                with pytest.raises(type(refused), match=re.escape(str(refused))):
                    maxent_solve(problem)
        assert solved >= 200 and total <= 1300

    @pytest.mark.parametrize("kind", CORPUS_KINDS)
    def test_targets_near_an_extreme_level_take_few_level_solves(self, monkeypatch, kind):
        # on levels (0, 1), at 1e-6, 1e-9 and 1e-12 of the span from either end.  Where a trial step
        # that clamps the level near p = 1 at _P_HI is not cut short of the clamp, every full step does
        # so and is rejected, and the halved steps approach the root linearly: up to 59 level solves,
        # and up to 38 with the cut's move taken as d_alpha - d_b x.  They take at most 4; the bound 5
        # leaves 1
        calls, solved = count_calls(monkeypatch, "_invert_h"), 0
        for kB, c in ((1.0, 1), (1.0, 2), (2.0, 1), (2.0, 2)):
            spec = CORPUS_KINDS[kind](kB, c)
            try:
                thermo._check_monotone(spec)
            except UnsupportedRepresentation:
                continue
            for target in (1e-6, 1e-9, 1e-12, 1 - 1e-6, 1 - 1e-9, 1 - 1e-12):
                calls.clear()
                sol = maxent_solve(MaxEntProblem(spec, (0.0, 1.0), target_U=target))
                assert len(calls) <= 5, (kB, c, target)
                assert abs(sol.U - target) <= 1e-15, (kB, c, target)
                solved += 1
        assert solved >= 12

    @pytest.mark.parametrize("target", [4.8e-14, 4.9e-14, 4.95e-14, 4.5e-14])
    def test_a_target_below_the_reachable_bound_is_refused(self, target):
        # on the clamped levels the lowest reachable target is 1e-15 sum (E_i - E_min) = 5e-14; a
        # last step taken in p to first order would take a level near _P_LO below 0
        levels = tuple(5 * i / 19 for i in range(20))
        with pytest.raises(SpecError, match=re.escape(f"no beta reaches the target energy {target!r} "
                                                      "on the clamped levels")):
            maxent_solve(MaxEntProblem(BoltzmannGibbs(), levels, target_U=target))

    def test_a_target_just_above_the_reachable_bound_is_met(self):
        levels = tuple(5 * i / 19 for i in range(20))
        sol = maxent_solve(MaxEntProblem(BoltzmannGibbs(), levels, target_U=5.05e-14))
        assert abs(sol.U - 5.05e-14) <= 1e-12 * 5
        assert np.all(sol.distribution.p >= thermo._P_LO)

    def test_a_start_with_no_newton_step_is_met_or_refused(self):
        # at kB = 1e-309, w = p / kB h' is past the largest double at the uniform start, which then has
        # no Newton step.  The loop takes no step from it, and the solve is refused; a solve that meets
        # the target may replace the refusal, but nothing else may
        outcome = solve_outcome(MaxEntProblem(BoltzmannGibbs(kB=1e-309), (0.0, 1.0), target_U=0.5))
        if isinstance(outcome, str):
            assert outcome == "no beta reaches the target energy 0.5 on the clamped levels"
        else:
            assert outcome.tolist() == pytest.approx([0.5, 0.5], abs=1e-15)

    @pytest.mark.parametrize("corpus, per_solve, in_all", [
        # the grid takes at most 22 evaluations of h in a solve, 1,284 in all: the bounds leave 2 (9 %) and 16 (1 %)
        (lambda: target_u_grid(27), 24, 1300),
        # the corpus takes at most 207, 10,244 in all: the bounds leave 8 (4 %) and 26 (0.25 %).  A wrong f
        # at the level solve's _P_LO end keeps every bit here and takes 10,281
        (lambda: target_u_corpus(20261019, 300), 215, 10270),
    ], ids=["grid", "corpus"])
    def test_target_u_solves_take_few_h_evaluations(self, monkeypatch, corpus, per_solve, in_all):
        # every evaluation of h in maxent_solve, the monotone check's and the residual's included.  The
        # level-solve bounds in this class let a loop take more joint steps, trials or halvings; these do not
        calls, total = count_calls(monkeypatch, "_stationarity"), 0
        for spec, levels, target in corpus():
            calls.clear()
            solve_outcome(MaxEntProblem(spec, levels, target_U=target))
            assert len(calls) <= per_solve, (spec.name, levels, target)
            total += len(calls)
        assert total <= in_all


def fixed_beta_corpus(seed, n):
    """n seeded fixed-beta problems (spec, levels, beta, ends), drawn as ``target_u_corpus`` draws.

    kB and the scale constant are 1 or 2 (a spec whose stationarity function
    is not monotone is drawn again: maxent_solve refuses it before any level
    is solved), L is 2, 3, 5, 20 or 100 levels over a span from 1e-6 to
    1e150, half of them offset from 0 by 1 to 1e4 spans, and beta has either
    sign.  beta times the span is 1e-3 to 100 in 45 % of the problems; 0.5
    to 3 times the range of h in 45 %, so that levels clamp at either end;
    and 1e55 to 1e65 in the rest, where beta E passes 2^200, the reach that
    alpha's bracket had when alpha was measured in absolute energy.
    """
    rng = random.Random(seed)
    made = 0
    while made < n:
        spec = CORPUS_KINDS[rng.choice(sorted(CORPUS_KINDS))](rng.choice((1.0, 2.0)), rng.choice((1, 2)))
        try:
            ends = thermo._check_monotone(spec)
        except UnsupportedRepresentation:
            continue
        L = rng.choice((2, 3, 5, 20, 100))
        span = 10 ** rng.uniform(-6, 150)
        offset = 0.0 if rng.random() < 0.5 else rng.choice((-1, 1)) * span * 10 ** rng.uniform(0, 4)
        levels = [offset + span * u for u in [0.0, 1.0] + [rng.random() for _ in range(L - 2)]]
        rng.shuffle(levels)
        kind = rng.random()
        spread = (10 ** rng.uniform(-3, 2) if kind < 0.45 else rng.uniform(0.5, 3) * (ends[0] - ends[1])
                  if kind < 0.9 else 10 ** rng.uniform(55, 65))
        yield spec, np.array(levels), rng.choice((-1, 1)) * spread / span, ends
        made += 1


def fixed_beta_levels(solve, spec, E, beta, ends):
    """solve's levels, as maxent_solve calls it, or the text of its SpecError."""
    try:
        with np.errstate(over="ignore", invalid="ignore"):
            return solve(spec, E, beta, ends)
    except SpecError as exc:
        return str(exc)


class TestFixedBetaJointSolve:
    def test_a_seeded_corpus_matches_the_nested_solve(self, monkeypatch):
        # no refusals (in absolute energy, 10 problems past alpha's 2^200 reach were refused), and p within
        # 1e-15 plus what the rounding of the targets alpha' + b x_i moves it by: eps (|alpha'| + |b x_i|) w_i,
        # w = -dp/dtarget (with alpha + beta E_i, where it reached 1e-10 with an offset).  The joint solve
        # makes 1,833 evaluations of h in all, 0.35 times the nested solve's 5,207 (2,133 when its start
        # evaluated h twice): the bound 0.4 times leaves 250 (14 %).  On one problem it makes at most twice
        # the nested solve's (one more when its start evaluated h twice); the bound leaves 2
        eps = np.finfo(float).eps
        calls, total = count_calls(monkeypatch, "_stationarity"), np.zeros(2)
        refused = clamped = 0
        for spec, E, beta, ends in fixed_beta_corpus(20261019, 300):
            outcomes, n = [], []
            for solve in (thermo._solve_fixed_beta, solve_fixed_beta_nested):
                calls.clear()
                outcomes.append(fixed_beta_levels(solve, spec, E, beta, ends))
                n.append(len(calls))
            (joint, nested), case = outcomes, (spec.name, spec.kB, spec.scale, E.tolist(), beta)
            assert n[0] <= 2 * n[1] + 2, case
            total += n
            assert type(joint) is type(nested), case
            if isinstance(joint, str):
                assert joint == nested, case
                refused += 1
                continue
            # alpha' lies in [h_hi, h_lo], and b x_i = |beta (E_i - E_0)|
            x = np.abs(beta * (E - (E.min() if beta >= 0 else E.max())))
            rounding = eps * float(np.max((max(abs(ends[0]), abs(ends[1])) + x) * nested.w))
            assert np.max(np.abs(joint.p - nested.p)) <= 1e-15 + rounding, case
            clamped += bool(np.any(nested.w == 0))
        assert refused == 0 and clamped >= 50
        assert total[0] <= 0.4 * total[1]

    def test_a_seeded_corpus_takes_few_level_solves(self, monkeypatch):
        # the alpha bracket's safeguard solved the levels 765 times on this corpus, up to 52 times in one
        # problem, and the joint iteration in absolute energy 141 times, at most 3 in one.  Measured from
        # the ground level it takes 21, at most 3 in one: the bound 25 leaves 4 (19 %), and the bound 4
        # per problem leaves 1
        calls, total = count_calls(monkeypatch, "_invert_h"), 0
        for spec, E, beta, ends in fixed_beta_corpus(20261019, 300):
            calls.clear()
            fixed_beta_levels(thermo._solve_fixed_beta, spec, E, beta, ends)
            assert len(calls) <= 4, (spec.name, spec.kB, spec.scale, E.tolist(), beta)
            total += len(calls)
        assert total <= 25

    def test_p_is_unchanged_by_an_exact_shift_of_the_levels(self):
        # on a 2^-20 grid, E + 2^k and E - E_0 are exact, so the solve sees the same problem at every
        # offset.  With the targets alpha + beta E formed in absolute energy, p moved on 357 of these 360
        # problems, by up to 3.8e-10 at 2^20
        rng = random.Random(20261020)
        for kind, make in CORPUS_KINDS.items():
            specs = []
            for kB, c in ((1.0, 1), (1.0, 2), (2.0, 1), (2.0, 2)):
                try:
                    specs.append((make(kB, c), thermo._check_monotone(make(kB, c))))
                except UnsupportedRepresentation:
                    pass
            for _ in range(40):
                spec, ends = rng.choice(specs)
                levels = [rng.randrange(2 ** 22) / 2 ** 20 for _ in range(rng.choice((2, 3, 5, 20)))]
                # beta times the span 1e-2 to 3 times the range of h, so that levels clamp at either end
                beta = rng.choice((-1, 1)) * 10 ** rng.uniform(-2, math.log10(3 * (ends[0] - ends[1]))) / 4
                p = [[v.hex() for v in maxent_solve(MaxEntProblem(
                    spec, tuple(e + offset for e in levels), beta=beta)).distribution.p.tolist()]
                    for offset in (0, 2 ** 7, 2 ** 13, 2 ** 20)]
                assert p[1:] == p[:1] * 3, (kind, spec.kB, spec.scale, levels, beta)

    @pytest.mark.parametrize("beta", [0.0, 1e-310, -1e-310])
    def test_levels_spanning_past_the_largest_double(self, beta):
        # E - E_0 passes the largest double, so x is taken as beta E - beta E_0: beta (E - E_0) would be
        # nan at beta = 0, and inf, a clamped level, at +-1e-310
        E = np.array([-1e308, 1e308])
        p = maxent_solve(MaxEntProblem(BoltzmannGibbs(), tuple(E), beta=beta)).distribution.p
        w = np.exp(-beta * E)
        assert p.tolist() == pytest.approx((w / w.sum()).tolist(), rel=1e-15)

    def test_twenty_levels_take_few_evaluations(self, monkeypatch):
        # the nested solve evaluated h on the levels 39 times, 29 of them on all 20 levels.  The joint
        # solve takes 9 with the monotonicity check and the residual (10 when its start evaluated h
        # twice); the bound 11 leaves 2
        calls = count_calls(monkeypatch, "_stationarity")
        levels = tuple(5 * i / 19 for i in range(20))
        maxent_solve(MaxEntProblem(Tsallis(Fraction(1, 2)), levels, beta=1.0))
        assert len(calls) <= 11

    @pytest.mark.parametrize("beta", [10.0, 40.0, -40.0])
    def test_two_levels_at_the_clamp_kink_take_few_evaluations(self, monkeypatch, beta):
        # h of Tsallis 3/2 spans 3 between the clamps, so one level clamps at _P_LO and the other lies
        # at the _P_HI kink.  The solve with an alpha bracket took 6, 5 and 5 evaluations of h, the
        # monotonicity check and the residual included; the joint iteration took 5, 4 and 4 in absolute
        # energy, 4, 4 and 4 from the ground level, and takes 3, 3 and 3 with h evaluated once in its
        # start.  The bound 4 leaves 1
        calls = count_calls(monkeypatch, "_stationarity")
        sol = maxent_solve(MaxEntProblem(Tsallis(Fraction(3, 2)), (0.0, 1.0), beta=beta))
        assert len(calls) <= 4
        assert sorted(sol.distribution.p.tolist()) == pytest.approx([thermo._P_LO, thermo._P_HI], abs=1e-15)

    def test_fixed_beta_at_the_solved_beta_meets_the_target(self):
        # the two modes solve the same system: at the beta a target-U solve returns, a fixed-beta
        # solve gives its p back.  The worst cases on this grid are 3.3e-16 in p and 8.9e-16 in U
        for spec, levels, target in target_u_grid(27):
            sol = maxent_solve(MaxEntProblem(spec, levels, target_U=target))
            fixed = maxent_solve(MaxEntProblem(spec, levels, beta=sol.beta))
            assert np.max(np.abs(fixed.distribution.p - sol.distribution.p)) <= 1e-15, (spec.name, levels, target)
            assert abs(fixed.U - target) <= 1e-14, (spec.name, levels, target)

    @pytest.mark.parametrize("beta", [-2.0, 1.0, 3.0])
    def test_the_levels_keep_their_meaning(self, beta):
        # t = ln 1/p before normalization, w = p / kB h'(t), and clamped levels at the clamps with w = 0
        spec, E = Tsallis(Fraction(3, 2)), np.array([0.0, 0.5, 1.0, 2.0, 4.0, 8.0])
        ends = thermo._check_monotone(spec)
        levels = fixed_beta_levels(thermo._solve_fixed_beta, spec, E, beta, ends)
        target = levels.alpha + beta * E
        low, high = target >= ends[0], target <= ends[1]
        assert np.any(low | high) and not np.all(low | high)
        assert levels.t[low].tolist() == [thermo._T_HI] * np.count_nonzero(low)
        assert levels.t[high].tolist() == [thermo._T_LO] * np.count_nonzero(high)
        assert np.all(levels.w[low | high] == 0)
        free = ~(low | high)
        p = np.exp(-levels.t[free])
        assert np.max(np.abs(levels.w[free] * spec.kB * spec.dh(levels.t[free]) / p - 1)) <= 1e-12
        assert np.max(np.abs(p / p.sum() - levels.p[free] / levels.p[free].sum())) <= 1e-15


def seeded_problems():
    """The 2,226 seeded MaxEnt problems: target-U corpora at seeds 1, 2, 3 and 20261019, the target-U
    grid at 27, and fixed-beta corpora at seeds 20261019, 1 and 2, 300 problems per corpus."""
    for seed in (1, 2, 3, 20261019):
        for spec, levels, target in target_u_corpus(seed, 300):
            yield MaxEntProblem(spec, levels, target_U=target)
    for spec, levels, target in target_u_grid(27):
        yield MaxEntProblem(spec, levels, target_U=target)
    for seed in (20261019, 1, 2):
        for spec, E, beta, _ in fixed_beta_corpus(seed, 300):
            yield MaxEntProblem(spec, tuple(E.tolist()), beta=beta)


class TestSeededMaxEntBits:
    def test_every_seeded_problem_keeps_its_bits(self):
        # one line per problem, float.hex of alpha, beta and every p, or the text of its SpecError.  The
        # digest was taken before the sufficient-decrease term on D was deleted, which moved no bit; a
        # rule whose deletion or change moves a last bit of any output fails this test
        digest, refused = hashlib.sha256(), 0
        for problem in seeded_problems():
            try:
                sol = maxent_solve(problem)
                line = " ".join(map(float.hex, [sol.alpha, sol.beta, *sol.distribution.p.tolist()]))
            except SpecError as exc:
                line, refused = str(exc), refused + 1
            digest.update(line.encode() + b"\n")
        assert refused == 258
        assert digest.hexdigest() == "9a2577f9041d0727f56a67e8ff1feb600b5a557d482ef2eb058f72b306475306"


class TestTemperatureTable:
    def test_bg_temperature_is_inverse_beta(self):
        betas = [0.99, 1.0, 1.01]
        rows = temperature_table(BoltzmannGibbs(), ENERGIES, betas)
        mid = rows[1]
        assert mid.T == pytest.approx(1.0, rel=1e-3)
        assert mid.free_energy == pytest.approx(mid.U - mid.T * mid.S, rel=1e-12)

    def test_edges_have_no_temperature(self):
        rows = temperature_table(BoltzmannGibbs(), ENERGIES, [0.5, 1.0, 1.5])
        assert rows[0].T is None and rows[-1].T is None

    def test_needs_three_points(self):
        with pytest.raises(SpecError):
            temperature_table(BoltzmannGibbs(), ENERGIES, [1.0, 2.0])


class TestAsymptoticScan:
    def test_growth_classification(self):
        rows = asymptotic_scan(
            {
                "bg": BoltzmannGibbs(),
                "ts": Tsallis(0.5),
                "sd": SDelta(2),
            }
        )
        by_label = {r.label: r for r in rows}
        assert by_label["bg"].family == "(ln W)^a"
        assert by_label["bg"].exponent == pytest.approx(1.0, abs=0.02)
        assert by_label["ts"].family == "W^b"
        assert by_label["ts"].exponent == pytest.approx(0.5, abs=0.02)
        assert by_label["sd"].family == "(ln W)^a"
        assert by_label["sd"].exponent == pytest.approx(2.0, abs=0.02)

    def test_values_attached(self):
        rows = asymptotic_scan({"bg": BoltzmannGibbs()}, W_max=1e6, points=7)
        assert len(rows[0].values) == 7

    @pytest.mark.parametrize(
        "label, spec",
        [("s_iii:q=3/2", SThird(Fraction(3, 2))), ("generic:a=1,-1", GenericEntropy([1, -1]))],
    )
    def test_rejects_an_entropy_that_is_not_positive(self, label, spec):
        # log S has no value to fit: S(uniform W) < 0 on the top of the grid
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(SpecError, match=re.escape(label)):
                asymptotic_scan({label: spec})
