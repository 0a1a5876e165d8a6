"""Occupation laws, extensivity, canonical MaxEnt, and asymptotic scans."""

import math
import re
import warnings
from fractions import Fraction

import mpmath as mp
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.optimize import minimize

from gentropy import thermo
from gentropy.catalog import (
    BoltzmannGibbs,
    BorgesRoditi,
    Distribution,
    GenericEntropy,
    Kaniadakis,
    SDelta,
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
INVERSE_SPECS = {
    "borges_roditi 1/2 -1/3": BorgesRoditi(Fraction(1, 2), Fraction(-1, 3)),
    "borges_roditi 1/10 -3/5": BorgesRoditi(Fraction(1, 10), Fraction(-3, 5)),
    "s_iii 4/5": SThird(Fraction(4, 5)),
    "generic": GenericEntropy([1, Fraction(1, 8), Fraction(1, 10)]),
}
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


def mp_target_U_p(spec, levels, target, sol):
    """The MaxEnt p with mean energy target, with alpha, beta and each level's root at 50 digits.

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
        return np.array([float(v) for v in p(alpha, beta)])


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
        assert extensivity_check(spec, 1000, law).rows == scalar_extensivity_rows(spec, ln_W)

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
        for N, lw, S, resid, _ in extensivity_check(spec, 200, law).rows:
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
        report = extensivity_check(spec, 8, occupation_law(spec, 3))
        assert [row[0] for row in report.rows] == list(range(1, 9))

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
        # converges linearly: hundreds of array evaluations instead of a few dozen
        calls = []
        original = thermo._stationarity

        def stationarity(spec, t):
            calls.append(np.size(t))
            return original(spec, t)

        monkeypatch.setattr(thermo, "_stationarity", stationarity)
        levels = tuple(5 * i / 19 for i in range(20))
        maxent_solve(MaxEntProblem(Tsallis(Fraction(1, 2)), levels, beta=1.0))
        assert len(calls) <= 60

    @pytest.mark.parametrize("beta", [30.0, -30.0])
    def test_an_alpha_start_at_the_clamp_kink_does_not_crawl(self, monkeypatch, beta):
        # the Gibbs weight of the lowest level rounds past _P_HI, where -ln sum p has a kink (the
        # clamped level adds no slope); started on the kink, the solve made 113 and 110 array
        # calls, and started just past it, 20 and 19.  alpha is near -1 and 149, so p is checked
        # against the normalized MaxEnt p, not against roots at the rounded targets
        calls = []
        original = thermo._stationarity

        def stationarity(spec, t):
            calls.append(np.size(t))
            return original(spec, t)

        monkeypatch.setattr(thermo, "_stationarity", stationarity)
        spec, levels = SThird(Fraction(3, 4)), (0.0, 1.25, 2.5, 3.75, 5.0)
        sol = maxent_solve(MaxEntProblem(spec, levels, beta=beta))
        assert len(calls) <= 30
        assert np.max(np.abs(sol.distribution.p - mp_maxent_p(spec, levels, beta, sol))) <= 1e-15

    @pytest.mark.parametrize("target", [0.2, 4.8], ids=["past [0, 1]", "past [-1, 0]"])
    def test_target_energy_near_an_extreme_level_grows_the_beta_bracket(self, monkeypatch, target):
        # beta is about +-6.6: the bracket doubles out from [0, 1] or [-1, 0] to [4, 8] or [-8, -4]
        monkeypatch.setattr(thermo, "_solve_target_U", thermo._solve_target_U_bracketed)
        levels = tuple(5 * i / 19 for i in range(20))
        sol = maxent_solve(MaxEntProblem(Tsallis(Fraction(1, 2)), levels, target_U=target))
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
        # at beta < 0 the bracket ends are h_hi - max(beta E) and h_lo - min(beta E)
        levels = (0.0, 1.0, 2.0, 3.0)
        spec = Tsallis(Fraction(3, 2))
        sol = maxent_solve(MaxEntProblem(spec, levels, beta=-2.0))
        targets = sol.alpha + sol.beta * np.array(levels)
        assert np.max(np.abs(sol.distribution.p - mp_level_p(spec, targets))) <= 1e-15

    def test_alpha_bracket_is_clipped_to_the_old_reach(self):
        # beta E reaches 1e61, past 2^200: the clipped bracket holds no sign change
        with pytest.raises(SpecError, match="no alpha normalizes"):
            maxent_solve(MaxEntProblem(Tsallis(Fraction(1, 2)), (0.0, 1.0, 2.0), beta=-1e61))


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


class TestTargetUJointSolve:
    @pytest.mark.parametrize("kind", TARGET_U_SPECS)
    @pytest.mark.parametrize("L", [3, 20])
    def test_p_matches_a_fifty_digit_alpha_beta_solve(self, kind, L):
        spec = TARGET_U_SPECS[kind]
        levels, target = ((0.0, 1.0, 2.5), 0.8) if L == 3 else (tuple(5 * i / 19 for i in range(20)), 1.5)
        sol = maxent_solve(MaxEntProblem(spec, levels, target_U=target))
        assert np.max(np.abs(sol.distribution.p - mp_target_U_p(spec, levels, target, sol))) <= 1e-15

    @settings(max_examples=80, deadline=None, derandomize=True, database=None)
    @given(spec=st.sampled_from(COMPARED_SPECS),
           levels=st.lists(st.integers(0, 20), min_size=2, max_size=6).filter(lambda e: min(e) < max(e)),
           f=st.one_of(st.floats(0.01, 0.99), st.sampled_from([1e-6, 1e-3, 1 - 1e-3, 1 - 1e-6])))
    # the top level sits at the q-exponential cut-off: the bracketed solve takes over
    @example(spec=Tsallis(Fraction(9, 8)), levels=[0, 1, 100], f=5e-6)
    def test_same_outcome_as_the_bracketed_solve(self, spec, levels, f):
        levels = tuple(e / 4 for e in levels)
        lo, hi = min(levels), max(levels)
        problem = MaxEntProblem(spec, levels, target_U=lo + f * (hi - lo))
        joint = solve_outcome(problem)
        with pytest.MonkeyPatch.context() as mp_:
            mp_.setattr(thermo, "_solve_target_U", thermo._solve_target_U_bracketed)
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

    def test_a_degenerate_overshoot_is_halved_not_handed_on(self, monkeypatch):
        # the first full step clamps the lowest level and leaves the two free levels at one energy:
        # their weighted variance rounds to a tiny positive number, and the next step to 1e31
        bracketed = count_calls(monkeypatch, "_solve_target_U_bracketed")
        levels, target = (0.2825779087061063, 0.802086975471106, 0.802086975471106), 0.3713765359692684
        sol = maxent_solve(MaxEntProblem(BoltzmannGibbs(), levels, target_U=target))
        assert not bracketed
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
    ], ids=["spread 3e19", "spread 3e-6 at 1e5"])
    def test_bg_far_from_unit_energies(self, levels, target):
        # taken at E = 0, alpha + beta E cancels at 1e5, and at 1e19 beta's steps of 1e-20 stop
        # as if converged: the bracketed solve misses U by 0.11 % and 0.74 % of the span
        sol = maxent_solve(MaxEntProblem(BoltzmannGibbs(), levels, target_U=target))
        span = max(levels) - min(levels)
        with mp.workdps(50):
            dE = [(mp.mpf(e) - mp.mpf(target)) / span for e in levels]  # from the target, in spans

            def weights(b):
                return [mp.exp(-b * d) for d in dE]

            b = mp.findroot(lambda b: mp.fsum(w * d for w, d in zip(weights(b), dE)), sol.beta * span)
            ref = np.array([float(w / mp.fsum(weights(b))) for w in weights(b)])
        assert np.max(np.abs(sol.distribution.p - ref)) <= 1e-15

    def test_the_bracketed_solve_stops_relative_to_the_span(self, monkeypatch):
        # beta's 4-ulp stop was absolute: it stopped at 8.88e-16, with U at 4e185
        bracketed = count_calls(monkeypatch, "_solve_target_U_bracketed")
        sol = maxent_solve(MaxEntProblem(BoltzmannGibbs(), (0.0, 1e200, 3e200), target_U=1e200))
        assert bracketed
        assert abs(sol.U - 1e200) <= 1e-12 * 1e200

    def test_kaniadakis_with_two_top_levels_meets_the_target(self):
        # beta is 151.2, and the two top levels hold 1/160 each
        sol = maxent_solve(MaxEntProblem(Kaniadakis(Fraction(1, 3)), (0.0, 0.04, 0.04), target_U=0.0005))
        assert abs(sol.beta - 151.2) < 0.1
        assert abs(sol.U - 0.0005) <= 1e-15

    def test_a_level_at_the_cut_off_is_reached_by_the_bracketed_solve(self, monkeypatch):
        # the top level sits at _P_LO, past the q-exponential cut-off; the joint steps stall there
        bracketed = count_calls(monkeypatch, "_solve_target_U_bracketed")
        sol = maxent_solve(MaxEntProblem(Tsallis(Fraction(9, 8)), (0.0, 0.02, 2.0), target_U=1e-5))
        assert bracketed
        assert sol.distribution.p[2] == pytest.approx(thermo._P_LO, rel=1e-12)
        assert abs(sol.U - 1e-5) <= 1e-15


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
