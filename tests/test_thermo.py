"""Occupation laws, extensivity, canonical MaxEnt, and asymptotic scans."""

import math
import re
import warnings
from fractions import Fraction

import numpy as np
import pytest
from scipy.optimize import brentq, minimize

from gentropy import thermo
from gentropy.catalog import (
    BoltzmannGibbs,
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
        h_lo, h_hi = (thermo._stationarity(spec, p) for p in (thermo._P_LO, thermo._P_HI))
        target = 0.3 * h_lo + 0.7 * h_hi
        direct = brentq(lambda p: thermo._stationarity(spec, p) - target,
                        thermo._P_LO, thermo._P_HI, xtol=1e-16, rtol=8.9e-16, maxiter=200)
        calls = []

        def stationarity(spec, p):
            calls.append(p)
            return original(spec, p)

        original = thermo._stationarity
        monkeypatch.setattr(thermo, "_stationarity", stationarity)
        assert thermo._invert_h(spec, target, h_lo, h_hi) == direct
        assert calls and not {thermo._P_LO, thermo._P_HI} & set(calls)

    def test_fixed_energy_mode_without_log_inverse(self):
        # every inner solve meets s_iii's missing log inverse at -beta E
        sol = maxent_solve(MaxEntProblem(SThird(Fraction(4, 5)), (0, 1, 2, 3), target_U=1.0))
        assert sol.U == pytest.approx(1.0, abs=1e-9)
        assert math.isnan(sol.Z)

    def test_fixed_energy_mode_on_a_slow_alpha_solve(self):
        # the inner alpha solve needs more than brentq's default 100 iterations
        target = 3.0468555453721207
        levels = (0.269555408149792, 5.253742259270281, 5.253742259270281)
        sol = maxent_solve(MaxEntProblem(Tsallis(Fraction(3, 2)), levels, target_U=target))
        assert abs(sol.U - target) <= 1e-9

    def test_non_exponential_spec_rejected(self):
        with pytest.raises(UnsupportedRepresentation):
            maxent_solve(MaxEntProblem(SDelta(2), ENERGIES, beta=1.0))


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
