"""Axiom and property checkers: verdicts, witnesses, reproducibility."""

from fractions import Fraction

import numpy as np
import pytest

from gentropy.axioms import (
    FAIL,
    INCONCLUSIVE,
    PASS,
    AxiomReport,
    ParameterRegion,
    _dirichlet_pairs,
    check_concavity_condition,
    check_concavity_numeric,
    check_sk2_maximum,
    check_sk3_expansibility,
    check_sk4_bg,
    check_strict_composability,
    check_weak_composability,
    lesche_probe,
    scan_concavity,
)
from gentropy.catalog import (
    BoltzmannGibbs,
    Distribution,
    DistributionError,
    GenericEntropy,
    JointDistribution,
    Kaniadakis,
    SAlphaBetaQ,
    SDelta,
    SThird,
    Tsallis,
)
from gentropy.cli import main

FIX = Distribution([0.5, 0.3, 0.2])


class TestAxiomReport:
    def test_fail_requires_witness(self):
        with pytest.raises(ValueError):
            AxiomReport(axiom="x", verdict=FAIL, worst_residual=1.0)

    def test_pass_without_witness_ok(self):
        rep = AxiomReport(axiom="x", verdict=PASS, worst_residual=0.0)
        assert rep.witness is None


class TestParameterRegion:
    def test_interior_grid(self):
        region = ParameterRegion({"q": (0.0, 1.0)}, resolution=3)
        pts = [g["q"] for g in region.grid()]
        assert len(pts) == 3
        assert all(0.0 < q < 1.0 for q in pts)

    def test_grid_is_cartesian(self):
        region = ParameterRegion({"a": (0, 1), "b": (0, 1)}, resolution=2)
        assert len(list(region.grid())) == 4

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            ParameterRegion({})


class TestConcavityCondition:
    def test_bg_sequence_passes(self):
        rep = check_concavity_condition([Fraction(1), Fraction(0), Fraction(0)])
        assert rep.verdict == PASS

    def test_decaying_sequence_passes(self):
        # a_k = (1/2)^k / k! satisfies a_k > (k+1) a_{k+1}
        a = Tsallis(Fraction(1, 2)).a_sequence(8)
        assert check_concavity_condition(a).verdict == PASS

    def test_violation_is_inconclusive_not_fail(self):
        a = SThird(Fraction(4, 5)).a_sequence(6)  # has negative terms
        rep = check_concavity_condition(a)
        assert rep.verdict == INCONCLUSIVE

    def test_per_k_table_attached(self):
        rep = check_concavity_condition([Fraction(1), Fraction(1)])
        assert rep.details["per_k"]

    @pytest.mark.parametrize("a", [[], [Fraction(1)]], ids=["empty", "one term"])
    def test_no_inequality_is_inconclusive(self, a):
        assert check_concavity_condition(a).verdict == INCONCLUSIVE


class TestConcavityNumeric:
    def test_bg(self):
        assert check_concavity_numeric(BoltzmannGibbs()).verdict == PASS

    @pytest.mark.parametrize("q", [0.70, 0.80, 0.90])
    def test_siii_in_claimed_range(self, q):
        assert check_concavity_numeric(SThird(q)).verdict == PASS

    def test_siii_outside_range_fails_with_witness(self):
        rep = check_concavity_numeric(SThird(0.4))
        assert rep.verdict == FAIL
        assert rep.witness is not None

    def test_closed_form_used_for_exponential_class(self):
        rep = check_concavity_numeric(Tsallis(0.5))
        assert rep.details["method"] == "closed-form"

    def test_kaniadakis_kappa_one_witness_is_exact(self):
        # x G(ln 1/x) = (1 - x^2)/2 has second derivative -1 at every x;
        # G'' - G' formed by subtraction left rounding noise of size 1/x
        rep = check_concavity_numeric(Kaniadakis(1))
        assert rep.verdict == PASS
        assert rep.witness["second_derivative"] == pytest.approx(-1.0, abs=1e-12)

    def test_numeric_fallback_for_sdelta(self):
        rep = check_concavity_numeric(SDelta(2))
        assert rep.details["method"] == "central-differences"

    def test_scan_over_region(self):
        region = ParameterRegion(
            {"q": (0.5, 1.4), "alpha": (0.0, 0.25), "beta": (-0.25, 0.0)}
        )
        rep = scan_concavity(
            lambda q, alpha, beta: SAlphaBetaQ(alpha, beta, q), region
        )
        assert rep.verdict == PASS
        assert rep.trials == 27


class TestSk2Maximum:
    def test_bg_passes(self):
        rep = check_sk2_maximum(BoltzmannGibbs(), 5, trials=2000, seed=0)
        assert rep.verdict == PASS
        assert rep.worst_residual == 0.0

    def test_reproducible_across_runs(self):
        r1 = check_sk2_maximum(Tsallis(0.5), 6, trials=500, seed=3)
        r2 = check_sk2_maximum(Tsallis(0.5), 6, trials=500, seed=3)
        assert r1.worst_residual == r2.worst_residual

    def test_convex_fixture_fails_with_witness(self):
        # G = t^2 puts more weight on extreme states than the uniform
        bad = GenericEntropy([0, 2], order=6)
        rep = check_sk2_maximum(bad, 2, trials=2000, seed=0)
        assert rep.verdict == FAIL
        assert rep.witness is not None
        p = Distribution(rep.witness["p"])
        assert bad.evaluate(p) > bad.evaluate(Distribution.uniform(2))

    def test_exhaustive_grid_cross_check(self):
        # independent oracle: dense grid over the 3-state simplex
        ts = Tsallis(0.5)
        best = 0.0
        n = 60
        for i in range(1, n):
            for j in range(1, n - i):
                p = Distribution([i / n, j / n, (n - i - j) / n])
                best = max(best, ts.evaluate(p))
        assert best <= ts.evaluate(Distribution.uniform(3)) + 1e-12


class TestSk3Expansibility:
    @pytest.mark.parametrize(
        "spec",
        [BoltzmannGibbs(), Kaniadakis(0.4), Tsallis(2), SThird(0.8)],
        ids=["bg", "kaniadakis", "tsallis", "siii"],
    )
    def test_exact_equality(self, spec):
        rep = check_sk3_expansibility(spec, FIX)
        assert rep.verdict == PASS
        assert rep.worst_residual == 0.0

    def test_scd_constant_not_double_counted(self):
        from gentropy.scd import ScdEntropy

        rep = check_sk3_expansibility(ScdEntropy(1, 2), FIX)
        assert rep.verdict == PASS


class TestWeakComposability:
    def test_bg_additive(self):
        rep = check_weak_composability(BoltzmannGibbs(), 4, 9)
        assert rep.verdict == PASS

    def test_null_composability_via_wb_one(self):
        rep = check_weak_composability(Kaniadakis(0.5), 7, 1)
        assert rep.verdict == PASS

    def test_sdelta_monoid_rule(self):
        rep = check_weak_composability(SDelta(2), 2, 3)
        assert rep.verdict == PASS
        assert rep.details["monoid_only"]

    @pytest.mark.parametrize("wa", [2, 3, 5, 10])
    @pytest.mark.parametrize("wb", [2, 3, 5, 10])
    def test_kaniadakis_all_pairs(self, wa, wb):
        rep = check_weak_composability(Kaniadakis(0.3), wa, wb)
        assert rep.worst_residual <= 1e-9


class TestStrictComposability:
    def test_bg_passes(self):
        rep = check_strict_composability(BoltzmannGibbs(), 3, 4, trials=50, seed=0)
        assert rep.verdict == PASS

    def test_tsallis_passes(self):
        rep = check_strict_composability(Tsallis(0.3), 3, 4, trials=50, seed=0)
        assert rep.verdict == PASS

    def test_kaniadakis_fixed_counterexample(self):
        rep = check_strict_composability(
            Kaniadakis(0.5),
            2,
            2,
            trials=0,
            seed=0,
            extra_marginals=[((0.9, 0.1), (0.8, 0.2))],
        )
        assert rep.verdict == FAIL
        assert rep.worst_residual > 1e-6
        assert rep.witness["p_A"] == [0.9, 0.1]

    @pytest.mark.parametrize("spec", [Tsallis(0.3), SThird(0.8), SDelta(2)], ids=["tsallis", "s_iii", "s_delta"])
    def test_batch_matches_one_evaluation_per_trial(self, spec):
        # the seed draws one A then one B per trial
        rng = np.random.default_rng(7)
        worst, witness = 0.0, None
        for _ in range(30):
            da = Distribution(rng.dirichlet(np.ones(3)))
            db = Distribution(rng.dirichlet(np.ones(4)))
            s_ab = spec.evaluate(JointDistribution.product(da, db).flatten())
            residual = abs(s_ab - spec.phi(spec.evaluate(da), spec.evaluate(db))) / max(1.0, abs(s_ab))
            if residual > worst:
                worst, witness = residual, (da.p.tolist(), db.p.tolist())
        rep = check_strict_composability(spec, 3, 4, trials=30, seed=7, tol=0.0)
        assert rep.worst_residual == worst
        assert (rep.witness["p_A"], rep.witness["p_B"]) == witness

    @pytest.mark.parametrize("trials", [0, 1, 100])
    @pytest.mark.parametrize("W_A, W_B", [(1, 1), (2, 3), (5, 7), (12, 20)])
    def test_one_draw_is_the_per_trial_dirichlet_stream(self, W_A, W_B, trials):
        for seed in range(50):
            rng = np.random.default_rng(seed)
            pairs = [(rng.dirichlet(np.ones(W_A)), rng.dirichlet(np.ones(W_B))) for _ in range(trials)]
            pa, pb = _dirichlet_pairs(np.random.default_rng(seed), W_A, W_B, trials)
            assert pa.shape == (trials, W_A) and pb.shape == (trials, W_B)
            assert pa.tobytes() == b"".join(a.tobytes() for a, _ in pairs)
            assert pb.tobytes() == b"".join(b.tobytes() for _, b in pairs)

    def test_cli_witness_is_pinned(self, capsys):
        code = main(["check", "--entropy", "s_delta", "--delta", "3/2", "--axiom", "strict-composability",
                     "--seed", "3", "--wa", "4", "--wb", "5", "--trials", "37"])
        assert code == 1
        assert capsys.readouterr().out == (
            "#axiom\tverdict\tresidual\twitness\n"
            "strict-composability\tfail\t1.2546519511010684e-01\t"
            "{'p_A': [0.07237902402798335, 0.11458971957797487, 0.7870081382022758, 0.026023118191766066], "
            "'p_B': [0.1141354537862193, 0.12087809189435293, 0.08080008824006653, 0.5517143785349734, "
            "0.13247198754438802], 'S_AB': 3.271592127647434, 'composed': 3.682063072263409}\n"
        )

    @pytest.mark.parametrize("W_A, W_B", [(0, 3), (2, -1)])
    def test_empty_parts_are_rejected(self, W_A, W_B):
        with pytest.raises(DistributionError):
            check_strict_composability(BoltzmannGibbs(), W_A, W_B, trials=3)

    def test_witness_reproduces_residual(self):
        spec = SThird(0.8)
        rep = check_strict_composability(spec, 2, 3, trials=20, seed=5)
        assert rep.verdict == FAIL
        da = Distribution(rep.witness["p_A"])
        db = Distribution(rep.witness["p_B"])
        joint = JointDistribution.product(da, db).flatten()
        s_ab = spec.evaluate(joint)
        composed = spec.phi(spec.evaluate(da), spec.evaluate(db))
        assert abs(s_ab - composed) / max(1.0, abs(s_ab)) == pytest.approx(
            rep.worst_residual, rel=1e-12
        )


class TestSk4ChainRule:
    def test_product_joint(self):
        joint = JointDistribution.product(Distribution([0.6, 0.4]), FIX)
        assert check_sk4_bg(joint).verdict == PASS

    def test_correlated_joint(self):
        joint = JointDistribution([[0.5, 0.0], [0.0, 0.5]])
        rep = check_sk4_bg(joint)
        assert rep.verdict == PASS

    def test_random_joint(self):
        rng = np.random.default_rng(11)
        m = rng.dirichlet(np.ones(6)).reshape(2, 3)
        assert check_sk4_bg(JointDistribution(m)).verdict == PASS


class TestLescheProbe:
    def test_always_inconclusive(self):
        rep = lesche_probe(BoltzmannGibbs(), 10, 1e-4, trials=50, seed=0)
        assert rep.verdict == INCONCLUSIVE

    def test_bg_modulus_small(self):
        rep = lesche_probe(BoltzmannGibbs(), 10, 1e-4, trials=100, seed=0)
        assert rep.worst_residual <= 0.01

    def test_zero_perturbation(self):
        rep = lesche_probe(Tsallis(0.5), 6, 0.0, trials=20, seed=0)
        assert rep.worst_residual == 0.0

    def test_negative_perturbation_rejected(self):
        with pytest.raises(ValueError):
            lesche_probe(BoltzmannGibbs(), 5, -1.0)

    @pytest.mark.parametrize("W, delta", [(5, float("nan")), (1, 1e-4)])
    def test_no_modulus_without_two_states_and_a_size(self, W, delta):
        with pytest.raises(DistributionError):
            lesche_probe(BoltzmannGibbs(), W, delta)

    def test_zero_trials(self):
        rep = lesche_probe(BoltzmannGibbs(), 5, 1e-4, trials=0)
        assert (rep.worst_residual, rep.witness) == (0.0, None)

    def test_batch_matches_one_evaluation_per_trial(self):
        spec = Kaniadakis(0.5)
        rng = np.random.default_rng(3)
        s_max = spec.evaluate(Distribution.uniform(6))
        modulus, witness = 0.0, None
        for _ in range(40):
            p = rng.dirichlet(np.ones(6))
            r = rng.dirichlet(np.ones(6))
            eps = min(1.0, 0.05 / float(np.abs(p - r).sum()))
            p2 = (1 - eps) * p + eps * r
            ratio = abs(spec.evaluate(Distribution(p)) - spec.evaluate(Distribution(p2))) / s_max
            if ratio > modulus:
                modulus, witness = ratio, {"p": p.tolist(), "p_perturbed": p2.tolist()}
        rep = lesche_probe(spec, 6, 0.05, trials=40, seed=3)
        assert (rep.worst_residual, rep.witness) == (modulus, witness)
