"""Entropy catalog: values, expansions, limits, and parameter validation."""

import math
import random
import warnings
from fractions import Fraction

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from target_u_oracle import _bracket
from terms_reference import fraction_terms

from gentropy import catalog
from gentropy.catalog import (
    BoltzmannGibbs,
    BorgesRoditi,
    Distribution,
    DistributionError,
    ExponentialSum,
    GenericEntropy,
    GroupEntropy,
    InverseError,
    JointDistribution,
    Kaniadakis,
    SAlphaBetaQ,
    SDelta,
    SFourth,
    SQDelta,
    SThird,
    SpecError,
    Tsallis,
    UnsupportedRepresentation,
    _ladder,
    _numeric_inverse,
    elementary_functional,
)
from gentropy.cli import KINDS
from gentropy.scd import ScdEntropy
from gentropy.thermo import occupation_law

FIX = Distribution([0.5, 0.3, 0.2])


class TestDistribution:
    def test_rejects_negative(self):
        with pytest.raises(DistributionError):
            Distribution([0.5, -0.1, 0.6])

    def test_rejects_bad_sum(self):
        with pytest.raises(DistributionError):
            Distribution([0.5, 0.4])

    @pytest.mark.parametrize("bad", [float("nan"), float("inf")])
    def test_rejects_non_finite(self, bad):
        with pytest.raises(DistributionError, match="finite"):
            Distribution([0.5, bad, 0.5])

    def test_uniform(self):
        d = Distribution.uniform(4)
        assert d.W == 4
        assert np.allclose(d.p, 0.25)

    def test_append_zero(self):
        d = FIX.append_zero()
        assert d.W == 4
        assert d.p[-1] == 0.0

    # the sum prints as a plain float, never as numpy's np.float64(...)
    @pytest.mark.parametrize("build", [Distribution, lambda p: JointDistribution([p])],
                             ids=["Distribution", "JointDistribution"])
    def test_bad_sum_message(self, build):
        with pytest.raises(DistributionError) as info:
            build([1 / 3, 1 / 3])
        assert str(info.value) == "probabilities sum to 0.6666666666666666, not 1 within 1e-12"

    @pytest.mark.parametrize("bad", [float("nan"), float("inf")])
    def test_joint_rejects_non_finite(self, bad):
        with pytest.raises(DistributionError, match="finite"):
            JointDistribution([[0.5, bad], [0.5, 0.0]])

    def test_joint_product_marginals(self):
        j = JointDistribution.product(Distribution([0.7, 0.3]), FIX)
        assert np.allclose(j.p.sum(axis=1), [0.7, 0.3])
        assert np.allclose(j.p.sum(axis=0), FIX.p)
        assert j.flatten().W == 6


class TestElementaryFunctionals:
    def test_first_is_bg(self):
        assert elementary_functional(1, FIX) == pytest.approx(
            BoltzmannGibbs().evaluate(FIX), abs=1e-15
        )

    def test_zero_probability_convention(self):
        d = Distribution([1.0, 0.0])
        assert elementary_functional(2, d) == 0.0

    def test_index_validation(self):
        with pytest.raises(SpecError):
            elementary_functional(0, FIX)


class TestBoltzmannGibbs:
    def test_certain_event_is_zero(self):
        assert BoltzmannGibbs().evaluate(Distribution([1.0])) == 0.0

    def test_fair_coin(self):
        assert BoltzmannGibbs().evaluate(Distribution([0.5, 0.5])) == pytest.approx(
            math.log(2), abs=1e-12
        )

    def test_kb_scaling(self):
        assert BoltzmannGibbs(kB=2.0).evaluate(FIX) == pytest.approx(
            2 * BoltzmannGibbs().evaluate(FIX), rel=1e-15
        )

    def test_a_sequence(self):
        assert BoltzmannGibbs().a_sequence(4) == [1, 0, 0, 0]

    def test_log_pair(self):
        bg = BoltzmannGibbs()
        assert bg.log_inverse(bg.generalized_log(0.37)) == pytest.approx(0.37)


class TestTsallis:
    def test_q_one_rejected(self):
        with pytest.raises(SpecError):
            Tsallis(1)

    def test_closed_form(self):
        q = 0.5
        expected = (sum(p ** q for p in FIX.p) - 1) / (1 - q)
        assert Tsallis(q).evaluate(FIX) == pytest.approx(expected, rel=1e-14)

    def test_closed_form_q_above_one(self):
        q = 2.0
        expected = (sum(p ** q for p in FIX.p) - 1) / (1 - q)
        assert Tsallis(q).evaluate(FIX) == pytest.approx(expected, rel=1e-14)

    def test_expansion_printed_convention(self):
        # below q = 1 the expansion is in powers of (1-q), above in (q-1),
        # both with 1/(k+1)! weights
        s = Fraction(1, 2)
        assert Tsallis(Fraction(1, 2)).expansion_coefficients(3) == [
            Fraction(1),
            s / 2,
            s ** 2 / 6,
        ]
        assert Tsallis(2).expansion_coefficients(3) == [
            Fraction(1),
            Fraction(1, 2),
            Fraction(1, 6),
        ]

    def test_a_sequence_is_exponential(self):
        s = Fraction(-1)  # q = 2
        assert Tsallis(2).a_sequence(4) == [
            s ** k / math.factorial(k) for k in range(4)
        ]

    def test_truncated_expansion_consistency_q_below_one(self):
        # the elementary-functional expansion converges to the closed form
        ts = Tsallis(Fraction(1, 2))
        coeffs = ts.expansion_coefficients(30)
        total = sum(
            float(c) * elementary_functional(k + 1, FIX)
            for k, c in enumerate(coeffs)
        )
        assert total == pytest.approx(ts.evaluate(FIX), rel=1e-12)

    def test_q_log_pair(self):
        ts = Tsallis(0.7)
        for x in (0.2, 0.9, 2.5):
            assert ts.log_inverse(ts.generalized_log(x)) == pytest.approx(x, rel=1e-12)

    def test_f_is_cut_off_below_one(self):
        # F was -inf at 1 + (1-q) y = 0 but nan past it, at y = -3
        ts = Tsallis(Fraction(1, 2))
        y = np.array([-2.0, -3.0])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert ts.F(y).tolist() == [-math.inf, -math.inf]
            assert ts.log_inverse(y).tolist() == [0.0, 0.0]

    def test_f_diverges_above_one(self):
        # F was +inf at 1 + (1-q) y = 0 but nan past it, at y = 3; E has no value there
        ts = Tsallis(Fraction(3, 2))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert ts.F(np.array([2.0, 3.0])).tolist() == [math.inf, math.inf]
        with pytest.raises(SpecError, match="no value at 2.0 for q > 1"):
            ts.log_inverse(2.0)


class TestKaniadakis:
    def test_parameter_domain(self):
        with pytest.raises(SpecError):
            Kaniadakis(0)
        with pytest.raises(SpecError):
            Kaniadakis(1.5)
        Kaniadakis(1)  # boundary allowed

    def test_closed_form(self):
        k = 0.4
        expected = sum(p * (p ** -k - p ** k) / (2 * k) for p in FIX.p)
        assert Kaniadakis(k).evaluate(FIX) == pytest.approx(expected, rel=1e-14)

    def test_odd_terms_vanish(self):
        a = Kaniadakis(Fraction(1, 3)).a_sequence(6)
        assert a[1] == a[3] == a[5] == 0

    def test_small_kappa_near_bg(self):
        assert Kaniadakis(1e-7).evaluate(FIX) == pytest.approx(
            BoltzmannGibbs().evaluate(FIX), abs=1e-8
        )


class TestBorgesRoditi:
    def test_equal_parameters_rejected(self):
        with pytest.raises(SpecError):
            BorgesRoditi(1, 1)

    def test_closed_form(self):
        a, b = 0.5, -0.25
        expected = sum(p * (p ** -a - p ** -b) / (a - b) for p in FIX.p)
        assert BorgesRoditi(a, b).evaluate(FIX) == pytest.approx(expected, rel=1e-13)

    def test_expansion(self):
        a, b = Fraction(1, 2), Fraction(1, 3)
        coeffs = BorgesRoditi(a, b).expansion_coefficients(3)
        assert coeffs == [1, (a + b) / 2, (a * a + a * b + b * b) / 6]

    def test_log_inverse_round_trip(self):
        br = BorgesRoditi(0.5, 0.2)
        for x in (0.3, 0.8, 1.7):
            assert br.log_inverse(br.generalized_log(x)) == pytest.approx(x, rel=1e-10)

    @pytest.mark.parametrize("gap", [Fraction(1, 10 ** 9), Fraction(1, 10 ** 12)], ids=["1e-9", "1e-12"])
    @pytest.mark.parametrize("kB, c", [(1.0, 1), (2.0, 2)], ids=["plain", "kB 2 scale 2"])
    def test_close_parameters_keep_their_relative_accuracy(self, gap, kB, c):
        # expm1(a t) - expm1(b t) cancelled: G was off by 6.2e-8 at a - b = 1e-9 and by 5.1e-5 at 1e-12
        a, b = Fraction(1, 2), Fraction(1, 2) - gap
        spec = BorgesRoditi(a, b, kB=kB, scale_c=c)
        t = [1e-8, 0.3, 2.0, 10.0]
        with mp.workdps(60):
            am, bm = (mp.mpf(v.numerator) / v.denominator for v in (a, b))

            def G(x):
                return (mp.exp(am * c * x) - mp.exp(bm * c * x)) / (am - bm)

            def h(x):
                return G(x) - mp.diff(G, x)

            refs = {"G": [G(x) for x in t], "dG": [mp.diff(G, x) for x in t], "dh": [mp.diff(h, x) for x in t],
                    "F": [mp.findroot(lambda x: G(x) - y, y) for y in t]}
            got = {"G": spec.G(np.array(t)), "dG": spec.dG(np.array(t)), "dh": spec.dh(np.array(t)),
                   "F": spec.F(np.array(t))}
            for name, ref in refs.items():
                worst = max(abs((mp.mpf(float(v)) - r) / r) for v, r in zip(got[name], ref))
                assert worst <= 1e-15, name

    def test_separated_parameters_keep_the_two_rate_sum(self):
        # the pair form is only for close rates: here G keeps the bits of the plain sum
        t = np.linspace(-5.0, 12.0, 35)
        plain = (1.0 * np.expm1(0.5 * t) + -1.0 * np.expm1(float(Fraction(-1, 3)) * t)) / float(Fraction(5, 6))
        assert BorgesRoditi(Fraction(1, 2), Fraction(-1, 3)).G(t).tolist() == plain.tolist()


class TestGroupEntropy:
    def test_constraint_validation(self):
        with pytest.raises(SpecError):
            GroupEntropy(0.5, {1: 1, -1: -1})  # weighted sum is 2, not 1
        with pytest.raises(SpecError):
            GroupEntropy(0.5, {1: 1})
        with pytest.raises(SpecError):
            GroupEntropy(0, {1: 1, 0: -1})

    def test_log_inverse_stops_bracketing_at_overflow(self):
        # s_iii's G turns back up for t < 0, so G(t) = -1 has no root there;
        # the bracket must stop where G overflows, without a warning
        s3 = SThird(Fraction(4, 5))
        calls = []

        def G(t):
            calls.extend(t.tolist())
            return s3._G(t)

        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(SpecError, match="could not bracket"):
                _numeric_inverse(G, s3._dG, np.array([-1.0]), s3._G_long)
        assert min(calls) > -2.0 ** 13  # e^(0.4 |t|) overflows past |t| = 1774

    def test_array_inverse_names_a_plain_float(self):
        with pytest.raises(SpecError) as info:
            SThird(Fraction(4, 5)).F(np.array([0.5, -1.0]))
        assert str(info.value) == "could not bracket inverse at -1.0"

    def test_siii_coefficients(self):
        s3 = SThird(Fraction(4, 5))
        assert s3.coeffs == {-2: 1, -1: -2, 1: 1}

    def test_siii_expansion(self):
        q = Fraction(4, 5)
        coeffs = SThird(q).expansion_coefficients(3)
        assert coeffs == [
            1,
            Fraction(3, 2) * (1 - q),
            Fraction(-5, 6) * (1 - q) ** 2,
        ]

    def test_siv_constraints_hold(self):
        s4 = SFourth(Fraction(9, 10))
        assert sum(s4.coeffs.values()) == 0
        assert sum(n * v for n, v in s4.coeffs.items()) == 1

    def test_sabq_expansion(self):
        al, be, q = Fraction(1, 8), Fraction(-1, 8), Fraction(9, 10)
        coeffs = SAlphaBetaQ(al, be, q).expansion_coefficients(3)
        assert coeffs == [
            1,
            Fraction(3, 2) * (al + be) * (1 - q),
            Fraction(1, 6) * (1 + 6 * al - 6 * be) * (1 - q) ** 2,
        ]

    def test_sabq_reduces_to_siv(self):
        # alpha = 1, beta = -1 gives exactly the fourth-order coefficients
        s = SAlphaBetaQ(1, -1, Fraction(9, 10))
        assert s.coeffs == SFourth(Fraction(9, 10)).coeffs

    @pytest.mark.parametrize("cls", [SThird, SFourth])
    def test_q_to_one_limit(self, cls):
        bg = BoltzmannGibbs().evaluate(FIX)
        for q in (1 + 1e-6, 1 - 1e-6):
            assert cls(q).evaluate(FIX) == pytest.approx(bg, abs=1e-4)

    def test_sabq_q_to_one_limit(self):
        bg = BoltzmannGibbs().evaluate(FIX)
        for q in (1 + 1e-6, 1 - 1e-6):
            assert SAlphaBetaQ(0.125, -0.125, q).evaluate(FIX) == pytest.approx(
                bg, abs=1e-4
            )


class TestNumericInverse:
    def test_no_point_is_evaluated_twice_per_element(self):
        # G(t) = t^3/3 + t; elements are solved independently, so one element per call shows each one's points
        calls = []

        def G(t):
            calls.extend(t.tolist())
            return t ** 3 / 3 + t

        def G_long(t):
            t = np.asarray(t, dtype=np.longdouble)
            return t ** 3 / 3 + t

        for s in (-20.0, 0.5, 20.0, 300.0):
            calls.clear()
            (t,) = _numeric_inverse(G, lambda t: t * t + 1, np.array([s]), G_long)
            assert t ** 3 / 3 + t == pytest.approx(s, rel=1e-15)
            assert len(calls) == len(set(calls)), s
            assert 0.0 not in calls  # G(0) = 0 is known
        assert 16.0 in calls and 32.0 not in calls  # s = 300: the bracket grew to [8, 16]

    def test_elements_are_solved_independently(self):
        spec = BorgesRoditi(Fraction(1, 2), Fraction(-1, 3))
        s = np.array([3.0, -2.0, 0.0, 150.0, 0.5])
        whole = _numeric_inverse(spec._G, spec._dG, s, spec._G_long)
        alone = [_numeric_inverse(spec._G, spec._dG, np.array([v]), spec._G_long)[0] for v in s]
        assert whole.tobytes() == np.array(alone).tobytes()
        assert whole[2] == 0.0


    def test_a_rise_and_fall_inverse_brackets_below_the_turning_point(self):
        # G(t) = t - t^2/200 peaks at G(100) = 50; the doubling passes the peak at 128 (G = 46.08)
        spec = GenericEntropy([1, Fraction(-1, 100)])
        t = spec.F(np.array([47.0, 49.0, 50.0]))
        assert t[2] == 100.0 and np.all(np.diff(t) > 0)
        assert spec.G(t[:2]) == pytest.approx([47.0, 49.0], rel=1e-15)
        with pytest.raises(SpecError, match="could not bracket inverse at 51.0"):
            spec.F(np.array([50.0, 51.0]))


def grow(f, d, lo, hi):
    """_bracket on one element from [lo, hi]: its no-sign-change flag, its bracket, every x evaluated."""
    calls = []

    def fdf(x, i):
        calls.extend(x.tolist())
        return f(x), d(x)

    x = np.array([lo, hi])
    bracket = np.array([x, f(x), d(x)])[:, :, None]
    return bool(_bracket(fdf, bracket)[0]), bracket[:, :, 0].tolist(), calls


class TestBracket:
    def test_growth_up_moves_the_low_end_to_the_old_high_end(self):
        short, bracket, calls = grow(lambda x: x - 5, np.ones_like, 0.0, 1.0)
        assert not short and calls == [2.0, 4.0, 8.0]
        assert bracket == [[4.0, 8.0], [-1.0, 3.0], [1.0, 1.0]]

    def test_growth_down_moves_the_high_end_to_the_old_low_end(self):
        short, bracket, calls = grow(lambda x: x + 5, np.ones_like, -1.0, 0.0)
        assert not short and calls == [-2.0, -4.0, -8.0]
        assert bracket == [[-8.0, -4.0], [-3.0, 1.0], [1.0, 1.0]]

    def test_stops_at_a_value_that_is_not_finite(self):
        short, bracket, calls = grow(lambda x: np.where(x < 64, -1.0, np.nan), np.ones_like, 0.0, 1.0)
        assert short and calls[-1] == 64.0 and bracket[0] == [32.0, 64.0]

    def test_stops_where_the_slope_turns_negative(self):
        # f = t - t^2/200 - 60 peaks below 0 at t = 100, and its slope is first negative at 128
        short, bracket, calls = grow(lambda x: x - x * x / 200 - 60, lambda x: 1 - x / 100, 0.0, 1.0)
        assert short and calls == [2.0, 4.0, 8.0, 16.0, 32.0, 64.0, 128.0]
        assert bracket[0] == [64.0, 128.0] and bracket[2][1] < 0

    def test_stops_after_200_doublings(self):
        short, bracket, calls = grow(lambda x: -np.ones_like(x), np.zeros_like, 0.0, 1.0)
        assert short and len(calls) == 200 and bracket[0] == [2.0 ** 199, 2.0 ** 200]

    def test_elements_grow_their_own_ends(self):
        def fdf(x, i):
            return x - np.array([5.0, -5.0, 0.5])[i], np.ones_like(x)

        bracket = np.array([[[0.0, -1.0, 0.0], [1.0, 0.0, 1.0]], [[-5.0, 4.0, -0.5], [-4.0, 5.0, 0.5]],
                            np.ones((2, 3))])
        assert not _bracket(fdf, bracket).any()
        assert bracket[0].T.tolist() == [[4.0, 8.0], [-8.0, -4.0], [0.0, 1.0]]


def bracketed(G, dG, goal, sign):
    """``_ladder``'s brackets the element-wise way: [0, 1] grown by ``_bracket``."""
    def fdf(u, j):
        return sign[j] * (G(sign[j] * u) - goal[j]), dG(sign[j] * u)

    bracket = np.empty((3, 2, goal.size))
    bracket[0], bracket[1, 0], bracket[2, 0] = [[0.0], [1.0]], -np.abs(goal), dG(0.0)
    bracket[1:, 1] = fdf(bracket[0, 1], slice(None))
    _bracket(fdf, bracket)
    return bracket


def _ratio(rng, lo, hi):
    return Fraction(rng.randint(lo, hi), 64)


def ladder_specs(seed):
    """One seeded spec of each kind with a numeric F, and the rise-and-fall t - t^2/200."""
    rng = random.Random(seed)

    def q():
        return 1 + _ratio(rng, 1, 40) * rng.choice((-1, 1))

    x = _ratio(rng, 1, 40)  # k_2 of a three-index group entropy; k_1 and k_-1 follow
    return [
        BorgesRoditi(_ratio(rng, 1, 60), -_ratio(rng, 1, 60)),
        SThird(q()),
        SFourth(q()),
        SAlphaBetaQ(_ratio(rng, -32, 32), _ratio(rng, -32, 32), q()),
        GroupEntropy(_ratio(rng, 1, 40), {2: x, 1: (1 - 3 * x) / 2, -1: (x - 1) / 2}),
        GenericEntropy([1, _ratio(rng, -8, 8), _ratio(rng, 1, 8)], order=12),
        GenericEntropy([1, Fraction(-1, 100)]),
    ]


# 0; +-1e-300 .. +-1e300; past the rise-and-fall's peak of 50; at and past the largest double
LADDER_GOALS = [0.0, 47.0, 50.0, 51.0, 60.0, 1.7e308, 1.79e308, math.inf] + [
    sign * 10.0 ** e for e in range(-300, 301, 50) for sign in (1, -1)]


def _inverse(G, dG, s, G_long):
    """_numeric_inverse's bytes, or the s its InverseError names."""
    try:
        return _numeric_inverse(G, dG, np.array(s), G_long).tobytes()
    except InverseError as exc:
        return exc.s


class TestLadder:
    @pytest.mark.parametrize("seed", range(4))
    def test_brackets_and_roots_equal_the_elementwise_growth(self, seed, monkeypatch):
        for spec in ladder_specs(seed):
            G, dG, G_long = spec._G, spec._dG, spec._G_long
            goal = np.array(LADDER_GOALS[1:])
            sign = np.where(goal > 0, 1.0, -1.0)
            with np.errstate(all="ignore"):
                np.testing.assert_array_equal(_ladder(G, dG, goal, sign), bracketed(G, dG, goal, sign))
            ladder = [_inverse(G, dG, LADDER_GOALS, G_long)] + [_inverse(G, dG, [s], G_long) for s in LADDER_GOALS]
            with monkeypatch.context() as mp_:
                mp_.setattr(catalog, "_ladder", bracketed)
                grown = [_inverse(G, dG, LADDER_GOALS, G_long)] + [_inverse(G, dG, [s], G_long) for s in LADDER_GOALS]
            assert ladder == grown, spec.name

    def test_an_f_past_the_largest_double_stops_its_element_where_g_is_finite(self, monkeypatch):
        # G dips to -1.5e308 at |t| = 1, so f = G - 1e308 there is -inf: the element-wise growth
        # stops there, although G reaches 1e308 by t = 128
        def G(t):
            return np.where(np.abs(t) == 1.0, -1.5e308 * t, 1e306 * t)

        def dG(t):
            return np.full(np.shape(t), 1e306)

        goal = np.array([1e308, 1e307, -1e308, -1e307])
        sign = np.where(goal > 0, 1.0, -1.0)
        with np.errstate(all="ignore"):
            bracket = _ladder(G, dG, goal, sign)
            np.testing.assert_array_equal(bracket, bracketed(G, dG, goal, sign))
        assert bracket[0].T.tolist() == [[0.0, 1.0], [8.0, 16.0], [0.0, 1.0], [8.0, 16.0]]
        for s in goal:
            with monkeypatch.context() as mp_:
                mp_.setattr(catalog, "_ladder", bracketed)
                grown = _inverse(G, dG, [s], G)
            assert _inverse(G, dG, [s], G) == grown
        assert _inverse(G, dG, goal, G) == 1e308


def newton_calls(fdf, ends, x):
    """catalog._newton on one element with bracket ``ends`` (x, f and d at both ends), started at x:
    the root, and the number of times fdf is called."""
    calls = []

    def counted(x, i):
        calls.append(1)
        return fdf(x)

    root, _ = catalog._newton(counted, np.array(ends, dtype=float)[:, :, None], np.array([x]))
    return root[0], len(calls)


class TestNewton:
    def test_an_exact_root_with_zero_slope_freezes_at_once(self):
        # at x = 0, f = x^3 is 0 and so is its slope: the step 0 / 0 is nan, and only f == 0 freezes the
        # element there; without that rule it would be evaluated 200 times at its root
        assert newton_calls(lambda x: (x ** 3, 3 * x ** 2), [[-1, 2], [-1, 8], [3, 12]], 0.0) == (0.0, 1)

    @pytest.mark.parametrize("ends, start", [([[0, 1], [0, 1], [1, 1]], 0.5), ([[-1, 0], [-1, 0], [1, 1]], -0.5)])
    def test_an_end_where_f_is_0_is_the_root(self, ends, start):
        # f = x on [0, 1] or [-1, 0]: the start moves to the end where f is 0 before f is evaluated; a
        # Newton step from the start would land on that end, outside the open bracket, and bisect
        assert newton_calls(lambda x: (x, np.ones(x.shape)), ends, start) == (0.0, 1)

    def test_an_element_live_after_200_steps_keeps_its_x(self):
        # with a slope of 1e-300 every Newton step leaves the bracket [0, 1e300], so each step bisects
        # it; bisection needs about 1,000 steps to reach the root 1, and the element stops at the cap
        root, calls = newton_calls(lambda x: (x - 1, np.full(x.shape, 1e-300)), [[0, 1e300], [-1, 1e300],
                                                                                   [1e-300, 1e-300]], 0.5e300)
        assert calls == 200 and 1 < root < 1e300 * 2.0 ** -150


class TestSDelta:
    def test_delta_one_is_bg(self):
        assert SDelta(1).evaluate(FIX) == pytest.approx(
            BoltzmannGibbs().evaluate(FIX), rel=1e-14
        )

    def test_uniform_closed_form(self):
        assert SDelta(2).evaluate(Distribution.uniform(6)) == pytest.approx(
            math.log(6) ** 2, rel=1e-14
        )

    def test_domain_validation(self):
        sd = SDelta(3.0)
        with pytest.raises(SpecError):
            sd.validate_for(2)  # 3 > 1 + ln 2
        sd.validate_for(10)

    def test_positive_delta_required(self):
        with pytest.raises(SpecError):
            SDelta(0)

    def test_no_exponential(self):
        with pytest.raises(UnsupportedRepresentation):
            SDelta(2).G(1.0)

    @pytest.mark.parametrize("delta", [0.5, 1, 2.5, 3])
    def test_is_s_q_delta_at_q_one(self, delta):
        # the closed forms S_delta had before it became the q = 1 point, bit for bit
        sd, d = SDelta(delta, kB=2.0), float(delta)
        assert isinstance(sd, SQDelta) and (sd.q, sd.sigma) == (1, 0)
        for p in (FIX.p, np.array([1.0]), np.array([0.9, 0.1, 0.0])):
            q = p[p > 0]
            assert sd.evaluate(Distribution(p)) == 2.0 * float(np.sum(q * (-np.log(q)) ** d))
        for x, y in [(0.3, 1.7), (0.0, 2.0), (1e150, 1e150)]:  # u v overflows at the last for delta 1/2
            assert sd.phi(x, y) == 2.0 * ((x / 2.0) ** (1 / d) + (y / 2.0) ** (1 / d)) ** d


class TestSQDelta:
    def test_delta_one_is_tsallis(self):
        q = 0.6
        assert SQDelta(q, 1).evaluate(FIX) == pytest.approx(
            Tsallis(q).evaluate(FIX), rel=1e-14
        )

    def test_parameter_validation(self):
        with pytest.raises(SpecError):
            SQDelta(1, 2)
        with pytest.raises(SpecError):
            SQDelta(0.5, 0)

    def test_q_one_points_to_s_delta(self):
        # S_delta is the q = 1 point, but SQDelta itself still turns q = 1 away
        with pytest.raises(SpecError, match="^q = 1 with general delta is the s_delta case$"):
            SQDelta(1, 2)

    def test_uniform_closed_form(self):
        q, d = 0.5, 2.0
        W = 5
        lnq = (W ** (1 - q) - 1) / (1 - q)
        assert SQDelta(q, d).evaluate(Distribution.uniform(W)) == pytest.approx(
            lnq ** d, rel=1e-13
        )


class TestGenericEntropy:
    def test_matches_bg_for_unit_sequence(self):
        g = GenericEntropy([1], order=8)
        assert g.evaluate(FIX) == pytest.approx(
            BoltzmannGibbs().evaluate(FIX), rel=1e-12
        )

    def test_normalized_flag(self):
        assert GenericEntropy([1, 2]).normalized
        assert not GenericEntropy([2, 1]).normalized

    def test_leading_zero_disables_group_law(self):
        g = GenericEntropy([0, 2])
        assert not g.has_group_law

    def test_truncation_indicator(self):
        g = GenericEntropy([1, 1], order=4)
        assert g.truncation_indicator(0.5) > 0

    def test_empty_rejected(self):
        with pytest.raises(SpecError):
            GenericEntropy([])

    @pytest.mark.parametrize("a", [[1, math.nan], [1, 0.5, math.inf], [math.nan], [1, -math.inf, 0]], ids=str)
    def test_non_finite_entries_rejected(self, a):
        # a nan entry used to pass through to a float series that gave nan everywhere
        with pytest.raises(SpecError, match="a-sequence coefficients must be finite"):
            GenericEntropy(a)

    def test_order_defaults_to_the_whole_sequence(self):
        a = [1] + [0] * 11 + [5]
        assert GenericEntropy(a).order == 13
        t = math.log(3)
        assert GenericEntropy(a).G(t) == pytest.approx(t + 5 * t ** 13 / 13, rel=1e-14)
        assert GenericEntropy(a, order=12).G(t) == pytest.approx(t, rel=1e-14)


def _same(x, y):
    """Equal values of one float type, nan where nan, and equal signs, so -0.0 is not 0.0."""
    x, y = np.asarray(x), np.asarray(y)
    return (x.dtype == y.dtype and np.array_equal(x, y, equal_nan=True)
            and np.array_equal(np.signbit(x), np.signbit(y)))


# negative t, -0.0 and huge finite |t|, where the terms overflow
HORNER_T = np.array([-1e300, -1e30, -30.0, -1.5, -1e-300, -0.0, 0.0, 5e-324, 0.5, 2.0, 30.0, 1e30, 1e300,
                     np.finfo(float).max])


def _bits(f, *args):
    """The float64 bytes of f(*args), or the error it raises."""
    try:
        return np.asarray(f(*args), dtype=float).tobytes()
    except SpecError as exc:  # both orders must fail alike
        return str(exc)


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(st.lists(st.fractions(-2, 2, max_denominator=12), min_size=1, max_size=12).filter(any))
def test_generic_order_twelve_adds_only_zeros(a):
    """len(a) <= 12: the derived order gives the same bits as order 12."""
    own, twelve = GenericEntropy(a), GenericEntropy(a, order=12)
    t = np.linspace(0.0, 30.0, 61)
    for name in ("G", "dG", "dh"):
        assert _bits(getattr(own, name), t) == _bits(getattr(twelve, name), t), name
    for s in (0.25, 1.0, 4.0):
        assert _bits(own.F, s) == _bits(twelve.F, s), s
    for dist in (FIX, Distribution.uniform(7), Distribution([0.9, 0.1, 0.0])):
        assert _bits(own.evaluate, dist) == _bits(twelve.evaluate, dist)
    # Horner starts at the highest nonzero coefficient: the same bits on the whole finite line
    with np.errstate(all="ignore"):
        for name in ("G", "dG", "d2G", "dh", "_G_long"):
            assert _same(getattr(own, name)(HORNER_T), getattr(twelve, name)(HORNER_T)), name
        untrimmed = 0.0
        for c in reversed(twelve._float.coeffs):
            untrimmed = untrimmed * HORNER_T + c
        assert _same(twelve.G(HORNER_T), untrimmed)
    for s in (-30.0, -1.0, 0.0, 1e30):
        assert _bits(own.F, s) == _bits(twelve.F, s), s
    deg = max(k for k, ak in enumerate(a) if ak) + 1
    for t in (-30.0, -1.5, -0.0, 0.5, 2.0, 30.0):
        tail = abs(float(Fraction(a[deg - 1]) / deg) * t ** deg)
        assert own.truncation_indicator(t) == twelve.truncation_indicator(t) == tail


@pytest.mark.parametrize("a", [[1], [1, Fraction(1, 8), Fraction(1, 10)]], ids=str)
def test_series_g_is_nan_at_a_non_finite_t(a):
    spec = GenericEntropy(a, order=12)
    t = np.array([math.inf, -math.inf, math.nan])
    with np.errstate(invalid="ignore"):  # the first step's 0.0 * inf
        for name in ("G", "dG", "d2G", "dh", "_G_long"):
            assert np.isnan(getattr(spec, name)(t)).all(), name
    assert math.isnan(spec._float.eval(math.inf)) and math.isnan(spec._float.eval(-math.inf))


class TestScaleConstant:
    def test_rescales_a_sequence(self):
        base = Tsallis(Fraction(1, 2)).a_sequence(4)
        scaled = Tsallis(Fraction(1, 2), scale_c=Fraction(2)).a_sequence(4)
        assert scaled == [a * Fraction(2) ** k for k, a in enumerate(base)]

    def test_g_is_composed_with_scale(self):
        ts = Tsallis(0.5)
        ts2 = Tsallis(0.5, scale_c=2)
        assert ts2.G(0.7) == pytest.approx(ts.G(1.4), rel=1e-14)

    def test_f_inverts_scaled_g(self):
        ts2 = Tsallis(0.5, scale_c=2)
        assert ts2.F(ts2.G(0.9)) == pytest.approx(0.9, rel=1e-12)

    def test_invalid_scale(self):
        with pytest.raises(SpecError):
            BoltzmannGibbs(scale_c=0)

    def test_invalid_kb(self):
        with pytest.raises(SpecError):
            BoltzmannGibbs(kB=-1)

    @pytest.mark.parametrize("kB", [math.nan, math.inf])
    def test_non_finite_kb(self, kB):
        with pytest.raises(SpecError):
            BoltzmannGibbs(kB=kB)

    # 10**400 passed the check and raised OverflowError at the first float call
    @pytest.mark.parametrize("c", [math.nan, math.inf, -math.inf, 10 ** 400], ids=["nan", "inf", "-inf", "10**400"])
    @pytest.mark.parametrize("make", [BoltzmannGibbs, lambda **kw: GenericEntropy([1, Fraction(1, 2)], **kw),
                                      lambda **kw: Tsallis(Fraction(1, 2), **kw)], ids=["bg", "generic", "tsallis"])
    def test_non_finite_scale(self, make, c):
        # a nan scale passed `scale_c <= 0` and gave nan from every evaluation; the
        # exponential-sum kinds are in TestLazyTables.test_bad_parameter_raises_at_construction
        with pytest.raises(SpecError, match="scale constant must be positive and finite"):
            make(scale_c=c)

    @pytest.mark.parametrize("c", [Fraction(2), Fraction(3, 2)], ids=str)
    @pytest.mark.parametrize(
        "make", [BoltzmannGibbs, lambda **kw: Tsallis(Fraction(1, 2), **kw),
                 lambda **kw: Kaniadakis(Fraction(1, 2), **kw)],
        ids=["bg", "tsallis", "kaniadakis"],
    )
    def test_expansion_sums_to_the_scaled_entropy(self, make, c):
        spec = make(scale_c=c)
        coeffs = spec.expansion_coefficients(60)
        total = sum(float(a) * elementary_functional(k, FIX) for k, a in enumerate(coeffs, start=1))
        assert total == pytest.approx(spec.evaluate(FIX), rel=1e-12)

    @pytest.mark.parametrize(
        "spec", [BoltzmannGibbs(scale_c=2), Tsallis(Fraction(1, 2), scale_c=Fraction(3, 2)),
                 Kaniadakis(Fraction(1, 3), scale_c=2)],
        ids=["bg", "tsallis", "kaniadakis"],
    )
    def test_log_pair_carries_the_scale(self, spec):
        # Log(x) = G(c ln x), so kB Log(1/p) is the density p contributes
        for x in (0.2, 0.9, 1.0, 2.5):
            assert spec.generalized_log(x) == pytest.approx(float(spec.G(math.log(x))), rel=1e-14, abs=1e-16)
            assert spec.log_inverse(spec.generalized_log(x)) == pytest.approx(x, rel=1e-14)
        assert spec.generalized_log(1 / 0.3) == pytest.approx(spec.density(np.array([0.3]))[0], rel=1e-14)


class TestPhiClosedForms:
    def test_tsallis_phi(self):
        ts = Tsallis(0.5)
        x, y = 0.4, 0.9
        assert ts.phi(x, y) == pytest.approx(x + y + 0.5 * x * y, rel=1e-13)

    def test_bg_phi_additive(self):
        bg = BoltzmannGibbs()
        assert bg.phi(1.1, 2.2) == pytest.approx(3.3, rel=1e-14)

    def test_kb_enters_phi(self):
        ts = Tsallis(0.5, kB=2.0)
        x, y = 0.4, 0.9
        # homogeneity: Phi_kB(x, y) = kB * Phi(x/kB, y/kB)
        assert ts.phi(x, y) == pytest.approx(
            2.0 * Tsallis(0.5).phi(x / 2, y / 2), rel=1e-13
        )


@settings(max_examples=30, deadline=None)
@given(
    st.lists(st.floats(0.01, 1.0), min_size=2, max_size=6),
    st.sampled_from([0.3, 0.5, 0.8, 1.3, 2.0]),
)
def test_tsallis_expansion_consistency_random(weights, q):
    """Closed form vs a long truncated expansion, for q < 1 where it converges."""
    if q >= 1:
        return
    p = np.array(weights) / sum(weights)
    dist = Distribution(p)
    ts = Tsallis(Fraction(q).limit_denominator(10))
    coeffs = ts.a_sequence(60)
    total = sum(
        float(a) / (k + 1) * elementary_functional(k + 1, dist)
        for k, a in enumerate(coeffs)
    )
    assert total == pytest.approx(ts.evaluate(dist), rel=1e-9, abs=1e-12)


def _moment_a_sequence(sigma, coeffs, count):
    # a_k = sigma^k sum_n k_n n^(k+1) / k!, the group-entropy closed form
    return [
        sigma ** k * sum(v * Fraction(n) ** (k + 1) for n, v in coeffs.items())
        / math.factorial(k)
        for k in range(count)
    ]


def _exp_a(s):
    return lambda k: s ** k / math.factorial(k)


# each member of the exponential-sum family against its own closed-form a_k;
# None marks a group entropy, whose closed form is _moment_a_sequence
CLOSED_FORM_A = {
    "tsallis-1/2": (Tsallis(Fraction(1, 2)), _exp_a(Fraction(1, 2))),
    "tsallis-3/2": (Tsallis(Fraction(3, 2)), _exp_a(Fraction(-1, 2))),
    "tsallis-0.75": (Tsallis(0.75), _exp_a(Fraction(1, 4))),
    "kaniadakis-1/3": (
        Kaniadakis(Fraction(1, 3)),
        lambda k: _exp_a(Fraction(1, 3))(k) if k % 2 == 0 else 0,
    ),
    "kaniadakis--1/2": (
        Kaniadakis(Fraction(-1, 2)),
        lambda k: _exp_a(Fraction(-1, 2))(k) if k % 2 == 0 else 0,
    ),
    "borges_roditi-1/2,-1/3": (
        BorgesRoditi(Fraction(1, 2), Fraction(-1, 3)),
        lambda k: (Fraction(1, 2) ** (k + 1) - Fraction(-1, 3) ** (k + 1))
        / (Fraction(5, 6) * math.factorial(k)),
    ),
    "borges_roditi-0,1/4": (BorgesRoditi(0, Fraction(1, 4)), _exp_a(Fraction(1, 4))),
    "s_iii": (SThird(Fraction(4, 5)), None),
    "s_iv": (SFourth(Fraction(9, 10)), None),
    "s_alpha_beta_q": (SAlphaBetaQ(Fraction(1, 8), Fraction(-1, 8), Fraction(9, 10)), None),
    "group_entropy": (
        GroupEntropy(Fraction(-1, 4), {3: Fraction(1, 8), 1: Fraction(1, 4), -1: Fraction(-3, 8)}),
        None,
    ),
}


class TestExponentialSum:
    """The members that share G(t) = (1/sigma) sum_r k_r (e^(r t) - 1)."""

    @pytest.mark.parametrize("spec, closed", CLOSED_FORM_A.values(), ids=CLOSED_FORM_A)
    def test_a_sequence_matches_closed_form(self, spec, closed):
        if closed is None:
            expected = _moment_a_sequence(Fraction(spec.sigma), spec.coeffs, 12)
        else:
            expected = [Fraction(closed(k)) for k in range(12)]
        assert spec.a_sequence(12) == expected

    @pytest.mark.parametrize("spec, closed", CLOSED_FORM_A.values(), ids=CLOSED_FORM_A)
    def test_a_sequence_matches_closed_form_at_24_and_scaled(self, spec, closed):
        if closed is None:
            expected = _moment_a_sequence(Fraction(spec.sigma), spec.coeffs, 24)
        else:
            expected = [Fraction(closed(k)) for k in range(24)]
        assert spec.a_sequence(24) == expected
        c = Fraction(3, 2)
        scaled = ExponentialSum(spec.sigma, spec.rates, scale_c=c)
        assert scaled.a_sequence(24) == [ak * c ** k for k, ak in enumerate(expected)]
        assert scaled.expansion_coefficients(24) == [ak * c ** (k + 1) / (k + 1) for k, ak in enumerate(expected)]

    @pytest.mark.parametrize("spec, exact", [
        (Tsallis(0.5), Tsallis(Fraction(1, 2))),
        (BorgesRoditi(0.75, -0.25), BorgesRoditi(Fraction(3, 4), Fraction(-1, 4))),
    ], ids=["tsallis-0.5", "borges_roditi-0.75,-0.25"])
    def test_float_parameters_match_the_fraction_reference(self, spec, exact):
        assert spec.a_sequence(24) == exact.a_sequence(24)
        assert spec.expansion_coefficients(24) == exact.expansion_coefficients(24)

    def test_inexact_parameter_has_no_exact_coefficients(self):
        with pytest.raises(SpecError, match="exact coefficients need rational parameters"):
            Tsallis(1 - 1e-13).base_a_sequence(4)

    @pytest.mark.parametrize(
        "make",
        [
            SThird,
            SFourth,
            lambda q: SAlphaBetaQ(Fraction(1, 8), Fraction(-1, 8), q),
            lambda q: BorgesRoditi(q - 1, 1 - q),
        ],
        ids=["s_iii", "s_iv", "s_alpha_beta_q", "borges_roditi"],
    )
    @pytest.mark.parametrize("side", [-1, 1])
    def test_q_to_one_at_1e_minus_12(self, make, side):
        q = 1 + side * Fraction(1, 10 ** 12)
        gap = make(q).evaluate(FIX) - BoltzmannGibbs().evaluate(FIX)
        assert abs(gap) <= 1e-10

    @pytest.mark.parametrize("c", [1, Fraction(3, 2)], ids=str)
    @pytest.mark.parametrize("spec", [v[0] for v in CLOSED_FORM_A.values()], ids=list(CLOSED_FORM_A))
    def test_dh_is_the_slope_of_g_minus_its_derivative(self, spec, c):
        scaled = ExponentialSum(spec.sigma, spec.rates, scale_c=c)
        t = np.linspace(-3.0, 3.0, 13)
        expected = scaled.dG(t) - scaled.d2G(t)
        assert scaled.dh(t) == pytest.approx(expected, rel=1e-12, abs=1e-12)

    @pytest.mark.parametrize("make", [Tsallis, SThird, SFourth, lambda q: SAlphaBetaQ(0, 0, q)],
                             ids=["tsallis", "s_iii", "s_iv", "s_alpha_beta_q"])
    def test_q_one_is_bg(self, make):
        with pytest.raises(SpecError, match="^q = 1 is the BG case; use BoltzmannGibbs$"):
            make(1)

    @pytest.mark.parametrize("kappa", [Fraction(1, 2), Fraction(-1, 3), 1], ids=str)
    def test_kaniadakis_log_pair(self, kappa):
        ka = Kaniadakis(kappa)
        k = float(kappa)
        for x in (0.2, 0.9, 1.0, 2.5):
            expected = (x ** k - x ** -k) / (2 * k)
            assert ka.generalized_log(x) == pytest.approx(expected, rel=1e-14, abs=1e-16)
            assert ka.log_inverse(ka.generalized_log(x)) == pytest.approx(x, rel=1e-14)


class TestCapabilities:
    """The representations Entropy gives every kind with a group exponential, and the ones it refuses."""

    def test_generalized_log_is_G_of_ln(self):
        for spec in (BoltzmannGibbs(scale_c=2), Tsallis(Fraction(1, 2)), GenericEntropy([1, Fraction(1, 8)])):
            x = np.array([0.3, 1.0, 4.0])
            assert spec.generalized_log(x).tolist() == spec.G(np.log(x)).tolist()
            with pytest.raises(SpecError, match="positive argument"):
                spec.generalized_log(0.0)

    @pytest.mark.parametrize("spec", [SDelta(2), SQDelta(Fraction(1, 2), 2)], ids=["s_delta", "s_q_delta"])
    def test_kinds_without_a_group_exponential(self, spec):
        with pytest.raises(UnsupportedRepresentation, match=f"^{spec.name} has no generalized logarithm$"):
            spec.generalized_log(2.0)
        for method in (spec.G, spec.dG, spec.d2G, spec.F):
            with pytest.raises(UnsupportedRepresentation, match=f"^{spec.name} has no group exponential$"):
                method(np.array([0.5]))


# each kind of the CLI's table whose float tables are built at the first float call: the spec
# with its parameter v, and a v it accepts (Borges-Roditi's rates are summed as one close pair)
LAZY_KINDS = {
    "tsallis": (Tsallis, Fraction(1, 2)),
    "kaniadakis": (Kaniadakis, Fraction(1, 3)),
    "borges_roditi": (lambda v, **kw: BorgesRoditi(v, Fraction(2, 5), **kw), Fraction(1, 2)),
    "group_entropy": (lambda v, **kw: GroupEntropy(v, {3: Fraction(1, 8), 1: Fraction(1, 4), -1: Fraction(-3, 8)},
                                                   **kw), Fraction(-1, 4)),
    "s_iii": (SThird, Fraction(4, 5)),
    "s_iv": (SFourth, Fraction(9, 10)),
    "s_alpha_beta_q": (lambda v, **kw: SAlphaBetaQ(Fraction(1, 8), Fraction(-1, 8), v, **kw), Fraction(9, 10)),
}
# every kind with a group exponential, built with scale constant c
EXPONENTIAL_KINDS = {
    **{name: lambda c, make=make, v=v: make(v, scale_c=c) for name, (make, v) in LAZY_KINDS.items()},
    "bg": lambda c: BoltzmannGibbs(scale_c=c),
    "generic": lambda c: GenericEntropy([1, Fraction(1, 8), Fraction(1, 10)], scale_c=c),
}


class TestLazyTables:
    """An exponential sum rounds its float tables at its first float call, and raises at construction."""

    def test_every_kind_is_covered(self):
        assert set(LAZY_KINDS) == {n for n, k in KINDS.items() if issubclass(k.cls, ExponentialSum)}
        assert set(EXPONENTIAL_KINDS) == {n for n, k in KINDS.items() if k.cls.has_exponential}

    @pytest.mark.parametrize("kind", LAZY_KINDS)
    @pytest.mark.parametrize("bad", [{"v": math.nan}, {"v": math.inf}, {"scale_c": math.inf}, {"scale_c": math.nan}],
                             ids=["nan", "inf", "scale_c-inf", "scale_c-nan"])
    def test_bad_parameter_raises_at_construction(self, kind, bad):
        # a SpecError, not the ValueError or OverflowError of Fraction(nan) or Fraction(inf)
        make, v = LAZY_KINDS[kind]
        args = {"v": v, **bad}
        with pytest.raises(Exception) as exc:
            make(args.pop("v"), **args)
        assert type(exc.value) is SpecError

    @pytest.mark.parametrize("make", [
        lambda x: GroupEntropy(Fraction(-1, 4), {3: x, 1: Fraction(1, 4), -1: Fraction(-3, 8)}),
        lambda x: SAlphaBetaQ(x, Fraction(-1, 8), Fraction(9, 10)),
        lambda x: SAlphaBetaQ(Fraction(1, 8), x, Fraction(9, 10)),
    ], ids=["group_entropy-coefficient", "s_alpha_beta_q-alpha", "s_alpha_beta_q-beta"])
    @pytest.mark.parametrize("x", [math.nan, math.inf], ids=str)
    def test_bad_coefficient_raises_a_spec_error(self, make, x):
        with pytest.raises(Exception) as exc:
            make(x)
        assert type(exc.value) is SpecError

    @pytest.mark.parametrize("kind", LAZY_KINDS)
    def test_exp_series_builds_no_float_table(self, kind):
        make, v = LAZY_KINDS[kind]
        spec = make(v, scale_c=Fraction(3, 2))
        spec.exp_series(12)
        spec.expansion_coefficients(12)
        assert "_terms" not in vars(spec) and "_G_long_terms" not in vars(spec)
        spec.G(0.5)
        assert "_terms" in vars(spec)

    @pytest.mark.parametrize("kB", [1.0, 2.0], ids=str)
    @pytest.mark.parametrize("c", [1, Fraction(3, 2)], ids=str)
    # sigma < 0 in both; s_iii 4/3 at c = 3/2 has the h' weight 0 at its rate 2/3 (c r = 1)
    @pytest.mark.parametrize("kind", [*LAZY_KINDS, "tsallis 3/2", "s_iii 4/3"])
    def test_tables_are_the_rounded_fraction_tables(self, kind, c, kB):
        # each float is int / int, bit for bit float() of the exact Fraction, with the sign of a zero
        make, v = {**LAZY_KINDS, "tsallis 3/2": (Tsallis, Fraction(3, 2)), "s_iii 4/3": (SThird, Fraction(4, 3))}[kind]
        spec = make(v, kB=kB, scale_c=c)
        terms, reference = spec._terms, fraction_terms(spec)
        assert terms.keys() == reference.keys()
        for name in ("G", "dG", "d2G", "dh"):
            assert [list(map(float.hex, term)) for term in terms[name]] == \
                [list(map(float.hex, term)) for term in reference[name]], name
        assert terms["G_exact"] == reference["G_exact"]
        assert all(type(x) is Fraction for term in terms["G_exact"] for x in term)

    @pytest.mark.parametrize("c", [1, Fraction(3, 2)], ids=str)
    @pytest.mark.parametrize("kind", EXPONENTIAL_KINDS)
    def test_first_call_changes_no_bit(self, kind, c):
        exact_first, float_first = EXPONENTIAL_KINDS[kind](c), EXPONENTIAL_KINDS[kind](c)
        exact_first.exp_series(12)
        t = np.linspace(-3.0, 3.0, 25)
        for name in ("G", "dG", "d2G", "dh", "F"):  # G is float_first's first call
            assert _bits(getattr(exact_first, name), t) == _bits(getattr(float_first, name), t), name


# each kind of the CLI's table, built at parameters it accepts
BUILT_KINDS = {
    **{name: lambda make=make, v=v: make(v) for name, (make, v) in LAZY_KINDS.items()},
    "bg": BoltzmannGibbs,
    "s_cd": lambda: ScdEntropy(0.5, 2),
    "s_delta": lambda: SDelta(0.5),
    "s_q_delta": lambda: SQDelta(Fraction(1, 2), 0.5),
    "generic": lambda: GenericEntropy([1, Fraction(1, 8), Fraction(1, 10)]),
}


def _use(spec):
    """What a run keeps on the spec: its float tables and its occupation law, with some outputs."""
    out = [_bits(spec.evaluate, FIX)]
    if spec.has_exponential:
        t = np.linspace(0.25, 3.0, 12)
        out += [_bits(f, t) for f in (spec.G, spec.dh, spec.F)]
        occupation_law(spec, 50)
    return out


class TestBuiltSpecsAreReadOnly:
    """Writing a public attribute of a built spec raises; the tables and law it keeps stay its own."""

    def test_every_kind_is_covered(self):
        assert set(BUILT_KINDS) == set(KINDS)

    @pytest.mark.parametrize("kind", BUILT_KINDS)
    def test_parameters_cannot_be_reassigned(self, kind):
        spec, fresh = BUILT_KINDS[kind](), BUILT_KINDS[kind]()
        _use(spec)
        # the kind's parameters, the base class's, and scale_c, the constructor's name for scale
        for name in [param.name for param in KINDS[kind].params] + ["kB", "scale", "scale_c"]:
            before = vars(spec).get(name)
            with pytest.raises(AttributeError, match=f"^cannot set {type(spec).__name__}.{name}: a built spec"):
                setattr(spec, name, 2)
            assert vars(spec).get(name) is before
        assert _use(spec) == _use(fresh)
        for kept in ("_terms", "_G_long_terms", "_occupation"):
            assert repr(vars(spec).get(kept)) == repr(vars(fresh).get(kept)), kept


class TestLogInversePastTheLargestDouble:
    @pytest.mark.parametrize("kind", EXPONENTIAL_KINDS)
    def test_is_inf_without_a_warning(self, kind):
        # exp(F(1e170)) passes the largest double for every kind; math.exp raised OverflowError on
        # Kaniadakis 1/3 at y = 1e200
        spec = EXPONENTIAL_KINDS[kind](1)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert spec.log_inverse(np.array([1e170, 0.0])).tolist() == [math.inf, 1.0]
            assert spec.log_inverse(1e170) == math.inf
            if kind == "kaniadakis":
                assert spec.log_inverse(1e200) == math.inf


# y where every kind below has a log inverse (Borges-Roditi's aside)
LOG_INVERSE_YS = (1e-8, 0.1, 0.5, 1.0, 3.0, -0.5, -2.0)
HALF = Fraction(1, 2)
# every kind with a group exponential, e from the limit the catalog names (bg and generic have none)
NEAR_LIMIT = {
    "bg": lambda e: BoltzmannGibbs(),
    "generic": lambda e: GenericEntropy([1, Fraction(1, 8), Fraction(1, 10)]),
    "tsallis": lambda e: Tsallis(1 - e),  # q -> 1
    "kaniadakis": Kaniadakis,  # kappa -> 0
    "borges_roditi": lambda e: BorgesRoditi(HALF, HALF - e),  # a -> b
    "group_entropy": lambda e: GroupEntropy(e, {3: Fraction(1, 8), 1: Fraction(1, 4), -1: Fraction(-3, 8)}),
    "s_iii": lambda e: SThird(1 - e),
    "s_iv": lambda e: SFourth(1 - e),
    "s_alpha_beta_q": lambda e: SAlphaBetaQ(Fraction(1, 8), Fraction(-1, 8), 1 - e),
}


def _mpf(x):
    x = Fraction(x)
    return mp.mpf(x.numerator) / x.denominator


def exact_log_inverse(spec, y):
    """exp(G^-1(y)), G^-1 by mpmath's root finder on G from the exact parameters; call at 50 digits."""
    if isinstance(spec, GenericEntropy):
        a = [_mpf(x) for x in spec.a]

        def G(t):
            return mp.fsum(ak * t ** (k + 1) / (k + 1) for k, ak in enumerate(a))
    elif isinstance(spec, ExponentialSum):
        rates, sigma = [(_mpf(r), _mpf(k)) for r, k in spec.rates.items()], _mpf(spec.sigma)

        def G(t):
            return mp.fsum(k * mp.expm1(r * t) for r, k in rates) / sigma
    else:
        return mp.exp(y)
    return mp.exp(mp.findroot(lambda t: G(t) - y, mp.mpf(y)))


class TestLogInverseNearEveryLimit:
    """E(y) = exp(F(y)) within 1e-15 relative of mpmath at 50 digits, 10^-3 to 10^-12 from each limit."""

    def test_every_kind_is_covered(self):
        assert set(NEAR_LIMIT) == set(EXPONENTIAL_KINDS)

    @pytest.mark.parametrize("kind", NEAR_LIMIT)
    def test_within_1e_15(self, kind):
        # the q-exponential as a power of the rounded 1 + (1-q) y was 8.9e-5 off at q = 1 - 10^-12
        ys = LOG_INVERSE_YS
        if kind == "borges_roditi":
            ys = ys[:-1]  # G ~ t e^(t/2) near a = b = 1/2 stays above -2/e: -2 has no inverse
            with pytest.raises(InverseError):
                NEAR_LIMIT[kind](Fraction(1, 10 ** 3)).log_inverse(-2.0)
        worst = 0.0
        for k in range(3, 13):
            for e in (Fraction(1, 10 ** k), -Fraction(1, 10 ** k)):
                spec = NEAR_LIMIT[kind](e)
                got = spec.log_inverse(np.array(ys)).tolist()
                with mp.workdps(50):
                    for y, value in zip(ys, got):
                        ref = exact_log_inverse(spec, y)
                        worst = max(worst, float(abs((value - ref) / ref)))
        assert worst <= 1e-15
