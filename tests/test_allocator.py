import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp
from allocator_reference import (SubgradientSchedule, assign_subchannels,
                                 brute_force_oracle, psi_metric, subgradient_solve,
                                 sum_rate, waterfill_power)

from absim.allocator import LN2, AllocationProblem, solve


def random_problem(rng, k=2, n=2, g_lo=-10, g_hi=-6, sigma2=1e-13, p_max=0.2,
                   with_interference=False):
    gains = 10 ** rng.uniform(g_lo, g_hi, size=(k, n))
    inter = 10 ** rng.uniform(g_lo - 1, g_hi - 2, size=(k, n)) if with_interference \
        else np.zeros((k, n))
    return AllocationProblem(gains=gains, interference=inter,
                             noise_power=sigma2, p_max=p_max)


class TestWaterfillPower:
    def test_water_level_at_noise_floor(self):
        g, i, s2 = 1e-7, 0.0, 1e-10
        lam = 1.0 / (LN2 * (i + s2) / g)
        assert waterfill_power(lam, g, i, s2) == 0.0

    def test_huge_multiplier_clamps_to_zero(self):
        assert waterfill_power(1e15, 1e-7, 0.0, 1e-10) == 0.0

    def test_reference_value(self):
        # 1/ln2 - 1e-3
        got = waterfill_power(1.0, 1e-7, 0.0, 1e-10)
        assert got == pytest.approx(1.4416950408889634, rel=1e-12)

    @pytest.mark.parametrize("lam", [0.0, -1.0])
    def test_nonpositive_multiplier_rejected(self, lam):
        with pytest.raises(ValueError):
            waterfill_power(lam, 1e-7, 0.0, 1e-10)


class TestPsiMetric:
    def test_zero_power_is_zero(self):
        assert psi_metric(0.0, 1e-7, 0.0, 1e-10) == 0.0

    def test_unit_snr(self):
        # P g / (I + s2) = 1: log2(2) - 1/(2 ln2)
        expected = 1.0 - 0.5 / LN2
        assert psi_metric(1e-3, 1e-7, 0.0, 1e-10) == pytest.approx(expected, abs=1e-12)

    def test_monotone_in_gain(self):
        values = [psi_metric(0.05, g, 1e-11, 1e-10) for g in np.logspace(-10, -6, 50)]
        assert np.all(np.diff(values) > 0)

    def test_nonnegative_random_sweep(self):
        rng = np.random.default_rng(4)
        for _ in range(1000):
            p = rng.uniform(0, 1)
            g = 10 ** rng.uniform(-12, -5)
            i = 10 ** rng.uniform(-14, -8)
            s2 = 10 ** rng.uniform(-14, -9)
            assert psi_metric(p, g, i, s2) >= 0.0


class TestAssignSubchannels:
    def test_single_user_takes_everything(self):
        prob = AllocationProblem(gains=np.full((1, 3), 1e-7),
                                 interference=np.zeros((1, 3)),
                                 noise_power=1e-10, p_max=0.2)
        winners, powers = assign_subchannels(1.0, prob)
        assert winners.tolist() == [0, 0, 0]
        assert np.all(powers > 0)

    def test_stronger_gain_wins(self):
        gains = np.array([[1e-8], [5e-8]])
        prob = AllocationProblem(gains=gains, interference=np.zeros((2, 1)),
                                 noise_power=1e-10, p_max=0.2)
        winners, _ = assign_subchannels(1.0, prob)
        assert winners.tolist() == [1]

    def test_tie_break_lowest_index(self):
        prob = AllocationProblem(gains=np.full((3, 2), 2e-8),
                                 interference=np.zeros((3, 2)),
                                 noise_power=1e-10, p_max=0.2)
        winners, _ = assign_subchannels(1.0, prob)
        assert winners.tolist() == [0, 0]

    def test_zero_power_channel_kept_with_zero(self):
        # multiplier way above every channel's water level
        prob = AllocationProblem(gains=np.array([[1e-9, 1e-9]]),
                                 interference=np.zeros((1, 2)),
                                 noise_power=1e-10, p_max=0.2)
        winners, powers = assign_subchannels(1e9, prob)
        assert winners.tolist() == [0, 0]
        assert powers.tolist() == [0.0, 0.0]

    def test_nonpositive_multiplier_rejected(self):
        prob = AllocationProblem(gains=np.ones((1, 1)),
                                 interference=np.zeros((1, 1)),
                                 noise_power=1e-10, p_max=0.2)
        with pytest.raises(ValueError):
            assign_subchannels(0.0, prob)


class TestSumRate:
    def test_zero_powers(self):
        prob = AllocationProblem(gains=np.full((2, 3), 1e-8),
                                 interference=np.zeros((2, 3)),
                                 noise_power=1e-10, p_max=0.2)
        assert sum_rate([0, 1, 0], np.zeros(3), prob) == 0.0

    def test_unit_snr_is_one_bit(self):
        prob = AllocationProblem(gains=np.array([[1e-7]]),
                                 interference=np.zeros((1, 1)),
                                 noise_power=1e-10, p_max=0.2)
        assert sum_rate([0], np.array([1e-3]), prob) == pytest.approx(1.0, rel=1e-12)

    def test_composite_hand_sum(self):
        gains = np.array([[2e-8, 4e-8], [8e-8, 1e-8]])
        inter = np.array([[1e-11, 0.0], [0.0, 2e-11]])
        prob = AllocationProblem(gains=gains, interference=inter,
                                 noise_power=1e-10, p_max=0.5)
        powers = np.array([0.1, 0.2])
        expected = math.log2(1 + 0.1 * 8e-8 / (0.0 + 1e-10)) \
            + math.log2(1 + 0.2 * 4e-8 / (0.0 + 1e-10))
        assert sum_rate([1, 0], powers, prob) == pytest.approx(expected, rel=1e-12)


class TestSolve:
    def test_single_channel_budget_binds(self):
        prob = AllocationProblem(gains=np.array([[1e-7]]),
                                 interference=np.zeros((1, 1)),
                                 noise_power=1e-10, p_max=0.2)
        res = solve(prob)
        assert res.converged
        assert res.powers[0] == pytest.approx(0.2, abs=2e-7)
        assert res.sum_rate == pytest.approx(math.log2(201.0), rel=1e-6)

    def test_symmetric_channels_split_evenly(self):
        prob = AllocationProblem(gains=np.full((1, 2), 1e-7),
                                 interference=np.zeros((1, 2)),
                                 noise_power=1e-10, p_max=0.2)
        res = solve(prob)
        np.testing.assert_allclose(res.powers, [0.1, 0.1], rtol=1e-5)

    def test_feasibility_random_sweep(self):
        rng = np.random.default_rng(9)
        for _ in range(60):
            prob = random_problem(rng, k=3, n=4, with_interference=True,
                                  sigma2=10 ** rng.uniform(-13, -9))
            res = solve(prob)
            assert res.powers.sum() <= prob.p_max * (1 + 1e-6)
            assert np.all(res.powers >= 0)

    def test_kkt_powers_match_closed_form(self):
        rng = np.random.default_rng(10)
        for _ in range(40):
            prob = random_problem(rng, k=3, n=3, with_interference=True)
            res = solve(prob)
            for n in range(prob.gains.shape[1]):
                k = res.assignment[n]
                expected = waterfill_power(res.lam, prob.gains[k, n],
                                           prob.interference[k, n], prob.noise_power)
                assert abs(res.powers[n] - expected) <= 1e-9 * max(expected, 1e-30)

    def test_complementary_slackness_on_converged(self):
        rng = np.random.default_rng(13)
        prob = random_problem(rng, k=2, n=4)
        res = solve(prob)
        assert res.converged
        assert abs(res.lam * res.budget_slack) <= res.lam * 1e-6 * prob.p_max + 1e-12

    def test_dual_update_sign(self):
        # over-budget iterates of the reference loop must push the multiplier up
        rng = np.random.default_rng(14)
        prob = random_problem(rng, k=2, n=3)
        good = solve(prob)
        _, trace = subgradient_solve(prob, lambda_init=good.lam / 50.0,
                                     keep_trace=True)
        assert len(trace) > 1
        for (lam_now, total_now), (lam_next, _) in zip(trace, trace[1:]):
            if total_now > prob.p_max:
                assert lam_next > lam_now

    def test_bad_start_flagged_not_raised(self):
        rng = np.random.default_rng(15)
        prob = random_problem(rng, k=3, n=3, with_interference=True)
        good = solve(prob)
        res, _ = subgradient_solve(prob, lambda_init=good.lam * 1e4,
                                   schedule=SubgradientSchedule(max_iterations=5))
        assert res.powers.sum() <= prob.p_max * (1 + 1e-6)
        assert not res.converged

    def test_trace_off_by_default(self):
        rng = np.random.default_rng(16)
        _, trace = subgradient_solve(random_problem(rng))
        assert trace is None

    def test_invalid_lambda_init(self):
        rng = np.random.default_rng(17)
        with pytest.raises(ValueError):
            subgradient_solve(random_problem(rng), lambda_init=0.0)

    def test_zero_power_channel_goes_to_min_floor_user(self):
        # sub-channel 1 is too noisy for anyone to be served on it: solve
        # hands it to the user with the lower floor (user 1), where the
        # reference's all-zero score argmax falls back to user 0. Powers and
        # rate are the same either way.
        prob = AllocationProblem(gains=np.array([[1e-7, 1e-14], [1e-8, 2e-14]]),
                                 interference=np.zeros((2, 2)),
                                 noise_power=1e-10, p_max=0.2)
        res = solve(prob)
        ref, _ = subgradient_solve(prob)
        assert res.powers[1] == 0.0 and ref.powers[1] == 0.0
        assert res.assignment.tolist() == [0, 1]
        assert ref.assignment.tolist() == [0, 0]
        assert res.powers.tolist() == ref.powers.tolist()
        assert res.sum_rate == ref.sum_rate


class TestOracle:
    def test_single_assignment_matches_solve(self):
        prob = AllocationProblem(gains=np.array([[1e-7]]),
                                 interference=np.zeros((1, 1)),
                                 noise_power=1e-10, p_max=0.2)
        res = solve(prob)
        ora = brute_force_oracle(prob)
        assert ora.sum_rate == pytest.approx(res.sum_rate, rel=1e-9)
        assert ora.assignment.tolist() == [0]

    def test_oracle_dominates_solve(self):
        rng = np.random.default_rng(18)
        for _ in range(20):
            prob = random_problem(rng, k=2, n=2, with_interference=True)
            res = solve(prob)
            ora = brute_force_oracle(prob, power_grid_points=21)
            assert res.sum_rate <= ora.sum_rate * (1 + 1e-6) + 1e-12

    def test_mean_gap_within_one_percent(self):
        rng = np.random.default_rng(19)
        gaps = []
        for _ in range(20):
            prob = random_problem(rng, k=2, n=2)
            res = solve(prob)
            ora = brute_force_oracle(prob, power_grid_points=21)
            gaps.append((ora.sum_rate - res.sum_rate) / ora.sum_rate)
        assert np.mean(gaps) <= 0.01

    def test_oracle_respects_budget(self):
        rng = np.random.default_rng(20)
        prob = random_problem(rng, k=3, n=2, with_interference=True)
        ora = brute_force_oracle(prob, power_grid_points=15)
        assert ora.powers.sum() <= prob.p_max * (1 + 1e-9)

    def test_grid_never_beats_exact_waterfilling(self):
        # the grid sweep is a redundancy check; bisection should win or tie
        rng = np.random.default_rng(21)
        for _ in range(10):
            prob = random_problem(rng, k=2, n=3, with_interference=True)
            fine = brute_force_oracle(prob, power_grid_points=31)
            coarse = brute_force_oracle(prob, power_grid_points=1)
            assert coarse.sum_rate >= fine.sum_rate - 1e-12

    def test_too_large_rejected(self):
        prob = AllocationProblem(gains=np.full((6, 8), 1e-8),
                                 interference=np.zeros((6, 8)),
                                 noise_power=1e-10, p_max=0.2)
        with pytest.raises(ValueError):
            brute_force_oracle(prob, power_grid_points=25)


class TestConcavity:
    def test_midpoint_concavity_of_scaled_rate(self):
        # f(x, y) = x log2(1 + h y / x) on positive samples
        rng = np.random.default_rng(22)
        h = 3.7

        def f(x, y):
            return x * math.log2(1.0 + h * y / x)

        for _ in range(500):
            x1, x2 = rng.uniform(0.01, 5.0, 2)
            y1, y2 = rng.uniform(0.01, 5.0, 2)
            mid = f(0.5 * (x1 + x2), 0.5 * (y1 + y2))
            assert mid >= 0.5 * (f(x1, y1) + f(x2, y2)) - 1e-12


class TestProblemValidation:
    # element values are checked where training makes them: the gains in
    # draw_realization (tests/test_channel.py), both gains and interference of
    # every problem step_all builds in tests/test_environment.py
    def test_one_dimensional_gains_rejected(self):
        with pytest.raises(ValueError, match=r"gains must be a \(K, N\) matrix"):
            AllocationProblem(gains=np.ones(2), interference=np.zeros(2),
                              noise_power=1e-10, p_max=0.2)

    @pytest.mark.parametrize("shape", [(0, 2), (2, 0)])
    def test_empty_gains_rejected(self, shape):
        with pytest.raises(ValueError, match=r"gains must be a \(K, N\) matrix with K, N >="):
            AllocationProblem(gains=np.ones(shape), interference=np.zeros(shape),
                              noise_power=1e-10, p_max=0.2)

    @pytest.mark.parametrize("shape", [(2, 2), (3, 2)])  # (3, 2): as many entries
    def test_shape_mismatch_rejected(self, shape):
        with pytest.raises(ValueError, match="interference must match the gains shape"):
            AllocationProblem(gains=np.ones((2, 3)), interference=np.zeros(shape),
                              noise_power=1e-10, p_max=0.2)

    def test_nonpositive_budget_rejected(self):
        with pytest.raises(ValueError):
            AllocationProblem(gains=np.ones((1, 1)),
                              interference=np.zeros((1, 1)),
                              noise_power=1e-10, p_max=0.0)

    @pytest.mark.parametrize("field, value", [
        ("noise_power", math.nan), ("noise_power", 0.0), ("p_max", math.nan),
    ])
    def test_non_finite_rejected(self, field, value):
        kwargs = dict(gains=np.full((2, 2), 1e-8), interference=np.zeros((2, 2)),
                      noise_power=1e-10, p_max=0.2)
        kwargs[field] = value
        with pytest.raises(ValueError, match=field):
            AllocationProblem(**kwargs)


@st.composite
def problems(draw, max_users=3, max_subchannels=3):
    """Small random instances: log-uniform gains, sparse interference."""
    k = draw(st.integers(1, max_users))
    n = draw(st.integers(1, max_subchannels))
    gain_exp = draw(hnp.arrays(float, (k, n), elements=st.floats(-10.0, -6.0)))
    inter_exp = draw(hnp.arrays(float, (k, n), elements=st.floats(-13.0, -8.0)))
    interfered = draw(hnp.arrays(bool, (k, n)))
    return AllocationProblem(gains=10.0 ** gain_exp,
                             interference=np.where(interfered, 10.0 ** inter_exp, 0.0),
                             noise_power=10.0 ** draw(st.floats(-13.0, -9.0)),
                             p_max=draw(st.floats(0.01, 1.0)))


PROPERTY_SETTINGS = settings(max_examples=60)


class TestClosedFormProperties:
    @PROPERTY_SETTINGS
    @given(problems())
    def test_budget_holds(self, prob):
        res = solve(prob)
        assert np.all(res.powers >= 0.0)
        assert res.powers.sum() <= prob.p_max * (1 + 1e-6)
        assert res.converged

    @PROPERTY_SETTINGS
    @given(problems())
    def test_one_winner_per_subchannel_with_min_floor(self, prob):
        res = solve(prob)
        floors = (prob.interference + prob.noise_power) / prob.gains
        assert res.assignment.shape == (prob.gains.shape[1],)
        for n, k in enumerate(res.assignment):
            column = floors[:, n].tolist()
            assert k == column.index(min(column))  # lowest index among ties

    @PROPERTY_SETTINGS
    @given(problems())
    def test_powers_are_waterfill_at_multiplier(self, prob):
        res = solve(prob)
        expected = [waterfill_power(res.lam, prob.gains[k, n],
                                    prob.interference[k, n], prob.noise_power)
                    for n, k in enumerate(res.assignment)]
        assert res.powers.tolist() == expected

    # up to 33 sub-channels: past numpy's 8-element pairwise-sum blocks, so
    # solve's flat gathers and np.add.reduce sums meet the reference at the
    # sizes where summation order could first differ
    @PROPERTY_SETTINGS
    @given(problems(max_users=10, max_subchannels=33))
    def test_rate_is_sum_rate(self, prob):
        res = solve(prob)
        assert res.sum_rate == sum_rate(res.assignment, res.powers, prob)

    @PROPERTY_SETTINGS
    @given(problems(max_users=10, max_subchannels=33))
    def test_inputs_unchanged(self, prob):
        # solve works in place only on arrays it made: step_all's problems
        # hold views of the step's gains
        before = prob.gains.tobytes(), prob.interference.tobytes()
        solve(prob)
        assert (prob.gains.tobytes(), prob.interference.tobytes()) == before

    @PROPERTY_SETTINGS
    @given(problems())
    def test_rate_reaches_oracle(self, prob):
        res = solve(prob)
        ora = brute_force_oracle(prob, power_grid_points=5)
        assert res.sum_rate >= ora.sum_rate * (1 - 1e-9)

    @PROPERTY_SETTINGS
    @given(problems(max_users=10, max_subchannels=33))
    def test_matches_subgradient_reference(self, prob):
        # the paper's loop stops on its first iterate, at the closed form
        res = solve(prob)
        ref, _ = subgradient_solve(prob)
        assert ref.iterations == 1 and ref.converged
        # a zero-power sub-channel carries no rate: the reference hands it
        # to user 0 (every candidate scores 0), solve to its min-floor user
        powered = res.powers > 0.0
        assert res.assignment[powered].tolist() == ref.assignment[powered].tolist()
        assert res.lam == ref.lam
        assert res.powers.tolist() == ref.powers.tolist()
        assert res.sum_rate == ref.sum_rate
