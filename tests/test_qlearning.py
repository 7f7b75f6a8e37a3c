import re
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

import qlearning_reference as reference
from qlearning_reference import value_iteration
from conftest import DEFAULT_LEARNING
from absim.geometry import (Action, AreaSpec, GridState, apply_action, cell_center,
                            dist_to_final, state_index)
from absim.qlearning import (QTable, Transition, greedy_policy, load_qtable, save_qtable,
                             select_action, update)

# Exact action values of the 4x4 single-agent fixture (goal at (4,4),
# reward -0.25 * distance of the successor cell to the goal, gamma 0.9),
# frozen from the fixed-point iteration as regression data.
Q_STAR_4X4 = np.array([
    [-323.1777969988, -241.235310912, -241.235310912, -323.1777969988],
    [-323.1777969988, -176.231295636, -167.8850322505, -241.235310912],
    [-241.235310912, -140.25, -107.9715045909, -176.231295636],
    [-176.231295636, -140.25, -72.5, -140.25],
    [-241.235310912, -167.8850322505, -176.231295636, -323.1777969988],
    [-241.235310912, -107.9715045909, -107.9715045909, -241.235310912],
    [-167.8850322505, -72.5, -57.8553390593, -176.231295636],
    [-107.9715045909, -72.5, -25.0, -140.25],
    [-176.231295636, -107.9715045909, -140.25, -241.235310912],
    [-176.231295636, -57.8553390593, -72.5, -167.8850322505],
    [-107.9715045909, -25.0, -25.0, -107.9715045909],
    [-57.8553390593, -25.0, 0.0, -72.5],
    [-140.25, -72.5, -140.25, -176.231295636],
    [-140.25, -25.0, -72.5, -107.9715045909],
    [-72.5, 0.0, -25.0, -57.8553390593],
    [0.0, 0.0, 0.0, 0.0],
])


def grid_world(m=4, goal=None, beta2=0.25, gamma=0.9):
    """Deterministic grid MDP arrays for the distance-penalty reward field."""
    area = AreaSpec(0, m * 100.0, 0, m * 100.0, m, 100.0)
    goal = goal if goal is not None else GridState(m, m)
    goal_idx = state_index(area, goal)
    goal_pos = cell_center(area, goal_idx)
    n = area.n_states
    next_state = np.zeros((n, 4), dtype=int)
    rewards = np.zeros((n, 4))
    terminal = np.zeros(n, dtype=bool)
    terminal[goal_idx] = True
    for s in range(n):
        for a in Action:
            nxt = apply_action(area, s, a)
            next_state[s, a] = nxt
            rewards[s, a] = -beta2 * dist_to_final(cell_center(area, nxt), goal_pos, 1)
    return area, next_state, rewards, terminal, goal_idx


class TestSelectAction:
    def test_pure_exploration_uniform(self):
        q = QTable(4, 4, terminal_state=3)
        q.values[0] = [5.0, 0.0, 0.0, 0.0]
        rng = np.random.default_rng(0)
        counts = np.zeros(4)
        draws = 10_000
        for _ in range(draws):
            counts[select_action(q, 0, 1.0, rng)] += 1
        # each frequency within 3 sigma of 1/4
        sigma = np.sqrt(0.25 * 0.75 / draws)
        assert np.all(np.abs(counts / draws - 0.25) < 3 * sigma)

    def test_pure_exploitation_argmax(self):
        q = QTable(4, 4, terminal_state=3)
        q.values[2] = [1.0, 0.0, 0.0, 0.0]
        rng = np.random.default_rng(1)
        assert all(select_action(q, 2, 0.0, rng) == 0 for _ in range(50))

    def test_tie_break_uniform(self):
        q = QTable(2, 4, terminal_state=1)
        q.values[0] = [1.0, 1.0, 0.0, 0.0]
        rng = np.random.default_rng(2)
        draws = 10_000
        counts = np.zeros(4)
        for _ in range(draws):
            counts[select_action(q, 0, 0.0, rng)] += 1
        assert counts[2] == counts[3] == 0
        sigma = np.sqrt(0.5 * 0.5 / draws)
        assert abs(counts[0] / draws - 0.5) < 3 * sigma

    def test_terminal_state_rejected(self):
        q = QTable(4, 4, terminal_state=3)
        with pytest.raises(ValueError):
            select_action(q, 3, 0.1, np.random.default_rng(0))


class TestUpdate:
    def test_zero_alpha_no_change(self):
        q = QTable(3, 4, terminal_state=1)
        q.values[:] = 7.0
        update(q, Transition(0, 1, 5.0, 2), replace(DEFAULT_LEARNING, alpha=0.0))
        assert q.values[0, 1] == 7.0

    def test_full_replacement_no_bootstrap(self):
        q = QTable(3, 4, terminal_state=2)
        update(q, Transition(0, 2, 5.0, 1),
               replace(DEFAULT_LEARNING, alpha=1.0, gamma=0.0))
        assert q.values[0, 2] == 5.0

    def test_hand_computed_target(self):
        q = QTable(3, 4, terminal_state=2)
        q.values[1] = [0.0, 2.0, 1.0, 0.0]
        update(q, Transition(0, 0, 1.0, 1),
               replace(DEFAULT_LEARNING, alpha=0.5, gamma=0.9))
        assert q.values[0, 0] == pytest.approx(1.4, abs=1e-12)

    def test_update_is_local(self):
        q = QTable(4, 4, terminal_state=0)
        q.values[:] = -3.0
        before = q.values.copy()
        update(q, Transition(1, 2, 8.0, 3), replace(DEFAULT_LEARNING, alpha=0.3))
        changed = q.values != before
        assert changed.sum() == 1 and changed[1, 2]

    def test_terminal_bootstrap_is_zero(self):
        q = QTable(3, 4, terminal_state=2)
        q.values[0, 1] = -1.0
        update(q, Transition(0, 1, 4.0, 2),
               replace(DEFAULT_LEARNING, alpha=1.0, gamma=0.9))
        # target r + gamma * 0, because the terminal row is pinned
        assert q.values[0, 1] == 4.0
        assert np.all(q.values[2] == 0.0)

    def test_transition_from_terminal_rejected(self):
        q = QTable(3, 4, terminal_state=1)
        with pytest.raises(ValueError):
            update(q, Transition(1, 0, 0.0, 0), DEFAULT_LEARNING)

    @pytest.mark.parametrize("reward, value", [(-np.inf, 0.0), (-1e308, -1e308),
                                               (np.nan, 0.0)])
    def test_non_finite_result_rejected(self, reward, value):
        # -inf, an overflow of two finite values, and NaN would each spread
        # through the table; the entry and its visit count stay as they were
        q = QTable(3, 4, terminal_state=1, initial_value=value)
        with pytest.raises(ValueError, match=r"update of entry \(0, 1\) gives"):
            update(q, Transition(0, 1, reward, 2),
                   replace(DEFAULT_LEARNING, alpha=1.0, gamma=0.9))
        assert q.values[0, 1] == value and q.visits[0, 1] == 0

    def test_visit_count_schedule(self):
        q = QTable(2, 4, terminal_state=1)
        params = replace(DEFAULT_LEARNING, alpha_schedule="visit_count", gamma=0.0)
        update(q, Transition(0, 0, 10.0, 1), params)  # alpha = 1
        assert q.values[0, 0] == 10.0
        update(q, Transition(0, 0, 0.0, 1), params)   # alpha = 1/2
        assert q.values[0, 0] == 5.0
        update(q, Transition(0, 0, 2.0, 1), params)   # alpha = 1/3
        assert q.values[0, 0] == 4.0

    def test_bounded_values_envelope(self):
        # rewards in [r_min, r_max] keep zero-initialized entries inside
        # [min(0, r_min)/(1-g), max(0, r_max)/(1-g)]
        rng = np.random.default_rng(5)
        params = replace(DEFAULT_LEARNING, alpha=0.5, gamma=0.8)
        q = QTable(7, 4, terminal_state=6)  # the updates use states 0-5 only
        r_min, r_max = -3.0, 2.0
        lo, hi = r_min / (1 - 0.8), r_max / (1 - 0.8)
        for _ in range(3000):
            s, a, s2 = rng.integers(6), rng.integers(4), rng.integers(6)
            r = rng.uniform(r_min, r_max)
            update(q, Transition(int(s), int(a), float(r), int(s2)), params)
            assert np.all(q.values >= lo - 1e-9) and np.all(q.values <= hi + 1e-9)


# three values only, so rows often hold tied maxima
Q_ENTRIES = st.sampled_from([-2.5, 0.0, 1.25])
REFERENCE_SETTINGS = settings(max_examples=100, deadline=None, derandomize=True)


def table_pair(values, visits=None):
    """Two identical 5-state tables with terminal state 4."""
    pair = []
    for _ in range(2):
        q = QTable(5, 4, terminal_state=4)
        q.values[:4] = values
        if visits is not None:
            q.visits[:4] = visits
        pair.append(q)
    return pair


class TestMatchesNumpyReference:
    """The list-based learner against the array formulation it replaced."""

    @REFERENCE_SETTINGS
    @given(values=hnp.arrays(float, (4, 4), elements=Q_ENTRIES),
           states=st.lists(st.integers(0, 3), min_size=1, max_size=8),
           epsilon=st.sampled_from([0.0, 0.3, 1.0]),
           seed=st.integers(0, 2**32 - 1))
    def test_select_action_same_action_and_draws(self, values, states, epsilon, seed):
        q, q_ref = table_pair(values)
        rng, rng_ref = np.random.default_rng(seed), np.random.default_rng(seed)
        for s in states:
            got = select_action(q, s, epsilon, rng)
            assert type(got) is int
            assert got == reference.select_action(q_ref, s, epsilon, rng_ref)
        assert rng.bit_generator.state == rng_ref.bit_generator.state

    @REFERENCE_SETTINGS
    @given(values=hnp.arrays(float, (4, 4), elements=Q_ENTRIES),
           visits=hnp.arrays(np.int64, (4, 4), elements=st.integers(0, 5)),
           steps=st.lists(st.tuples(st.integers(0, 3), st.integers(0, 3),
                                    st.floats(-1e3, 1e3), st.integers(0, 4)),
                          min_size=1, max_size=12),
           schedule=st.sampled_from(["constant", "visit_count"]),
           alpha=st.floats(0.0, 1.0),
           gamma=st.floats(0.0, 0.99))
    def test_update_bit_equal(self, values, visits, steps, schedule, alpha, gamma):
        q, q_ref = table_pair(values, visits)
        params = replace(DEFAULT_LEARNING, alpha=alpha, gamma=gamma, alpha_schedule=schedule)
        for s, a, r, s_next in steps:
            t = Transition(s, a, r, s_next)
            update(q, t, params)
            reference.update(q_ref, t, params)
        assert q.values.tobytes() == q_ref.values.tobytes()
        assert np.array_equal(q.visits, q_ref.visits)


class TestGreedyPolicy:
    def test_all_zero_ties_to_first_action(self):
        q = QTable(5, 4, terminal_state=4)
        assert greedy_policy(q).tolist() == [0] * 5

    def test_argmax(self):
        q = QTable(3, 4, terminal_state=2)
        q.values[0] = [0.0, 0.0, 5.0, 0.0]
        q.values[1] = [1.0, 3.0, 2.0, 3.0]
        policy = greedy_policy(q)
        assert policy[0] == 2
        assert policy[1] == 1  # tie between 1 and 3 goes low


class TestValueIteration:
    def test_single_step_episode(self):
        next_state = np.array([[1, 1]])
        rewards = np.array([[1.0, 0.5]])
        # state 1 is absorbing; model it with a 2-state table
        next_state = np.array([[1, 1], [1, 1]])
        rewards = np.array([[1.0, 0.5], [0.0, 0.0]])
        terminal = np.array([False, True])
        q = value_iteration(next_state, rewards, terminal, gamma=0.7)
        assert q[0, 0] == pytest.approx(1.0)
        assert np.all(q[1] == 0.0)

    def test_two_state_chain(self):
        # 0 -> 1 (r=0), 1 -> terminal 2 (r=1)
        next_state = np.array([[1, 1], [2, 2], [2, 2]])
        rewards = np.array([[0.0, 0.0], [1.0, 1.0], [0.0, 0.0]])
        terminal = np.array([False, False, True])
        q = value_iteration(next_state, rewards, terminal, gamma=0.9)
        assert q[0, 0] == pytest.approx(0.9, abs=1e-10)
        assert q[1, 0] == pytest.approx(1.0, abs=1e-10)

    def test_frozen_4x4_fixture(self):
        _, next_state, rewards, terminal, _ = grid_world(4)
        q = value_iteration(next_state, rewards, terminal, gamma=0.9, tol=1e-12)
        np.testing.assert_allclose(q, Q_STAR_4X4, atol=1e-8)

    def test_reward_scaling_keeps_argmax(self):
        _, next_state, rewards, terminal, _ = grid_world(4)
        q1 = value_iteration(next_state, rewards, terminal, gamma=0.9, tol=1e-12)
        q2 = value_iteration(next_state, 3.5 * rewards, terminal, gamma=0.9, tol=1e-12)
        np.testing.assert_allclose(q2, 3.5 * q1, rtol=1e-9, atol=1e-9)
        assert np.array_equal(q1.argmax(axis=1), q2.argmax(axis=1))

    def test_oversized_world_rejected(self):
        n = 5000
        with pytest.raises(ValueError):
            value_iteration(np.zeros((n, 2), dtype=int), np.zeros((n, 2)),
                            np.zeros(n, dtype=bool), gamma=0.9)


class TestConvergenceToOracle:
    def test_visit_count_learning_approaches_fixed_point(self):
        # short twin of the acceptance criterion: exploring starts on the
        # 4x4 world with the 0.025-per-cell distance penalty
        _, next_state, rewards_m, terminal, goal_idx = grid_world(4)
        rewards = rewards_m / 1000.0  # 0.025 per cell of distance
        q_star = value_iteration(next_state, rewards, terminal, gamma=0.9, tol=1e-13)
        q = QTable(16, 4, terminal_state=goal_idx)
        params = replace(DEFAULT_LEARNING, epsilon=0.2, gamma=0.9,
                         alpha_schedule="visit_count")
        rng = np.random.default_rng(23)
        nonterminal = np.flatnonzero(~terminal)
        for _ in range(8000):
            s = int(rng.choice(nonterminal))
            a = int(rng.integers(4))
            for _ in range(100):
                s2 = int(next_state[s, a])
                update(q, Transition(s, a, float(rewards[s, a]), s2), params)
                if terminal[s2]:
                    break
                s = s2
                a = select_action(q, s, params.epsilon, rng)
        gap = np.abs(q.values - q_star).max()
        assert gap <= 0.05  # loose here; the acceptance suite pins 1e-2 at 50k

    def test_greedy_matches_oracle_on_unique_states(self):
        _, next_state, rewards, terminal, goal_idx = grid_world(4)
        q_star = value_iteration(next_state, rewards, terminal, gamma=0.9, tol=1e-12)
        q = QTable(16, 4, terminal_state=goal_idx)
        q.values[:] = q_star  # table loaded with the exact solution
        learned = greedy_policy(q)
        srt = np.sort(q_star, axis=1)
        unique = (srt[:, -1] - srt[:, -2]) > 1e-9
        oracle = q_star.argmax(axis=1)
        assert np.array_equal(learned[unique], oracle[unique])


ROWS_2X2 = "0 0 -1.5\n0 1 -2.5\n1 0 0.0\n1 1 0.0\n"  # a 2 x 2 table, terminal state 1


class TestPersistence:
    def test_roundtrip_exact(self, tmp_path):
        rng = np.random.default_rng(6)
        q = QTable(12, 4, terminal_state=7)
        q.values[:] = rng.normal(size=(12, 4)) * 1e3
        q.values[7] = 0.0
        path = tmp_path / "q.txt"
        save_qtable(q, path)
        loaded = load_qtable(path)
        assert loaded.n_states == 12 and loaded.n_actions == 4
        assert loaded.terminal_state == 7
        np.testing.assert_array_equal(loaded.values, q.values)
        # repeated values from a small pool: signed zeros, the extremes and a subnormal
        # keep their bits, whether saved once per distinct value or read once per token
        pool = [-0.0, 0.0, 5e-324, 1.7976931348623157e308, -1.7976931348623157e308,
                0.1 + 0.2, -2.5, 1e-300]
        q = QTable(30, 4, terminal_state=29)
        q.values[:29] = rng.choice(pool, size=(29, 4))
        save_qtable(q, path)
        loaded = load_qtable(path)
        np.testing.assert_array_equal(loaded.values.view(np.int64), q.values.view(np.int64))

    @pytest.mark.parametrize("body, message", [
        # header promises 16 entries, one row follows
        ("0 0 -1.5\n", "line 3: file ends after 1 of 16 entries"),
        ("0 0 -1.5\n0 0 -2.5\n", "line 3: entry (0, 0) repeated"),
        ("0 0 -1.5\n4 0 -2.5\n", "line 3: entry (4, 0) outside the 4 x 4 table"),
        ("0 0 -1.5\n0 -1 -2.5\n", "line 3: entry (0, -1) outside the 4 x 4 table"),
        ("0 0\n", "line 2: expected 'state action value'"),
        ("0 zero -1.5\n", "line 2: expected 'state action value'"),
        ("0 0 -1.5\n0 1 nan\n", "line 3: entry (0, 1) holds nan, not a finite value"),
        ("0 0 inf\n", "line 2: entry (0, 0) holds inf, not a finite value"),
        ("0 0 -Infinity\n", "line 2: entry (0, 0) holds -inf, not a finite value"),
        # the header names state 3 as terminal
        ("3 1 7.0\n", "line 2: entry (3, 1) holds 7.0, but the terminal row must read 0.0"),
        ("0 0 -1.5\n0 1 -2\u00e9\n", "line 3: expected 'state action value'"),
    ])
    def test_malformed_rows_rejected(self, tmp_path, body, message):
        path = tmp_path / "q.txt"
        path.write_text("# states=4 actions=4 terminal=3\n" + body, encoding="utf-8")
        with pytest.raises(ValueError, match=re.escape(message)):
            load_qtable(path)

    def test_saved_bytes_format_each_entry(self, tmp_path):
        # repeated values, both signed zeros and an unloadable nan, written as one
        # f"{s} {a} {value!r}" row per entry
        q = QTable(4, 3, terminal_state=3)
        q.values[:3] = [[-0.0, 0.0, -0.0], [1.5, 1.5, 0.1 + 0.2], [np.nan, -1e300, 1.5]]
        path = tmp_path / "q.txt"
        save_qtable(q, path)
        rows = "".join(f"{s} {a} {v!r}\n" for s, row in enumerate(q.values.tolist())
                       for a, v in enumerate(row))
        assert path.read_text() == "# states=4 actions=3 terminal=3\n" + rows

    def test_rows_in_any_layout_load_alike(self, tmp_path):
        # out of order, padded, tab-separated, signed or zero-padded, no final newline
        path = tmp_path / "q.txt"
        path.write_text("# states=2 actions=2 terminal=1\n1 1 0.0\n  0\t+1 -2.5 \n"
                        "1 0 -0.0\n00 0 1_0.5")
        loaded = load_qtable(path)
        np.testing.assert_array_equal(loaded.values, [[10.5, -2.5], [0.0, 0.0]])
        assert np.signbit(loaded.values[1, 0])

    @pytest.mark.parametrize("body, message", [
        # every file holds as many rows and tokens as the 2 x 2 table has entries
        ("0 0\n-1.5 0 1 -2.5\n1 0 0.0\n1 1 0.0\n", "line 2: expected 'state action value'"),
        ("0 0 -1.5\n0 0 -2.5\n1 0 0.0\n1 1 0.0\n", "line 3: entry (0, 0) repeated"),
        ("0 0 -1.5\n2 1 -2.5\n1 0 0.0\n1 1 0.0\n", "line 3: entry (2, 1) outside"),
        ("0 0 -1.5\n0 1 -2.5\n1 0 0.0\n1 1 1e-300\n", "line 5: entry (1, 1) holds 1e-300"),
        ("0 0 -1.5\n0 1 nan\n1 0 0.0\n1 1 0.0\n", "line 3: entry (0, 1) holds nan"),
        ("0 0 -1.5\n0 1 x\n1 0 0.0\n1 1 0.0\n", "line 3: expected 'state action value'"),
        ("0 0 -1.5\n0 1 -2.5\n1 0 0.0\n\n", "line 5: expected 'state action value'"),
    ])
    def test_full_length_faults_named(self, tmp_path, body, message):
        path = tmp_path / "q.txt"
        path.write_text("# states=2 actions=2 terminal=1\n" + body)
        with pytest.raises(ValueError, match=re.escape(message)):
            load_qtable(path)

    @pytest.mark.parametrize("header", ["", "# states=4 actions=4\n",
                                        "# states=4 actions=4 terminal=9\n",
                                        "# states=4 actions=4 terminal=3 \u00e9=1\n",
                                        # headers save_qtable never writes, each followed
                                        # by the rows of a 2 x 2 table with terminal state 1
                                        "states=2 actions=2 terminal=1\n" + ROWS_2X2,
                                        "# actions=2 states=2 terminal=1\n" + ROWS_2X2,
                                        "# states=2 actions=2 terminal=1 users=2\n" + ROWS_2X2,
                                        "# states=3 actions=2 terminal=1 states=2\n" + ROWS_2X2,
                                        # a table needs a terminal state
                                        "# states=2 actions=2 terminal=-1\n" + ROWS_2X2])
    def test_bad_header_rejected(self, tmp_path, header):
        path = tmp_path / "q.txt"
        path.write_text(header, encoding="utf-8")
        with pytest.raises(ValueError, match="line 1: bad header"):
            load_qtable(path)

    @pytest.mark.parametrize("header, reason", [
        ("# states=0 actions=4 terminal=0", "table needs at least one state and action"),
        ("# states=4 actions=4 terminal=9", "terminal_state outside the table"),
    ])
    def test_bad_header_gives_table_reason(self, tmp_path, header, reason):
        # the header is checked with the table's own rules, before any row is read
        path = tmp_path / "q.txt"
        path.write_text(header + "\n0 0 0.0\n")
        with pytest.raises(ValueError, match=re.escape(f"line 1: bad header {header!r} "
                                                       f"({reason})")):
            load_qtable(path)


class TestLearningParams:
    @pytest.mark.parametrize("kwargs", [
        dict(alpha=1.5),
        dict(gamma=1.0),
        dict(epsilon=-0.1),
        dict(alpha_schedule="bogus"),
        dict(epsilon_decay=0.0),
        dict(max_episodes=-1),
        dict(initial_q=float("nan")),
    ])
    def test_invariants_rejected(self, kwargs):
        with pytest.raises(ValueError):
            replace(DEFAULT_LEARNING, **kwargs)
