from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from absim.allocator import AllocationProblem, solve
from absim.channel import FADING_MODES, draw_realization, path_loss_to_users
from absim.environment import (Environment, EpisodeStats, TableMismatch, extract_trajectory,
                               pessimistic_q_init, run_episode, train)
from absim.geometry import (Action, GridState, Position3D, cell_center, dist_to_final,
                            state_index)
from absim.qlearning import QTable, greedy_action
from absim.rng import PURPOSE_EPISODE, derive_stream

from conftest import DEFAULT_CONFIG, DEFAULT_LEARNING, make_scenario
from environment_reference import initial_powers, joint_step, reference_train
from qlearning_reference import value_iteration
from test_qlearning import grid_world


def fresh_tables(config, initial_value=0.0):
    return [QTable(config.area.n_states, 4,
                   terminal_state=state_index(config.area, config.final_states[j]),
                   initial_value=initial_value)
            for j in range(config.n_agents)]


class TestStepAll:
    def test_single_agent_reaches_terminal_without_collision(self):
        cfg = make_scenario(m=4, n_agents=1, beta1=1.0, beta2=0.25)
        env = Environment(cfg)
        # start the agent right next to its goal
        env.states[0] = state_index(cfg.area, GridState(3, 4))
        ((_, _, reward, next_state),), rates, near = env.step_all(
            {0: Action.RIGHT}, np.random.default_rng(0))
        assert next_state == env.final[0]
        assert near == [False]
        assert rates[0] > 0.0
        assert reward == cfg.beta1 * rates[0]  # no distance or proximity penalty
        assert env.parked[0]

    def test_coincident_agents_both_flagged(self):
        cfg = make_scenario(m=4, n_agents=2, beta1=0.0, beta2=0.0, beta3=1000.0,
                            initial=[GridState(2, 2), GridState(4, 2)],
                            final=[GridState(4, 4), GridState(1, 4)])
        env = Environment(cfg)
        env.states = [state_index(cfg.area, GridState(2, 2)),
                      state_index(cfg.area, GridState(4, 2))]
        transitions, rates, near = env.step_all({0: Action.RIGHT, 1: Action.LEFT},
                                                np.random.default_rng(0))
        # both moved into (3, 2): distance 0 < d_min
        assert near == [True, True]
        assert rates == [0.0, 0.0]
        assert [reward for _, _, reward, _ in transitions] == [-1000.0, -1000.0]

    def test_reward_assembly_exact(self):
        cfg = make_scenario(m=5, n_agents=2, n_subchannels=3, beta1=3.5,
                            beta2=0.25, beta3=1000.0, fading="rayleigh")
        env = Environment(cfg)
        rng = np.random.default_rng(1)
        for _ in range(30):
            active = [j for j in range(2) if not env.parked[j]]
            if not active:
                break
            actions = {j: Action(int(rng.integers(4))) for j in active}
            transitions, rates, near = env.step_all(actions, rng)
            assert len(rates) == len(near) == 2
            assert len(transitions) == len(active)
            for j, (_, _, reward, s) in zip(active, transitions):
                f2 = dist_to_final(cell_center(cfg.area, s), cell_center(cfg.area, env.final[j]),
                                   cfg.distance_exponent)
                f3 = 1.0 if near[j] else 0.0
                assert reward == cfg.beta1 * rates[j] - cfg.beta2 * f2 - cfg.beta3 * f3
                assert rates[j] >= 0.0
            for j in set(range(2)) - set(active):
                assert rates[j] == 0.0

    def test_distance_penalty_zero_iff_at_final(self):
        cfg = make_scenario(m=4, n_agents=1)  # the distance weight alone
        assert cfg.beta2 > 0.0
        env = Environment(cfg)
        goal = state_index(cfg.area, cfg.final_states[0])
        rng = np.random.default_rng(2)
        for _ in range(40):
            if env.parked[0]:
                break
            ((_, _, reward, _),), _, _ = env.step_all({0: Action(int(rng.integers(4)))}, rng)
            assert (reward == 0.0) == (env.states[0] == goal)

    def test_single_agent_zero_interference(self):
        # with one station and no ground interferer the allocation reduces
        # to the isolated problem; recompute it independently
        cfg = make_scenario(m=4, n_agents=1, n_subchannels=3, beta1=1.0,
                            fading="none")
        env = Environment(cfg)
        _, rates, _ = env.step_all({0: Action.RIGHT}, np.random.default_rng(3))
        pos = cell_center(cfg.area, env.states[0])
        from absim.channel import path_loss_to_users
        gains = 1.0 / path_loss_to_users(pos, cfg.users_xy, cfg.propagation)
        prob = AllocationProblem(
            gains=np.repeat(gains[:, None], 3, axis=1),
            interference=np.zeros((len(gains), 3)),
            noise_power=cfg.propagation.noise_power,
            p_max=cfg.p_max)
        assert rates[0] == pytest.approx(solve(prob).sum_rate, rel=1e-9)

    @settings(max_examples=60)
    @given(st.data())
    def test_every_allocation_problem_holds_finite_values(self, data):
        # AllocationProblem checks no element values: draw_realization checks
        # the gains once per step, and the interference step_all makes from
        # them and the previous powers must come out finite and non-negative
        j_count = data.draw(st.integers(1, 4), label="J")
        extra = data.draw(st.lists(st.integers(0, j_count - 1), max_size=4),
                          label="extra users' stations")
        assoc = data.draw(st.permutations(list(range(j_count)) + extra), label="association")
        users = data.draw(st.lists(st.tuples(st.floats(0.0, 400.0), st.floats(0.0, 400.0)),
                                   min_size=len(assoc), max_size=len(assoc)), label="users")
        gbs = DEFAULT_CONFIG.gbs
        if data.draw(st.booleans(), label="ground transmitter"):
            gbs = replace(gbs, enabled=True, x=data.draw(st.floats(0.0, 400.0)),
                          y=data.draw(st.floats(0.0, 400.0)), height=10.0,
                          power_per_subchannel=data.draw(st.floats(1e-3, 0.5)))
        cfg = make_scenario(m=4, n_agents=j_count,
                            n_subchannels=data.draw(st.integers(1, 6), label="N"),
                            beta1=2.0, fading=data.draw(st.sampled_from(FADING_MODES)),
                            users=users, assoc=assoc, gbs=gbs,
                            initial=[GridState(1, j + 1) for j in range(j_count)],
                            final=[GridState(4, 4 - j) for j in range(j_count)])
        problems = []

        def recorded(**fields):
            problems.append(AllocationProblem(**fields))
            return problems[-1]

        env = Environment(cfg)
        rng = np.random.default_rng(data.draw(st.integers(0, 2 ** 32), label="seed"))
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr("absim.environment.AllocationProblem", recorded)
            for _ in range(data.draw(st.integers(1, 10), label="steps")):
                active = [j for j in range(j_count) if not env.parked[j]]
                if not active:
                    break
                env.step_all({j: data.draw(st.integers(0, 3)) for j in active}, rng)
        assert problems  # no station starts parked
        for problem in problems:
            assert np.all(np.isfinite(problem.gains)) and np.all(problem.gains > 0.0)
            assert (np.all(np.isfinite(problem.interference))
                    and np.all(problem.interference >= 0.0))

    def test_beta1_zero_skips_allocator(self, monkeypatch):
        def radio(*args, **kwargs):
            raise AssertionError("radio work done with beta1 = 0")

        for name in ("draw_realization", "interference_for_abs", "path_loss_to_users",
                     "AllocationProblem", "solve"):
            monkeypatch.setattr(f"absim.environment.{name}", radio)
        cfg = make_scenario(m=4, n_agents=2, beta1=0.0,
                            gbs=replace(DEFAULT_CONFIG.gbs, enabled=True, x=150.0, y=150.0,
                                        height=10.0, power_per_subchannel=0.5))
        env = Environment(cfg)
        rng = np.random.default_rng(4)
        for _ in range(3):
            _, rates, _ = env.step_all({0: Action.FORWARD, 1: Action.RIGHT}, rng)
            assert rates == [0.0, 0.0]
        assert env.states != [state_index(cfg.area, s) for s in cfg.initial_states]

    def test_parked_agent_rejected(self):
        cfg = make_scenario(m=4, n_agents=1, initial=[GridState(4, 4)],
                            final=[GridState(4, 4)])
        env = Environment(cfg)
        assert env.parked[0]
        with pytest.raises(ValueError):
            env.step_all({0: Action.LEFT}, np.random.default_rng(0))

    def test_parked_station_stops_transmitting(self):
        cfg = make_scenario(m=4, n_agents=2, beta1=1.0, n_subchannels=2,
                            initial=[GridState(3, 4), GridState(1, 1)],
                            final=[GridState(4, 4), GridState(1, 4)],
                            fading="none")
        env = Environment(cfg)
        rng = np.random.default_rng(5)
        env.step_all({0: Action.RIGHT, 1: Action.FORWARD}, rng)
        assert env.parked[0] and not env.parked[1]
        assert np.all(env._prev_powers[0] == 0.0)
        assert np.any(env._prev_powers[1] > 0.0)


def _philox_state(rng):
    """A derived stream's state as plain, comparable values."""
    state = rng.bit_generator.state
    return {k: v.tolist() if isinstance(v, np.ndarray) else v
            for k, v in {**state.pop("state"), **state}.items()}


class TestMatchesReference:
    @settings(max_examples=150)
    @given(st.data())
    def test_step_all_matches_reference_step(self, data):
        # uneven, interleaved associations, stations parked from the start,
        # the ground transmitter on or off, both fading modes: every step of
        # step_all equals the plain step written from the model, bit for bit
        j_count = data.draw(st.integers(1, 4), label="J")
        m = data.draw(st.integers(2, 4), label="cells per axis")
        extra = data.draw(st.lists(st.integers(0, j_count - 1), max_size=6),
                          label="extra users' stations")
        assoc = data.draw(st.permutations(list(range(j_count)) + extra),
                          label="association")
        side = 100.0 * m
        users = data.draw(st.lists(st.tuples(st.floats(0.0, side), st.floats(0.0, side)),
                                   min_size=len(assoc), max_size=len(assoc)), label="users")
        cells = st.builds(GridState, st.integers(1, m), st.integers(1, m))
        initial = data.draw(st.lists(cells, min_size=j_count, max_size=j_count),
                            label="initial")
        final = data.draw(st.lists(cells, min_size=j_count, max_size=j_count), label="final")
        # at least one station acts; on a small grid random moves often park one
        for j in data.draw(st.sets(st.integers(0, j_count - 1), max_size=j_count - 1),
                           label="parked"):
            final[j] = initial[j]
        gbs = DEFAULT_CONFIG.gbs
        if data.draw(st.booleans(), label="ground transmitter"):
            gbs = replace(DEFAULT_CONFIG.gbs, enabled=True,
                          x=data.draw(st.floats(0.0, side)),
                          y=data.draw(st.floats(0.0, side)), height=10.0,
                          power_per_subchannel=data.draw(st.floats(1e-3, 0.5)))
        cfg = make_scenario(m=m, n_agents=j_count,
                            n_subchannels=data.draw(st.integers(1, 6), label="N"),
                            beta1=data.draw(st.sampled_from([2.0, 0.0]), label="beta1"),
                            beta3=1000.0, fading=data.draw(st.sampled_from(FADING_MODES)),
                            users=users, assoc=assoc, initial=initial, final=final,
                            d_min=150.0, gbs=gbs)
        env = Environment(cfg)
        states, parked = list(env.states), list(env.parked)
        powers = initial_powers(cfg, parked)
        seed = data.draw(st.integers(0, 2 ** 32), label="seed")
        rng, ref_rng = np.random.default_rng(seed), np.random.default_rng(seed)
        for _ in range(data.draw(st.integers(1, 8), label="steps")):
            active = [j for j in range(j_count) if not parked[j]]
            if not active:
                break
            actions = {j: data.draw(st.integers(0, 3)) for j in active}
            transitions, rates, near = env.step_all(actions, rng)
            states, parked, powers, ref_transitions, ref_rates, ref_near = joint_step(
                cfg, states, parked, powers, actions, ref_rng)
            assert (transitions, rates, near) == (ref_transitions, ref_rates, ref_near)
            assert (env.states, env.parked) == (states, parked)
            assert env._prev_powers.tolist() == powers.tolist()
            assert rng.bit_generator.state == ref_rng.bit_generator.state

    @settings(max_examples=120)
    @given(st.data())
    def test_train_matches_reference_train(self, data):
        # train composes step_all with select_action and update; over whole
        # episodes it must equal reference_train: the same stats, table bits,
        # visits and per-episode stream state
        j_count = data.draw(st.integers(1, 4), label="J")
        m = data.draw(st.integers(3, 6), label="cells per axis")
        extra = data.draw(st.lists(st.integers(0, j_count - 1), max_size=4),
                          label="extra users' stations")
        assoc = data.draw(st.permutations(list(range(j_count)) + extra),
                          label="association")
        side = 100.0 * m
        users = data.draw(st.lists(st.tuples(st.floats(0.0, side), st.floats(0.0, side)),
                                   min_size=len(assoc), max_size=len(assoc)), label="users")
        cells = st.builds(GridState, st.integers(1, m), st.integers(1, m))
        initial = data.draw(st.lists(cells, min_size=j_count, max_size=j_count),
                            label="initial")
        final = data.draw(st.lists(cells, min_size=j_count, max_size=j_count), label="final")
        for j in data.draw(st.sets(st.integers(0, j_count - 1), max_size=j_count - 1),
                           label="parked"):
            final[j] = initial[j]
        gbs = DEFAULT_CONFIG.gbs
        if data.draw(st.booleans(), label="ground transmitter"):
            gbs = replace(DEFAULT_CONFIG.gbs, enabled=True,
                          x=data.draw(st.floats(0.0, side)),
                          y=data.draw(st.floats(0.0, side)), height=10.0,
                          power_per_subchannel=data.draw(st.floats(1e-3, 0.5)))
        cfg = make_scenario(m=m, n_agents=j_count,
                            n_subchannels=data.draw(st.integers(1, 4), label="N"),
                            beta1=data.draw(st.sampled_from([2.0, 0.0]), label="beta1"),
                            beta2=data.draw(st.sampled_from([0.25, 0.0]), label="beta2"),
                            beta3=data.draw(st.sampled_from([1000.0, 0.0]), label="beta3"),
                            fading=data.draw(st.sampled_from(FADING_MODES)), users=users,
                            assoc=assoc, initial=initial, final=final, d_min=150.0, gbs=gbs,
                            distance_exponent=data.draw(st.sampled_from([1, 2])))
        params = replace(
            DEFAULT_LEARNING,
            alpha=data.draw(st.sampled_from([0.1, 0.5, 1.0]), label="alpha"),
            gamma=data.draw(st.sampled_from([0.0, 0.9]), label="gamma"),
            epsilon=data.draw(st.sampled_from([0.0, 0.3, 1.0]), label="epsilon"),
            epsilon_decay=data.draw(st.sampled_from([1.0, 0.5]), label="epsilon_decay"),
            alpha_schedule=data.draw(st.sampled_from(["constant", "visit_count"])),
            max_episodes=data.draw(st.integers(1, 3), label="episodes"),
            max_steps_per_episode=data.draw(st.none() | st.integers(0, 25), label="cap"),
            initial_q=data.draw(st.none() | st.sampled_from([-5.0, 0.0, 2.5]),
                                label="initial_q"))
        seed = data.draw(st.integers(0, 2 ** 32), label="seed")
        streams = []

        def recorded(*args):
            streams.append(derive_stream(*args))
            return streams[-1]

        with pytest.MonkeyPatch.context() as patch:
            patch.setattr("absim.environment.derive_stream", recorded)
            tables, stats = train(cfg, params, seed)
        ref_tables, ref_stats, ref_streams = reference_train(cfg, params, seed)
        # a stream is used by its own episode only, so its state now is its
        # state when that episode ended
        assert [_philox_state(s) for s in streams] == [_philox_state(s) for s in ref_streams]
        for got, want in zip(stats, ref_stats, strict=True):
            for name in ("avg_sum_rate", "steps_to_terminal", "cumulative_reward", "reached"):
                assert getattr(got, name) == getattr(want, name), name
            assert got.collision_steps == want.collision_steps
        for got, want in zip(tables, ref_tables, strict=True):
            assert got.values.view(np.int64).tolist() == want.values.view(np.int64).tolist()
            assert got.visits.tolist() == want.visits.tolist()


class TestMove:
    def test_separation_and_flags(self):
        cfg = make_scenario(m=4, n_agents=2, d_min=150.0,
                            initial=[GridState(1, 1), GridState(4, 1)],
                            final=[GridState(4, 4), GridState(1, 4)])
        env = Environment(cfg)
        assert env.move({}) == (300.0, [False, False])
        min_pairwise, near = env.move({0: Action.RIGHT, 1: Action.LEFT})
        assert env.states == [1, 2] and env.parked == [False, False]
        assert min_pairwise == 100.0 and near == [True, True]

    def test_single_station_has_no_neighbour(self):
        cfg = make_scenario(m=4, n_agents=1, initial=[GridState(3, 4)])
        env = Environment(cfg)
        min_pairwise, near = env.move({0: Action.RIGHT})
        assert min_pairwise == float("inf") and near == [False]
        assert env.parked == [True]

    def test_parked_station_rejected_before_any_move(self):
        cfg = make_scenario(m=4, n_agents=2, initial=[GridState(1, 1), GridState(1, 4)],
                            final=[GridState(4, 4), GridState(1, 4)])
        env = Environment(cfg)
        with pytest.raises(ValueError, match="agent 1 is parked"):
            env.move({0: Action.RIGHT, 1: Action.LEFT})
        assert env.states == [0, 12] and env.parked == [False, True]

    def test_bad_action_moves_nobody(self):
        cfg = make_scenario(m=4, n_agents=2, initial=[GridState(1, 1), GridState(1, 3)],
                            final=[GridState(2, 1), GridState(1, 4)])
        env = Environment(cfg)
        # an unknown action, and agent indices outside the fleet of two
        for bad, message in (({1: 7}, "unknown action"), ({-1: Action.LEFT}, "no agent -1"),
                             ({2: Action.LEFT}, "no agent 2")):
            with pytest.raises(ValueError, match=message):
                env.move({0: Action.RIGHT, **bad})
            assert env.states == [0, 8] and env.parked == [False, False]


class TestGroundInterferer:
    def test_enabled_gbs_raises_interference(self):
        base = make_scenario(m=4, n_agents=1, beta1=1.0, n_subchannels=2,
                             fading="none")
        noisy = make_scenario(m=4, n_agents=1, beta1=1.0, n_subchannels=2,
                              fading="none",
                              gbs=replace(DEFAULT_CONFIG.gbs, enabled=True, x=150.0, y=150.0,
                                          height=10.0, power_per_subchannel=0.5))
        _, quiet, _ = Environment(base).step_all({0: Action.RIGHT},
                                                 np.random.default_rng(0))
        _, jammed, _ = Environment(noisy).step_all({0: Action.RIGHT},
                                                   np.random.default_rng(0))
        assert jammed[0] < quiet[0]


class TestPerCellValues:
    """Cell centres and path-loss rows are made once per distinct cell, and
    distances to the destination once per station and cell, each when first
    needed; the ground transmitter's row is made once per Environment."""

    def test_no_per_cell_value_made_twice(self, monkeypatch):
        gbs = replace(DEFAULT_CONFIG.gbs, enabled=True, x=150.0, y=150.0, height=10.0,
                      power_per_subchannel=0.5)
        cfg = make_scenario(m=4, n_agents=2, beta1=1.0, beta3=1000.0,
                            fading="rayleigh", gbs=gbs)
        made = {}
        # each records the arguments that identify the value it makes
        for name, original, key in (
                ("cell_center", cell_center, lambda args: args[1]),
                ("path_loss_to_users", path_loss_to_users, lambda args: args[0]),
                ("dist_to_final", dist_to_final, lambda args: args[:2])):
            keys = made[name] = []
            monkeypatch.setattr(f"absim.environment.{name}",
                                lambda *args, f=original, key=key, keys=keys:
                                keys.append(key(args)) or f(*args))
        env = Environment(cfg)
        tables = fresh_tables(cfg)
        agent_steps = 0
        for e in range(4):
            stats = run_episode(env, tables,
                                replace(DEFAULT_LEARNING, max_steps_per_episode=30),
                                derive_stream(5, PURPOSE_EPISODE, e), 0.1)
            agent_steps += sum(stats.steps_to_terminal)
        for keys in made.values():
            assert len(set(keys)) == len(keys)
        ground = Position3D(gbs.x, gbs.y, gbs.height)
        assert made["path_loss_to_users"].count(ground) == 1
        # stations came back to cells they had been in, so values were reused
        assert 0 < len(made["dist_to_final"]) < agent_steps
        assert len(made["path_loss_to_users"]) - 1 < agent_steps


class TestSingleAgentRun:
    def test_f3_zero_for_entire_run(self):
        cfg = make_scenario(m=4, n_agents=1, beta1=1.0, beta3=1000.0,
                            fading="rayleigh")
        env = Environment(cfg)
        params = replace(DEFAULT_LEARNING, max_steps_per_episode=50)
        stats = run_episode(env, fresh_tables(cfg), params, np.random.default_rng(7),
                            params.epsilon)
        assert stats.steps_to_terminal[0] > 0
        assert stats.collision_steps == 0


class TestPureDistancePolicy:
    def test_oracle_policy_moves_toward_destination(self):
        # with only the distance term, every optimal action strictly
        # shrinks the distance to the destination
        area, next_state, rewards, terminal, goal_idx = grid_world(6)
        q_star = value_iteration(next_state, rewards, terminal, gamma=0.9, tol=1e-12)
        goal_pos = cell_center(area, goal_idx)
        for s in range(36):
            if terminal[s]:
                continue
            here = dist_to_final(cell_center(area, s), goal_pos, 1)
            best = int(q_star[s].argmax())
            there = dist_to_final(cell_center(area, int(next_state[s, best])), goal_pos, 1)
            assert there < here


class TestRunEpisode:
    def test_zero_step_cap_empty_trace(self):
        cfg = make_scenario(m=4, n_agents=1)
        env = Environment(cfg)
        params = replace(DEFAULT_LEARNING, max_steps_per_episode=0)
        tables = fresh_tables(cfg)
        stats = run_episode(env, tables, params, np.random.default_rng(0), params.epsilon)
        assert tables[0].visits.sum() == 0
        assert stats.steps_to_terminal == [0]

    def test_identical_seeds_identical_traces(self):
        cfg = make_scenario(m=4, n_agents=2, beta1=2.0, beta3=1000.0,
                            fading="rayleigh")
        params = replace(DEFAULT_LEARNING, max_steps_per_episode=50)

        def run_once():
            env = Environment(cfg)
            tables = fresh_tables(cfg)
            stats = run_episode(env, tables, params,
                                derive_stream(77, PURPOSE_EPISODE, 0), params.epsilon)
            return tables, stats

        q1, s1 = run_once()
        q2, s2 = run_once()
        for a, b in zip(q1, q2):
            np.testing.assert_array_equal(a.values, b.values)
            np.testing.assert_array_equal(a.visits, b.visits)
        assert q1[0].visits.sum() > 0
        for name in ("avg_sum_rate", "steps_to_terminal", "cumulative_reward", "reached"):
            np.testing.assert_array_equal(getattr(s1, name), getattr(s2, name))
        assert s1.collision_steps == s2.collision_steps

    @pytest.mark.parametrize("seed, purpose, index", [
        (-1, PURPOSE_EPISODE, 0), (2 ** 64, PURPOSE_EPISODE, 0),
        (0, -1, 0), (0, PURPOSE_EPISODE, 2 ** 64)])
    def test_stream_outside_64_bits_rejected(self, seed, purpose, index):
        # masking to 64 bits would alias -1 with 2^64 - 1
        with pytest.raises(ValueError, match=r"\[0, 2\^64\)"):
            derive_stream(seed, purpose, index)

    def test_parked_agents_get_no_updates(self):
        cfg = make_scenario(m=4, n_agents=2, beta2=0.25,
                            initial=[GridState(3, 4), GridState(1, 1)],
                            final=[GridState(4, 4), GridState(4, 1)])
        env = Environment(cfg)
        tables = fresh_tables(cfg)
        params = replace(DEFAULT_LEARNING, epsilon=0.0, max_steps_per_episode=30, alpha=0.5)
        run_episode(env, tables, params, np.random.default_rng(9), params.epsilon)
        # agent 0 reaches (4,4) quickly; its terminal row must stay zero
        assert np.all(tables[0].values[tables[0].terminal_state] == 0.0)

    def test_meeting_stations_count_one_collision_step(self):
        # (1, 1) goes RIGHT and (3, 1) goes LEFT: both land on (2, 1), one step
        cfg = make_scenario(m=4, n_agents=2, d_min=150.0,
                            initial=[GridState(1, 1), GridState(3, 1)])
        env = Environment(cfg)
        tables = fresh_tables(cfg)
        for j, action in enumerate((Action.RIGHT, Action.LEFT)):
            tables[j].rows[env.states[j]][action] = 1.0
        params = replace(DEFAULT_LEARNING, epsilon=0.0, max_steps_per_episode=1)
        stats = run_episode(env, tables, params, np.random.default_rng(0), params.epsilon)
        assert env.states[0] == env.states[1] == state_index(cfg.area, GridState(2, 1))
        assert stats.collision_steps == 1

    def test_trace_rows_only_for_active_agents(self):
        # one table update per step an agent actually took: none after parking
        cfg = make_scenario(m=4, n_agents=2, beta2=0.25,
                            initial=[GridState(3, 4), GridState(1, 1)],
                            final=[GridState(4, 4), GridState(4, 1)])
        env = Environment(cfg)
        tables = fresh_tables(cfg)
        params = replace(DEFAULT_LEARNING, epsilon=0.0, max_steps_per_episode=60)
        stats = run_episode(env, tables, params, np.random.default_rng(10), params.epsilon)
        assert any(stats.reached)
        visits = [int(q.visits.sum()) for q in tables]
        assert visits == stats.steps_to_terminal
        assert visits[0] < 60


class TestIntegerStates:
    """States are flat indices from Environment.__init__ on: no per-step
    GridState conversion runs in the episode loop or the greedy rollout."""

    def count_state_index(self, monkeypatch):
        calls = []
        original = state_index

        def counted(*args):
            calls.append(args)
            return original(*args)

        monkeypatch.setattr("absim.environment.state_index", counted)
        return calls

    def test_run_episode_makes_no_state_index_calls(self, monkeypatch):
        cfg = make_scenario(m=4, n_agents=2, beta1=1.0, beta3=1000.0,
                            fading="rayleigh")
        env = Environment(cfg)
        tables = fresh_tables(cfg)
        calls = self.count_state_index(monkeypatch)
        run_episode(env, tables, replace(DEFAULT_LEARNING, max_steps_per_episode=50),
                    np.random.default_rng(12), 0.1)
        assert sum(int(q.visits.sum()) for q in tables) > 0
        assert calls == []

    def test_rollout_converts_only_initial_and_final_cells(self, monkeypatch):
        cfg = make_scenario(m=4, n_agents=2)
        calls = self.count_state_index(monkeypatch)
        rollout = extract_trajectory(cfg, fresh_tables(cfg))
        assert rollout.steps > 1
        assert len(calls) == 2 * cfg.n_agents


class TestTrain:
    def test_single_episode_single_record(self):
        cfg = make_scenario(m=4, n_agents=1)
        params = replace(DEFAULT_LEARNING, max_episodes=1, max_steps_per_episode=10)
        qtables, stats = train(cfg, params, master_seed=5)
        assert len(stats) == 1
        assert len(stats[0].steps_to_terminal) == 1

    def test_training_recovers_oracle_policy_on_small_world(self):
        # pure-distance reward: learned greedy actions must match the
        # exact fixed point wherever its argmax is unique
        cfg = make_scenario(m=4, n_agents=1, beta1=0.0, beta2=0.25)
        params = replace(DEFAULT_LEARNING, alpha=1.0, epsilon=0.2, gamma=0.9,
                         max_episodes=1500, max_steps_per_episode=64, initial_q=0.0)
        qtables, _ = train(cfg, params, master_seed=11)
        _, next_state, rewards, terminal, _ = grid_world(4)
        q_star = value_iteration(next_state, rewards, terminal, gamma=0.9, tol=1e-12)
        srt = np.sort(q_star, axis=1)
        unique = (srt[:, -1] - srt[:, -2]) > 1e-9
        learned = np.array([greedy_action(qtables[0], s) for s in range(cfg.area.n_states)])
        oracle = q_star.argmax(axis=1)
        assert np.array_equal(learned[unique & ~terminal], oracle[unique & ~terminal])

    @pytest.mark.parametrize("scenario, learning, message", [
        ({"beta1": 1e308, "p_max": 100.0}, {"max_episodes": 2, "max_steps_per_episode": 20},
         "one step's reward could reach inf"),
        ({"beta1": 1e307, "beta2": 0.0},
         {"alpha": 1.0, "gamma": 0.99, "max_episodes": 4, "max_steps_per_episode": 3000},
         "one step's reward could reach inf"),
        ({"beta2": 3e301},
         {"gamma": 0.0, "epsilon": 1.0, "max_episodes": 1, "max_steps_per_episode": 100000},
         "an episode's reward sum could reach inf"),
        # 4 pi f d overflows before the division by c: the farthest gain would be 0.0
        ({"propagation": replace(DEFAULT_CONFIG.propagation, carrier_freq=1e305,
                                 speed_of_light=1e305)},
         {"max_episodes": 1, "max_steps_per_episode": 3}, "gains from stations would span"),
    ])
    def test_overflowing_config_raises_before_building(self, monkeypatch, scenario, learning,
                                                       message):
        # the defaults with fields that ScenarioConfig and LearningParams each accept
        config = replace(DEFAULT_CONFIG, **scenario)
        params = replace(DEFAULT_LEARNING, **learning)
        monkeypatch.setattr("absim.environment.Environment",
                            lambda config: pytest.fail("train built an Environment"))
        with pytest.raises(ValueError, match=message):
            train(config, params, master_seed=0)

    def test_mean_sum_rate_is_numpy_mean(self):
        # np.mean adds eight or more values pairwise, so Python's sum / len can
        # differ from it in the last bit; metrics.csv keeps np.mean's bits
        rows = (np.random.default_rng(8).random((200, 8)) * 10.0).tolist()
        means = [EpisodeStats(avg_sum_rate=row, steps_to_terminal=[1] * 8,
                              cumulative_reward=[0.0] * 8, reached=[False] * 8,
                              collision_steps=0).mean_sum_rate for row in rows]
        assert means == [float(np.mean(row)) for row in rows]
        assert any(mean != sum(row) / len(row) for mean, row in zip(means, rows))

    def test_stats_are_finite(self):
        cfg = make_scenario(m=4, n_agents=2, beta1=1.0, beta3=1000.0,
                            fading="rayleigh")
        params = replace(DEFAULT_LEARNING, max_episodes=5, max_steps_per_episode=40)
        _, stats = train(cfg, params, master_seed=3)
        for st in stats:
            assert np.isfinite(st.avg_sum_rate).all()
            assert np.isfinite(st.cumulative_reward).all()
            assert st.collision_steps >= 0


class TestExtractTrajectory:
    def test_start_at_final_single_point(self):
        cfg = make_scenario(m=4, n_agents=1, initial=[GridState(4, 4)],
                            final=[GridState(4, 4)])
        rollout = extract_trajectory(cfg, fresh_tables(cfg))
        assert len(rollout.trajectories[0]) == 1
        assert rollout.reached == [True]
        assert rollout.steps == 0

    def test_rollout_length_is_manhattan_distance(self):
        cfg = make_scenario(m=6, n_agents=1, beta1=0.0, beta2=0.25)
        params = replace(DEFAULT_LEARNING, alpha=1.0, epsilon=0.2, gamma=0.9,
                         max_episodes=2500, max_steps_per_episode=144, initial_q=0.0)
        qtables, _ = train(cfg, params, master_seed=21)
        rollout = extract_trajectory(cfg, qtables)
        assert rollout.reached == [True]
        # (1,1) -> (6,6): 5 + 5 moves
        assert len(rollout.trajectories[0]) - 1 == 10

    def test_untrained_policy_reports_cycle(self):
        cfg = make_scenario(m=4, n_agents=1)
        # all-zero table: greedy always picks LEFT, which is absorbed at
        # the boundary, an immediate one-state cycle
        rollout = extract_trajectory(cfg, fresh_tables(cfg))
        assert rollout.cycle_detected
        assert rollout.reached == [False]

    def test_one_cell_center_per_distinct_cell(self, monkeypatch):
        # agent 1 is parked from the start; agent 0 walks right, then forward
        cfg = make_scenario(m=4, n_agents=2, initial=[GridState(1, 1), GridState(1, 4)],
                            final=[GridState(4, 4), GridState(1, 4)])
        tables = fresh_tables(cfg)
        for s, a in [(0, Action.RIGHT), (1, Action.RIGHT), (2, Action.RIGHT),
                     (3, Action.FORWARD), (7, Action.FORWARD), (11, Action.FORWARD)]:
            tables[0].base[s, a] = 1.0
        calls = []
        monkeypatch.setattr("absim.environment.cell_center",
                            lambda area, s: calls.append(s) or cell_center(area, s))
        rollout = extract_trajectory(cfg, tables)
        assert rollout.reached == [True, True] and rollout.steps == 6
        assert sorted(calls) == [0, 1, 2, 3, 7, 11, 12, 15]
        assert rollout.trajectories[0] == [cell_center(cfg.area, s)
                                           for s in (0, 1, 2, 3, 7, 11, 15)]

    def test_trajectories_are_the_centres_of_the_cells_occupied(self, monkeypatch):
        # agent 1 walks right for two steps and parks; agent 0 walks on to step 6
        cfg = make_scenario(m=4, n_agents=2, initial=[GridState(1, 1), GridState(1, 4)],
                            final=[GridState(4, 4), GridState(3, 4)])
        tables = fresh_tables(cfg)
        for j, s, a in [(0, 0, Action.RIGHT), (0, 1, Action.RIGHT), (0, 2, Action.RIGHT),
                        (0, 3, Action.FORWARD), (0, 7, Action.FORWARD),
                        (0, 11, Action.FORWARD), (1, 12, Action.RIGHT), (1, 13, Action.RIGHT)]:
            tables[j].base[s, a] = 1.0
        snapshots = []  # (states, parked) after each of the rollout's moves
        move = Environment.move

        def recorded(env, actions):
            result = move(env, actions)
            snapshots.append((list(env.states), list(env.parked)))
            return result

        monkeypatch.setattr(Environment, "move", recorded)
        rollout = extract_trajectory(cfg, tables)
        assert rollout.reached == [True, True] and rollout.steps == 6
        for j in range(2):
            # from the step-0 snapshot up to and including the move that parks j
            until = next(t for t, (_, parked) in enumerate(snapshots) if parked[j])
            occupied = [states[j] for states, _ in snapshots[:until + 1]]
            assert rollout.trajectories[j] == [cell_center(cfg.area, s) for s in occupied]
        assert [len(path) for path in rollout.trajectories] == [7, 3]

    def test_rollout_reads_only_the_rows_it_visits(self, monkeypatch):
        # trained tables hold learned rows; the rollout reads those cells' rows,
        # never an (S, A) snapshot of a whole table
        cfg = make_scenario(m=4, n_agents=2, beta2=0.25,
                            initial=[GridState(1, 1), GridState(4, 1)],
                            final=[GridState(4, 4), GridState(1, 4)])
        params = replace(DEFAULT_LEARNING, max_episodes=3, max_steps_per_episode=20)
        qtables, _ = train(cfg, params, master_seed=4)
        expected = extract_trajectory(cfg, qtables)
        monkeypatch.setattr(QTable, "values", property(
            lambda q: pytest.fail("the rollout read a whole table's values")))
        rollout = extract_trajectory(cfg, qtables)
        assert rollout.steps > 0
        assert rollout == expected

    def test_rollout_is_radio_free(self, monkeypatch):
        cfg = make_scenario(m=4, n_agents=2, beta1=1.0, beta3=1000.0,
                            fading="rayleigh",
                            gbs=replace(DEFAULT_CONFIG.gbs, enabled=True, x=150.0, y=150.0,
                                        height=10.0, power_per_subchannel=0.5))
        params = replace(DEFAULT_LEARNING, max_episodes=3, max_steps_per_episode=20)
        qtables, _ = train(cfg, params, master_seed=4)

        def radio(*args, **kwargs):
            raise AssertionError("the greedy rollout did radio work")

        for name in ("path_loss_to_users", "draw_realization", "interference_for_abs",
                     "AllocationProblem", "solve"):
            monkeypatch.setattr(f"absim.environment.{name}", radio)
        rollout = extract_trajectory(cfg, qtables)
        assert rollout.steps > 0

    @pytest.mark.parametrize("n_states, terminal", [(25, 15), (16, 12)])
    def test_table_that_does_not_fit_its_station_rejected(self, n_states, terminal):
        cfg = make_scenario(m=4, n_agents=2)  # finals: states 15 and 12
        tables = fresh_tables(cfg)
        tables[0] = QTable(n_states, 4, terminal_state=terminal)
        with pytest.raises(TableMismatch) as err:
            extract_trajectory(cfg, tables)
        assert err.value.agent == 0
        assert err.value.reason == (f"is {n_states} x 4 with terminal state {terminal}, "
                                    "the config needs 16 x 4 with terminal state 15")

    @pytest.mark.parametrize("count", [0, 1, 3])
    def test_table_count_must_match_stations(self, count):
        cfg = make_scenario(m=4, n_agents=2)
        tables = (fresh_tables(cfg) * 2)[:count]
        with pytest.raises(ValueError, match=f"^{count} Q-tables for 2 stations$"):
            extract_trajectory(cfg, tables)

    def test_min_pairwise_reported(self):
        cfg = make_scenario(m=4, n_agents=2, beta2=0.25,
                            initial=[GridState(1, 1), GridState(4, 1)],
                            final=[GridState(4, 4), GridState(1, 4)])
        params = replace(DEFAULT_LEARNING, alpha=1.0, epsilon=0.3, gamma=0.9,
                         max_episodes=3000, max_steps_per_episode=64, initial_q=0.0)
        qtables, _ = train(cfg, params, master_seed=2)
        rollout = extract_trajectory(cfg, qtables)
        assert rollout.min_pairwise >= 0.0
        assert rollout.steps <= 64


class TestConfigValidation:
    def test_association_must_cover_all_stations(self):
        with pytest.raises(ValueError):
            make_scenario(m=4, n_agents=2, users=np.array([[10.0, 10.0]]),
                          assoc=np.array([0]))

    def test_association_range_checked(self):
        with pytest.raises(ValueError):
            make_scenario(m=4, n_agents=1, users=np.array([[10.0, 10.0]]),
                          assoc=np.array([2]))

    def test_negative_weight_rejected(self):
        with pytest.raises(ValueError):
            make_scenario(m=4, beta2=-0.25)

    @pytest.mark.parametrize("beta", ["beta1", "beta2", "beta3"])
    def test_nan_weight_rejected(self, beta):
        with pytest.raises(ValueError, match="^reward weights must be non-negative$"):
            replace(DEFAULT_CONFIG, **{beta: float("nan")})

    @pytest.mark.parametrize("p_max", [0.0, -1.0, float("nan")])
    def test_p_max_must_be_positive(self, p_max):
        with pytest.raises(ValueError, match="^p_max must be positive$"):
            replace(DEFAULT_CONFIG, p_max=p_max)

    def test_bad_initial_state_rejected(self):
        with pytest.raises(ValueError):
            make_scenario(m=4, initial=[GridState(9, 1)])

    @pytest.mark.parametrize("d_min", [0.0, float("nan")])
    def test_d_min_must_be_positive(self, d_min):
        with pytest.raises(ValueError, match="d_min must be positive"):
            make_scenario(m=4, d_min=d_min)

    @pytest.mark.parametrize("fading, faded", [("rayleigh", True), ("none", False)])
    def test_fading_string_reaches_the_draw(self, monkeypatch, fading, faded):
        # the field as a config file spells it: "rayleigh" fades, "none" gives 1/PL
        drawn = []

        def spy(*args):
            drawn.append(draw_realization(*args))
            return drawn[-1]

        monkeypatch.setattr("absim.environment.draw_realization", spy)
        cfg = make_scenario(m=4, n_agents=1, beta1=1.0, fading=fading)
        env = Environment(cfg)
        env.step_all({0: Action.RIGHT}, np.random.default_rng(6))
        pl = path_loss_to_users(cell_center(cfg.area, env.states[0]), cfg.users_xy,
                                cfg.propagation)
        assert (drawn[0].gains[0] == 1.0 / pl[:, None]).all() != faded

    @pytest.mark.parametrize("changes, message", [
        (dict(initial_states=(), final_states=()),
         "need matching non-empty initial/final state lists"),
        (dict(users_xy=np.zeros((20, 3))), r"users_xy must be a \(K, 2\) array"),
    ])
    def test_fleet_and_user_shapes_checked(self, changes, message):
        with pytest.raises(ValueError, match=message):
            replace(DEFAULT_CONFIG, **changes)

    @pytest.mark.parametrize("fading", ["bogus", 3, "Rayleigh", None])
    def test_unknown_fading_rejected(self, fading):
        with pytest.raises(ValueError, match=f"fading must be one of .*, got {fading!r}"):
            make_scenario(m=4, fading=fading)

    def test_pessimistic_init_is_reward_floor(self):
        cfg = make_scenario(m=4, beta2=0.25, beta3=1000.0)
        q0 = pessimistic_q_init(cfg, gamma=0.9)
        diag = dist_to_final(cell_center(cfg.area, 0), cell_center(cfg.area, 15), 1)
        # floor is below any reachable single-step penalty over the horizon
        assert q0 < -(0.25 * diag) / (1 - 0.9)
        assert q0 == pytest.approx(-(0.25 * np.hypot(400, 400) + 1000.0) / 0.1)
