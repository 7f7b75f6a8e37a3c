"""Acceptance suite: one test per exit criterion, one PASS line each.

The headline two-station experiment (criteria 7 and 8) is executed twice by
a module fixture so the determinism check compares two genuinely
independent runs of the same (config, seed): one in this process, one
through the CLI in a fresh interpreter with another hash seed.
"""

import json
import math
import os
import subprocess
import sys
import time
from dataclasses import replace

import numpy as np
import pytest

from allocator_reference import brute_force_oracle, sum_rate, waterfill_power
from channel_reference import average_path_loss
from qlearning_reference import value_iteration
from conftest import DEFAULT_CONFIG, DEFAULT_LEARNING

import absim
from absim.allocator import AllocationProblem, solve
from absim.channel import FadingMode, free_space_path_loss, los_probability
from absim.geometry import (Action, AreaSpec, GridState, Position3D, apply_action,
                            cell_center, dist_to_final, state_index)
from absim.qlearning import QTable, Transition, select_action, update
from absim.environment import extract_trajectory, train
from absim.simcli import RunManifest, load_config, read_metrics, run_train, smooth_series

HEADLINE_SEED = 0


def ok(criterion, detail):
    print(f"PASS criterion {criterion}: {detail}")


# ---------------------------------------------------------------------------
# criteria 1 and 2 share the same batch of solver calls


@pytest.fixture(scope="module")
def allocator_batch():
    rng = np.random.default_rng(20260808)
    cases = []
    started = time.perf_counter()
    for k, n, count in ((2, 2, 50), (3, 3, 50)):
        for _ in range(count):
            gains = 10 ** rng.uniform(-10, -6, size=(k, n))
            problem = AllocationProblem(gains=gains,
                                        interference=np.zeros((k, n)),
                                        noise_power=1e-13, p_max=0.2)
            cases.append((problem, solve(problem),
                          brute_force_oracle(problem, power_grid_points=21)))
    return cases, time.perf_counter() - started


def test_criterion_1_allocator_matches_oracle(allocator_batch):
    cases, elapsed = allocator_batch
    rel_gaps = []
    for problem, res, oracle in cases:
        rel_gaps.append((oracle.sum_rate - res.sum_rate) / oracle.sum_rate)
        assert res.sum_rate <= oracle.sum_rate * (1.0 + 1e-6), \
            "solver exceeded the exhaustive optimum"
    rel_gaps = np.asarray(rel_gaps)
    within_1pct = float(np.mean(rel_gaps <= 0.01))
    assert within_1pct >= 0.95, f"only {within_1pct:.0%} of instances within 1%"
    assert elapsed < 60.0, f"batch took {elapsed:.1f} s"
    ok(1, f"100 instances, {within_1pct:.0%} within 1% "
          f"(worst gap {rel_gaps.max():.2e}), {elapsed:.1f} s")


def test_criterion_2_kkt_and_feasibility(allocator_batch):
    cases, _ = allocator_batch
    worst_rel = 0.0
    for problem, res, _ in cases:
        n_users, n_subchannels = problem.gains.shape
        assert res.powers.sum() <= problem.p_max * (1.0 + 1e-6)
        # each sub-channel carries exactly one winner index
        assert res.assignment.shape == (n_subchannels,)
        assert np.all((res.assignment >= 0) & (res.assignment < n_users))
        assert res.sum_rate == sum_rate(res.assignment, res.powers, problem)
        for n in range(n_subchannels):
            k = int(res.assignment[n])
            expected = waterfill_power(res.lam, problem.gains[k, n],
                                       problem.interference[k, n],
                                       problem.noise_power)
            err = abs(res.powers[n] - expected)
            assert err <= 1e-9 * max(expected, 1e-30)
            if expected > 0:
                worst_rel = max(worst_rel, err / expected)
    ok(2, f"budget, exclusivity and closed-form powers hold on all "
          f"{len(cases)} solves (worst power mismatch {worst_rel:.1e} rel)")


def test_criterion_3_channel_closed_forms():
    params = DEFAULT_CONFIG.propagation
    assert abs(los_probability(5.0, params) - 1.0 / 6.0) < 1e-12

    # independent high-precision evaluation through the log domain
    expected = math.exp(2.0 * (math.log(4.0 * math.pi * 2.0e9 * 100.0)
                               - math.log(params.speed_of_light)))
    got = free_space_path_loss(100.0, params, excess=1.0)
    assert abs(got - expected) / expected < 1e-9

    thetas = np.linspace(0.0, 90.0, 1000)
    probs = los_probability(thetas, params)
    diffs = np.diff(probs)
    assert np.all(diffs >= 0)
    assert np.all(diffs[probs[:-1] < 1.0 - 1e-12] > 0)

    distances = np.linspace(50.0, 5000.0, 1000)
    losses = free_space_path_loss(distances, params, 1.0)
    assert np.all(np.diff(losses) > 0)
    mixture = [average_path_loss(Position3D(3.0 * c, 4.0 * c, 5.0 * c),
                                 (0.0, 0.0), params)
               for c in np.linspace(10.0, 500.0, 1000)]
    assert np.all(np.diff(mixture) > 0)
    ok(3, f"LoS probability 1/6 at theta=a, free-space loss {got:.6e} "
          f"within 1e-9 of independent evaluation, monotonicity sweeps pass")


def test_criterion_4_fading_normalization():
    from absim.channel import draw_realization, path_loss_to_users

    started = time.perf_counter()
    params = DEFAULT_CONFIG.propagation
    rng = np.random.default_rng(4)
    pos = Position3D(70.0, -30.0, 100.0)
    users = np.array([[0.0, 0.0]])
    loss = path_loss_to_users(pos, users, params)[0]
    real = draw_realization(np.array([[loss]]), FadingMode.RAYLEIGH, rng, 1_000_000,
                            None, None)
    # dividing out the deterministic path loss recovers the fading powers
    mean = float(np.mean(real.gains[0, 0] * loss))
    elapsed = time.perf_counter() - started
    assert 0.99 <= mean <= 1.01
    assert elapsed < 5.0
    ok(4, f"mean |rho|^2 over 1e6 draws = {mean:.5f}, {elapsed:.2f} s")


def _unit_grid_fixture(m=4, penalty=0.25):
    """Distance-penalty world on unit-width cells."""
    area = AreaSpec(0.0, float(m), 0.0, float(m), m, 1.0)
    goal = GridState(m, m)
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
            rewards[s, a] = -penalty * dist_to_final(cell_center(area, nxt), goal_pos, 1)
    return next_state, rewards, terminal, goal_idx


def test_criterion_5_qlearning_convergence_oracle():
    started = time.perf_counter()
    gamma = 0.5
    next_state, rewards, terminal, goal_idx = _unit_grid_fixture()
    q_star = value_iteration(next_state, rewards, terminal, gamma=gamma, tol=1e-13)

    q = QTable(16, 4, terminal_state=goal_idx)
    params = replace(DEFAULT_LEARNING, epsilon=0.2, gamma=gamma, alpha_schedule="visit_count")
    rng = np.random.default_rng(23)
    nonterminal = np.flatnonzero(~terminal)
    episodes = 0
    gap = np.inf
    while episodes < 50_000:
        # exploring starts: uniform state and first action
        s = int(rng.choice(nonterminal))
        a = int(rng.integers(4))
        for _ in range(100):
            s2 = int(next_state[s, a])
            update(q, Transition(s, a, float(rewards[s, a]), s2), params)
            if terminal[s2]:
                break
            s = s2
            a = select_action(q, s, params.epsilon, rng)
        episodes += 1
        if episodes % 2000 == 0:
            gap = float(np.abs(q.values - q_star).max())
            if gap <= 1e-2:
                break
    gap = float(np.abs(q.values - q_star).max())
    elapsed = time.perf_counter() - started
    assert gap <= 1e-2, f"gap {gap:.4f} after {episodes} episodes"
    assert episodes <= 50_000
    assert elapsed < 30.0

    srt = np.sort(q_star, axis=1)
    unique = (srt[:, -1] - srt[:, -2]) > 1e-9
    learned = q.values.argmax(axis=1)
    oracle = q_star.argmax(axis=1)
    assert np.array_equal(learned[unique], oracle[unique])
    ok(5, f"max-norm gap {gap:.2e} after {episodes} episodes ({elapsed:.1f} s), "
          f"greedy agrees on all {int(unique.sum())} unique-argmax states")


def test_criterion_6_pure_distance_shortest_path():
    from conftest import make_scenario

    started = time.perf_counter()
    cfg = make_scenario(m=10, n_agents=1, beta1=0.0, beta2=0.25,
                        initial=[GridState(1, 1)], final=[GridState(10, 10)])
    params = replace(DEFAULT_LEARNING, alpha=1.0, epsilon=0.2, gamma=0.9,
                     max_episodes=4000, max_steps_per_episode=400, initial_q=0.0)
    qtables, _ = train(cfg, params, master_seed=6)
    rollout = extract_trajectory(cfg, qtables)
    elapsed = time.perf_counter() - started
    manhattan = abs(10 - 1) + abs(10 - 1)
    assert rollout.reached == [True]
    assert len(rollout.trajectories[0]) - 1 == manhattan
    assert elapsed < 30.0
    ok(6, f"greedy rollout takes exactly {manhattan} moves "
          f"(Manhattan distance), {elapsed:.1f} s")


# ---------------------------------------------------------------------------
# criteria 7 and 8: the headline experiment, run twice


@pytest.fixture(scope="module")
def headline_runs(tmp_path_factory):
    """Runs (out_dir, manifest, seconds): the first in this process, the
    second `absim train` in a subprocess started first and joined last, so
    the two share no module state and run side by side."""
    config, params = load_config()
    dir_a, dir_b = (tmp_path_factory.mktemp(f"headline_{label}") for label in "ab")
    src = os.path.dirname(os.path.dirname(absim.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])),
        PYTHONHASHSEED="1" if os.environ.get("PYTHONHASHSEED") == "0" else "0")
    started = time.perf_counter()
    second = subprocess.Popen(
        [sys.executable, "-m", "absim.simcli", "train", "--seed", str(HEADLINE_SEED),
         "--out-dir", str(dir_b)],
        env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
    try:
        manifest_a = run_train(config, params, HEADLINE_SEED, str(dir_a))
        elapsed_a = time.perf_counter() - started
        _, err = second.communicate(timeout=600.0)
    finally:
        second.kill()  # a no-op once it has exited
        second.wait()
    assert second.returncode == 0, err
    manifest_b = RunManifest(**json.loads((dir_b / "manifest.json").read_text()))
    return config, [(dir_a, manifest_a, elapsed_a),
                    (dir_b, manifest_b, time.perf_counter() - started)]


def test_criterion_7_headline_scenario(headline_runs):
    config, runs = headline_runs
    out_dir, manifest, elapsed = runs[0]
    assert elapsed < 600.0, f"run took {elapsed:.0f} s"

    assert all(manifest.rollout["reached"]), "a station missed its final cell"
    assert not manifest.rollout["cycle_detected"]
    assert manifest.rollout["violation_steps"] == []
    assert manifest.rollout["min_pairwise_m"] >= config.d_min

    episodes, means = read_metrics(str(out_dir / "metrics.csv"))
    assert len(episodes) == 2000
    smoothed = smooth_series(means, 100)
    var_first = float(np.var(smoothed[:500]))
    var_last = float(np.var(smoothed[-500:]))
    assert var_last < 0.25 * var_first, \
        f"variance ratio {var_last / var_first:.3f}"
    ok(7, f"2000 episodes in {elapsed:.0f} s, both rollouts terminal, "
          f"min separation {manifest.rollout['min_pairwise_m']:.0f} m, "
          f"smoothed variance ratio {var_last / var_first:.3f}")


def test_criterion_8_byte_identical_reruns(headline_runs):
    _, runs = headline_runs
    (dir_a, man_a, _), (dir_b, man_b, _) = runs
    for name in ("metrics.csv", "trajectory.csv"):
        bytes_a = (dir_a / name).read_bytes()
        bytes_b = (dir_b / name).read_bytes()
        assert bytes_a == bytes_b, f"{name} differs between identical runs"
    assert man_a.files == man_b.files
    ok(8, "metrics and trajectory files byte-identical across two runs "
          f"({len(man_a.files)} artifact digests equal)")


def test_headline_sum_rate_trend_and_plot_rows(headline_runs, tmp_path):
    # companion property of the headline run: the smoothed series trends
    # upward and its tail is far quieter than its head
    from absim.simcli import emit_plot_data

    _, runs = headline_runs
    out_dir = runs[0][0]
    _, means = read_metrics(str(out_dir / "metrics.csv"))
    smoothed = smooth_series(means, 100)
    assert float(np.mean(smoothed[-500:])) >= float(np.mean(smoothed[:500]))
    assert float(np.var(smoothed[-500:])) < 0.10 * float(np.var(smoothed[:500]))

    emit_plot_data(str(out_dir / "metrics.csv"), str(out_dir / "trajectory.csv"),
                   str(tmp_path), window=100)
    rows = (tmp_path / "sum_rate_smoothed.csv").read_text().splitlines()[1:]
    assert len(rows) == 2000 - 100 + 1 == 1901
