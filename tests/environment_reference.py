"""One joint step of the multi-station environment, written out plainly.

``absim.environment.Environment.step_all`` is the optimized version: it
caches cell centres, path-loss rows and distances, computes the
interference field once per step and gathers each station's users. This
is the step as the model describes it, with no cache and no shared work:

- every acting station moves one cell (a move off the grid is absorbed)
  and parks when it lands on its final cell;
- with a non-zero rate weight, one channel realization is drawn at the new
  geometry: the (J, K, N) station gains first, then the ground
  transmitter's (K, N) gains, each Rayleigh-faded by Exp(1) power draws
  from the same stream or not faded at all;
- each acting station solves its own allocation against the previous
  step's powers of every other station (``interference_table``) and the
  per-station ``solve``; a parked station stops transmitting;
- the reward is beta1 * rate - beta2 * distance to the final cell -
  beta3 * (another station closer than d_min).

``reference_episode`` and ``reference_train`` compose that step with the
array learner of ``qlearning_reference`` into the episode loop and the
training run, the reference for ``run_episode`` and ``train``.
"""

from __future__ import annotations

import numpy as np

from absim.allocator import AllocationProblem, solve
from absim.channel import ChannelRealization, path_loss_to_users
from absim.environment import EpisodeStats
from absim.geometry import (Position3D, apply_action, cell_center, dist_to_final,
                            pairwise_dist, state_index)
from absim.rng import PURPOSE_EPISODE, derive_stream

from channel_reference import interference_table
from qlearning_reference import ArrayTable, select_action, update


def initial_powers(config, parked):
    """(J, N) powers before the first step: the budget split evenly, 0 if parked."""
    powers = np.full((config.n_agents, config.n_subchannels),
                     config.p_max / config.n_subchannels)
    powers[np.asarray(parked, dtype=bool)] = 0.0
    return powers


def _gains(path_loss, fading, rng, n_subchannels):
    shape = path_loss.shape + (n_subchannels,)
    base = np.broadcast_to(1.0 / path_loss[..., None], shape)
    if fading == "rayleigh":
        return rng.exponential(1.0, size=shape) * base
    return base.copy()


def joint_step(config, states, parked, powers, actions, rng):
    """Advance every acting station one step from (states, parked, powers).

    actions maps each unparked station to an action. Returns the new
    (states, parked, powers), the (state, action, reward, next_state)
    transitions of the acting stations in station order, and the J sum
    rates (0.0 for a station that did not act) and J proximity flags. With
    beta1 = 0 no channel is drawn, every rate is 0.0 and the powers are
    returned as they were.
    """
    area = config.area
    j_count = config.n_agents
    final = [state_index(area, s) for s in config.final_states]
    acting = sorted(actions)
    new_states, new_parked = list(states), list(parked)
    for j in acting:
        new_states[j] = apply_action(area, states[j], actions[j])
        new_parked[j] = new_states[j] == final[j]
    positions = [cell_center(area, s) for s in new_states]
    near = [any(pairwise_dist(positions[i], positions[k]) < config.d_min
                for k in range(j_count) if k != i)
            for i in range(j_count)]

    rates = [0.0] * j_count
    new_powers = powers
    if config.beta1 != 0.0:
        users_xy, prop, gbs = config.users_xy, config.propagation, config.gbs
        path_loss = np.array([path_loss_to_users(p, users_xy, prop) for p in positions])
        gains = _gains(path_loss, config.fading, rng, config.n_subchannels)
        realization = ChannelRealization(gains)
        if gbs.enabled:
            gbs_pl = path_loss_to_users(Position3D(gbs.x, gbs.y, gbs.height), users_xy, prop)
            realization = ChannelRealization(
                gains, _gains(gbs_pl, config.fading, rng, config.n_subchannels))
        new_powers = powers.copy()
        for j in acting:
            users = np.flatnonzero(config.association == j)
            alloc = solve(AllocationProblem(
                gains=gains[j][users],
                interference=interference_table(realization, powers, j, users,
                                                gbs.power_per_subchannel),
                noise_power=prop.noise_power, p_max=config.p_max))
            rates[j] = alloc.sum_rate
            new_powers[j] = 0.0 if new_parked[j] else alloc.powers

    transitions = []
    for j in acting:
        f1 = rates[j]
        f2 = dist_to_final(positions[j], cell_center(area, final[j]), config.distance_exponent)
        f3 = 1.0 if near[j] else 0.0
        reward = config.beta1 * f1 - config.beta2 * f2 - config.beta3 * f3
        transitions.append((states[j], int(actions[j]), reward, new_states[j]))
    return new_states, new_parked, new_powers, transitions, rates, near


def reference_episode(config, tables, params, rng, epsilon):
    """One learning episode from the initial cells, as EpisodeStats.

    Each step every unparked station picks its action in station order,
    joint_step moves the fleet and draws the channel from the same stream,
    and each acting station updates its own table with its transition. The
    episode ends once every station is parked, or after the step cap (four
    steps per cell when it is null). A parked station neither acts nor
    learns; its tallies count the steps it took, and collision_steps counts
    the steps in which any acting station is flagged as too close.
    """
    area, j_count = config.area, config.n_agents
    states = [state_index(area, s) for s in config.initial_states]
    parked = [s == state_index(area, f) for s, f in zip(states, config.final_states)]
    powers = initial_powers(config, parked)
    cap = params.max_steps_per_episode
    if cap is None:
        cap = 4 * area.n_states
    rate_sum, steps, reward_sum, collisions = [0.0] * j_count, [0] * j_count, [0.0] * j_count, 0
    for _ in range(cap):
        acting = [j for j in range(j_count) if not parked[j]]
        if not acting:
            break
        actions = {j: select_action(tables[j], states[j], epsilon, rng) for j in acting}
        states, parked, powers, transitions, rates, near = joint_step(
            config, states, parked, powers, actions, rng)
        for j, t in zip(acting, transitions):
            update(tables[j], t, params)
            rate_sum[j] += rates[j]
            steps[j] += 1
            reward_sum[j] += t[2]
        collisions += any(near[j] for j in acting)
    return EpisodeStats(
        avg_sum_rate=[r / max(n, 1) for r, n in zip(rate_sum, steps)],
        steps_to_terminal=steps, cumulative_reward=reward_sum,
        reached=parked, collision_steps=collisions)


def reference_train(config, params, master_seed):
    """A training run: (tables, stats per episode, stream per episode).

    Tables are qlearning_reference.ArrayTable arrays. They start at
    initial_q, or when it is null at the pessimistic floor
    -(beta2 * area diagonal + beta3) / (1 - gamma), with each station's
    final cell as its terminal state. Episode e draws only from its own
    stream derive_stream(master_seed, PURPOSE_EPISODE, e) and runs at
    epsilon * epsilon_decay^e.
    """
    area = config.area
    q0 = params.initial_q
    if q0 is None:
        diagonal = dist_to_final(Position3D(area.x_min, area.y_min, area.altitude),
                                 Position3D(area.x_max, area.y_max, area.altitude),
                                 config.distance_exponent)
        q0 = -(config.beta2 * diagonal + config.beta3) / (1.0 - params.gamma)
    tables = [ArrayTable(area.n_states, 4, terminal_state=state_index(area, f),
                         initial_value=q0)
              for f in config.final_states]
    stats, streams = [], []
    epsilon = params.epsilon
    for e in range(params.max_episodes):
        streams.append(derive_stream(master_seed, PURPOSE_EPISODE, e))
        stats.append(reference_episode(config, tables, params, streams[-1], epsilon))
        epsilon *= params.epsilon_decay
    return tables, stats, streams
