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
"""

from __future__ import annotations

import numpy as np

from absim.allocator import AllocationProblem, solve
from absim.channel import ChannelRealization, FadingMode, path_loss_to_users
from absim.geometry import (Position3D, apply_action, cell_center, dist_to_final,
                            pairwise_dist, state_index)
from absim.qlearning import Transition

from channel_reference import interference_table


def initial_powers(config, parked):
    """(J, N) powers before the first step: the budget split evenly, 0 if parked."""
    powers = np.full((config.n_agents, config.n_subchannels),
                     config.p_max / config.n_subchannels)
    powers[np.asarray(parked, dtype=bool)] = 0.0
    return powers


def _gains(path_loss, fading, rng, n_subchannels):
    shape = path_loss.shape + (n_subchannels,)
    base = np.broadcast_to(1.0 / path_loss[..., None], shape)
    if fading == FadingMode.RAYLEIGH:
        return rng.exponential(1.0, size=shape) * base
    return base.copy()


def joint_step(config, states, parked, powers, actions, rng):
    """Advance every acting station one step from (states, parked, powers).

    actions maps each unparked station to an action. Returns the new
    (states, parked, powers), the transitions of the acting stations in
    station order and the J (f1, f2, f3) terms, (0.0, 0.0, 0.0) for a
    station that did not act. With beta1 = 0 no channel is drawn and the
    powers are returned as they were.
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
                gains, _gains(gbs_pl, config.fading, rng, config.n_subchannels),
                gbs.power_per_subchannel)
        new_powers = powers.copy()
        for j in acting:
            users = np.flatnonzero(config.association == j)
            alloc = solve(AllocationProblem(
                gains=gains[j][users],
                interference=interference_table(realization, powers, j, users),
                noise_power=prop.noise_power, p_max=config.p_max))
            rates[j] = alloc.sum_rate
            new_powers[j] = 0.0 if new_parked[j] else alloc.powers

    transitions = []
    terms = [(0.0, 0.0, 0.0)] * j_count
    for j in acting:
        f1 = rates[j]
        f2 = dist_to_final(positions[j], cell_center(area, final[j]), config.distance_exponent)
        f3 = 1.0 if near[j] else 0.0
        terms[j] = (f1, f2, f3)
        reward = config.beta1 * f1 - config.beta2 * f2 - config.beta3 * f3
        transitions.append(Transition(states[j], int(actions[j]), reward, new_states[j]))
    return new_states, new_parked, new_powers, transitions, terms
