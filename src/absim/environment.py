"""Multi-station episodic environment.

Every time step all active stations move at once, one shared channel
realization is drawn at the new geometry, each station solves its own
power/sub-channel allocation, and the resulting sum-rate combines with the
distance-to-destination and proximity penalties into the per-agent reward.
Interference seen by a station comes from the other stations' transmit
powers of the previous step (uniform budget split at t=0), so no intra-step
coordination is needed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .allocator import AllocationProblem, solve
from .channel import (FadingMode, GbsSpec, PropagationParams, draw_realization,
                      free_space_path_loss, interference_field, interference_for_abs,
                      path_loss_to_users)
from .geometry import (Action, AreaSpec, Position3D, apply_action, cell_center,
                       dist_to_final, pairwise_dist, state_index)
from .qlearning import LearningParams, QTable, Transition, greedy_policy, select_action, update
from .rng import PURPOSE_EPISODE, derive_stream

__all__ = [
    "Environment",
    "EpisodeStats",
    "ScenarioConfig",
    "TableMismatch",
    "TrajectoryRollout",
    "extract_trajectory",
    "overflow_errors",
    "pessimistic_q_init",
    "run_episode",
    "train",
]

_STEPS_PER_CELL = 4  # the rollout's step cap per cell, and by default an episode's


@dataclass(frozen=True)
class ScenarioConfig:
    """Full scenario description: geometry, fleet, users, radio, reward weights."""

    area: AreaSpec
    initial_states: tuple
    final_states: tuple
    users_xy: np.ndarray
    association: np.ndarray
    n_subchannels: int
    p_max: float
    d_min: float
    beta1: float
    beta2: float
    beta3: float
    propagation: PropagationParams
    fading: FadingMode
    gbs: GbsSpec
    distance_exponent: int

    def __post_init__(self) -> None:
        users = np.asarray(self.users_xy, dtype=float)
        assoc = np.asarray(self.association, dtype=int)
        object.__setattr__(self, "users_xy", users)
        object.__setattr__(self, "association", assoc)
        j = len(self.initial_states)
        errors = []
        if j < 1 or len(self.final_states) != j:
            errors.append("need matching non-empty initial/final state lists")
        for s in list(self.initial_states) + list(self.final_states):
            try:
                state_index(self.area, s)  # rejects cells outside the grid
            except ValueError as exc:
                errors.append(str(exc))
        if users.ndim != 2 or users.shape[1] != 2 or users.shape[0] < 1:
            errors.append("users_xy must be a (K, 2) array")
        elif assoc.shape != (users.shape[0],):
            errors.append("association must give one station per user")
        if np.any(assoc < 0) or np.any(assoc >= j):
            errors.append("association indices outside the fleet")
        for station in range(j):
            if not np.any(assoc == station):
                errors.append(f"station {station} serves no users")
        if self.n_subchannels < 1:
            errors.append("n_subchannels must be at least 1")
        if self.p_max <= 0:
            errors.append("p_max must be positive")
        if self.d_min <= 0:
            errors.append("d_min must be positive")
        if self.beta1 < 0 or self.beta2 < 0 or self.beta3 < 0:
            errors.append("reward weights must be non-negative")
        if self.distance_exponent not in (1, 2):
            errors.append("distance_exponent must be 1 or 2")
        if errors:
            raise ValueError("\n".join(errors))

    @property
    def n_agents(self) -> int:
        return len(self.initial_states)


def overflow_errors(config: ScenarioConfig, params: LearningParams) -> list[str]:
    """One line per number that training with config and params could make
    zero or not finite; [] when there is none.

    Path loss lies between eta_los and eta_nlos times the free-space loss,
    and both grow with distance, so the gains from a transmitter are bounded
    by its nearest and farthest links. A station may fly straight over a
    user or across the box that holds the area and the users; the ground
    transmitter's links are its row to the users. From those bounds come
    the interference, the water level over its floors (interference +
    noise) / gain, and the SNR that one step can reach. A step's rate is at
    most log2(1 + SNR) per sub-channel and its distance the area diagonal,
    which bounds its reward R. Each TD update mixes the old value with r +
    gamma x max, so no table value passes max(|q0|, R / (1 - gamma)), and
    target - current forms twice that; an episode sums R at most cap times.
    """
    area, prop, gbs, users = config.area, config.propagation, config.gbs, config.users_xy
    (x0, y0), (x1, y1) = users.min(axis=0).tolist(), users.max(axis=0).tolist()
    # per transmitter: its section, height and horizontal reach to the users
    reach = {"stations": ("area", area.altitude, 0.0,
                          math.hypot(max(x1, area.x_max) - min(x0, area.x_min),
                                     max(y1, area.y_max) - min(y0, area.y_min)))}
    if gbs.enabled:
        row = np.hypot(gbs.x - users[:, 0], gbs.y - users[:, 1])
        reach["the ground transmitter"] = ("gbs", gbs.height, float(row.min()),
                                           float(row.max()))
    errors = []
    bounds = {}  # per transmitter: its weakest and strongest gain
    for name, (section, height, nearest, farthest) in reach.items():
        gains = bounds[name] = []
        for horizontal, excess in ((farthest, prop.eta_nlos), (nearest, prop.eta_los)):
            # both as path_loss_to_users computes them; a link of 0 m has a loss of 0.0
            distance = math.sqrt(horizontal * horizontal + height * height)
            loss = free_space_path_loss(distance, prop, excess) if distance else 0.0
            gains.append(1.0 / loss if loss else math.inf)
        if not (gains[0] > 0.0 and gains[1] < math.inf):
            errors.append(f"gains from {name} would span {gains[0]!r} to {gains[1]!r}; "
                          f"{section}, users and propagation must keep them finite and "
                          "positive")
    diagonal = _diagonal(config)
    if diagonal == math.inf:  # apart from beta2: 0 x inf is NaN, and NaN fails no < test
        errors.append("the area diagonal overflows as a distance or its square; "
                      "area must be smaller")
    if errors:
        return errors
    margin = 2.0 ** 64  # how far a fading draw may scale a gain, either way
    weakest, strongest = bounds["stations"]
    ground = bounds.get("the ground transmitter", [0.0, 0.0])[1] * gbs.power_per_subchannel
    # a station sends at most p_max on a sub-channel
    interference = (config.n_agents * config.p_max * strongest + ground) * margin
    floor = (interference + prop.noise_power) / weakest * margin
    snr = config.p_max * strongest * margin / prop.noise_power
    checks = {"interference of one step": interference,
              "the water level of one step": config.p_max + config.n_subchannels * floor,
              "the SNR of one step": snr}
    fix = "p_max, gbs and propagation"
    if all(value < math.inf for value in checks.values()):  # the next stage builds on these
        # beta1 multiplies last: a rate below 1 may keep a large beta1 finite
        reward = (config.beta1 * (config.n_subchannels * math.log2(1.0 + snr))
                  + config.beta2 * diagonal + config.beta3)
        twice = 2.0 * max(abs(params.initial_q or 0.0), reward / (1.0 - params.gamma))
        cap = params.max_steps_per_episode  # none runs 2^1023 steps, where float() may fail
        cap = _STEPS_PER_CELL * area.n_states if cap is None else min(cap, 2 ** 1023)
        fix = "reward_weights, n_subchannels and learning"
        checks = {"one step's reward": reward}
        if reward < math.inf:
            checks = {"twice a table value": twice, "an episode's reward sum": reward * cap}
    return [f"{what} could reach {value!r}; {fix} must keep it finite"
            for what, value in checks.items() if not value < math.inf]


def _diagonal(config: ScenarioConfig) -> float:
    """The area diagonal as a distance penalty, or inf where that overflows."""
    area = config.area
    try:  # float ** raises instead of giving inf
        return dist_to_final(Position3D(area.x_min, area.y_min, area.altitude),
                             Position3D(area.x_max, area.y_max, area.altitude),
                             config.distance_exponent)
    except OverflowError:
        return math.inf


@dataclass
class EpisodeStats:
    """Per-episode aggregates; arrays are indexed by agent."""

    avg_sum_rate: np.ndarray
    steps_to_terminal: np.ndarray
    cumulative_reward: np.ndarray
    reached: np.ndarray
    collision_steps: int

    @property
    def mean_sum_rate(self) -> float:
        return float(self.avg_sum_rate.mean())


class _PerCell(dict):
    """Values of fn at cells, each computed at its first lookup and kept."""

    def __init__(self, fn):  # dict.__new__ has already made the empty dict
        self.fn = fn

    def __missing__(self, s):
        value = self[s] = self.fn(s)
        return value


class Environment:
    """Owns the mutable per-episode state of one scenario.

    States, and each station's final cell, are flat cell indices (see
    geometry.state_index). Three _PerCell tables fill as cells are first
    visited: centres (_pos), path-loss rows (_pl_rows) and, per station,
    distances to its final cell (_to_final[j]). The ground transmitter's
    row, and the users grouped by station, are made at the first step that
    allocates, so a rollout does no radio work. Fading is drawn fresh every
    step.
    """

    def __init__(self, config: ScenarioConfig):
        self.config = config
        area, users, prop = config.area, config.users_xy, config.propagation
        self._initial = [state_index(area, s) for s in config.initial_states]
        self.final = [state_index(area, s) for s in config.final_states]
        # each lambda finds its function here when called, so a wrapper sees every call
        pos = self._pos = _PerCell(lambda s: cell_center(area, s))
        self._pl_rows = _PerCell(lambda s: path_loss_to_users(pos[s], users, prop))
        self._to_final = [_PerCell(lambda s, f=f: dist_to_final(pos[s], pos[f],
                                                                config.distance_exponent))
                          for f in self.final]
        self._radio = None
        self.states: list[int] = []
        self.parked: list[bool] = []
        self.reset()

    def reset(self) -> None:
        cfg = self.config
        self.states = list(self._initial)
        self.parked = [s == f for s, f in zip(self._initial, self.final)]
        self._prev_powers = np.full((cfg.n_agents, cfg.n_subchannels),
                                    cfg.p_max / cfg.n_subchannels)
        for j, parked in enumerate(self.parked):
            if parked:
                self._prev_powers[j] = 0.0

    def move(self, actions: dict):
        """Move each acting station one cell; park the ones that arrive.

        actions maps each unparked station to an Action (or its int value);
        {} moves none. Returns each station's cell centre, the smallest
        separation between two stations in meters (inf for one) and, per
        station, whether another one is closer than d_min.
        """
        cfg = self.config
        states, parked, final = self.states, self.parked, self.final
        new_states = list(states)  # stored only once every action applies
        for j, a in actions.items():
            if parked[j]:
                raise ValueError(f"agent {j} is parked at its terminal state")
            new_states[j] = apply_action(cfg.area, states[j], a)
        self.states = new_states
        for j in actions:
            parked[j] = new_states[j] == final[j]
        positions = [self._pos[s] for s in new_states]
        j_count = len(positions)
        near = [False] * j_count
        min_pairwise = float("inf")
        for i in range(j_count):
            for k in range(i + 1, j_count):
                # separation check is always in plain meters
                d = pairwise_dist(positions[i], positions[k])
                if d < min_pairwise:
                    min_pairwise = d
                if d < cfg.d_min:
                    near[i] = near[k] = True
        return positions, min_pairwise, near

    def step_all(self, actions: dict, rng: np.random.Generator):
        """Advance every acting agent one synchronized step.

        actions maps agent index to an Action (or its int value) for every
        non-parked agent. Returns (transitions, terms): one Transition per
        acting agent, in agent order, whose reward is
        beta1*f1 - beta2*f2 - beta3*f3, and a list of J (f1, f2, f3) tuples
        of the sum rate, distance to destination and proximity flag, with
        (0.0, 0.0, 0.0) for agents that did not act.
        """
        cfg = self.config
        old_states = self.states  # move stores a new list
        _, _, near = self.move(actions)
        states, parked = self.states, self.parked
        acting = sorted(actions)

        # a zero rate weight makes the allocation irrelevant to the reward:
        # no channel draw, no solver and no transmit powers kept
        rates = [0.0] * cfg.n_agents
        if cfg.beta1 != 0.0:
            gbs = cfg.gbs
            if self._radio is None:  # the ground row; users sorted stably by station
                ground_pl = None if not gbs.enabled else path_loss_to_users(
                    Position3D(gbs.x, gbs.y, gbs.height), cfg.users_xy, cfg.propagation)
                assoc = cfg.association
                order = np.argsort(assoc, kind="stable")
                bounds = np.searchsorted(assoc[order], np.arange(cfg.n_agents + 1)).tolist()
                # own: each user's row of the (J * K, N) gains, from its own station
                self._radio = (ground_pl, order, assoc[order] * len(assoc) + order,
                               [slice(lo, hi) for lo, hi in zip(bounds, bounds[1:])])
            ground_pl, order, own, rows = self._radio
            pl = np.array([self._pl_rows[s] for s in states])
            realization = draw_realization(pl, cfg.fading, rng, cfg.n_subchannels,
                                           ground_pl, gbs.power_per_subchannel)
            prev = self._prev_powers
            field, ground = interference_field(realization, prev)
            # one gather each, in grouped order (take is numpy's fastest row
            # gather); every station then takes views of its slice
            gains = realization.gains.reshape(-1, cfg.n_subchannels).take(own, axis=0)
            field = field.take(order, axis=0)
            if ground is not None:
                ground = ground.take(order, axis=0)
            new_powers = prev.copy()
            for j in acting:
                g_j = gains[rows[j]]
                inter = interference_for_abs(field[rows[j]], prev[j], g_j,
                                             None if ground is None else ground[rows[j]])
                alloc = solve(AllocationProblem(gains=g_j, interference=inter,
                                                noise_power=cfg.propagation.noise_power,
                                                p_max=cfg.p_max))
                rates[j] = alloc.sum_rate
                # parked stations stop transmitting
                new_powers[j] = 0.0 if parked[j] else alloc.powers
            self._prev_powers = new_powers

        transitions = []
        terms = [(0.0, 0.0, 0.0)] * cfg.n_agents
        for j in acting:
            s = states[j]
            f1, f2, f3 = rates[j], self._to_final[j][s], 1.0 if near[j] else 0.0
            total = cfg.beta1 * f1 - cfg.beta2 * f2 - cfg.beta3 * f3
            terms[j] = f1, f2, f3
            transitions.append(Transition(old_states[j], actions[j], total, s))
        return transitions, terms


def run_episode(env: Environment, qtables: list[QTable], params: LearningParams,
                rng: np.random.Generator, epsilon: float) -> EpisodeStats:
    """One learning episode from the initial states to all-terminal or the step cap.

    Agents that reach their terminal cell park there: no more actions,
    rewards, or table updates, and zero transmit power.
    """
    env.reset()
    cfg = env.config
    j_count = cfg.n_agents
    max_steps = params.max_steps_per_episode
    max_steps = _STEPS_PER_CELL * cfg.area.n_states if max_steps is None else max_steps

    # per-agent tallies stay Python scalars until the episode ends; an agent
    # acts every step until it parks, so step_count is its steps to terminal
    f1_sum = [0.0] * j_count
    step_count = [0] * j_count
    cum_reward = [0.0] * j_count
    collisions = 0

    for _ in range(max_steps):
        active = [j for j in range(j_count) if not env.parked[j]]
        if not active:
            break
        actions = {j: select_action(qtables[j], env.states[j], epsilon, rng) for j in active}
        transitions, terms = env.step_all(actions, rng)
        for j, tr in zip(active, transitions):
            update(qtables[j], tr, params)
            f1_sum[j] += terms[j][0]
            step_count[j] += 1
            cum_reward[j] += tr.reward
            if terms[j][2]:
                collisions += 1

    return EpisodeStats(
        avg_sum_rate=np.array(f1_sum) / np.maximum(step_count, 1),
        steps_to_terminal=np.array(step_count),
        cumulative_reward=np.array(cum_reward),
        reached=np.array(env.parked),
        collision_steps=collisions,
    )


def pessimistic_q_init(config: ScenarioConfig, gamma: float) -> float:
    """Lower bound on any reachable action value, used as the default table seed.

    The worst single-step reward is the full-diagonal distance penalty plus
    a proximity penalty; dividing by 1 - gamma bounds the discounted sum.
    Seeding at this floor means never-tried actions rank below anything the
    agent has actually learned, which keeps greedy readouts on explored
    ground.
    """
    return -(config.beta2 * _diagonal(config) + config.beta3) / (1.0 - gamma)


def train(config: ScenarioConfig, params: LearningParams, master_seed: int):
    """Full training run: one derived stream per episode, stats per episode.

    Returns (qtables, stats_list). Tables start at params.initial_q (the
    scenario's pessimistic floor when None) with the agents' final cells
    pinned as terminals. overflow_errors' lines, if any, raise ValueError first.
    """
    if errors := overflow_errors(config, params):
        raise ValueError("\n".join(errors))
    env = Environment(config)
    q0 = pessimistic_q_init(config, params.gamma) if params.initial_q is None else params.initial_q
    qtables = [QTable(config.area.n_states, len(Action), terminal_state=final,
                      initial_value=q0)
               for final in env.final]
    stats_list = []
    eps = params.epsilon
    for e in range(params.max_episodes):
        rng = derive_stream(master_seed, PURPOSE_EPISODE, e)
        stats_list.append(run_episode(env, qtables, params, rng, eps))
        eps *= params.epsilon_decay
    return qtables, stats_list


class TableMismatch(ValueError):
    """A Q-table that cannot drive its station; agent is the station's index."""

    def __init__(self, agent: int, reason: str):
        super().__init__(f"table {agent} {reason}")
        self.agent, self.reason = agent, reason


@dataclass
class TrajectoryRollout:
    """Greedy rollout result with its safety diagnostics.

    trajectories[j] is agent j's position sequence from the initial cell to
    arrival (or the cap). min_pairwise is the smallest separation in meters
    seen across the synchronized rollout; violation_steps lists the steps
    where it fell below the configured threshold.
    """

    trajectories: list
    reached: list
    steps: int
    min_pairwise: float
    violation_steps: list
    cycle_detected: bool


def extract_trajectory(config: ScenarioConfig, qtables: list[QTable]) -> TrajectoryRollout:
    """Deterministic greedy rollout of the trained policies, capped at four steps per cell.

    Movement only, through Environment.move: exploration and fading play no
    role. A revisited joint state before all agents arrive means the greedy
    policies cycle; that is reported, not raised. A table count other than
    the station count raises ValueError, and a table whose shape or
    terminal state does not fit its station raises TableMismatch.
    """
    if len(qtables) != config.n_agents:
        raise ValueError(f"{len(qtables)} Q-tables for {config.n_agents} stations")
    env = Environment(config)
    n_states, n_actions = config.area.n_states, len(Action)
    for j, (q, final) in enumerate(zip(qtables, env.final)):
        if (q.n_states, q.n_actions, q.terminal_state) != (n_states, n_actions, final):
            raise TableMismatch(j, f"is {q.n_states} x {q.n_actions} with terminal state "
                                   f"{q.terminal_state}, the config needs {n_states} x "
                                   f"{n_actions} with terminal state {final}")
    policies = [greedy_policy(q).tolist() for q in qtables]
    trajectories = [[] for _ in policies]
    min_pairwise = float("inf")
    violation_steps = []
    seen = set()
    # step 0 moves nobody: it records the initial snapshot
    active = range(len(policies))
    actions = {}
    steps = 0
    while True:
        positions, d, near = env.move(actions)
        for j in active:
            trajectories[j].append(positions[j])
        min_pairwise = min(min_pairwise, d)
        if any(near):
            violation_steps.append(steps)
        key = tuple(env.states)  # a station is parked exactly on its final cell
        cycle = key in seen
        if cycle or all(env.parked) or steps >= _STEPS_PER_CELL * n_states:
            break
        seen.add(key)
        active = [j for j, parked in enumerate(env.parked) if not parked]
        actions = {j: policies[j][env.states[j]] for j in active}
        steps += 1

    return TrajectoryRollout(
        trajectories=trajectories,
        reached=list(env.parked),
        steps=steps,
        min_pairwise=min_pairwise,
        violation_steps=violation_steps,
        cycle_detected=cycle,
    )
