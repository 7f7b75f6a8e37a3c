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

from dataclasses import dataclass, field, replace

import numpy as np

from .allocator import AllocationProblem, AllocationResult, solve
from .channel import (FadingMode, GbsSpec, PropagationParams, draw_realization,
                      interference_for_abs, path_loss_to_users)
from .geometry import (Action, AreaSpec, GridState, Position3D, apply_action,
                       cell_center, dist_to_final, pairwise_dist, state_index,
                       validate_state)
from .qlearning import LearningParams, QTable, Transition, greedy_policy, select_action, update
from .rng import PURPOSE_EPISODE, derive_stream

__all__ = [
    "Environment",
    "EpisodeStats",
    "EpisodeTrace",
    "RewardBreakdown",
    "ScenarioConfig",
    "StepOutcome",
    "TrajectoryRollout",
    "extract_trajectory",
    "pessimistic_q_init",
    "run_episode",
    "train",
]


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
    fading: FadingMode = FadingMode.RAYLEIGH
    gbs: GbsSpec = field(default_factory=GbsSpec)
    distance_exponent: int = 1
    velocity: float = 10.0

    def __post_init__(self) -> None:
        users = np.asarray(self.users_xy, dtype=float)
        assoc = np.asarray(self.association, dtype=int)
        object.__setattr__(self, "users_xy", users)
        object.__setattr__(self, "association", assoc)
        j = len(self.initial_states)
        if j < 1 or len(self.final_states) != j:
            raise ValueError("need matching non-empty initial/final state lists")
        for s in list(self.initial_states) + list(self.final_states):
            validate_state(self.area, s)
        if users.ndim != 2 or users.shape[1] != 2 or users.shape[0] < 1:
            raise ValueError("users_xy must be a (K, 2) array")
        if assoc.shape != (users.shape[0],):
            raise ValueError("association must give one station per user")
        if np.any(assoc < 0) or np.any(assoc >= j):
            raise ValueError("association indices outside the fleet")
        for station in range(j):
            if not np.any(assoc == station):
                raise ValueError(f"station {station} serves no users")
        if self.n_subchannels < 1:
            raise ValueError("n_subchannels must be at least 1")
        if self.p_max <= 0:
            raise ValueError("p_max must be positive")
        if self.d_min <= 0:
            raise ValueError("d_min must be positive")
        if self.beta1 < 0 or self.beta2 < 0 or self.beta3 < 0:
            raise ValueError("reward weights must be non-negative")
        if self.distance_exponent not in (1, 2):
            raise ValueError("distance_exponent must be 1 or 2")
        if self.velocity <= 0:
            raise ValueError("velocity must be positive")

    @property
    def n_agents(self) -> int:
        return len(self.initial_states)


@dataclass(frozen=True)
class RewardBreakdown:
    """Components of one agent's step reward: total = b1*f1 - b2*f2 - b3*f3."""

    f1: float
    f2: float
    f3: float
    total: float


@dataclass(frozen=True)
class StepOutcome:
    agent: int
    transition: Transition
    reward: RewardBreakdown
    position: Position3D
    allocation: AllocationResult | None


@dataclass
class EpisodeTrace:
    episode_index: int | None
    seed: int | None
    steps: list


@dataclass
class EpisodeStats:
    """Per-episode aggregates; arrays are indexed by agent."""

    episode: int
    avg_sum_rate: np.ndarray
    steps_to_terminal: np.ndarray
    cumulative_reward: np.ndarray
    reached: np.ndarray
    collision_steps: int

    @property
    def mean_sum_rate(self) -> float:
        return float(self.avg_sum_rate.mean())


class Environment:
    """Owns the mutable per-episode state of one scenario.

    Path losses depend only on (cell, user), so they are cached per visited
    cell; fading is drawn fresh every step from the caller's stream.
    """

    def __init__(self, config: ScenarioConfig):
        self.config = config
        area = config.area
        self._centers = {}
        self._pl_cache = {}
        self._final_pos = [self._center(s) for s in config.final_states]
        self._user_idx = [np.flatnonzero(config.association == j)
                          for j in range(config.n_agents)]
        self._uniform_power = config.p_max / config.n_subchannels
        self.states: list[GridState] = []
        self.parked: list[bool] = []
        self._prev_powers = np.zeros((config.n_agents, config.n_subchannels))
        self.reset()

    def _center(self, s: GridState) -> Position3D:
        key = (s.k1, s.k2)
        pos = self._centers.get(key)
        if pos is None:
            pos = cell_center(self.config.area, s)
            self._centers[key] = pos
        return pos

    def _pl_row(self, s: GridState) -> np.ndarray:
        key = (s.k1, s.k2)
        row = self._pl_cache.get(key)
        if row is None:
            row = path_loss_to_users(self._center(s), self.config.users_xy,
                                     self.config.propagation)
            self._pl_cache[key] = row
        return row

    @property
    def n_agents(self) -> int:
        return self.config.n_agents

    def reset(self) -> list[GridState]:
        cfg = self.config
        self.states = list(cfg.initial_states)
        self.parked = [cfg.initial_states[j] == cfg.final_states[j]
                       for j in range(cfg.n_agents)]
        self._prev_powers = np.full((cfg.n_agents, cfg.n_subchannels),
                                    self._uniform_power)
        for j, parked in enumerate(self.parked):
            if parked:
                self._prev_powers[j] = 0.0
        return list(self.states)

    def step_all(self, actions: dict, rng: np.random.Generator) -> list[StepOutcome]:
        """Advance every acting agent one synchronized step.

        actions maps agent index to an Action (or its int value) for every
        non-parked agent. Returns one StepOutcome per acting agent, in
        agent order.
        """
        cfg = self.config
        j_count = cfg.n_agents
        for j in actions:
            if self.parked[j]:
                raise ValueError(f"agent {j} is parked at its terminal state")

        new_states = list(self.states)
        for j, a in actions.items():
            new_states[j] = apply_action(cfg.area, self.states[j], Action(a))
        positions = [self._center(s) for s in new_states]

        need_allocation = cfg.beta1 != 0.0
        realization = None
        if need_allocation:
            pl = np.stack([self._pl_row(s) for s in new_states])
            realization = draw_realization(positions, cfg.users_xy, cfg.propagation,
                                           cfg.fading, rng, cfg.n_subchannels,
                                           gbs=cfg.gbs, path_loss=pl)

        outcomes = []
        new_powers = self._prev_powers.copy()
        for j in sorted(actions):
            if need_allocation:
                users_j = self._user_idx[j]
                inter = interference_for_abs(realization, self._prev_powers, j)[users_j]
                problem = AllocationProblem(gains=realization.gains[j][users_j],
                                            interference=inter,
                                            noise_power=cfg.propagation.noise_power,
                                            p_max=cfg.p_max)
                alloc = solve(problem)
                f1 = alloc.sum_rate
                new_powers[j] = alloc.powers
            else:
                # a zero rate weight makes the allocation irrelevant to the
                # reward; skip the solver and record no allocation
                alloc = None
                f1 = 0.0

            f2 = dist_to_final(positions[j], self._final_pos[j],
                               cfg.distance_exponent)
            f3 = 0.0
            for i in range(j_count):
                # separation check is always in plain meters
                if i != j and pairwise_dist(positions[j], positions[i]) < cfg.d_min:
                    f3 = 1.0
                    break
            total = cfg.beta1 * f1 - cfg.beta2 * f2 - cfg.beta3 * f3
            terminal = new_states[j] == cfg.final_states[j]
            transition = Transition(
                state=state_index(cfg.area, self.states[j]),
                action=int(actions[j]),
                reward=total,
                next_state=state_index(cfg.area, new_states[j]),
                terminal=terminal,
            )
            outcomes.append(StepOutcome(agent=j, transition=transition,
                                        reward=RewardBreakdown(f1, f2, f3, total),
                                        position=positions[j], allocation=alloc))

        for j in actions:
            self.states[j] = new_states[j]
            if new_states[j] == cfg.final_states[j]:
                self.parked[j] = True
                new_powers[j] = 0.0  # parked stations stop transmitting
        self._prev_powers = new_powers
        return outcomes


def _resolve_max_steps(params: LearningParams, config: ScenarioConfig) -> int:
    if params.max_steps_per_episode is not None:
        return params.max_steps_per_episode
    return 4 * config.area.n_states


def run_episode(env: Environment, qtables: list[QTable], params: LearningParams,
                rng: np.random.Generator, learn: bool = True,
                record_trace: bool = True, epsilon: float | None = None,
                episode_index: int | None = None, seed: int | None = None):
    """One episode from the initial states to all-terminal or the step cap.

    Agents that reach their terminal cell park there: no more actions,
    rewards, or table updates, and zero transmit power. Returns
    (EpisodeTrace, EpisodeStats); the trace holds one list of StepOutcome
    per time step when record_trace is set.
    """
    env.reset()
    cfg = env.config
    j_count = cfg.n_agents
    max_steps = _resolve_max_steps(params, cfg)

    f1_sum = np.zeros(j_count)
    step_count = np.zeros(j_count, dtype=int)
    cum_reward = np.zeros(j_count)
    reach_step = np.full(j_count, -1, dtype=int)
    collisions = 0
    trace_steps = [] if record_trace else None

    for t in range(max_steps):
        active = [j for j in range(j_count) if not env.parked[j]]
        if not active:
            break
        actions = {}
        for j in active:
            s = state_index(cfg.area, env.states[j])
            actions[j] = select_action(qtables[j], s, params, rng, epsilon=epsilon)
        outcomes = env.step_all(actions, rng)
        for oc in outcomes:
            j = oc.agent
            if learn:
                update(qtables[j], oc.transition, params)
            f1_sum[j] += oc.reward.f1
            step_count[j] += 1
            cum_reward[j] += oc.reward.total
            if oc.reward.f3:
                collisions += 1
            if oc.transition.terminal and reach_step[j] < 0:
                reach_step[j] = t + 1
        if record_trace:
            trace_steps.append(outcomes)

    reached = np.array([env.parked[j] for j in range(j_count)])
    # agents parked from the start count as reached in zero steps
    for j in range(j_count):
        if reach_step[j] < 0 and reached[j]:
            reach_step[j] = 0
    steps_to_terminal = np.where(reach_step >= 0, reach_step, step_count)
    stats = EpisodeStats(
        episode=episode_index if episode_index is not None else 0,
        avg_sum_rate=f1_sum / np.maximum(step_count, 1),
        steps_to_terminal=steps_to_terminal,
        cumulative_reward=cum_reward,
        reached=reached,
        collision_steps=collisions,
    )
    trace = EpisodeTrace(episode_index=episode_index, seed=seed,
                         steps=trace_steps if record_trace else [])
    return trace, stats


def pessimistic_q_init(config: ScenarioConfig, gamma: float) -> float:
    """Lower bound on any reachable action value, used as the default table seed.

    The worst single-step reward is the full-diagonal distance penalty plus
    a proximity penalty; dividing by 1 - gamma bounds the discounted sum.
    Seeding at this floor means never-tried actions rank below anything the
    agent has actually learned, which keeps greedy readouts on explored
    ground.
    """
    corner_a = Position3D(config.area.x_min, config.area.y_min, config.area.altitude)
    corner_b = Position3D(config.area.x_max, config.area.y_max, config.area.altitude)
    worst = config.beta2 * dist_to_final(corner_a, corner_b,
                                         config.distance_exponent) + config.beta3
    return -worst / (1.0 - gamma)


def train(config: ScenarioConfig, params: LearningParams, master_seed: int,
          env: Environment | None = None):
    """Full training run: one derived stream per episode, stats per episode.

    Returns (qtables, stats_list). Tables start at params.initial_q (the
    scenario's pessimistic floor when None) with the agents' final cells
    pinned as terminals.
    """
    env = env if env is not None else Environment(config)
    area = config.area
    q0 = params.initial_q if params.initial_q is not None \
        else pessimistic_q_init(config, params.gamma)
    qtables = [QTable(area.n_states, len(Action),
                      terminal_state=state_index(area, config.final_states[j]),
                      initial_value=q0)
               for j in range(config.n_agents)]
    stats_list = []
    eps = params.epsilon
    for e in range(params.max_episodes):
        rng = derive_stream(master_seed, PURPOSE_EPISODE, e)
        _, stats = run_episode(env, qtables, params, rng, learn=True,
                               record_trace=False, epsilon=eps,
                               episode_index=e + 1, seed=master_seed)
        stats_list.append(stats)
        eps *= params.epsilon_decay
    return qtables, stats_list


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


def extract_trajectory(config: ScenarioConfig, qtables: list[QTable],
                       max_steps: int | None = None) -> TrajectoryRollout:
    """Deterministic greedy rollout of the trained policies.

    Movement only: exploration is off, fading plays no role, and the
    allocator is not consulted. A revisited joint state before all agents
    arrive means the greedy policies cycle; that is reported, not raised.
    """
    area = config.area
    j_count = config.n_agents
    policies = [greedy_policy(q) for q in qtables]
    cap = max_steps if max_steps is not None else 4 * area.n_states

    states = list(config.initial_states)
    parked = [states[j] == config.final_states[j] for j in range(j_count)]
    positions = [cell_center(area, s) for s in states]
    trajectories = [[positions[j]] for j in range(j_count)]

    def snapshot_min_dist():
        best = float("inf")
        for a in range(j_count):
            for b in range(a + 1, j_count):
                best = min(best, pairwise_dist(positions[a], positions[b]))
        return best

    min_pairwise = snapshot_min_dist()
    violation_steps = [] if min_pairwise >= config.d_min else [0]
    seen = {(tuple(states), tuple(parked))}
    cycle = False
    steps = 0

    while not all(parked) and steps < cap:
        for j in range(j_count):
            if parked[j]:
                continue
            action = Action(int(policies[j][state_index(area, states[j])]))
            states[j] = apply_action(area, states[j], action)
        steps += 1
        positions = [cell_center(area, s) for s in states]
        for j in range(j_count):
            if not parked[j]:
                trajectories[j].append(positions[j])
                if states[j] == config.final_states[j]:
                    parked[j] = True
        d = snapshot_min_dist()
        min_pairwise = min(min_pairwise, d)
        if d < config.d_min:
            violation_steps.append(steps)
        key = (tuple(states), tuple(parked))
        if key in seen:
            cycle = True
            break
        seen.add(key)

    return TrajectoryRollout(
        trajectories=trajectories,
        reached=[states[j] == config.final_states[j] for j in range(j_count)],
        steps=steps,
        min_pairwise=min_pairwise,
        violation_steps=violation_steps,
        cycle_detected=cycle,
    )


def evaluation_config(config: ScenarioConfig) -> ScenarioConfig:
    """Copy of the scenario with fading disabled, for deterministic rollouts."""
    return replace(config, fading=FadingMode.NONE)
