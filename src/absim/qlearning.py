"""Generic tabular Q-learning: table storage, action selection, TD update.

States are flat integer indices, actions small integers. The table knows
nothing about grids or channels; the environment supplies transitions and
rewards. A value-iteration fixed point over small deterministic worlds is
included as the exact solution the learner must approach.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "LearningParams",
    "QTable",
    "Transition",
    "greedy_policy",
    "load_qtable",
    "save_qtable",
    "select_action",
    "update",
    "value_iteration",
]

_ORACLE_MAX_STATES = 4096


@dataclass(frozen=True)
class LearningParams:
    """Learning hyperparameters.

    alpha_schedule "constant" uses alpha as-is; "visit_count" uses
    1 / (1 + prior visits of the updated pair), which is what the
    convergence guarantees want. epsilon_decay multiplies the exploration
    rate once per episode (1.0 disables annealing). initial_q seeds every
    table entry; None lets the trainer derive a pessimistic constant from
    the scenario's reward bounds, so that under-sampled actions read as
    unattractive instead of spuriously promising in greedy rollouts.
    """

    alpha: float = 0.1
    gamma: float = 0.9
    epsilon: float = 0.1
    max_episodes: int = 2000
    max_steps_per_episode: int | None = None
    alpha_schedule: str = "constant"
    epsilon_decay: float = 1.0
    initial_q: float | None = None

    def __post_init__(self) -> None:
        if not 0.0 <= self.alpha <= 1.0:
            raise ValueError("alpha must lie in [0, 1]")
        if not 0.0 <= self.gamma < 1.0:
            raise ValueError("gamma must lie in [0, 1)")
        if not 0.0 <= self.epsilon <= 1.0:
            raise ValueError("epsilon must lie in [0, 1]")
        if self.max_episodes < 0:
            raise ValueError("max_episodes must be non-negative")
        if self.max_steps_per_episode is not None and self.max_steps_per_episode < 0:
            raise ValueError("max_steps_per_episode must be non-negative")
        if self.alpha_schedule not in ("constant", "visit_count"):
            raise ValueError("alpha_schedule must be 'constant' or 'visit_count'")
        if not 0.0 < self.epsilon_decay <= 1.0:
            raise ValueError("epsilon_decay must lie in (0, 1]")
        if self.initial_q is not None and not np.isfinite(self.initial_q):
            raise ValueError("initial_q must be finite")


@dataclass(frozen=True)
class Transition:
    state: int
    action: int
    reward: float
    next_state: int
    terminal: bool


class QTable:
    """Action-value table for one agent, with its terminal row pinned to zero."""

    def __init__(self, n_states: int, n_actions: int = 4,
                 terminal_state: int | None = None, initial_value: float = 0.0):
        if n_states < 1 or n_actions < 1:
            raise ValueError("table needs at least one state and action")
        self.n_states = n_states
        self.n_actions = n_actions
        self.terminal_state = terminal_state
        self.values = np.full((n_states, n_actions), float(initial_value))
        self.visits = np.zeros((n_states, n_actions), dtype=np.int64)
        if terminal_state is not None:
            if not 0 <= terminal_state < n_states:
                raise ValueError("terminal_state outside the table")
            self.values[terminal_state, :] = 0.0


def select_action(q: QTable, state: int, params: LearningParams,
                  rng: np.random.Generator, epsilon: float | None = None) -> int:
    """Epsilon-greedy draw: explore uniformly, else argmax with random tie-break."""
    if state == q.terminal_state:
        raise ValueError("cannot select an action from the terminal state")
    eps = params.epsilon if epsilon is None else epsilon
    if eps > 0.0 and rng.random() < eps:
        return int(rng.integers(q.n_actions))
    row = q.values[state]
    ties = np.flatnonzero(row == row.max())
    if ties.size == 1:
        return int(ties[0])
    return int(ties[rng.integers(ties.size)])


def update(q: QTable, t: Transition, params: LearningParams) -> None:
    """Temporal-difference update of one (state, action) entry.

    The bootstrap term reads the next state's row directly; for terminal
    next states that row is pinned to zero, so no branching is needed.
    """
    if t.state == q.terminal_state:
        raise ValueError("transitions cannot originate from the terminal state")
    if params.alpha_schedule == "visit_count":
        alpha = 1.0 / (1.0 + q.visits[t.state, t.action])
    else:
        alpha = params.alpha
    q.visits[t.state, t.action] += 1
    current = q.values[t.state, t.action]
    target = t.reward + params.gamma * q.values[t.next_state].max()
    q.values[t.state, t.action] = current + alpha * (target - current)


def greedy_policy(q: QTable) -> np.ndarray:
    """Deterministic per-state argmax readout; ties go to the lowest action index."""
    return q.values.argmax(axis=1)


def value_iteration(next_state: np.ndarray, rewards: np.ndarray,
                    terminal: np.ndarray, gamma: float,
                    tol: float = 1e-12, max_sweeps: int = 1_000_000) -> np.ndarray:
    """Exact Q for a small deterministic world by fixed-point iteration.

    next_state[s, a] and rewards[s, a] define the model; terminal[s] marks
    absorbing states whose rows stay zero. Sweeps Q(s,a) <- r(s,a) +
    gamma * max_a' Q(s',a') until the largest change is below tol.
    """
    next_state = np.asarray(next_state, dtype=int)
    rewards = np.asarray(rewards, dtype=float)
    terminal = np.asarray(terminal, dtype=bool)
    n_states, n_actions = next_state.shape
    if n_states > _ORACLE_MAX_STATES:
        raise ValueError(f"world too large for exact iteration ({n_states} states)")
    if rewards.shape != (n_states, n_actions) or terminal.shape != (n_states,):
        raise ValueError("model shapes are inconsistent")
    if not 0.0 <= gamma < 1.0:
        raise ValueError("gamma must lie in [0, 1)")

    q = np.zeros((n_states, n_actions))
    for _ in range(max_sweeps):
        v_next = q.max(axis=1)[next_state]  # (S, A) value of successor states
        q_new = rewards + gamma * v_next
        q_new[terminal, :] = 0.0
        delta = np.abs(q_new - q).max()
        q = q_new
        if delta <= tol:
            return q
    raise RuntimeError("value iteration did not converge")


def save_qtable(q: QTable, path) -> None:
    """Write the table as flat text rows: state index, action index, value."""
    with open(path, "w", encoding="ascii") as fh:
        term = -1 if q.terminal_state is None else q.terminal_state
        fh.write(f"# states={q.n_states} actions={q.n_actions} terminal={term}\n")
        for s in range(q.n_states):
            for a in range(q.n_actions):
                fh.write(f"{s} {a} {float(q.values[s, a])!r}\n")


def load_qtable(path) -> QTable:
    """Inverse of save_qtable; visit counts are not persisted.

    Every (state, action) entry must appear exactly once. A malformed
    header or row, an entry outside the table, a repeated entry or a
    missing one raises ValueError naming the file and line, because an
    entry left at its default would quietly steer the greedy rollout.
    """
    with open(path, "r", encoding="ascii") as fh:
        header = fh.readline().strip()
        try:
            fields = dict(part.split("=") for part in header.lstrip("# ").split())
            n_states = int(fields["states"])
            n_actions = int(fields["actions"])
            terminal = int(fields["terminal"])
            q = QTable(n_states, n_actions,
                       terminal_state=None if terminal < 0 else terminal)
        except (ValueError, KeyError) as exc:
            raise ValueError(f"{path}: line 1: bad header {header!r} ({exc})") from None
        values = [None] * (n_states * n_actions)
        lineno = 1
        for lineno, line in enumerate(fh, start=2):
            try:
                s_str, a_str, v_str = line.split()
                s, a, v = int(s_str), int(a_str), float(v_str)
            except ValueError:
                raise ValueError(f"{path}: line {lineno}: expected 'state action value', "
                                 f"got {line.strip()!r}") from None
            if not (0 <= s < n_states and 0 <= a < n_actions):
                raise ValueError(f"{path}: line {lineno}: entry ({s}, {a}) outside the "
                                 f"{n_states} x {n_actions} table")
            flat = s * n_actions + a
            if values[flat] is not None:
                raise ValueError(f"{path}: line {lineno}: entry ({s}, {a}) repeated")
            values[flat] = v
    rows = lineno - 1
    if rows != len(values):
        raise ValueError(f"{path}: line {lineno + 1}: file ends after {rows} of "
                         f"{len(values)} entries")
    q.values[:] = np.array(values).reshape(n_states, n_actions)
    if q.terminal_state is not None:
        q.values[q.terminal_state, :] = 0.0
    return q
