"""Reference versions of the learner, kept for the tests.

``absim.qlearning.QTable`` keeps each row the learner has looked up as a
Python list, made at its first lookup from one base array, which is
cheaper per step than numpy calls on arrays of 4 floats.
``ArrayTable`` is the table it replaced: values and visits are writable
(S, A) arrays, read and written in place. ``select_action`` and ``update``
here are the array versions of the learner, kept as the reference it must
match: the same actions, the same draws from the generator and the same
table bits. ``value_iteration`` is the exact fixed point over small
deterministic worlds that the learner must approach.
"""

from __future__ import annotations

import numpy as np

from absim.qlearning import LearningParams

_ORACLE_MAX_STATES = 4096


class ArrayTable:
    """A Q-table as two writable (S, A) arrays, its terminal row pinned to zero."""

    def __init__(self, n_states: int, n_actions: int, terminal_state: int,
                 initial_value: float = 0.0):
        self.n_actions = n_actions
        self.terminal_state = terminal_state
        self.values = np.full((n_states, n_actions), float(initial_value))
        self.visits = np.zeros((n_states, n_actions), dtype=np.int64)
        self.values[terminal_state, :] = 0.0


def select_action(q: ArrayTable, state: int, epsilon: float, rng: np.random.Generator) -> int:
    """Epsilon-greedy draw: explore uniformly, else argmax with random tie-break."""
    if state == q.terminal_state:
        raise ValueError("cannot select an action from the terminal state")
    if epsilon > 0.0 and rng.random() < epsilon:
        return int(rng.integers(q.n_actions))
    row = q.values[state]
    ties = np.flatnonzero(row == row.max())
    if ties.size == 1:
        return int(ties[0])
    return int(ties[rng.integers(ties.size)])


def update(q: ArrayTable, t: tuple, params: LearningParams) -> None:
    """Temporal-difference update of one (state, action) entry from a plain
    (state, action, reward, next_state) tuple."""
    state, action, reward, next_state = t
    if state == q.terminal_state:
        raise ValueError("transitions cannot originate from the terminal state")
    if params.alpha_schedule == "visit_count":
        alpha = 1.0 / (1.0 + q.visits[state, action])
    else:
        alpha = params.alpha
    q.visits[state, action] += 1
    current = q.values[state, action]
    target = reward + params.gamma * q.values[next_state].max()
    q.values[state, action] = current + alpha * (target - current)


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
