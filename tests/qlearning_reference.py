"""The numpy formulation of epsilon-greedy selection and the TD update.

``absim.qlearning`` scans the 4-float rows as Python lists, which is
cheaper per step than numpy calls on arrays that small. These are the
array versions it replaced, kept as the reference it must match: the same
actions, the same draws from the generator and the same table bits.
"""

from __future__ import annotations

import numpy as np

from absim.qlearning import LearningParams, QTable, Transition


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
    """Temporal-difference update of one (state, action) entry."""
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
