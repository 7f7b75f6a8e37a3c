"""Generic tabular Q-learning: table storage, action selection, TD update.

States are flat integer indices, actions small integers. The table knows
nothing about grids or channels; the environment supplies transitions and
rewards.
"""

from __future__ import annotations

import functools
import re
from dataclasses import dataclass
from math import isfinite
from typing import NamedTuple

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
]


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

    alpha: float
    gamma: float
    epsilon: float
    max_episodes: int
    max_steps_per_episode: int | None
    alpha_schedule: str
    epsilon_decay: float
    initial_q: float | None

    def __post_init__(self) -> None:
        errors = []
        if not 0.0 <= self.alpha <= 1.0:
            errors.append("alpha must lie in [0, 1]")
        if not 0.0 <= self.gamma < 1.0:
            errors.append("gamma must lie in [0, 1)")
        if not 0.0 <= self.epsilon <= 1.0:
            errors.append("epsilon must lie in [0, 1]")
        if self.max_episodes < 0:
            errors.append("max_episodes must be non-negative")
        if self.max_steps_per_episode is not None and self.max_steps_per_episode < 0:
            errors.append("max_steps_per_episode must be non-negative")
        if self.alpha_schedule not in ("constant", "visit_count"):
            errors.append("alpha_schedule must be 'constant' or 'visit_count'")
        if not 0.0 < self.epsilon_decay <= 1.0:
            errors.append("epsilon_decay must lie in (0, 1]")
        if self.initial_q is not None and not np.isfinite(self.initial_q):
            errors.append("initial_q must be finite")
        if errors:
            raise ValueError("\n".join(errors))


class Transition(NamedTuple):
    state: int
    action: int
    reward: float
    next_state: int


def _check_shape(n_states: int, n_actions: int, terminal_state: int) -> None:
    if n_states < 1 or n_actions < 1:
        raise ValueError("table needs at least one state and action")
    if not 0 <= terminal_state < n_states:
        raise ValueError("terminal_state outside the table")


class QTable:
    """Action-value table for one agent, with its terminal row pinned to zero."""

    def __init__(self, n_states: int, n_actions: int, terminal_state: int,
                 initial_value: float = 0.0):
        _check_shape(n_states, n_actions, terminal_state)
        self.n_states = n_states
        self.n_actions = n_actions
        self.terminal_state = terminal_state
        self.values = np.full((n_states, n_actions), float(initial_value))
        self.visits = np.zeros((n_states, n_actions), dtype=np.int64)
        self.values[terminal_state, :] = 0.0


def select_action(q: QTable, state: int, epsilon: float, rng: np.random.Generator) -> int:
    """Epsilon-greedy draw: explore uniformly, else argmax with random tie-break."""
    if state == q.terminal_state:
        raise ValueError("cannot select an action from the terminal state")
    if epsilon > 0.0 and rng.random() < epsilon:
        return int(rng.integers(q.n_actions))
    # a 4-float row is cheaper to scan as a Python list than through numpy
    row = q.values[state].tolist()
    best = max(row)
    if row.count(best) == 1:
        return row.index(best)
    ties = [a for a, v in enumerate(row) if v == best]
    return ties[rng.integers(len(ties))]


def update(q: QTable, t: Transition, params: LearningParams) -> None:
    """Temporal-difference update of one (state, action) entry.

    The bootstrap term reads the next state's row directly; for terminal
    next states that row is pinned to zero, so no branching is needed. A
    non-finite new value raises ValueError and leaves the table unchanged.
    """
    if t.state == q.terminal_state:
        raise ValueError("transitions cannot originate from the terminal state")
    s, a = t.state, t.action
    visits = q.visits.item(s, a)  # Python scalars: the same IEEE arithmetic as numpy's
    if params.alpha_schedule == "visit_count":
        alpha = 1.0 / (1.0 + visits)
    else:
        alpha = params.alpha
    current = q.values.item(s, a)
    target = t.reward + params.gamma * max(q.values[t.next_state].tolist())
    value = current + alpha * (target - current)
    if not isfinite(value):  # an overflow would turn the table to NaN quietly
        raise ValueError(f"update of entry ({s}, {a}) gives {value!r}; rewards and "
                         "table values must stay finite")
    q.visits[s, a] = visits + 1
    q.values[s, a] = value


def greedy_policy(q: QTable) -> np.ndarray:
    """Deterministic per-state argmax readout; ties go to the lowest action index."""
    return q.values.argmax(axis=1)


def save_qtable(q: QTable, path) -> None:
    """Write the table as flat text rows: state index, action index, value."""
    # each distinct value is formatted once; told apart by bits, -0.0 keeps its sign
    bits, at = np.unique(np.ascontiguousarray(q.values, float).view(np.int64),
                         return_inverse=True)
    text = [repr(v) for v in bits.view(float).tolist()]
    with open(path, "w", encoding="ascii") as fh:
        fh.write(f"# states={q.n_states} actions={q.n_actions} terminal={q.terminal_state}\n")
        fh.write("".join([f"{s} {a} {text[i]}\n"
                          for s, row in enumerate(at.reshape(q.values.shape).tolist())
                          for a, i in enumerate(row)]))


def load_qtable(path) -> QTable:
    """Inverse of save_qtable; visit counts are not persisted.

    One pass reads the rows and parses each distinct token once. The header
    must be the line save_qtable writes, every (state, action) entry must
    appear exactly once with a finite value, and the terminal row must read
    0.0. A malformed header or row, a byte that is not ASCII, an entry
    outside the table, a repeated, missing or non-finite entry or a non-zero
    terminal entry raises ValueError naming the file and line, because a
    wrong entry would quietly steer the greedy rollout. The table is
    allocated only once every row has been read, so a header that
    overstates the rows cannot exhaust memory.
    """
    # a byte that is not ASCII reads as U+FFFD, which neither header nor row parses
    with open(path, "r", encoding="ascii", errors="replace") as fh:
        header = fh.readline().rstrip("\n")
        try:
            match = re.fullmatch(r"# states=(\d+) actions=(\d+) terminal=(\d+)", header)
            if match is None:
                raise ValueError("expected '# states=S actions=A terminal=T'")
            n_states, n_actions, terminal = map(int, match.groups())
            _check_shape(n_states, n_actions, terminal)
        except ValueError as exc:
            raise ValueError(f"{path}: line 1: bad header {header!r} ({exc})") from None
        lines = fh.read().split("\n")
    if lines[-1] == "":  # what follows the last row's newline
        lines.pop()
    as_int, as_float = functools.cache(int), functools.cache(float)  # tables repeat tokens
    values = {}  # flat index -> value, sized by the rows read
    for lineno, line in enumerate(lines, start=2):
        try:
            s_str, a_str, v_str = line.split()
            s, a, v = as_int(s_str), as_int(a_str), as_float(v_str)
        except ValueError:
            raise ValueError(f"{path}: line {lineno}: expected 'state action value', "
                             f"got {line.strip()!r}") from None
        if not (0 <= s < n_states and 0 <= a < n_actions):
            raise ValueError(f"{path}: line {lineno}: entry ({s}, {a}) outside the "
                             f"{n_states} x {n_actions} table")
        if not isfinite(v):
            raise ValueError(f"{path}: line {lineno}: entry ({s}, {a}) holds {v!r}, "
                             "not a finite value")
        if s == terminal and v != 0.0:
            raise ValueError(f"{path}: line {lineno}: entry ({s}, {a}) holds {v!r}, "
                             "but the terminal row must read 0.0")
        flat = s * n_actions + a
        if flat in values:
            raise ValueError(f"{path}: line {lineno}: entry ({s}, {a}) repeated")
        values[flat] = v
    rows = len(lines)
    if rows != n_states * n_actions:
        raise ValueError(f"{path}: line {rows + 2}: file ends after {rows} of "
                         f"{n_states * n_actions} entries")
    entries = np.fromiter(values, np.intp, rows), np.fromiter(values.values(), float, rows)
    q = QTable(n_states, n_actions, terminal)
    q.values.ravel()[entries[0]] = entries[1]  # ravel is a view here
    return q
