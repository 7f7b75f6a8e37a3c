"""Generic tabular Q-learning: table storage, action selection, TD update.

States are flat integer indices, actions small integers. The table knows
nothing about grids or channels; the environment supplies transitions and
rewards.
"""

from __future__ import annotations

import functools
import re
from dataclasses import dataclass
from itertools import chain
from math import isfinite

import numpy as np

__all__ = [
    "ALPHA_SCHEDULES",
    "LearningParams",
    "QTable",
    "greedy_action",
    "load_qtable",
    "save_qtable",
    "select_action",
    "update",
]

ALPHA_SCHEDULES = ("constant", "visit_count")  # the values of LearningParams.alpha_schedule


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
        if self.alpha_schedule not in ALPHA_SCHEDULES:
            errors.append(f"alpha_schedule must be one of {ALPHA_SCHEDULES}, "
                          f"got {self.alpha_schedule!r}")
        if not 0.0 < self.epsilon_decay <= 1.0:
            errors.append("epsilon_decay must lie in (0, 1]")
        if self.initial_q is not None and not np.isfinite(self.initial_q):
            errors.append("initial_q must be finite")
        if errors:
            raise ValueError("\n".join(errors))


def _check_shape(n_states: int, n_actions: int, terminal_state: int) -> None:
    if n_states < 1 or n_actions < 1:
        raise ValueError("table needs at least one state and action")
    if not 0 <= terminal_state < n_states:
        raise ValueError("terminal_state outside the table")


class _PerCell(dict):
    """Values of fn at states (cells), each computed at its first lookup and kept."""

    def __init__(self, fn):  # dict.__new__ has already made the empty dict
        self.fn = fn

    def __missing__(self, s):
        value = self[s] = self.fn(s)
        return value


def _snapshot(table: np.ndarray, rows: dict) -> np.ndarray:
    """table, a fresh (S, A) array, with rows written over it and made read-only."""
    if rows:
        merged = np.fromiter(chain.from_iterable(rows.values()), table.dtype,
                             len(rows) * table.shape[1])
        table[list(rows)] = merged.reshape(len(rows), -1)
    table.flags.writeable = False
    return table


class QTable:
    """Action-value table for one agent, with its terminal row pinned to zero.

    Every entry starts at base, an (S, A) array. The learner reads and
    writes rows and counts instead: per-state Python lists of the values and
    visit counts, each made at its state's first lookup (a row copied from
    base, so base is seeded in place, before any lookup), since a 4-entry
    list is cheaper to scan and store into than a numpy row. A fresh or loaded
    table holds no lists until it is stepped or rolled out, and then only for
    the states read. Looking up a state outside [0, S) raises ValueError.
    values and visits are read-only (S, A) snapshots of the whole table.
    """

    def __init__(self, n_states: int, n_actions: int, terminal_state: int,
                 initial_value: float = 0.0):
        _check_shape(n_states, n_actions, terminal_state)
        self.n_states = n_states
        self.n_actions = n_actions
        self.terminal_state = terminal_state
        base = self.base = np.full((n_states, n_actions), float(initial_value))
        base[terminal_state, :] = 0.0

        def new_row(s):  # refers to base, not self: a table is freed without a GC pass
            if not 0 <= s < n_states:
                raise ValueError(f"state {s!r} outside the {n_states}-state table")
            return base[s].tolist()

        self.rows = _PerCell(new_row)
        self.counts = _PerCell(lambda s: [0] * n_actions)

    @property
    def values(self) -> np.ndarray:
        return _snapshot(self.base.copy(), self.rows)

    @property
    def visits(self) -> np.ndarray:
        return _snapshot(np.zeros(self.base.shape, np.int64), self.counts)


def select_action(q: QTable, state: int, epsilon: float, rng: np.random.Generator) -> int:
    """Epsilon-greedy draw: explore uniformly, else argmax with random tie-break.

    rng is a Generator, or the absim.rng.Draws over one that run_episode passes."""
    if state == q.terminal_state:
        raise ValueError("cannot select an action from the terminal state")
    row = q.rows[state]  # before any draw, so a state outside the table raises first
    if epsilon > 0.0 and rng.random() < epsilon:
        return int(rng.integers(q.n_actions))
    best = max(row)
    if row.count(best) == 1:
        return row.index(best)
    ties = [a for a, v in enumerate(row) if v == best]
    return ties[rng.integers(len(ties))]


def update(q: QTable, t: tuple, params: LearningParams) -> None:
    """Temporal-difference update of one (state, action) entry.

    t is a plain (state, action, reward, next_state) tuple, as
    Environment.step_all returns them. The bootstrap term reads the next
    state's row directly; for terminal next states that row is pinned to
    zero, so no branching is needed. A non-finite new value raises
    ValueError and leaves the table unchanged, as does a state, action or
    next state outside the table.
    """
    s, a, reward, next_state = t
    if s == q.terminal_state:
        raise ValueError("transitions cannot originate from the terminal state")
    if not 0 <= a < q.n_actions:  # a negative action would alias another entry
        raise ValueError(f"action {a!r} outside the {q.n_actions}-action table")
    row, count = q.rows[s], q.counts[s]
    visits = count[a]
    if params.alpha_schedule == "visit_count":
        alpha = 1.0 / (1.0 + visits)
    else:
        alpha = params.alpha
    current = row[a]
    target = reward + params.gamma * max(q.rows[next_state])
    value = current + alpha * (target - current)
    if not isfinite(value):  # an overflow would turn the table to NaN quietly
        raise ValueError(f"update of entry ({s}, {a}) gives {value!r}; rewards and "
                         "table values must stay finite")
    count[a] = visits + 1
    row[a] = value


def greedy_action(q: QTable, state: int) -> int:
    """Deterministic argmax of state's row; ties go to the lowest action index."""
    row = q.rows[state]
    return row.index(max(row))


@functools.lru_cache(maxsize=1)  # a run's checkpoints share one shape
def _rows(n_states: int, n_actions: int) -> str:
    """The body of a saved table with a %s for each value: one "s a value"
    row per entry, in (s, a) order, each ending in a newline."""
    return "".join([f"{s} {a} %s\n" for s in range(n_states) for a in range(n_actions)])


def save_qtable(q: QTable, path) -> None:
    """Write the table as text: a header line, then one "s a value" row per
    entry in (s, a) order, with value as repr writes it."""
    values = q.values
    # each distinct value is formatted once; told apart by bits, -0.0 keeps its sign
    bits, at = np.unique(values.view(np.int64), return_inverse=True)
    text = [repr(v) for v in bits.view(float).tolist()]
    entries = tuple(map(text.__getitem__, at.ravel().tolist()))
    with open(path, "w", encoding="ascii") as fh:
        fh.write(f"# states={q.n_states} actions={q.n_actions} terminal={q.terminal_state}\n")
        fh.write(_rows(q.n_states, q.n_actions) % entries)


def load_qtable(path) -> QTable:
    """Inverse of save_qtable; visit counts are not persisted.

    Trusts the file to be what save_qtable wrote (rollout compares its digest
    with the run's manifest first): the value tokens fill the table in row
    order, and the "s a" fields are not read. Raises ValueError naming the file
    for a bad header, a row count other than the header's (counted before
    anything of its size is built), a byte that is not ASCII, or a value that
    does not parse, is not finite or is non-zero in the terminal row.
    """
    try:
        with open(path, "r", encoding="ascii", newline="\n") as fh:
            header, body = fh.readline().rstrip("\n"), fh.read()
        try:
            number = "(0|[1-9][0-9]*)"  # as save_qtable writes it: no sign, no leading 0
            match = re.fullmatch(f"# states={number} actions={number} terminal={number}",
                                 header)
            if match is None:
                raise ValueError("expected '# states=S actions=A terminal=T'")
            n_states, n_actions, terminal = map(int, match.groups())
            _check_shape(n_states, n_actions, terminal)
        except ValueError as exc:
            raise ValueError(f"line 1: bad header {header!r} ({exc})") from None
        n, rows = n_states * n_actions, body.count("\n")
        if rows != n:
            raise ValueError(f"the header needs {n} rows, the file holds {rows}")
        tokens = body.split()[2::3]
        numbers = {token: float(token) for token in set(tokens)}  # each parsed once
        values = np.fromiter(map(numbers.__getitem__, tokens), float, n).reshape(n_states, -1)
        if not np.isfinite(values).all() or values[terminal].any():
            raise ValueError("a value is not finite, or the terminal row is not zero")
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None
    q = QTable(n_states, n_actions, terminal)
    q.base[:] = values
    return q
