"""Grid-world geometry: service area discretization, movements, distances.

The service area is an axis-aligned rectangle split into an M x M grid of
rectangular cells, whose x and y widths need not match, at a fixed flight
altitude. The simulator carries a cell as its flat 0-based index
s = (k2 - 1) * M + (k1 - 1); configs name cells by their 1-based (k1, k2)
indices along the x and y axes (GridState), and state_index converts one
to the other. Every cell maps to a fixed reference point in the plane; all
propagation and reward distances are computed from these points.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import IntEnum
from functools import cached_property

__all__ = [
    "Action",
    "AreaSpec",
    "GridState",
    "Position3D",
    "apply_action",
    "cell_center",
    "dist_to_final",
    "pairwise_dist",
    "state_index",
]


class Action(IntEnum):
    """The four permitted moves, each one grid cell along an axis."""

    LEFT = 0
    RIGHT = 1
    FORWARD = 2
    BACKWARD = 3


@dataclass(frozen=True)
class AreaSpec:
    """Rectangular service area split into cells_per_axis**2 rectangular cells.

    All lengths are meters. A cell is cell_width_x by cell_width_y. ``altitude``
    is the constant flight height of every aerial station.
    """

    x_min: float
    x_max: float
    y_min: float
    y_max: float
    cells_per_axis: int
    altitude: float

    def __post_init__(self) -> None:
        errors = []
        if not self.x_min < self.x_max:
            errors.append("x_min must be strictly below x_max")
        if not self.y_min < self.y_max:
            errors.append("y_min must be strictly below y_max")
        if self.cells_per_axis < 2:
            errors.append("cells_per_axis must be at least 2")
        if not self.altitude > 0:
            errors.append("altitude must be positive")
        if errors:
            raise ValueError("\n".join(errors))

    @property
    def cell_width_x(self) -> float:
        return (self.x_max - self.x_min) / self.cells_per_axis

    @property
    def cell_width_y(self) -> float:
        return (self.y_max - self.y_min) / self.cells_per_axis

    @cached_property  # every move checks its cell against it; frozen fields never change
    def n_states(self) -> int:
        return self.cells_per_axis * self.cells_per_axis


@dataclass(frozen=True)
class GridState:
    """1-based cell indices along the x (k1) and y (k2) axes."""

    k1: int
    k2: int


@dataclass(frozen=True)
class Position3D:
    """Point at (x, y) meters and height h meters."""

    x: float
    y: float
    h: float


def state_index(area: AreaSpec, s: GridState) -> int:
    """Flat 0-based index of a grid state (row-major in k2, then k1)."""
    m = area.cells_per_axis
    if not (1 <= s.k1 <= m and 1 <= s.k2 <= m):
        raise ValueError(f"grid state {s} outside {m}x{m} grid")
    return (s.k2 - 1) * m + (s.k1 - 1)


def _check_index(area: AreaSpec, s: int) -> None:
    if not 0 <= s < area.n_states:
        raise ValueError(f"state index {s} outside grid of {area.n_states} states")


def cell_center(area: AreaSpec, s: int) -> Position3D:
    """Reference point of cell index s at flight altitude.

    Cell s is anchored at its lower-left corner, (x_min + cell_width_x * (s % M),
    y_min + cell_width_y * (s // M)): the centres moved by half a cell would keep
    the distances between stations but not those from a station to its users.
    """
    _check_index(area, s)
    m = area.cells_per_axis
    return Position3D(area.x_min + area.cell_width_x * (s % m),
                      area.y_min + area.cell_width_y * (s // m), area.altitude)


# the actions' values as plain ints: apply_action runs once per move, and a
# comparison with these skips the enum attribute lookup
_LEFT, _RIGHT, _FORWARD, _BACKWARD = map(int, Action)


def apply_action(area: AreaSpec, s: int, a: Action) -> int:
    """One-cell move from cell index s; a move off the grid leaves s unchanged."""
    _check_index(area, s)
    m = area.cells_per_axis
    if a == _LEFT:
        return s - 1 if s % m > 0 else s
    if a == _RIGHT:
        return s + 1 if s % m < m - 1 else s
    if a == _FORWARD:
        return s + m if s // m < m - 1 else s
    if a == _BACKWARD:
        return s - m if s // m > 0 else s
    raise ValueError(f"unknown action {a!r}")


def pairwise_dist(p1: Position3D, p2: Position3D) -> float:
    """Euclidean separation in meters."""
    return math.sqrt((p1.x - p2.x) ** 2 + (p1.y - p2.y) ** 2 + (p1.h - p2.h) ** 2)


def dist_to_final(p: Position3D, p_final: Position3D, exponent: int) -> float:
    """Distance in meters (exponent 1) or squared meters (exponent 2) to the destination."""
    d = pairwise_dist(p, p_final)
    if exponent == 1:
        return d
    if exponent == 2:
        return d * d
    raise ValueError("exponent must be 1 or 2")
