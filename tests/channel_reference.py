"""Scalar references for the vectorized channel and interference code.

``absim.channel.path_loss_to_users`` computes the path loss to every user
at once. ``Environment.step_all`` forms the interference field and the
ground term once per step, inline, and ``absim.environment.
interference_for_abs`` turns a station's users' rows of them into its
interference to every user and sub-channel at once. These are the
per-link versions they replaced, plus the whole-table interference
formula that computed the all-station field once per station, kept for the
tests to compare against. The channel draws gains only, so the ground
transmitter's power is an argument here.
"""

from __future__ import annotations

import math

import numpy as np

from absim.channel import (ChannelRealization, PropagationParams, free_space_path_loss,
                           los_probability)
from absim.geometry import Position3D


def elevation_angle(abs_pos: Position3D, user_xy) -> float:
    """Elevation angle in degrees from a ground user to the station; 90 overhead."""
    dx = abs_pos.x - user_xy[0]
    dy = abs_pos.y - user_xy[1]
    horizontal = math.hypot(dx, dy)
    return math.degrees(math.atan2(abs_pos.h, horizontal))


def average_path_loss(abs_pos: Position3D, user_xy, params: PropagationParams) -> float:
    """LoS/Non-LoS mixture path loss over the full 3-D distance."""
    dx = abs_pos.x - user_xy[0]
    dy = abs_pos.y - user_xy[1]
    d3 = math.sqrt(dx * dx + dy * dy + abs_pos.h * abs_pos.h)
    if d3 == 0.0:
        raise ValueError("coincident transmitter and receiver")
    pr = los_probability(elevation_angle(abs_pos, user_xy), params)
    return pr * free_space_path_loss(d3, params, params.eta_los) + \
        (1.0 - pr) * free_space_path_loss(d3, params, params.eta_nlos)


def interference(realization: ChannelRealization, abs_powers: np.ndarray,
                 target_abs: int, user: int, subchannel: int,
                 gbs_power: float | None = None) -> float:
    """Total interference in watts seen by one user of one station.

    Sums every other station's transmit power times its gain to the user,
    plus the ground transmitter's power gbs_power times its gain when its
    gains are present.
    """
    abs_powers = np.asarray(abs_powers, dtype=float)
    total = 0.0
    for j in range(realization.gains.shape[0]):
        if j == target_abs:
            continue
        total += abs_powers[j, subchannel] * realization.gains[j, user, subchannel]
    if realization.gbs_gains is not None:
        total += gbs_power * realization.gbs_gains[user, subchannel]
    return total


def interference_table(realization: ChannelRealization, abs_powers: np.ndarray,
                       target_abs: int, users: np.ndarray,
                       gbs_power: float | None = None) -> np.ndarray:
    """(K_j, N) interference for the given users of one station, the old way.

    Builds the all-station field over every user, subtracts the station's
    own term, clamps at zero and adds the ground transmitter's power
    gbs_power times its gains over the whole (K, N) table, and only then
    gathers the station's users.
    """
    abs_powers = np.asarray(abs_powers, dtype=float)
    field = np.einsum("jn,jkn->kn", abs_powers, realization.gains)
    own = abs_powers[target_abs][None, :] * realization.gains[target_abs]
    table = np.maximum(field - own, 0.0)
    if realization.gbs_gains is not None:
        table = table + gbs_power * realization.gbs_gains
    return table[users]
