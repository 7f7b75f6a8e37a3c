"""Probabilistic air-to-ground propagation model.

Each link mixes line-of-sight and obstructed free-space path loss, weighted
by an elevation-angle-dependent LoS probability, and is optionally scaled
by unit-mean Rayleigh fading power. The model produces linear power gains
per (station, user, sub-channel) plus the cross-station interference terms.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .geometry import Position3D

__all__ = [
    "ChannelRealization",
    "FadingMode",
    "GbsSpec",
    "PropagationParams",
    "draw_realization",
    "free_space_path_loss",
    "interference_field",
    "interference_for_abs",
    "los_probability",
]


@dataclass(frozen=True)
class PropagationParams:
    """Environment constants of the propagation model.

    a, b            dimensionless LoS-probability constants
    eta_los/nlos    excess loss factors, linear scale, nlos >= los >= 1
    carrier_freq    Hz
    speed_of_light  m/s
    noise_power     receiver thermal noise, watts
    """

    a: float
    b: float
    eta_los: float
    eta_nlos: float
    carrier_freq: float
    speed_of_light: float
    noise_power: float

    def __post_init__(self) -> None:
        errors = []
        if self.a <= 0 or self.b <= 0:
            errors.append("a and b must be positive")
        if not 1.0 <= self.eta_los <= self.eta_nlos:
            errors.append("need eta_nlos >= eta_los >= 1")
        if self.carrier_freq <= 0 or self.speed_of_light <= 0:
            errors.append("carrier_freq and speed_of_light must be positive")
        if self.noise_power <= 0:
            errors.append("noise_power must be positive")
        if errors:
            raise ValueError("\n".join(errors))


class FadingMode(Enum):
    NONE = "none"
    RAYLEIGH = "rayleigh"


@dataclass(frozen=True)
class GbsSpec:
    """Optional fixed ground transmitter acting as an interferer.

    When enabled, its per-sub-channel transmit power adds to every user's
    interference through the same propagation model.
    """

    enabled: bool
    x: float
    y: float
    height: float
    power_per_subchannel: float

    def __post_init__(self) -> None:
        errors = []
        if not isinstance(self.enabled, bool):  # bool("false") is True
            errors.append(f"enabled must be true or false, got {self.enabled!r}")
        if self.power_per_subchannel < 0:
            errors.append("GBS power must be non-negative")
        if self.enabled and self.height <= 0:
            errors.append("GBS height must be positive when enabled")
        if errors:
            raise ValueError("\n".join(errors))


@dataclass(frozen=True)
class ChannelRealization:
    """Per-link linear power gains for one time step.

    gains[j, k, n] is the power gain from station j to user k on
    sub-channel n. gbs_gains/gbs_power are None when the ground
    transmitter is disabled.
    """

    gains: np.ndarray
    gbs_gains: np.ndarray | None = None
    gbs_power: float | None = None


def los_probability(theta_deg, params: PropagationParams):
    """Probability of a line-of-sight link at elevation angle theta (degrees)."""
    with np.errstate(over="ignore"):  # an exp past the float range gives inf, then the limit 0
        return 1.0 / (1.0 + params.a * np.exp(-params.b * (theta_deg - params.a)))


def free_space_path_loss(distance: float, params: PropagationParams, excess: float):
    """Linear free-space loss (4 pi f d / c)^2 scaled by an excess factor."""
    if (np.asarray(distance) <= 0).any():  # the method: np.any costs more on a scalar
        raise ValueError("free-space path loss is singular at zero distance")
    ratio = 4.0 * math.pi * params.carrier_freq * distance / params.speed_of_light
    return ratio * ratio * excess


def path_loss_to_users(abs_pos: Position3D, users_xy: np.ndarray,
                       params: PropagationParams) -> np.ndarray:
    """(K,) LoS/NLoS mixture path loss over the 3-D distance to every user.

    tests/channel_reference.py holds the scalar per-user version it matches.
    """
    dx = abs_pos.x - users_xy[:, 0]
    dy = abs_pos.y - users_xy[:, 1]
    horizontal = np.hypot(dx, dy)
    d3 = np.sqrt(horizontal * horizontal + abs_pos.h * abs_pos.h)
    theta = np.degrees(np.arctan2(abs_pos.h, horizontal))
    pr = los_probability(theta, params)
    return pr * free_space_path_loss(d3, params, params.eta_los) + \
        (1.0 - pr) * free_space_path_loss(d3, params, params.eta_nlos)


def draw_realization(path_loss: np.ndarray, fading: FadingMode,
                     rng: np.random.Generator, n_subchannels: int,
                     gbs_path_loss: np.ndarray | None,
                     gbs_power: float | None) -> ChannelRealization:
    """Draw the per-link power gains for one time step.

    Parameters
    ----------
    path_loss : (J, K) average path loss from each station to each user
    fading : FadingMode.NONE gives deterministic gains 1/PL; RAYLEIGH
        multiplies each (j, k, n) gain by an i.i.d. unit-mean fading power
    rng : caller-owned seeded stream, consumed only when fading is drawn
    gbs_path_loss : (K,) path loss from the ground transmitter to each
        user, or None when it is disabled
    gbs_power : the ground transmitter's power per sub-channel in watts
    """
    def gains(pl):  # (J, K) or (K,) path loss -> gains with a trailing N axis
        shape = pl.shape + (n_subchannels,)
        base = 1.0 / pl[..., None]
        if fading == FadingMode.RAYLEIGH:
            # squared magnitude of a unit-variance complex Gaussian: Exp(1)
            # the same draws and stream as rng.exponential(1.0, shape)
            return rng.standard_exponential(shape) * base
        return np.broadcast_to(base, shape).copy()

    station_gains = gains(path_loss)  # drawn before the ground row
    if gbs_path_loss is None:
        return ChannelRealization(gains=station_gains)
    return ChannelRealization(station_gains, gains(gbs_path_loss), gbs_power)


def interference_field(realization: ChannelRealization,
                       powers: np.ndarray) -> tuple[np.ndarray, np.ndarray | None]:
    """(field, ground): the (K, N) interference terms every station shares.

    field sums each station's power times its gain to every user, own
    station included; ground is the ground transmitter's term, or None.
    """
    field = np.einsum("jn,jkn->kn", powers, realization.gains)
    ground = (None if realization.gbs_gains is None
              else realization.gbs_power * realization.gbs_gains)
    return field, ground


def interference_for_abs(field_rows: np.ndarray, own_powers: np.ndarray,
                         own_gains: np.ndarray,
                         ground_rows: np.ndarray | None) -> np.ndarray:
    """(K_j, N) interference in watts seen by each user of one station.

    Its users' rows of interference_field's terms less its own power (N,)
    times gains (K_j, N); tests/channel_reference.py holds its references.
    """
    table = own_powers * own_gains  # the one new array; the rest runs in place
    np.subtract(field_rows, table, out=table)
    # field-minus-own can round a hair below zero; interference is >= 0
    np.maximum(table, 0.0, out=table)
    if ground_rows is not None:
        table += ground_rows
    return table
