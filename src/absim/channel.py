"""Probabilistic air-to-ground propagation model.

Each link mixes line-of-sight and obstructed free-space path loss, weighted
by an elevation-angle-dependent LoS probability, and is optionally scaled
by unit-mean Rayleigh fading power. The model produces linear power gains
per (station, user, sub-channel) and from the ground transmitter; it does
no arithmetic with transmit power.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .geometry import Position3D

__all__ = [
    "ChannelRealization",
    "FADING_MODES",
    "GbsSpec",
    "PropagationParams",
    "draw_realization",
    "free_space_path_loss",
    "los_probability",
]

FADING_MODES = ("none", "rayleigh")  # the values of draw_realization's fading
_amin, _amax = np.minimum.reduce, np.maximum.reduce  # ndarray.min/max without the wrapper


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
        errors = []  # comparisons with NaN are false, so NaN fails each test below
        if not (0 < self.a < math.inf and 0 < self.b < math.inf):
            errors.append("a and b must be finite and positive")
        if not 1.0 <= self.eta_los <= self.eta_nlos:
            errors.append("need eta_nlos >= eta_los >= 1")
        if not (self.carrier_freq > 0 and self.speed_of_light > 0):
            errors.append("carrier_freq and speed_of_light must be positive")
        if not self.noise_power > 0:
            errors.append("noise_power must be positive")
        if errors:
            raise ValueError("\n".join(errors))


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
        # enabled or not: a disabled transmitter's fields still reach the manifest
        if not all(map(math.isfinite, (self.x, self.y, self.height,
                                       self.power_per_subchannel))):
            errors.append("GBS x, y, height and power must be finite")
        if self.power_per_subchannel < 0:
            errors.append("GBS power must be non-negative")
        if self.enabled and not self.height > 0:
            errors.append("GBS height must be positive when enabled")
        if errors:
            raise ValueError("\n".join(errors))


class ChannelRealization(NamedTuple):
    """Per-link linear power gains for one time step.

    gains[j, k, n] is the power gain from station j to user k on
    sub-channel n, gbs_gains[k, n] the ground transmitter's, or None when
    it is disabled.
    """

    gains: np.ndarray
    gbs_gains: np.ndarray | None = None


def _exp(x: float) -> float:
    """libm's e**x, and inf past the float range, where math.exp raises."""
    try:
        return math.exp(x)
    except OverflowError:
        return math.inf


def los_probability(theta_deg, params: PropagationParams):
    """Probability of a line-of-sight link at elevation angle theta (degrees).

    The exponential is libm's, one element at a time: the last bits of
    numpy's exp depend on the SIMD kernel it picks for the CPU."""
    with np.errstate(over="ignore"):  # an exp past the float range gives inf, then the limit 0
        x = -params.b * (np.asarray(theta_deg, dtype=float) - params.a)
        e = np.array([_exp(v) for v in x.ravel().tolist()]).reshape(x.shape)
        return 1.0 / (1.0 + params.a * e)


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


def draw_realization(path_loss: np.ndarray, fading: str,
                     rng: np.random.Generator, n_subchannels: int,
                     gbs_path_loss: np.ndarray | None) -> ChannelRealization:
    """Draw the per-link power gains for one time step; ValueError unless
    every gain is finite and positive (a fading draw of 0.0 is not).

    Parameters
    ----------
    path_loss : (J, K) average path loss from each station to each user
    fading : "none" gives deterministic gains 1/PL; "rayleigh"
        multiplies each (j, k, n) gain by an i.i.d. unit-mean fading power
    rng : caller-owned seeded stream, consumed only when fading is drawn
    gbs_path_loss : (K,) path loss from the ground transmitter to each
        user, or None when it is disabled
    """
    def gains(pl):  # (J, K) or (K,) path loss -> gains with a trailing N axis
        shape = pl.shape + (n_subchannels,)
        base = 1.0 / pl[..., None]
        # rayleigh: the squared magnitude of a unit-variance complex Gaussian,
        # Exp(1), with the same draws and stream as rng.exponential(1.0, shape)
        g = (rng.standard_exponential(shape) * base if fading == "rayleigh"
             else np.broadcast_to(base, shape).copy())
        # comparisons with NaN are false, so NaN fails this test
        if not (_amin(g, axis=None) > 0.0 and _amax(g, axis=None) < math.inf):
            raise ValueError("gains must be finite and positive")
        return g

    station_gains = gains(path_loss)  # drawn before the ground row
    return ChannelRealization(station_gains,
                              None if gbs_path_loss is None else gains(gbs_path_loss))
