"""Per-station joint power and sub-channel allocation.

Each sub-channel goes to the user with the lowest noise floor
(I + sigma^2) / g and the budget is water-filled over the winners' floors.
This is the exact optimum the paper's dual decomposition (water-filling per
candidate, marginal-value winner per sub-channel, subgradient multiplier
update) converges to, reached without iterating.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

__all__ = [
    "AllocationProblem",
    "AllocationResult",
    "solve",
]

LN2 = math.log(2.0)

# Budget-match tolerance behind AllocationResult.converged, relative to p_max.
_BUDGET_TOL_REL = 1e-6

# A whole-array sum without the Python wrapper of ndarray.sum (np.add.reduce
# adds pairwise, as ndarray.sum does); on the training path.
_sum = np.add.reduce
# np.arange(n) per sub-channel count, shared by every solve: never written to
_columns = functools.cache(np.arange)


@dataclass(slots=True, eq=False)
class AllocationProblem:
    """One station's allocation instance.

    gains[k, n] and interference[k, n] describe user k on sub-channel n;
    both in linear scale (gains dimensionless, interference and
    noise_power in watts). p_max is the total transmit power budget.
    A slotted class, one per station and step. It checks shapes, noise_power
    and p_max, not values: channel.draw_realization checks a step's gains
    once, and interference_for_abs (clamped at >= 0) with overflow_errors'
    bounds keeps the interference finite and non-negative.
    """

    gains: np.ndarray
    interference: np.ndarray
    noise_power: float
    p_max: float

    def __post_init__(self) -> None:
        g = self.gains = np.asarray(self.gains, dtype=float)
        i = self.interference = np.asarray(self.interference, dtype=float)
        if g.ndim != 2 or g.shape[0] < 1 or g.shape[1] < 1:
            raise ValueError("gains must be a (K, N) matrix with K, N >= 1")
        if i.shape != g.shape:
            raise ValueError("interference must match the gains shape")
        # comparisons with NaN are false, so NaN fails each test below
        if not self.noise_power > 0:
            raise ValueError("noise_power must be positive")
        if not self.p_max > 0:
            raise ValueError("p_max must be positive")


class AllocationResult(NamedTuple):
    """Solver output: per-sub-channel winners and powers plus diagnostics.

    lam is the budget multiplier of the water level; budget_slack is p_max
    minus allocated power (>= -tolerance); converged means
    |budget_slack| <= 1e-6 p_max. iterations is 1 for solve.
    """

    assignment: np.ndarray
    powers: np.ndarray
    sum_rate: float
    lam: float
    iterations: int
    converged: bool
    budget_slack: float


def solve(problem: AllocationProblem) -> AllocationResult:
    """Optimal allocation of the instance, in closed form.

    At any budget multiplier every candidate's water-filled power is
    [L - f]^+ for one shared water level L and its own noise floor
    f = (I + sigma^2) / g, so the candidate with the smallest floor has the
    largest SNR and marginal value on its sub-channel whatever the
    multiplier is. Each sub-channel therefore goes to its min-floor user
    (ties to the lowest index, zero-power sub-channels included), and the
    budget fixes L by sorted water-filling over the winners' floors. The
    dual subgradient method the paper describes reaches this point on its
    first iteration; there is no duality gap (Yu & Lui, IEEE Trans.
    Commun. 2006).
    """
    noise = problem.interference + problem.noise_power
    floors = noise / problem.gains
    winners = floors.argmin(axis=0)
    # flat (winner, sub-channel) positions in the row-major (K, N) arrays
    n = floors.shape[1]
    won = winners * n
    won += _columns(n)
    best = floors.ravel()[won]
    p_max = problem.p_max
    lam = 1.0 / (LN2 * _waterfill_level(best, p_max))
    # through the multiplier, not from the level directly, so that the
    # powers are bit-identical to the per-link water-filling power at lam;
    # from here on the arithmetic runs in place on solve's own gathers
    powers = np.subtract(1.0 / (LN2 * lam), best, out=best)
    np.maximum(powers, 0.0, out=powers)
    snr = problem.gains.ravel()[won]
    np.multiply(powers, snr, out=snr)
    snr /= noise.ravel()[won]
    snr += 1.0
    rate = float(_sum(np.log2(snr, out=snr)))
    slack = p_max - float(_sum(powers))
    return AllocationResult(winners, powers, rate, lam, 1,
                            abs(slack) <= _BUDGET_TOL_REL * p_max, slack)


def _waterfill_level(floors: np.ndarray, p_max: float) -> float:
    """Water level exhausting p_max over channels with the given floors.

    Standard sorted closed form: with the m cheapest floors active the
    level is (p_max + sum of those floors) / m; the correct m is the
    largest one whose level still clears its worst active floor. There are
    only as many floors as sub-channels, so a plain loop is cheapest.
    """
    order = sorted(floors.tolist())
    level = p_max + order[0]  # the cheapest channel is always active
    csum = 0.0
    for m, floor in enumerate(order, start=1):
        csum += floor
        candidate = (p_max + csum) / m
        if candidate > floor:
            level = candidate
    return level
