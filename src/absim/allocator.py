"""Per-station joint power and sub-channel allocation.

Each sub-channel goes to the user with the lowest noise floor
(I + sigma^2) / g and the budget is water-filled over the winners' floors.
This is the exact optimum the paper's dual decomposition (water-filling per
candidate, marginal-value winner per sub-channel, subgradient multiplier
update) converges to, reached without iterating. An exhaustive enumerator
over the same problem serves as an independent verification oracle.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "AllocationProblem",
    "AllocationResult",
    "brute_force_oracle",
    "solve",
    "sum_rate",
    "waterfill_power",
]

LN2 = math.log(2.0)

# Budget-match tolerance behind AllocationResult.converged, relative to p_max.
_BUDGET_TOL_REL = 1e-6

# Whole-array reductions without the Python wrapper of ndarray.min/max;
# AllocationProblem checks every instance on the training path.
_amin = np.minimum.reduce
_amax = np.maximum.reduce

# Enumeration guard for the oracle: assignments x power-grid combinations.
_ORACLE_MAX_EVALS = 2.0e7


@dataclass(frozen=True)
class AllocationProblem:
    """One station's allocation instance.

    gains[k, n] and interference[k, n] describe user k on sub-channel n;
    both in linear scale (gains dimensionless, interference and
    noise_power in watts). p_max is the total transmit power budget.
    """

    gains: np.ndarray
    interference: np.ndarray
    noise_power: float
    p_max: float

    def __post_init__(self) -> None:
        g = np.asarray(self.gains, dtype=float)
        i = np.asarray(self.interference, dtype=float)
        object.__setattr__(self, "gains", g)
        object.__setattr__(self, "interference", i)
        if g.ndim != 2 or g.shape[0] < 1 or g.shape[1] < 1:
            raise ValueError("gains must be a (K, N) matrix with K, N >= 1")
        if i.shape != g.shape:
            raise ValueError("interference must match the gains shape")
        # comparisons with NaN are false, so NaN fails each test below
        if not (_amin(g, axis=None) > 0.0 and _amax(g, axis=None) < math.inf):
            raise ValueError("gains must be finite and positive")
        if not (_amin(i, axis=None) >= 0.0 and _amax(i, axis=None) < math.inf):
            raise ValueError("interference must be finite and non-negative")
        if not self.noise_power > 0:
            raise ValueError("noise_power must be positive")
        if not self.p_max > 0:
            raise ValueError("p_max must be positive")

    @property
    def n_users(self) -> int:
        return self.gains.shape[0]

    @property
    def n_subchannels(self) -> int:
        return self.gains.shape[1]


@dataclass(frozen=True)
class AllocationResult:
    """Solver output: per-sub-channel winners and powers plus diagnostics.

    budget_slack is p_max minus allocated power (>= -tolerance);
    comp_slackness is |lambda * budget_slack|, small when the budget binds;
    converged means |budget_slack| <= 1e-6 p_max. iterations is 1 for
    solve and the number of assignments enumerated for the oracle.
    """

    assignment: np.ndarray
    powers: np.ndarray
    sum_rate: float
    lam: float
    iterations: int
    converged: bool
    budget_slack: float
    comp_slackness: float


def waterfill_power(lam: float, gain: float, interference: float,
                    noise_power: float) -> float:
    """Water-filling power [1/(ln2 * lam) - (I + sigma^2)/g]^+ for one link."""
    if lam <= 0:
        raise ValueError("dual multiplier must be positive")
    return max(1.0 / (LN2 * lam) - (interference + noise_power) / gain, 0.0)


def sum_rate(assignment, powers, problem: AllocationProblem) -> float:
    """Base-2 spectral efficiency of an assignment/power pair, bits/s/Hz."""
    winners = np.asarray(assignment, dtype=int)
    powers = np.asarray(powers, dtype=float)
    cols = np.arange(problem.n_subchannels)
    g = problem.gains[winners, cols]
    noise = problem.interference[winners, cols] + problem.noise_power
    return float(np.log2(1.0 + powers * g / noise).sum())


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
    cols = np.arange(floors.shape[1])
    best = floors[winners, cols]
    p_max = problem.p_max
    lam = 1.0 / (LN2 * _waterfill_level(best, p_max))
    # through the multiplier, not from the level directly, so that the
    # powers are bit-identical to waterfill_power(lam, ...)
    powers = np.maximum(1.0 / (LN2 * lam) - best, 0.0)
    # sum_rate's exact expression, inlined to reuse noise and cols
    rate = float(np.log2(1.0 + powers * problem.gains[winners, cols]
                         / noise[winners, cols]).sum())
    slack = p_max - float(powers.sum())
    return AllocationResult(
        assignment=winners,
        powers=powers,
        sum_rate=rate,
        lam=lam,
        iterations=1,
        converged=abs(slack) <= _BUDGET_TOL_REL * p_max,
        budget_slack=slack,
        comp_slackness=abs(lam * slack),
    )


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


def _waterfill_budget(floors: np.ndarray, p_max: float):
    """Exact single-assignment water-filling by bisection on the water level."""
    lo = float(floors.min())
    hi = lo + p_max
    for _ in range(120):
        mid = 0.5 * (lo + hi)
        if np.maximum(mid - floors, 0.0).sum() > p_max:
            hi = mid
        else:
            lo = mid
    # the lower bracket keeps the sum within budget
    level = lo
    powers = np.maximum(level - floors, 0.0)
    # bisection residue goes to the cheapest channel so the budget is exact
    extra = p_max - powers.sum()
    powers[int(np.argmin(floors))] += max(extra, 0.0)
    return powers, level


def brute_force_oracle(problem: AllocationProblem,
                       power_grid_points: int = 25) -> AllocationResult:
    """Exhaustive reference solution for small instances.

    Enumerates every exclusive user-per-sub-channel assignment; for each,
    the powers are optimized two ways and the better kept: exact budget
    water-filling via bisection, and (when power_grid_points > 1) a brute
    grid sweep over per-channel power combinations, which cross-checks the
    closed form by construction. Raises when the enumeration would be too
    large to be a desk-scale check.
    """
    k_count = problem.n_users
    n_count = problem.n_subchannels
    n_assignments = k_count ** n_count
    grid = max(int(power_grid_points), 1)
    if n_assignments * float(grid) ** n_count > _ORACLE_MAX_EVALS:
        raise ValueError(
            f"instance too large for exhaustive search: {k_count}^{n_count} "
            f"assignments x {grid}^{n_count} power points")

    grid_powers = None
    if grid > 1:
        axes = [np.linspace(0.0, problem.p_max, grid)] * n_count
        mesh = np.meshgrid(*axes, indexing="ij")
        combos = np.stack([m.ravel() for m in mesh], axis=1)
        grid_powers = combos[combos.sum(axis=1) <= problem.p_max * (1.0 + 1e-12)]

    best_rate = -1.0
    best = None
    assignment = np.zeros(n_count, dtype=int)
    for flat in range(n_assignments):
        rem = flat
        for n in range(n_count):
            assignment[n] = rem % k_count
            rem //= k_count
        cols = np.arange(n_count)
        floors = (problem.interference[assignment, cols] + problem.noise_power) \
            / problem.gains[assignment, cols]

        powers, level = _waterfill_budget(floors, problem.p_max)
        rate = float(np.log2(1.0 + powers / floors).sum())

        if grid_powers is not None:
            grid_rates = np.log2(1.0 + grid_powers / floors).sum(axis=1)
            top = int(np.argmax(grid_rates))
            if grid_rates[top] > rate:
                powers = grid_powers[top]
                rate = float(grid_rates[top])
                level = float((powers + floors).max())

        if rate > best_rate:
            best_rate = rate
            best = (assignment.copy(), powers.copy(), level)

    assignment, powers, level = best
    slack = problem.p_max - float(powers.sum())
    lam = 1.0 / (LN2 * level)
    return AllocationResult(
        assignment=assignment,
        powers=powers,
        sum_rate=best_rate,
        lam=lam,
        iterations=n_assignments,
        converged=True,
        budget_slack=slack,
        comp_slackness=abs(lam * slack),
    )
