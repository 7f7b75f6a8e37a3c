"""References for ``absim.allocator.solve``, kept here because only the tests
call them:

- the per-link water-filling power and the sum-rate expression that
  ``solve`` inlines;
- the paper's dual subgradient loop. For a given budget multiplier lambda
  every candidate user gets its water-filling power on every sub-channel,
  each sub-channel is awarded to the candidate with the largest
  marginal-value score psi, and lambda follows the diminishing-step update
  lambda <- [lambda - alpha(l) (p_max - sum P)]^+ until the allocated power
  matches the budget. ``solve`` computes the point this loop converges to
  in closed form;
- an exhaustive enumerator over every assignment, the oracle that ``solve``
  must reach.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from absim.allocator import LN2, AllocationProblem, AllocationResult, _waterfill_level

# Enumeration guard for the oracle: assignments x power-grid combinations.
_ORACLE_MAX_EVALS = 2.0e7


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
    cols = np.arange(problem.gains.shape[1])
    g = problem.gains[winners, cols]
    noise = problem.interference[winners, cols] + problem.noise_power
    return float(np.log2(1.0 + powers * g / noise).sum())


@dataclass(frozen=True)
class SubgradientSchedule:
    """Diminishing step rule alpha(l) = alpha0 / l for the dual update.

    The 1/l decay satisfies the divergent-sum, vanishing-step conditions.
    alpha0 = None scales the first step to the initial multiplier per watt
    of budget violation.
    """

    alpha0: float | None = None
    max_iterations: int = 500
    budget_tol_rel: float = 1e-6

    def __post_init__(self) -> None:
        if self.alpha0 is not None and self.alpha0 <= 0:
            raise ValueError("alpha0 must be positive")
        if self.max_iterations < 1:
            raise ValueError("max_iterations must be at least 1")
        if self.budget_tol_rel <= 0:
            raise ValueError("budget_tol_rel must be positive")


def psi_metric(power: float, gain: float, interference: float,
               noise_power: float) -> float:
    """Marginal-value score of serving a link at the given power.

    log2(1 + snr) - snr / ((1 + snr) ln2), non-negative for power >= 0.
    """
    snr = power * gain / (interference + noise_power)
    return math.log2(1.0 + snr) - (snr / (1.0 + snr)) / LN2


def assign_subchannels(lam: float, problem: AllocationProblem):
    """Winner (user index) and water-filled power per sub-channel at multiplier lam.

    Each sub-channel goes to the candidate whose score is largest, ties to
    the lowest user index. A sub-channel whose winning power is zero stays
    assigned with zero power and carries no rate.
    """
    if lam <= 0:
        raise ValueError("dual multiplier must be positive")
    floors = (problem.interference + problem.noise_power) / problem.gains
    powers = np.maximum(1.0 / (LN2 * lam) - floors, 0.0)
    snr = powers / floors
    psi = np.log2(1.0 + snr) - (snr / (1.0 + snr)) / LN2
    winners = psi.argmax(axis=0)
    cols = np.arange(problem.gains.shape[1])
    return winners, powers[winners, cols]


def subgradient_solve(problem: AllocationProblem,
                      schedule: SubgradientSchedule | None = None,
                      lambda_init: float | None = None, keep_trace: bool = False):
    """Dual subgradient solve; returns (AllocationResult, trace).

    A fresh sub-channel assignment is made inside every iteration, and the
    loop stops as soon as the allocated power matches the budget within
    tolerance. The best feasible iterate seen is returned; if the loop
    exhausts its iterations first, that iterate comes back flagged as not
    converged rather than raising. trace is the list of (lambda, allocated
    power) per iteration when keep_trace is set, else None.

    The default start is the multiplier of the sorted water-filling level
    over each sub-channel's best candidate floor, which puts the very first
    iterate inside tolerance; lambda_init starts the loop elsewhere.
    """
    sched = schedule if schedule is not None else SubgradientSchedule()
    p_max = problem.p_max
    tol = sched.budget_tol_rel * p_max
    feas_cap = p_max * (1.0 + sched.budget_tol_rel)

    if lambda_init is not None:
        if lambda_init <= 0:
            raise ValueError("lambda_init must be positive")
        lam = float(lambda_init)
    else:
        floors = (problem.interference + problem.noise_power) / problem.gains
        lam = 1.0 / (LN2 * _waterfill_level(floors.min(axis=0), p_max))
    alpha0 = sched.alpha0 if sched.alpha0 is not None else lam / p_max
    lam_min = lam * 1e-12  # keep the multiplier strictly positive

    best = None
    trace = [] if keep_trace else None
    iterations = 0
    for it in range(1, sched.max_iterations + 1):
        iterations = it
        winners, powers = assign_subchannels(lam, problem)
        total = float(powers.sum())
        slack = p_max - total
        if trace is not None:
            trace.append((lam, total))
        if total <= feas_cap:
            rate = sum_rate(winners, powers, problem)
            if best is None or rate > best[0]:
                best = (rate, lam, winners, powers, slack)
        if abs(slack) <= tol:
            break
        lam = max(lam - (alpha0 / it) * slack, lam_min)

    converged = best is not None and abs(best[4]) <= tol
    if best is None:
        # A large enough multiplier always empties the allocation, so this
        # walk terminates; it only runs when every iterate overshot the budget.
        for _ in range(4000):
            lam *= 2.0
            winners, powers = assign_subchannels(lam, problem)
            total = float(powers.sum())
            if total <= feas_cap:
                best = (sum_rate(winners, powers, problem), lam, winners, powers,
                        p_max - total)
                break
        if best is None:
            raise RuntimeError("failed to recover a feasible allocation")

    rate, lam_ret, winners, powers, slack = best
    result = AllocationResult(
        assignment=winners,
        powers=powers,
        sum_rate=rate,
        lam=lam_ret,
        iterations=iterations,
        converged=converged,
        budget_slack=slack,
    )
    return result, trace


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
    closed form by construction. iterations counts the assignments
    enumerated. Raises when the enumeration would be too large to be a
    desk-scale check.
    """
    k_count, n_count = problem.gains.shape
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
    return AllocationResult(
        assignment=assignment,
        powers=powers,
        sum_rate=best_rate,
        lam=1.0 / (LN2 * level),
        iterations=n_assignments,
        converged=True,
        budget_slack=problem.p_max - float(powers.sum()),
    )
