"""The paper's dual subgradient allocator, kept as a reference for ``solve``.

For a given budget multiplier lambda every candidate user gets its
water-filling power on every sub-channel, each sub-channel is awarded to the
candidate with the largest marginal-value score psi, and lambda follows the
diminishing-step update lambda <- [lambda - alpha(l) (p_max - sum P)]^+ until
the allocated power matches the budget. ``absim.allocator.solve`` computes
the point this loop converges to in closed form; the tests check that the
two agree.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from absim.allocator import (LN2, AllocationProblem, AllocationResult,
                             _waterfill_level, sum_rate)


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
    cols = np.arange(problem.n_subchannels)
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
        comp_slackness=abs(lam_ret * slack),
    )
    return result, trace
