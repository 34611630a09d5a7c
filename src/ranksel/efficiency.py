"""Normalized expected sample sizes and the efficiency ratio of the two procedures.

For variant l with critical constant h, the normalized expected total
sample size is

    alpha = E N_1 / (h / delta)^2,
           N_1 = max{N0 + 1, ceil((h / delta)^2 * S_1^2)},

exploiting exchangeability across populations (one population suffices).
With constant N0 both alphas converge to E sigma^2, so the ratio of
expected totals between the procedures converges to the squared ratio of
their critical constants, which is 2^(2/nu); with N0(k) growing slowly
the limit of alpha is E max{L, sigma^2} where L is the limit of
N0(k) / (h/delta)^2.  Everything here estimates those quantities at
finite k; limits are only ever assessed as trends.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from ranksel.distributions import RandomStream, ScheduleSpec, _check_array_limit, _check_nu
from ranksel.hconst import DD, RINOTT, HConstant, HEquationSpec, solve_h
from ranksel.procedures import VariancePrior, _size_factor, second_stage_size

__all__ = [
    "AlphaEstimate",
    "EfficiencyRow",
    "estimate_alpha",
    "theoretical_eta",
    "efficiency_curve",
    "limit_maxmix",
]


@dataclass(frozen=True)
class AlphaEstimate:
    """Monte Carlo estimate of E N_1 / (h/delta)^2 and its standard error."""

    alpha: float
    std_error: float


@dataclass(frozen=True)
class EfficiencyRow:
    """One k of the efficiency table.

    total_ratio estimates the ratio of expected total sample sizes (Rinott
    over Dudewicz-Dalal) at this k; under a constant nu its k -> infinity
    limit is theoretical_eta(nu).
    """

    k: int
    nu: int
    n0: int
    h_dd: HConstant
    h_rinott: HConstant
    h_ratio: float
    h_ratio_sq: float
    alpha_dd: AlphaEstimate
    alpha_rinott: AlphaEstimate
    alpha_ratio: float
    total_ratio: float
    lhat_dd: float
    lhat_rinott: float


def theoretical_eta(nu: int) -> float:
    """Limit of the total-sample ratio for constant pilot size: 2^(2/nu)."""
    _check_nu(nu)
    return 2.0 ** (2.0 / nu)


def estimate_alpha(
    h: float,
    nu: int,
    delta: float,
    prior: VariancePrior,
    replications: int,
    rng: RandomStream,
) -> AlphaEstimate:
    """Estimate alpha = E N_1 / (h/delta)^2 under the variance prior, for critical constant h.

    Each replication draws sigma^2 from the prior and S^2 as
    sigma^2 * chi2_nu / nu.  The prior and chi-square draws come from
    fixed substreams (0 and 1), so calling this twice with the same rng
    but different h reuses identical draws; variant comparisons are then
    common-random-number coupled.  ValueError when h <= 0, replications
    exceed 2^24 (the draws would not fit in memory), an S^2 draw is not
    finite or a size ceil((h/delta)^2 * S^2) does not fit int64, the rule
    second_stage_size applies.
    """
    nu = _check_nu(nu)
    if not (delta > 0 and math.isfinite(delta)):
        raise ValueError(f"delta must be positive and finite, got {delta}")
    if replications < 1:
        raise ValueError("replications must be >= 1")
    _check_array_limit(replications, "replications")
    if h <= 0:
        raise ValueError(
            f"alpha is only defined for h > 0, got h={h} (raise p above the symmetry point)"
        )
    n0 = nu + 1
    r2 = _size_factor(h, delta)
    if not (r2 > 0 and math.isfinite((n0 + 1) / r2)):
        raise ValueError(
            f"(h/delta)^2 = ({h}/{delta})^2 underflows: delta is too large to normalize by"
        )
    # an overflowing draw is reported below as a usage error, not a warning
    with np.errstate(over="ignore"):
        sigma2 = prior.sample(replications, rng.substream(0))
        chi2 = rng.substream(1).generator.chisquare(nu, size=replications)
        s2 = sigma2 * chi2 / nu
    if not np.all(np.isfinite(s2)):
        raise ValueError(
            f"the {prior.describe()} prior gave variance draws whose S^2 is not finite"
        )
    samples = second_stage_size(s2, h, delta, n0) / r2
    alpha = float(samples.mean())
    if replications > 1:
        std_error = float(samples.std(ddof=1) / math.sqrt(replications))
    else:
        std_error = 0.0
    return AlphaEstimate(alpha, std_error)


def _efficiency_row(
    k: int,
    schedule: ScheduleSpec,
    p: float,
    delta: float,
    prior: VariancePrior,
    replications: int,
    rng: RandomStream,
) -> EfficiencyRow:
    nu = schedule.nu_at(k)
    n0 = nu + 1
    h_dd = solve_h(HEquationSpec(k, nu, p, DD))
    h_rinott = solve_h(HEquationSpec(k, nu, p, RINOTT))
    # keyed by nu, not k: rows sharing nu reuse the same draws, so trends
    # across k are not blurred by fresh Monte Carlo noise per row
    row_rng = rng.substream(nu)
    alpha_dd = estimate_alpha(h_dd.value, nu, delta, prior, replications, row_rng)
    alpha_rinott = estimate_alpha(h_rinott.value, nu, delta, prior, replications, row_rng)
    h_ratio = h_rinott.value / h_dd.value
    alpha_ratio = alpha_rinott.alpha / alpha_dd.alpha
    return EfficiencyRow(
        k=k,
        nu=nu,
        n0=n0,
        h_dd=h_dd,
        h_rinott=h_rinott,
        h_ratio=h_ratio,
        h_ratio_sq=h_ratio * h_ratio,
        alpha_dd=alpha_dd,
        alpha_rinott=alpha_rinott,
        alpha_ratio=alpha_ratio,
        total_ratio=alpha_ratio * h_ratio * h_ratio,
        lhat_dd=n0 / (h_dd.value / delta) ** 2,
        lhat_rinott=n0 / (h_rinott.value / delta) ** 2,
    )


def efficiency_curve(
    ks: Sequence[int],
    schedule: ScheduleSpec,
    p: float,
    delta: float,
    prior: VariancePrior,
    replications: int,
    rng: RandomStream,
) -> tuple[EfficiencyRow, ...]:
    """Efficiency rows over ascending ks; rows are independent work items.

    Row k has nu = schedule.nu_at(k) and pilot size n0 = nu + 1.
    """
    if not ks:
        raise ValueError("ks must be non-empty")
    ks = [int(k) for k in ks]
    if any(b <= a for a, b in zip(ks, ks[1:])):
        raise ValueError("ks must be strictly ascending")
    return tuple(_efficiency_row(k, schedule, p, delta, prior, replications, rng) for k in ks)


def limit_maxmix(L: float, prior: VariancePrior) -> float:
    """E max{L, sigma^2} under the prior, in closed form (VariancePrior.expected_max)."""
    if L < 0:
        raise ValueError(f"L must be nonnegative, got {L}")
    return prior.expected_max(L)
