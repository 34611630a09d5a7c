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
from scipy import integrate

from ranksel.distributions import RandomStream, _check_array_limit, _check_nu
from ranksel.hconst import (
    DD,
    RINOTT,
    HConstant,
    HEquationSpec,
    _check_probability,
    _check_variant,
    solve_h,
)
from ranksel.procedures import VariancePrior, _check_sizes_fit, _size_factor

__all__ = [
    "AlphaEstimate",
    "ScheduleSpec",
    "EfficiencyRow",
    "EfficiencyReport",
    "estimate_alpha",
    "theoretical_eta",
    "efficiency_curve",
    "limit_maxmix",
]

SCHEDULE_KINDS = ("constant", "log-growth", "power-growth")


@dataclass(frozen=True)
class AlphaEstimate:
    """Monte Carlo estimate of E N_1 / (h/delta)^2 for one (k, variant)."""

    k: int
    variant: str
    alpha: float
    std_error: float
    h_used: HConstant
    nu: int
    replications: int


@dataclass(frozen=True)
class ScheduleSpec:
    """Pilot-size schedule N0(k); must be >= 2 and nondecreasing in k.

    constant: N0(k) = value.  log-growth: N0(k) = ceil(ln k) + 2.
    power-growth: N0(k) = ceil(k^(1/4)) + 2.
    """

    kind: str
    value: int | None = None

    def __post_init__(self):
        if self.kind not in SCHEDULE_KINDS:
            raise ValueError(f"schedule kind must be one of {SCHEDULE_KINDS}, got {self.kind!r}")
        if self.kind == "constant":
            if self.value is None or self.value < 2:
                raise ValueError(f"constant schedule needs value >= 2, got {self.value}")
        elif self.value is not None:
            raise ValueError(f"{self.kind} schedule takes no value parameter")

    def n0(self, k: int) -> int:
        if k < 1:
            raise ValueError(f"k must be >= 1, got {k}")
        if self.kind == "constant":
            return self.value
        if self.kind == "log-growth":
            return math.ceil(math.log(k)) + 2
        return math.ceil(k ** 0.25) + 2

    def describe(self) -> str:
        if self.kind == "constant":
            return f"constant:{self.value}"
        return self.kind


@dataclass(frozen=True)
class EfficiencyRow:
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


@dataclass(frozen=True)
class EfficiencyReport:
    """Per-k efficiency table.

    total_ratio estimates the ratio of expected total sample sizes
    (Rinott over Dudewicz-Dalal) at each finite k; theoretical_eta is its
    k -> infinity limit 2^(2/nu), reported only when the schedule keeps nu
    constant (existence under growing schedules is an open question).
    """

    rows: tuple[EfficiencyRow, ...]
    theoretical_eta: float | None
    schedule: str
    p: float
    delta: float
    prior: VariancePrior
    replications: int


def theoretical_eta(nu: int) -> float:
    """Limit of the total-sample ratio for constant pilot size: 2^(2/nu)."""
    _check_nu(nu)
    return 2.0 ** (2.0 / nu)


def estimate_alpha(
    k: int,
    nu: int,
    p: float,
    delta: float,
    prior: VariancePrior,
    variant: str,
    replications: int,
    rng: RandomStream,
    h: HConstant | None = None,
) -> AlphaEstimate:
    """Estimate alpha = E N_1 / (h/delta)^2 under the variance prior.

    Each replication draws sigma^2 from the prior and S^2 as
    sigma^2 * chi2_nu / nu.  The prior and chi-square draws come from
    fixed substreams (0 and 1), so calling this twice with the same rng
    but different variants reuses identical draws; variant comparisons
    are then common-random-number coupled.  ValueError when replications
    exceed 2^24 (the draws would not fit in memory), an S^2 draw is not
    finite or a size ceil((h/delta)^2 * S^2) does not fit int64, the rule
    second_stage_size applies.
    """
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    nu = _check_nu(nu)
    _check_probability(p)
    if not (delta > 0 and math.isfinite(delta)):
        raise ValueError(f"delta must be positive and finite, got {delta}")
    _check_variant(variant)
    if replications < 1:
        raise ValueError("replications must be >= 1")
    _check_array_limit(replications, "replications")
    if h is None:
        h = solve_h(HEquationSpec(k, nu, p, variant))
    if h.value <= 0:
        raise ValueError(
            f"alpha is only defined for h > 0, got h={h.value} (raise p above the symmetry point)"
        )
    n0 = nu + 1
    r2 = _size_factor(h.value, delta)
    if not (r2 > 0 and math.isfinite((n0 + 1) / r2)):
        raise ValueError(
            f"(h/delta)^2 = ({h.value}/{delta})^2 underflows: delta is too large to normalize by"
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
    raw = np.ceil(s2 * r2)
    _check_sizes_fit(raw)
    sizes = np.maximum(float(n0 + 1), raw)
    samples = sizes / r2
    alpha = float(samples.mean())
    if replications > 1:
        std_error = float(samples.std(ddof=1) / math.sqrt(replications))
    else:
        std_error = 0.0
    return AlphaEstimate(k, variant, alpha, std_error, h, nu, replications)


def _efficiency_row(
    k: int,
    schedule: ScheduleSpec,
    p: float,
    delta: float,
    prior: VariancePrior,
    replications: int,
    rng: RandomStream,
) -> EfficiencyRow:
    n0 = schedule.n0(k)
    nu = n0 - 1
    h_dd = solve_h(HEquationSpec(k, nu, p, DD))
    h_rinott = solve_h(HEquationSpec(k, nu, p, RINOTT))
    # keyed by nu, not k: rows sharing nu reuse the same draws, so trends
    # across k are not blurred by fresh Monte Carlo noise per row
    row_rng = rng.substream(nu)
    alpha_dd = estimate_alpha(k, nu, p, delta, prior, DD, replications, row_rng, h_dd)
    alpha_rinott = estimate_alpha(
        k, nu, p, delta, prior, RINOTT, replications, row_rng, h_rinott
    )
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
) -> EfficiencyReport:
    """Efficiency table over ascending ks; rows are independent work items.

    The pilot size of row k is schedule.n0(k), so nu = schedule.n0(k) - 1; a
    constant pilot size N0 is ScheduleSpec("constant", N0).
    """
    if not ks:
        raise ValueError("ks must be non-empty")
    ks = [int(k) for k in ks]
    if any(b <= a for a, b in zip(ks, ks[1:])):
        raise ValueError("ks must be strictly ascending")

    rows = tuple(_efficiency_row(k, schedule, p, delta, prior, replications, rng) for k in ks)
    nus = {r.nu for r in rows}
    eta = theoretical_eta(rows[0].nu) if len(nus) == 1 else None
    return EfficiencyReport(
        rows=rows,
        theoretical_eta=eta,
        schedule=schedule.describe(),
        p=p,
        delta=delta,
        prior=prior,
        replications=replications,
    )


def limit_maxmix(L: float, prior: VariancePrior) -> float:
    """E max{L, sigma^2} by numerical integration against the prior.

    Uses E max{L, X} = L + integral over (L, inf) of P(X > x) dx, which
    needs only the survival function.
    """
    if L < 0:
        raise ValueError(f"L must be nonnegative, got {L}")
    if prior.kind == "fixed":
        return max(L, prior.params[0])
    if L == 0:
        return prior.mean()
    tail, err = integrate.quad(
        lambda x: float(prior.sf(x)), L, np.inf, epsabs=1e-10, epsrel=1e-10, limit=200
    )
    if err > 1e-6:
        raise RuntimeError(f"tail integration error estimate {err:.2e} too large")
    return L + tail
