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

from ranksel.distributions import _ARRAY_LIMIT, RandomStream, ScheduleSpec, _check_count
from ranksel.hconst import HConstant, HTableRow, h_table
from ranksel.procedures import (
    _SIZE_TOO_LARGE, VariancePrior, _ceil_sizes, _check_delta, _finite_square,
)

__all__ = [
    "AlphaEstimate",
    "EfficiencyRow",
    "estimate_alpha",
    "theoretical_eta",
    "efficiency_curve",
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
    nu = _check_count(nu, "degrees of freedom")
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
    sigma^2 * chi2_nu / nu.  The prior and the chi-square draws come from
    fixed substreams (0 and 1), so calling this twice with the same rng
    but different h reuses identical draws; variant comparisons are then
    common-random-number coupled.  The prior is drawn on every call.  The
    chi-square is drawn once per (stream, nu, replications) and shared,
    read-only, by the calls that follow with the same key; a new key forgets
    it before its own draw, and so does efficiency_curve when it returns.
    S^2, the sizes and the squared deviations of the standard error
    (numpy's std with ddof=1, over sqrt(replications); 0 for one
    replication) all live in the prior's array: beside the shared
    chi-square, a call keeps that one array of `replications` floats.
    ValueError when h <= 0, replications exceed 2^24 (the draws would not
    fit in memory), an S^2 draw is not finite or a size
    ceil((h/delta)^2 * S^2) does not fit int64, the rule second_stage_size
    applies.
    """
    nu = _check_count(nu, "degrees of freedom")
    _check_delta(delta)
    replications = _check_count(replications, "replications", most=_ARRAY_LIMIT)
    if h <= 0:
        raise ValueError(
            f"alpha is only defined for h > 0, got h={h} (raise p above the symmetry point)"
        )
    n0 = nu + 1
    r2 = _finite_square(h, delta, _SIZE_TOO_LARGE)
    if not (r2 > 0 and math.isfinite((n0 + 1) / r2)):
        raise ValueError(
            f"(h/delta)^2 = ({h}/{delta})^2 underflows: delta is too large to normalize by"
        )
    with np.errstate(over="ignore"):  # an overflowing draw is refused below, not warned of
        s2 = prior.sample(replications, rng.substream(0))  # a fresh array: S^2 is built in it
        s2 *= _chi_square(rng, nu, replications)
        s2 /= nu
    if not np.all(np.isfinite(s2)):
        raise ValueError(
            f"the {prior.describe()} prior gave variance draws whose S^2 is not finite"
        )
    # second_stage_size's rule, built as floats in the S^2 buffer: rounding is
    # monotone, so these are its int64 sizes read as floats, bit for bit
    samples = _ceil_sizes(s2, r2, out=s2)
    np.maximum(samples, n0 + 1, out=samples)
    samples /= r2
    alpha = float(samples.mean())
    if replications == 1:
        return AlphaEstimate(alpha, 0.0)
    # samples.std(ddof=1) in the sizes buffer, numpy's own _var sequence (the
    # same bits), without the second array std allocates
    samples -= alpha
    np.square(samples, out=samples)
    std = math.sqrt(float(samples.sum()) / (replications - 1))
    return AlphaEstimate(alpha, std / math.sqrt(replications))


# The last chi-square draw of estimate_alpha, read-only, under its
# (seed, substream path, nu, replications): both variants of a row, and the
# rows that share nu, share one stream and so one draw.
_CHI_SQUARE_MEMO: dict[tuple, np.ndarray] = {}


def _chi_square(rng: RandomStream, nu: int, replications: int) -> np.ndarray:
    """rng.substream(1)'s chisquare(nu, replications), drawn once per key and kept read-only."""
    key = (rng.seed, rng.path + (1,), nu, replications)
    draw = _CHI_SQUARE_MEMO.get(key)
    if draw is None:
        _CHI_SQUARE_MEMO.clear()  # first, so that two draws are never alive at once
        draw = rng.substream(1).generator.chisquare(nu, size=replications)
        draw.flags.writeable = False
        _CHI_SQUARE_MEMO[key] = draw
    return draw


def _efficiency_row(
    h: HTableRow,
    delta: float,
    prior: VariancePrior,
    replications: int,
    rng: RandomStream,
) -> EfficiencyRow:
    nu = h.nu
    n0 = nu + 1
    # keyed by nu, not k: rows sharing nu reuse the same draws, so trends
    # across k are not blurred by fresh Monte Carlo noise per row
    row_rng = rng.substream(nu)
    alpha_dd = estimate_alpha(h.dd.value, nu, delta, prior, replications, row_rng)
    alpha_rinott = estimate_alpha(h.rinott.value, nu, delta, prior, replications, row_rng)
    alpha_ratio = alpha_rinott.alpha / alpha_dd.alpha
    return EfficiencyRow(
        k=h.k,
        nu=nu,
        n0=n0,
        h_dd=h.dd,
        h_rinott=h.rinott,
        h_ratio=h.ratio,
        h_ratio_sq=h.ratio * h.ratio,
        alpha_dd=alpha_dd,
        alpha_rinott=alpha_rinott,
        alpha_ratio=alpha_ratio,
        total_ratio=alpha_ratio * h.ratio * h.ratio,
        lhat_dd=n0 / (h.dd.value / delta) ** 2,
        lhat_rinott=n0 / (h.rinott.value / delta) ** 2,
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
    """Efficiency rows over ascending ks, one on each row of ``h_table(ks, schedule, p)``.

    Row k has nu = schedule.nu_at(k) and pilot size n0 = nu + 1; its
    h_ratio is the table's ratio (NaN, and so are h_ratio_sq and
    total_ratio, when h_dd is numerically zero).  Each row draws from
    rng.substream(nu), so a nu of 2^32 or more is refused (ValueError)
    before any h is solved.
    """
    _check_count(max(nu for _, nu in schedule.grid(ks)), "degrees of freedom", most=2**32 - 1)
    try:
        return tuple(
            _efficiency_row(h, delta, prior, replications, rng) for h in h_table(ks, schedule, p)
        )
    finally:
        _CHI_SQUARE_MEMO.clear()
