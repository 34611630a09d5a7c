"""Diagnostics for maxima of triangular arrays of Student-t draws.

For each k the array draws k i.i.d. copies of a base statistic (a single
t variable, or a sum of two independent t variables) whose degrees of
freedom may themselves depend on k, and records the sample maximum.  With
nu fixed the classical theory applies (regularly varying tails, Frechet
domain); when nu grows with k the limiting law is unresolved, so this
module only emits per-k fit diagnostics: location/spread summaries,
Anderson-Darling distances to best-fit Gumbel and Frechet, and a
Hill-style tail-index estimate.  No limit claim is made.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np
from scipy import stats

from ranksel.distributions import RandomStream, _check_array_limit, map_blocks
from ranksel.hconst import _resolve_nu

__all__ = [
    "MAX_OF_T",
    "MAX_OF_T_SUM",
    "TriangularArraySpec",
    "ExtremeFitRow",
    "ExtremeFitReport",
    "fit_extremes",
    "hill_tail_index",
]

MAX_OF_T = "max-of-t"
MAX_OF_T_SUM = "max-of-t-sum"
STATISTICS = (MAX_OF_T, MAX_OF_T_SUM)

HILL_FRACTION = 0.05
_CHUNK_ELEMENTS = 2**19


@dataclass(frozen=True)
class TriangularArraySpec:
    """One maxima experiment: which ks, which nu(k), which base statistic.

    nu_for is one degrees-of-freedom value for every k, or a function giving
    nu for each k.
    """

    ks: tuple[int, ...]
    nu_for: int | Callable[[int], int]
    statistic: str
    replications: int

    def __post_init__(self):
        object.__setattr__(self, "ks", tuple(int(k) for k in self.ks))
        if not self.ks or any(k < 1 for k in self.ks):
            raise ValueError("ks must be a non-empty list of positive integers")
        if any(b <= a for a, b in zip(self.ks, self.ks[1:])):
            raise ValueError("ks must be strictly ascending")
        if self.statistic not in STATISTICS:
            raise ValueError(f"statistic must be one of {STATISTICS}, got {self.statistic!r}")
        if self.replications < 100:
            raise ValueError(
                f"need at least 100 replications for stable fits, got {self.replications}"
            )
        _check_array_limit(self.replications, "replications")
        # one replication of the largest k is drawn as a single row
        width = 1 if self.statistic == MAX_OF_T else 2
        _check_array_limit(width * self.ks[-1], "the draws per maximum (k, or 2k for the sum)")


@dataclass(frozen=True)
class ExtremeFitRow:
    k: int
    nu: int
    median: float
    iqr: float
    ad_gumbel: float
    ad_frechet: float
    hill_index: float


@dataclass(frozen=True)
class ExtremeFitReport:
    rows: tuple[ExtremeFitRow, ...]
    statistic: str
    replications: int


def _draw_base(gen: np.random.Generator, count: int, k: int, nu: int, statistic: str) -> np.ndarray:
    if statistic == MAX_OF_T:
        return gen.standard_t(nu, size=(count, k))
    draws = gen.standard_t(nu, size=(count, k, 2))
    # same bits as .sum(axis=2), without the slow length-2 reduction
    return draws[..., 0] + draws[..., 1]


def _sample_maxima(
    k: int, nu: int, statistic: str, replications: int, rng: RandomStream
) -> np.ndarray:
    """Maxima of `replications` independent rows of k base draws.

    Rows are drawn in blocks of about _CHUNK_ELEMENTS variates, block b
    from ``rng.substream(b)`` (see map_blocks), so the maxima depend on the
    inputs alone, not on the CPU count.
    """
    per_rep = k if statistic == MAX_OF_T else 2 * k

    def block(stream: RandomStream, n: int) -> np.ndarray:
        return _draw_base(stream.generator, n, k, nu, statistic).max(axis=1)

    return np.concatenate(map_blocks(block, replications, per_rep, _CHUNK_ELEMENTS, rng))


def ad_distance(sample: np.ndarray, cdf: Callable[[np.ndarray], np.ndarray]) -> float:
    """Anderson-Darling statistic of the sample against a fully specified CDF.

    With estimated parameters this is a fit distance for comparing
    candidate families, not a calibrated test statistic.
    """
    x = np.sort(np.asarray(sample, dtype=float))
    n = x.size
    if n < 2:
        raise ValueError("need at least two observations")
    f = np.clip(cdf(x), 1e-15, 1.0 - 1e-15)
    i = np.arange(1, n + 1)
    s = (2 * i - 1) * (np.log(f) + np.log1p(-f[::-1]))
    return float(-n - s.mean())


def hill_tail_index(sample: np.ndarray, fraction: float = HILL_FRACTION) -> float:
    """Hill estimate of the tail index from the top `fraction` order stats.

    Returns NaN when fewer than 20 positive observations are available
    (the estimate would be meaningless).
    """
    if not 0.0 < fraction < 1.0:
        raise ValueError(f"fraction must be in (0, 1), got {fraction}")
    pos = np.sort(np.asarray(sample, dtype=float))
    pos = pos[pos > 0]
    if pos.size < 20:
        return float("nan")
    m = max(2, int(math.floor(fraction * pos.size)))
    if m + 1 > pos.size:
        m = pos.size - 1
    threshold = pos[-(m + 1)]
    gamma = float(np.mean(np.log(pos[-m:] / threshold)))
    return 1.0 / gamma


def _fit_row(k: int, nu: int, statistic: str, replications: int, rng: RandomStream) -> ExtremeFitRow:
    maxima = _sample_maxima(k, nu, statistic, replications, rng)
    q25, q50, q75 = np.percentile(maxima, [25, 50, 75])
    loc_g, scale_g = stats.gumbel_r.fit(maxima)
    ad_gumbel = ad_distance(maxima, lambda x: stats.gumbel_r.cdf(x, loc_g, scale_g))
    c_f, loc_f, scale_f = stats.invweibull.fit(maxima)
    ad_frechet = ad_distance(maxima, lambda x: stats.invweibull.cdf(x, c_f, loc_f, scale_f))
    return ExtremeFitRow(
        k=k,
        nu=nu,
        median=float(q50),
        iqr=float(q75 - q25),
        ad_gumbel=ad_gumbel,
        ad_frechet=ad_frechet,
        hill_index=hill_tail_index(maxima),
    )


def fit_extremes(spec: TriangularArraySpec, rng: RandomStream) -> ExtremeFitReport:
    """Per-k maxima fits; row k draws from ``rng.substream(k)``."""
    rows = tuple(
        _fit_row(k, _resolve_nu(spec.nu_for, k), spec.statistic, spec.replications,
                 rng.substream(k))
        for k in spec.ks
    )
    return ExtremeFitReport(rows=rows, statistic=spec.statistic, replications=spec.replications)
