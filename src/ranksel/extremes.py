"""Diagnostics for maxima of triangular arrays of Student-t draws.

For each k the array draws k i.i.d. copies of a base statistic (a single
t variable, or a sum of two independent t variables) whose degrees of
freedom may themselves depend on k, and records the sample maximum.  The
sampler draws only the positive statistics of each row, about k/2 of them,
after their Binomial(k, 1/2) count; by the base statistic's symmetry each
maximum then has exactly the law of the maximum of k full draws (see
_draw_base).  With nu fixed the classical theory applies (regularly varying
tails, Frechet domain); when nu grows with k the limiting law is
unresolved, so this module only emits per-k fit diagnostics:
location/spread summaries, Anderson-Darling distances to best-fit Gumbel
and Frechet, and a Hill-style tail-index estimate.  No limit claim is made.

Both fits are maximum likelihood.  The Gumbel fit is scipy's; the Frechet
fit profiles the scale out in closed form and climbs the remaining
(shape, location) likelihood by Newton's method (profile-likelihood
Newton).  The Frechet family's closure holds the Gumbel family as its
shape c -> inf, so when no interior maximum beats the Gumbel fit, the
Frechet fit is that Gumbel limit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Iterable

import numpy as np
from scipy import stats

from ranksel.distributions import _ARRAY_LIMIT, RandomStream, ScheduleSpec, _check_count, map_blocks

__all__ = [
    "MAX_OF_T",
    "MAX_OF_T_SUM",
    "ExtremeFitRow",
    "fit_extremes",
    "hill_tail_index",
]

MAX_OF_T = "max-of-t"
MAX_OF_T_SUM = "max-of-t-sum"
STATISTICS = (MAX_OF_T, MAX_OF_T_SUM)

HILL_FRACTION = 0.05

# Frechet fit: Newton starts at shape c = 10, moves c or v by at most a
# factor e^2 a step, and stops once the Newton decrement (twice the
# likelihood it still expects to gain) is below the tolerance.  Past c = 1e5
# the shape 1/c is under 1e-5, where a maximum could beat the Gumbel limit by
# about n * 1e-10 in log-likelihood (the GEV shape's Fisher information at
# the Gumbel is 2.42 per observation), so the fit is taken as that limit.
_FRECHET_START_C = 10.0
_FRECHET_MAX_C = 1e5
_FRECHET_MAX_LOG_STEP = 2.0
_FRECHET_TOL = 1e-10
_FRECHET_MAX_ITER = 100


@dataclass(frozen=True)
class ExtremeFitRow:
    k: int
    nu: int
    median: float
    iqr: float
    ad_gumbel: float
    ad_frechet: float
    hill_index: float


def _draw_half(gen: np.random.Generator, n: int, nu: int, statistic: str) -> np.ndarray:
    """n independent copies of |X|, X the base statistic.

    A t variable is the normal variance mixture Z*sqrt(nu/V), V ~ chi2_nu, so
    given the two chi-squares T1 + T2 is N(0, nu/V1 + nu/V2).  With standard
    gammas G = V/2, |X| is |Z|*S: S = sqrt(nu/(2G)) for t and
    sqrt(nu/2 * (1/G1 + 1/G2)) for the sum, one normal per copy either way.
    """
    g = gen.standard_gamma(nu / 2.0, size=(1 if statistic == MAX_OF_T else 2, n))
    np.reciprocal(g, out=g)
    scale = g.sum(axis=0)  # 1/G, or 1/G1 + 1/G2
    scale *= nu / 2.0
    np.sqrt(scale, out=scale)
    z = gen.standard_normal(n)
    np.abs(z, out=z)
    z *= scale
    return z


def _draw_base(gen: np.random.Generator, count: int, k: int, nu: int, statistic: str) -> np.ndarray:
    """Maxima of `count` independent rows of k base statistics.

    Only a row's positive statistics can be its maximum, so only those are
    drawn.  The base statistic X is continuous and symmetric about 0, so its
    sign is a fair coin independent of |X|: among k i.i.d. copies the number
    of positive ones is m ~ Binomial(k, 1/2), and given m they are m i.i.d.
    copies of |X| (_draw_half).  A row with m >= 1 has the maximum of its m
    draws; a row with m = 0 (probability 2^-k) has k negative draws, whose
    maximum is minus the minimum of k copies of |X|.  The law of every
    maximum is exactly that of k full draws, from about half the variates.
    """
    m = gen.binomial(k, 0.5, size=count)
    negative = m == 0
    m[negative] = k
    x = _draw_half(gen, int(m.sum()), nu, statistic)
    if negative.any():
        np.negative(x, out=x, where=np.repeat(negative, m))
    return np.maximum.reduceat(x, np.cumsum(m) - m)


def _sample_maxima(
    k: int, nu: int, statistic: str, replications: int, rng: RandomStream
) -> np.ndarray:
    """Maxima of `replications` independent rows of k base draws.

    Rows are drawn in map_blocks' blocks of about 2^19 t variables (k, or
    2k for the sum, per row), block b from ``rng.substream(b)`` by one
    _draw_base call, so the maxima depend on the inputs alone, not on the
    CPU count.
    """
    per_rep = k if statistic == MAX_OF_T else 2 * k

    def block(stream: RandomStream, n: int) -> np.ndarray:
        return _draw_base(stream.generator, n, k, nu, statistic)

    return np.concatenate(map_blocks(block, replications, per_rep, rng))


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


def hill_tail_index(sample: np.ndarray) -> float:
    """Hill estimate of the tail index from the top HILL_FRACTION of the order stats.

    Returns NaN when fewer than 20 positive observations are available
    (the estimate would be meaningless).
    """
    pos = np.sort(np.asarray(sample, dtype=float))
    pos = pos[pos > 0]
    if pos.size < 20:
        return float("nan")
    m = max(2, int(math.floor(HILL_FRACTION * pos.size)))  # <= pos.size - 1 as pos.size >= 20
    threshold = pos[-(m + 1)]
    gamma = float(np.mean(np.log(pos[-m:] / threshold)))
    return 1.0 / gamma


def _frechet_profile(x: np.ndarray, anchor: float, p: tuple[float, float]):
    """Frechet log-likelihood with the scale profiled out, and its derivatives.

    p = (log c, log v) puts the location at mu = anchor - d, d = c*v; the
    scale s solves s^c = n / sum (x - mu)^-c.  With t = log((x - mu)/d),
    w = softmax(-c*t) and r = 1/(x - mu), the profile is
    n log(c n / d) - n - n logsumexp(-c*t) - (1 + c) sum t.  Returns it, its
    gradient and Hessian in p, and (c, mu, s).
    """
    n = x.size
    c = math.exp(p[0])
    d = math.exp(p[0] + p[1])
    t = np.log1p((x - anchor) / d)
    r = 1.0 / (x - (anchor - d))
    a = -c * t
    a_max = a.max()
    e = np.exp(a - a_max)
    e_sum = e.sum()
    w = e / e_sum
    lse = a_max + math.log(e_sum)
    sum_t, sum_r = t.sum(), r.sum()
    t_bar, r_bar = w @ t, w @ r
    var_t = w @ (t * t) - t_bar * t_bar
    var_r = w @ (r * r) - r_bar * r_bar
    cov_rt = w @ (r * t) - r_bar * t_bar
    loglik = n * math.log(c * n / d) - n - n * lse - (1 + c) * sum_t
    # score and Hessian in (c, mu), then the chain rule to p: dc = c dp0,
    # dmu = -d (dp0 + dp1)
    g_c = n / c + n * t_bar - sum_t
    g_mu = -n * c * r_bar + (1 + c) * sum_r
    h_cc = -n / c**2 - n * var_t
    h_mumu = -n * c * (r_bar * r_bar + (1 + c) * var_r) + (1 + c) * (r @ r)
    h_cmu = -n * r_bar + n * c * cov_rt + sum_r
    h_11 = d * d * h_mumu - d * g_mu
    h_01 = h_11 - c * d * h_cmu
    h_00 = c * c * h_cc + c * g_c - 2 * c * d * h_cmu + h_11
    scale = math.exp(math.log(d) + (math.log(n) - lse) / c)
    return loglik, (c * g_c - d * g_mu, -d * g_mu), (h_00, h_01, h_11), (c, anchor - d, scale)


def _frechet_fit(maxima: np.ndarray, loc_g: float, scale_g: float) -> tuple[float, float, float]:
    """Maximum-likelihood Frechet (c, loc, scale), or (inf, loc_g, scale_g).

    Newton's method climbs the profile likelihood of _frechet_profile in
    (log c, log v), with loc = loc_g - c*v.  As c -> inf at fixed v the
    Frechet tends to a Gumbel with scale about v, so these coordinates turn
    the Gumbel limit into a straight ridge that Newton follows geometrically.
    It starts from the Gumbel fit (loc_g, scale_g) read as a Frechet with
    c = _FRECHET_START_C, doubled until loc lies below min(x).  A step is
    halved while it would put loc at or above min(x) or lower the
    likelihood.  The interior maximum is returned only if it beats the
    Gumbel likelihood; otherwise c = inf stands for the Gumbel limit.
    """
    x = np.asarray(maxima, dtype=float)
    z = (x - loc_g) / scale_g
    gumbel_loglik = -(x.size * math.log(scale_g) + z.sum() + np.exp(-z).sum())
    room = loc_g - x.min()  # loc < min(x) needs d = c*v > room
    c = _FRECHET_START_C
    while c * scale_g <= room:
        c *= 2.0
    p = (math.log(c), math.log(scale_g))
    loglik, g, h, params = _frechet_profile(x, loc_g, p)
    for _ in range(_FRECHET_MAX_ITER):
        h_00, h_01, h_11 = h
        det = h_00 * h_11 - h_01 * h_01
        if h_00 < 0 and det > 0:
            step = ((h_01 * g[1] - h_11 * g[0]) / det, (h_01 * g[0] - h_00 * g[1]) / det)
        else:  # not concave here: climb the gradient, scaled by the curvature
            step = (g[0] / abs(h_00), g[1] / abs(h_11))
        if step[0] * g[0] + step[1] * g[1] < _FRECHET_TOL:
            break
        shrink = min(1.0, _FRECHET_MAX_LOG_STEP / max(abs(step[0]), abs(step[1])))
        step = (shrink * step[0], shrink * step[1])
        for _ in range(40):
            q = (p[0] + step[0], p[1] + step[1])
            if math.exp(q[0] + q[1]) > room:
                trial = _frechet_profile(x, loc_g, q)
                if trial[0] >= loglik:
                    break
            step = (0.5 * step[0], 0.5 * step[1])
        else:  # no fraction of the step down to 2^-40 gains: rounding level
            break
        p = q
        loglik, g, h, params = trial
        if params[0] > _FRECHET_MAX_C:
            return math.inf, loc_g, scale_g
    if loglik <= gumbel_loglik:
        return math.inf, loc_g, scale_g
    return params


def _frechet_cdf(x: np.ndarray, c: float, loc: float, scale: float) -> np.ndarray:
    """exp(-((x - loc)/scale)^-c) above loc, 0 at and below it."""
    y = (np.asarray(x, dtype=float) - loc) / scale
    out = np.zeros_like(y)
    above = y > 0
    with np.errstate(over="ignore"):  # y^-c = inf gives the correct 0
        out[above] = np.exp(-y[above] ** -c)
    return out


def _fit_row(k: int, nu: int, statistic: str, replications: int, rng: RandomStream) -> ExtremeFitRow:
    maxima = _sample_maxima(k, nu, statistic, replications, rng)
    q25, q50, q75 = np.percentile(maxima, [25, 50, 75])
    loc_g, scale_g = stats.gumbel_r.fit(maxima)
    ad_gumbel = ad_distance(maxima, lambda x: stats.gumbel_r.cdf(x, loc_g, scale_g))
    c_f, loc_f, scale_f = _frechet_fit(maxima, loc_g, scale_g)
    if math.isinf(c_f):
        ad_frechet = ad_gumbel
    else:
        ad_frechet = ad_distance(maxima, lambda x: _frechet_cdf(x, c_f, loc_f, scale_f))
    return ExtremeFitRow(
        k=k,
        nu=nu,
        median=float(q50),
        iqr=float(q75 - q25),
        ad_gumbel=ad_gumbel,
        ad_frechet=ad_frechet,
        hill_index=hill_tail_index(maxima),
    )


def fit_extremes(
    ks: Iterable[int],
    schedule: ScheduleSpec,
    statistic: str,
    replications: int,
    rng: RandomStream,
) -> tuple[ExtremeFitRow, ...]:
    """Maxima fits at each (k, nu) of ``schedule.grid(ks)``; row k draws from ``rng.substream(k)``.

    Every argument is checked before the first draw.  Both fits are maximum
    likelihood: the Gumbel by ``scipy.stats.gumbel_r``, the Frechet by
    profile-likelihood Newton (_frechet_fit).  When no interior Frechet
    maximum beats the Gumbel fit, the Frechet fit is its Gumbel limit and
    ``ad_frechet`` equals ``ad_gumbel``.
    """
    grid = schedule.grid(ks)
    if statistic not in STATISTICS:
        raise ValueError(f"statistic must be one of {STATISTICS}, got {statistic!r}")
    # at least 100 maxima for stable fits
    replications = _check_count(replications, "replications", least=100, most=_ARRAY_LIMIT)
    # one replication of the largest k is drawn as a single row
    width = 1 if statistic == MAX_OF_T else 2
    _check_count(width * grid[-1][0], "the draws per maximum (k, or 2k for the sum)",
                 most=_ARRAY_LIMIT)
    return tuple(_fit_row(k, nu, statistic, replications, rng.substream(k)) for k, nu in grid)
