"""Diagnostics for maxima of triangular arrays of Student-t draws.

For each k the array draws k i.i.d. copies of a base statistic (a single
t variable, or a sum of two independent t variables) whose degrees of
freedom may themselves depend on k, and records the sample maximum.  The
maximum of k draws has CDF F^k, so each row takes one uniform u and
returns F^-1(u^(1/k)) (see _row_maxima): stdtrit for the t, exact.  At
nu = 1 the sum is Cauchy with scale 2, so its quantile is twice stdtrit's,
exact too.  At nu >= 2 the sum's is Rinott's constant at p = u, read from
a Chebyshev table of the solver's pairwise tail integral.  That integral
stops at 1e-12 tail mass, so there the law of a sum's maximum is off by
up to about k * 1e-12 in probability, as is the solver's.  With nu fixed
the classical theory applies (regularly varying tails, Frechet domain);
when nu grows with k the limiting law is unresolved, so this module only
emits per-k fit diagnostics: location/spread summaries, Anderson-Darling
distances to best-fit Gumbel and Frechet, and a Hill-style tail-index
estimate.  No limit claim is made.

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
from functools import lru_cache
from typing import Callable, Iterable, NamedTuple

import numpy as np
from numpy.polynomial import Chebyshev
from numpy.polynomial.chebyshev import chebval, chebvander
from scipy import stats
from scipy.special import stdtrit

from ranksel.distributions import (
    _ARRAY_LIMIT, RandomStream, ScheduleSpec, _check_choice, _check_count,
)
from ranksel.hconst import RINOTT, HEquationSpec, SolverError, dd_prob_with_slope, solve_h

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

# max-of-t-sum at nu >= 2 inverts qbar(x) = P(T1 + T2 > x) through a
# Chebyshev series of log qbar in s = asinh(x), on [0, x_end] with
# qbar(x_end) = _TABLE_TAIL.  The end is the tail value itself, not a bound
# on it: for nu >= 3, x_end = -2 stdtrit(nu, _TABLE_TAIL / 2) lies past the
# integration cutoff (_tail_cutoff), where the integral drops the large-T2
# mass within a unit span of x, a kink the series cannot follow (log error
# 1e-2 at nu = 3 to 8).  The series has n = 64 coefficients, or 6 per unit
# of s where that is more: for nu >= 3 the table spans at most 9.4 in s,
# nu = 2 spans 13.3.
# Each integral gives its h-slope from the same nodes, so the series is the
# degree 2m - 1 interpolant of the values and s-slopes of log qbar at
# m = ceil(n/2) + 2 Chebyshev points: m integrals where values alone took n.
# Its largest log error against dd_prob, on 801 points, is 3.4e-13 at nu = 2,
# 4.7e-12 at nu = 3 and 4, 5.0e-12 at nu = 6, 1.5e-12 at nu = 8 and 2e-14 at
# nu = 100 and 1e6, below the n-value interpolant's at each.
_TABLE_TAIL = 1e-11
_TABLE_NODES = 64
_TABLE_NODES_PER_S = 6
_TABLE_GRID = 1024
# Newton's method in s stops once its error bound is below _NEWTON_TOL (x to
# 1e-13 relative), and raises SolverError when it is not after
# _NEWTON_MAX_STEPS passes.  Newton's error after a step is at most K e^2, e
# the error before it and K = max|series''| / (2 min|slope|); a step that
# moves s by d then leaves at most K (2d)^2, since e <= d + K e^2 <= 2d while
# K e <= 1/2.  The table keeps twice K as read on its grid, a margin: for
# every nu tried, K there lies within 1e-4 of K on a grid 40 times as fine.
# The first step from _grid_inverse moves s by at most 3.6e-10 (nu = 2;
# 6.6e-11 at nu = 4), which bounds the error after it by 1e-18, so one pass
# settles every row.
_NEWTON_TOL = 1e-13
_NEWTON_MAX_STEPS = 50

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


class _SumTable(NamedTuple):
    """log qbar(sinh s) on [0, s_end], the grid the Newton inversion starts from and its K."""

    series: Chebyshev  # log qbar(sinh s)
    slope: Chebyshev  # its derivative in s
    grid_s: np.ndarray  # _TABLE_GRID + 1 equal steps over [0, s_end]
    grid_y: np.ndarray  # the series there, falling from log qbar(0) = log 1/2
    grid_slope: np.ndarray  # the slope there
    coef: np.ndarray  # series and slope coefficients as the columns of one (n, 2) array
    newton_k: float  # max|series''| / min|slope| on the grid: twice Newton's K


@lru_cache(maxsize=None)
def _sum_table(nu: int) -> _SumTable:
    """log qbar(sinh s) on [0, asinh(x_end)] as a Chebyshev series, its slope and a start grid.

    qbar(x) = P(T1 + T2 > x) = dd_prob(-x, 1, nu), the integral solve_h
    reads.  The series matches its values and slopes at m Chebyshev points
    (_hermite_series); n and m are set out above _TABLE_TAIL.  The table
    ends where qbar is _TABLE_TAIL: the sum's lower _TABLE_TAIL quantile is
    -x_end, and P(T1 - T2 <= -x_end) = _TABLE_TAIL is Rinott's equation at
    k = 1.
    """
    s_end = math.asinh(-solve_h(HEquationSpec(1, nu, _TABLE_TAIL, RINOTT)).value)
    n = max(_TABLE_NODES, math.ceil(_TABLE_NODES_PER_S * s_end))
    series = _hermite_series(nu, s_end, (n + 1) // 2 + 2)
    slope = series.deriv()
    grid_s = np.linspace(0.0, s_end, _TABLE_GRID + 1)
    grid_slope = slope(grid_s)
    coef = np.zeros((series.coef.size, 2))  # a trailing 0 leaves Clenshaw's bits alone
    coef[:, 0] = series.coef
    coef[:-1, 1] = slope.coef
    newton_k = float(np.abs(slope.deriv()(grid_s)).max() / np.abs(grid_slope).min())
    return _SumTable(series, slope, grid_s, series(grid_s), grid_slope, coef, newton_k)


def _hermite_series(nu: int, s_end: float, m: int) -> Chebyshev:
    """The degree 2m - 1 series of log qbar(sinh s) on [0, s_end] through m values and slopes.

    The points are the m Chebyshev points z_i of the first kind, s = (z + 1)
    s_end / 2.  The coefficients solve the confluent system whose rows are
    T_j(z_i) against the values and T_j'(z_i) = j U_{j-1}(z_i) against the
    slopes in z, U by its three-term recurrence.
    """
    z = np.cos((np.arange(m) + 0.5) * (math.pi / m))
    rhs = np.empty(2 * m)
    for i, v in enumerate((z + 1.0) * (0.5 * s_end)):
        prob, slope = dd_prob_with_slope(-math.sinh(v), 1, nu)
        # qbar(x) = P_1(-x): d log qbar / dz = -P_1'(-x) cosh(s) / qbar * s_end / 2
        rhs[i] = math.log(prob)
        rhs[m + i] = -slope * math.cosh(v) / prob * (0.5 * s_end)
    rows = np.empty((2 * m, 2 * m))
    rows[:m] = chebvander(z, 2 * m - 1)
    rows[m:, 0] = 0.0
    u_before, u = np.zeros(m), np.ones(m)  # U_{j-2}, U_{j-1}
    for j in range(1, 2 * m):
        rows[m:, j] = j * u
        u_before, u = u, 2.0 * z * u - u_before
    return Chebyshev(np.linalg.solve(rows, rhs), domain=[0.0, s_end])


def _grid_inverse(table: _SumTable, y: np.ndarray) -> np.ndarray:
    """s in [0, s_end] near series(s) = y: the cubic Hermite inverse of the table's grid.

    On the grid step around y, s is the cubic in y that matches s and
    ds/dy = 1/slope at both ends; a y outside the grid takes its nearer end.
    """
    grid_y, grid_s, grid_slope = table.grid_y[::-1], table.grid_s[::-1], table.grid_slope[::-1]
    i = np.clip(np.searchsorted(grid_y, y), 1, grid_y.size - 1)
    width = grid_y[i] - grid_y[i - 1]
    t = np.clip((y - grid_y[i - 1]) / width, 0.0, 1.0)
    t2 = t * t
    s = (t2 * (3.0 - 2.0 * t)) * (grid_s[i] - grid_s[i - 1]) + grid_s[i - 1]
    s += (t - t2) * ((1.0 - t) * width / grid_slope[i - 1] - t * width / grid_slope[i])
    return np.clip(s, 0.0, table.grid_s[-1], out=s)


def _series_and_slope(table: _SumTable, s: np.ndarray) -> np.ndarray:
    """table.series(s) and table.slope(s) as the rows of one array, from one Clenshaw pass.

    chebval runs the two columns of table.coef side by side, the same
    operations on each as the two calls, so the rows equal their bits.
    """
    off, scl = table.series.mapparms()
    return chebval(off + scl * s, table.coef)


def _sum_tail_quantile(tail: np.ndarray, nu: int) -> tuple[np.ndarray, np.ndarray]:
    """x >= 0 with qbar(x) = tail for tails in (0, 1/2], and the mask of tails past the table.

    At nu = 1, T1 + T2 is Cauchy with scale 2: x = -2 stdtrit(1, tail),
    exact, and no tail is past a table.  Otherwise Newton's method on the
    series of _sum_table in s = asinh(x), from the cubic Hermite inverse of
    its grid, clipped to the table; each pass evaluates the series and its
    slope together (_series_and_slope).  It stops once K (2d)^2 <=
    _NEWTON_TOL, d the largest distance a pass moved s after the clip and K
    the table's newton_k (Newton's K with a margin of 2): a bound on the
    error left, which holds after one pass from the grid inverse.  It
    raises SolverError when the bound has not held after _NEWTON_MAX_STEPS
    passes.  A tail below the table's last value is left at the table's
    end, for the caller to solve.
    """
    if nu == 1:
        return -2.0 * stdtrit(1, tail), np.zeros(tail.shape, dtype=bool)
    table = _sum_table(nu)
    y = np.log(tail)
    past = y < table.grid_y[-1]
    s = _grid_inverse(table, y)
    for _ in range(_NEWTON_MAX_STEPS):
        value, slope = _series_and_slope(table, s)
        step = (value - y) / slope
        step[past] = 0.0
        # the series at s = 0 can lie below log 1/2 (by 5.3e-12 at nu = 4):
        # at tail 1/2 the step leaves s below 0 and the clip takes it back,
        # so only the distance moved can end the loop
        new = np.clip(s - step, 0.0, table.grid_s[-1])
        moved = np.abs(new - s).max(initial=0.0)
        s = new
        if table.newton_k * (2.0 * moved) ** 2 <= _NEWTON_TOL:
            return np.sinh(s), past
    raise SolverError(
        f"Newton's method on the nu = {nu} sum table left an error bound above "
        f"{_NEWTON_TOL:g} after {_NEWTON_MAX_STEPS} steps"
    )


def _row_maxima(u: np.ndarray, k: int, nu: int, statistic: str) -> np.ndarray:
    """The maxima of k base statistics at the uniforms u: F^-1(u^(1/k)), F the base CDF.

    The maximum of k i.i.d. draws has CDF F^k.  Its upper tail
    1 - u^(1/k) = -expm1(log(u)/k) is taken at full precision; above 1/2
    the maximum is negative and, F being symmetric, minus the point whose
    upper tail is u^(1/k).  For max-of-t that point is -stdtrit(nu, tail).
    For max-of-t-sum it is _sum_tail_quantile's (closed form at nu = 1),
    and a tail past the table's end is solved exactly as Rinott's
    constant: u^(1/k) is the pairwise probability P(T1 - T2 <= x), so the
    maximum is solve_h(HEquationSpec(k, nu, u, RINOTT)).
    """
    log_root = np.log(u) / k
    tail = -np.expm1(log_root)
    below = tail > 0.5
    tail[below] = np.exp(log_root[below])
    if statistic == MAX_OF_T:
        x = -stdtrit(nu, tail)
    else:
        x, past = _sum_tail_quantile(tail, nu)
    np.negative(x, out=x, where=below)
    if statistic == MAX_OF_T_SUM:
        for i in np.flatnonzero(past):
            x[i] = solve_h(HEquationSpec(k, nu, float(u[i]), RINOTT)).value
    return x


def _draw_base(gen: np.random.Generator, count: int, k: int, nu: int, statistic: str) -> np.ndarray:
    """Maxima of `count` independent rows of k base statistics, one uniform per row.

    The uniforms are multiples of 2^-53 in [2^-53, 1 - 2^-53], so u and
    1 - u are both exact and neither tail of a maximum's law rounds away;
    _row_maxima inverts the law of the maximum at each.
    """
    return _row_maxima(gen.integers(1, 2**53, size=count) * 2.0**-53, k, nu, statistic)


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

    Returns NaN when fewer than 20 positive observations are available, or
    when the top m + 1 order statistics tie, so that the log spacings the
    estimate averages are all 0 (the estimate would be meaningless).
    """
    pos = np.sort(np.asarray(sample, dtype=float))
    pos = pos[pos > 0]
    if pos.size < 20:
        return float("nan")
    m = max(2, int(math.floor(HILL_FRACTION * pos.size)))  # <= pos.size - 1 as pos.size >= 20
    threshold = pos[-(m + 1)]
    gamma = float(np.mean(np.log(pos[-m:] / threshold)))
    return 1.0 / gamma if gamma > 0.0 else float("nan")


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
    maxima = _draw_base(rng.generator, replications, k, nu, statistic)
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
    _check_choice(statistic, STATISTICS, "statistic")
    # at least 100 maxima for stable fits
    replications = _check_count(replications, "replications", least=100, most=_ARRAY_LIMIT)
    # no maximum draws its k statistics any more, but at nu >= 2 the sum's
    # maxima read the solver's integral, whose 1e-12 tail cutoff puts the law
    # of a maximum off by up to about k * 1e-12 in probability (nu = 1 sums
    # are exact): the old bound of 2^24 statistics per maximum keeps that
    # below 2e-5
    width = 1 if statistic == MAX_OF_T else 2
    _check_count(width * grid[-1][0], "the draws per maximum (k, or 2k for the sum)",
                 most=_ARRAY_LIMIT)
    return tuple(_fit_row(k, nu, statistic, replications, rng.substream(k)) for k, nu in grid)
