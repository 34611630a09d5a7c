"""Maxima-of-t diagnostics: sampling, fit distances, tail index."""

import math

import numpy as np
import pytest
from numpy.polynomial.chebyshev import chebval
from scipy import stats
from scipy.optimize import brentq
from scipy.special import stdtr, stdtrit

import ranksel.extremes as extremes
import ranksel.hconst as hconst
from ranksel.distributions import RandomStream, ScheduleSpec
from ranksel.extremes import (
    MAX_OF_T,
    MAX_OF_T_SUM,
    STATISTICS,
    _draw_base,
    _frechet_fit,
    _row_maxima,
    ad_distance,
    fit_extremes,
    hill_tail_index,
)
from ranksel.hconst import RINOTT, HEquationSpec, SolverError, _dd_integral, dd_prob, solve_h

SEED = 20260814


NU3 = ScheduleSpec("constant", 3)


# each refused before any draw: (ks, schedule, statistic, replications)
REFUSED = {
    "empty": ((), NU3, MAX_OF_T, 1000),
    "descending": ((10, 5), NU3, MAX_OF_T, 1000),
    "repeated": ((5, 5), NU3, MAX_OF_T, 1000),
    "k0": ((0, 5), NU3, MAX_OF_T, 1000),
    "statistic": ((5, 10), NU3, "max-of-chi2", 1000),
    "replications": ((5, 10), NU3, MAX_OF_T, 99),
    "replications-limit": ((5, 10), NU3, MAX_OF_T, 2**24 + 1),
    "k-limit": ((5, 2**24 + 1), NU3, MAX_OF_T, 100),
    "2k-limit": ((5, 2**23 + 1), NU3, MAX_OF_T_SUM, 100),
}


@pytest.mark.parametrize("case", REFUSED)
def test_fit_extremes_refuses_before_any_draw(monkeypatch, case):
    def no_draw(*args):
        raise AssertionError("drew before refusing")

    monkeypatch.setattr(extremes, "_draw_base", no_draw)
    with pytest.raises(ValueError):
        fit_extremes(*REFUSED[case], RandomStream(0))


def test_fit_extremes_limits_admit_their_bound():
    # k = 2^24 (2^23 for the sum) passes the checks and gives finite rows; the
    # old sampler drew about 1.7e9 variates for these 200 maxima
    for k, statistic in ((2**24, MAX_OF_T), (2**23, MAX_OF_T_SUM)):
        (row,) = fit_extremes((k,), NU3, statistic, 100, RandomStream(0))
        assert row.k == k and row.iqr > 0
        for value in (row.median, row.iqr, row.ad_gumbel, row.ad_frechet, row.hill_index):
            assert math.isfinite(value), row


def test_sample_maxima_call_draw_base_once_per_row(monkeypatch):
    # the benchmark tallies extremes draws as count * k * width from each
    # _draw_base(gen, count, k, nu, statistic) call: one call per row, on the
    # row's stream, all arguments positional, so bulk-mc's extremes command
    # tallies k * replications * 2 = 22 200 000 base statistics
    draw, calls = extremes._draw_base, []

    def record(*args, **kwargs):
        assert not kwargs and len(args) == 5
        # the generator's state before the row draws, to compare with a fresh stream
        calls.append((args[0].bit_generator.state,) + args[1:])
        return draw(*args)

    monkeypatch.setattr(extremes, "_draw_base", record)
    ks, schedule, rng = (10, 100, 1000), ScheduleSpec("log-growth"), RandomStream(1)
    grid = schedule.grid(ks)
    rows = fit_extremes(ks, schedule, MAX_OF_T_SUM, 10**4, rng)
    assert [(row.k, row.nu) for row in rows] == grid
    assert calls == [(rng.substream(k).generator.bit_generator.state, 10**4, k, nu, MAX_OF_T_SUM)
                     for k, nu in grid]
    assert sum(n * k * 2 for _, n, k, *_ in calls) == 22_200_000


def test_max_of_t_maxima_follow_exact_law():
    # P(max of k t_nu draws <= x) = G_nu(x)^k
    k, nu = 1000, 3
    maxima = _draw_base(RandomStream(SEED).substream(9).generator, 20_000, k, nu, MAX_OF_T)
    assert stats.kstest(maxima, lambda x: stdtr(nu, x) ** k).pvalue > 0.001


def _direct_maxima(gen, count, k, nu, statistic):
    """Maxima of `count` rows of k base statistics, drawn directly: the test oracle.

    Only a row's positive statistics can be its maximum.  The number of
    positive ones among k is m ~ Binomial(k, 1/2), and given m they are m
    i.i.d. copies of |X| = |Z| * S, Z standard normal and S = sqrt(nu/(2G))
    for t, sqrt(nu/2 * (1/G1 + 1/G2)) for the sum, G standard gamma(nu/2)
    (a t variable is a normal variance mixture).  A row with m = 0 has minus
    the minimum of k copies of |X|.
    """
    m = gen.binomial(k, 0.5, size=count)
    negative = m == 0
    m[negative] = k
    n = int(m.sum())
    g = gen.standard_gamma(nu / 2.0, size=(1 if statistic == MAX_OF_T else 2, n))
    scale = np.sqrt(nu / 2.0 * (1.0 / g).sum(axis=0))
    x = np.abs(gen.standard_normal(n)) * scale
    np.negative(x, out=x, where=np.repeat(negative, m))
    return np.maximum.reduceat(x, np.cumsum(m) - m)


# CDFs of the two base statistics: P(T1 + T2 <= x) = P(T2 - T1 <= x) = dd_prob(x, 1, nu)
BASE_CDF = {MAX_OF_T: lambda x, nu: stdtr(nu, x), MAX_OF_T_SUM: lambda x, nu: dd_prob(x, 1, nu)}
# both sides of 0: at k = 1 and 2 a half and a quarter of the maxima are
# negative, from the mirrored branch of _row_maxima
LAW_POINTS = (-8.0, -3.0, -1.0, -0.25, 0.0, 0.5, 1.5, 3.0, 8.0, 30.0, 200.0)
LAW_KS = (1, 2, 100, 1000)


def _assert_counts_follow(sample, cdf):
    # each count of draws at or below x must lie in its exact binomial
    # interval (level 1e-6 per point)
    for x in LAW_POINTS:
        law = cdf(x)
        lo, hi = stats.binom.interval(1 - 1e-6, sample.size, law)
        assert lo <= np.count_nonzero(sample <= x) <= hi, (x, law)


@pytest.mark.parametrize("nu", [1, 3, 8])
def test_draw_base_t_sum_follows_exact_law(nu):
    # a row maximum of k sums has CDF dd_prob(x, 1, nu)^k
    for k in LAW_KS:
        gen = RandomStream(5).substream(4, nu, k).generator
        maxima = extremes._draw_base(gen, 20_000, k, nu, MAX_OF_T_SUM)
        assert maxima.shape == (20_000,)
        _assert_counts_follow(maxima, lambda x: dd_prob(x, 1, nu) ** k)


@pytest.mark.parametrize("nu", [1, 3, 8])
def test_draw_base_t_follows_exact_law(nu):
    # a row maximum of k t draws has CDF stdtr(nu, x)^k
    for k in LAW_KS:
        maxima = extremes._draw_base(RandomStream(6).substream(nu, k).generator, 20_000, k, nu,
                                     MAX_OF_T)
        _assert_counts_follow(maxima, lambda x: stdtr(nu, x) ** k)


@pytest.mark.parametrize("statistic", [MAX_OF_T, MAX_OF_T_SUM])
@pytest.mark.parametrize("k, nu", [(1, 1), (2, 3), (100, 8), (1000, 3), (1000, 1)])
def test_draw_base_matches_direct_sampler(statistic, k, nu):
    # the inverted law against the direct draws of k statistics a row
    # (two-sample Kolmogorov-Smirnov)
    new = extremes._draw_base(RandomStream(8).substream(k, nu).generator, 10**4, k, nu, statistic)
    old = _direct_maxima(RandomStream(9).substream(k, nu).generator, 10**4, k, nu, statistic)
    assert stats.ks_2samp(new, old).pvalue > 0.001


@pytest.mark.parametrize("statistic", [MAX_OF_T, MAX_OF_T_SUM])
@pytest.mark.parametrize("nu", [1, 3, 8])
def test_draw_half_follows_half_law(statistic, nu):
    # at k = 1 a maximum is one base draw X, from the upper branch of
    # _row_maxima when X >= 0 and the mirrored one otherwise: |X| must have
    # CDF 2 F(x) - 1 for x >= 0, and u and 1 - u (both exact) give mirror images
    cdf = BASE_CDF[statistic]
    draws = extremes._draw_base(RandomStream(7).substream(nu).generator, 10**5, 1, nu, statistic)
    _assert_counts_follow(np.abs(draws), lambda x: max(0.0, 2.0 * cdf(x, nu) - 1.0))
    u = np.array([1, 2**20, 2**40, 2**51, 3 * 2**50]) * 2.0**-53
    upper = _row_maxima(1.0 - u, 1, nu, statistic)
    assert (upper > 0).all()
    np.testing.assert_allclose(_row_maxima(u, 1, nu, statistic), -upper, rtol=1e-9)


def _tail_at(u, k):
    """The tail _row_maxima inverts at u and whether it mirrored: (1 - u^(1/k), False) or (u^(1/k), True)."""
    tail = -math.expm1(math.log(u) / k)
    return (math.exp(math.log(u) / k), True) if tail > 0.5 else (tail, False)


@pytest.mark.parametrize("nu", [2, 3, 8])
def test_sum_maxima_meet_rinott_equation(nu):
    # each maximum x solves P(T1 - T2 <= x)^k = u at its own u to solve_h's
    # p-space tolerance; inside the table its pairwise tail is within 1e-9
    # of the integral's, and past the table x is solve_h's own root
    gen = RandomStream(10).substream(nu).generator
    u = gen.integers(1, 2**53, size=200) * 2.0**-53
    u = np.concatenate((u, [2.0**-53, 1e-6, 0.5, 1 - 1e-6, 1 - 2.0**-53]))
    grid_y = extremes._sum_table(nu).grid_y
    for k in LAW_KS:
        maxima = _row_maxima(u.copy(), k, nu, MAX_OF_T_SUM)
        for x, ui in zip(maxima, u):
            tail, mirrored = _tail_at(ui, k)
            assert (x < 0) == mirrored
            pairwise = _dd_integral(-abs(x), 1, nu)[0]  # the tail beyond |x|
            implied = pairwise ** k if mirrored else math.exp(k * math.log1p(-pairwise))
            assert abs(implied - ui) < 1e-8, (k, ui, x)
            if math.log(tail) >= grid_y[-1]:
                assert abs(pairwise / tail - 1.0) <= 1e-9, (k, ui, x)
            else:
                assert x == solve_h(HEquationSpec(k, nu, float(ui), RINOTT)).value


def test_nu_1_sum_maxima_are_cauchy(monkeypatch):
    # T1 + T2 at nu = 1 is Cauchy with scale 2: each maximum is -2 stdtrit(1, tail)
    # bit for bit, mirrored where the tail u^(1/k) is above 1/2 (u below 2^-k),
    # with no table, integral or solve, so no solver error can arise
    def refuse(*args):
        raise AssertionError("computed at nu = 1")

    monkeypatch.setattr(hconst, "_dd_integral", refuse)
    monkeypatch.setattr(extremes, "_sum_table", refuse)
    monkeypatch.setattr(extremes, "solve_h", refuse)
    u = np.concatenate((RandomStream(11).generator.integers(1, 2**53, size=2000) * 2.0**-53,
                        [2.0**-53, 1e-6, 0.25, 0.5, 0.75, 1 - 1e-6, 1 - 2.0**-53]))
    for k in (1, 2, 1000, 2**23):
        log_root = np.log(u) / k
        tail = -np.expm1(log_root)
        below = tail > 0.5
        tail[below] = np.exp(log_root[below])
        assert below.any() == (k <= 2) and not below.all()
        cauchy = -2.0 * stdtrit(1, tail)
        cauchy[below] = -cauchy[below]
        assert np.array_equal(_row_maxima(u.copy(), k, 1, MAX_OF_T_SUM), cauchy), k
    rows = fit_extremes((1, 10, 1000), ScheduleSpec("constant", 1), MAX_OF_T_SUM, 1000,
                        RandomStream(3))
    assert [row.nu for row in rows] == [1, 1, 1]


@pytest.mark.parametrize("statistic", [MAX_OF_T, MAX_OF_T_SUM])
@pytest.mark.parametrize("nu", [1, 3, 8, 10**6])
def test_row_maxima_finite_at_extreme_uniforms(statistic, nu):
    # the smallest and largest uniforms _draw_base makes, at k from 1 to 2^23
    u = np.array([2.0**-53, 1.0 - 2.0**-53])
    for k in (1, 2, 1000, 2**23):
        maxima = _row_maxima(u.copy(), k, nu, statistic)
        assert np.isfinite(maxima).all() and maxima[0] < maxima[1], (k, maxima)


def test_sum_maxima_past_the_table_are_solved(monkeypatch):
    # u = 1 - 2^-53 at k = 1000 leaves a pairwise tail of 1.1e-19, past the
    # table's 1e-11: that maximum alone goes to solve_h
    k, nu = 1000, 4
    extremes._sum_table(nu)  # built first: its end is a solve_h call of its own
    solve, specs = extremes.solve_h, []

    def record(spec):
        specs.append(spec)
        return solve(spec)

    monkeypatch.setattr(extremes, "solve_h", record)
    u = np.array([0.3, 1.0 - 2.0**-53, 0.9])
    maxima = _row_maxima(u.copy(), k, nu, MAX_OF_T_SUM)
    assert specs == [HEquationSpec(k, nu, 1.0 - 2.0**-53, RINOTT)]
    assert maxima[1] == solve(specs[0]).value > maxima[2] > maxima[0]


# the largest log error of each nu's table against dd_prob, on 801 equal steps
# in s, as the 64-value interpolant read it
HEAD_TABLE_LOG_ERROR = {2: 3.1e-12, 3: 1.8e-11, 4: 1.8e-11, 8: 6.1e-12, 100: 1.1e-12,
                        10**6: 9.8e-13}


@pytest.mark.parametrize("nu", HEAD_TABLE_LOG_ERROR)
def test_sum_table_follows_the_integral(nu):
    table = extremes._sum_table(nu)
    s = np.linspace(0.0, table.grid_s[-1], 801)
    exact = np.log([dd_prob(-math.sinh(v), 1, nu) for v in s])
    assert np.abs(table.series(s) - exact).max() <= HEAD_TABLE_LOG_ERROR[nu]
    assert np.array_equal(table.grid_y, table.series(table.grid_s))
    assert np.array_equal(table.grid_slope, table.slope(table.grid_s))
    # Newton's K, read on the grid with its margin, covers K on a grid 40 times as fine
    fine = np.linspace(0.0, table.grid_s[-1], 40 * extremes._TABLE_GRID + 1)
    k_fine = np.abs(table.slope.deriv()(fine)).max() / (2 * np.abs(table.slope(fine)).min())
    assert k_fine <= table.newton_k


def test_sum_table_takes_slopes_where_its_end_allows():
    # nu = 2, the widest table, ends at x = 3.0e5 (s = 13.3): n = 6 * 13.3 -> 80
    # and it matches m = 42 values and slopes, degree 83
    table = extremes._sum_table(2)
    assert 13.3 < table.grid_s[-1] < 13.4
    assert table.series.degree() == 83


def test_sum_table_integral_budget(monkeypatch):
    # on a cold integral cache the nu = 4 table asks for its end's solve and
    # m = 64/2 + 2 = 34 integrals, one per value and slope pair
    calls = []
    quadrature = hconst.panel_quadrature

    def counted(f, edges):
        calls.append(edges.size)
        return quadrature(f, edges)

    monkeypatch.setattr(hconst, "panel_quadrature", counted)
    _dd_integral.cache_clear()
    table = extremes._sum_table.__wrapped__(4)
    end = solve_h(HEquationSpec(1, 4, extremes._TABLE_TAIL, RINOTT))
    assert table.series.degree() == 2 * 34 - 1
    assert len(calls) <= 34 + end.iterations


def test_sum_tail_quantile_settles_where_the_clip_holds(monkeypatch):
    # series(0) lies 1.9e-12 (nu = 2) and 5.3e-12 (nu = 4) below log 1/2, so at
    # tail 1/2 every Newton step leaves s below 0 and the clip takes it back:
    # the row converges on the step the clip lets through, 0, not on the step
    # before the clip
    monkeypatch.setattr(extremes, "_NEWTON_MAX_STEPS", 3)
    for nu in (2, 4):
        x, past = extremes._sum_tail_quantile(np.full(10_000, 0.5), nu)
        assert (x == 0.0).all() and not past.any()


def test_sum_tail_quantile_raises_when_newton_runs_out(monkeypatch):
    # from the middle of the table, not the grid inverse, Newton needs more
    # than the one pass it is allowed
    monkeypatch.setattr(extremes, "_NEWTON_MAX_STEPS", 1)
    monkeypatch.setattr(extremes, "_grid_inverse",
                        lambda table, y: np.full(y.shape, 0.5 * table.grid_s[-1]))
    with pytest.raises(SolverError, match="nu = 4"):
        extremes._sum_tail_quantile(np.geomspace(1e-10, 0.4, 1000), 4)


@pytest.mark.parametrize("nu", [2, 4, 100])
def test_series_and_slope_equal_the_two_series(nu):
    table = extremes._sum_table(nu)
    s = np.concatenate((RandomStream(nu).generator.uniform(0.0, table.grid_s[-1], 10_000),
                        table.grid_s))
    value, slope = extremes._series_and_slope(table, s)
    assert np.array_equal(value, table.series(s))
    assert np.array_equal(slope, table.slope(s))


def _newton_in_extended_precision(table, y, past):
    """The root in s of the series at each y, by Newton's method on long doubles."""
    off, scl = (np.longdouble(v) for v in table.series.mapparms())
    coef = table.series.coef.astype(np.longdouble)
    slope = table.slope.coef.astype(np.longdouble)
    s = extremes._grid_inverse(table, y).astype(np.longdouble)
    for _ in range(8):
        z = off + scl * s
        step = (chebval(z, coef) - y) / chebval(z, slope)
        step[past] = 0.0
        new = np.clip(s - step, 0.0, np.longdouble(table.grid_s[-1]))
        moved = float(np.abs(new - s).max())
        s = new
    assert moved < 1e-17
    return s


@pytest.mark.parametrize("nu", [2, 4, 8, 100])
def test_sum_tail_quantile_takes_one_pass_to_the_root(monkeypatch, nu):
    # one Newton pass from the grid inverse lands within 4 ulps in s of the
    # series' root, beyond the float series' own rounding: the largest
    # distance on these points between it and the long-double series, over
    # the slope.  The root is found by Newton on long doubles until its steps
    # are below 1e-17 (a float Newton cycles at rounding level in half the rows)
    if np.finfo(np.longdouble).eps > 2.0**-60:
        pytest.skip("long double is no wider than double here")
    table = extremes._sum_table(nu)
    tail = np.concatenate((np.geomspace(1e-12, 0.5, 3000),
                           RandomStream(nu).generator.uniform(0.0, 0.5, 3000)))
    y = np.log(tail)
    past = y < table.grid_y[-1]
    root = _newton_in_extended_precision(table, y, past)
    ref = root.astype(float)
    off, scl = (np.longdouble(v) for v in table.series.mapparms())
    exact = chebval(off + scl * root, table.series.coef.astype(np.longdouble))
    rounding = float(np.abs(table.series(ref) - exact).max())
    assert rounding < 2e-14

    passes = []
    series_and_slope = extremes._series_and_slope

    def counted(table, s):
        passes.append(s.size)
        return series_and_slope(table, s)

    monkeypatch.setattr(extremes, "_series_and_slope", counted)
    x, got_past = extremes._sum_tail_quantile(tail, nu)
    assert len(passes) == 1 and np.array_equal(got_past, past)
    tolerance = rounding / np.abs(table.slope(ref)) + 4 * np.spacing(ref)
    assert (np.abs(np.arcsinh(x) - ref) <= tolerance).all()


def test_draw_base_inverts_one_uniform_per_row():
    # the uniforms are gen.integers(1, 2^53) * 2^-53, one per row, in order
    for statistic in STATISTICS:
        got = extremes._draw_base(RandomStream(3).generator, 500, 10, 4, statistic)
        u = RandomStream(3).generator.integers(1, 2**53, size=500) * 2.0**-53
        assert np.array_equal(got, _row_maxima(u, 10, 4, statistic))


def test_sample_max_medians_rise_with_k_at_exact_law():
    # the median of a row maximum of k t_3 draws is stdtrit(3, 2^(-1/k)):
    # increasing in k, and each sample median must lie within its exact
    # binomial interval (level 1e-6)
    n, medians = 4001, []
    for k in (10, 100, 1000):
        maxima = _draw_base(RandomStream(77).substream(k).generator, n, k, 3, MAX_OF_T)
        exact = stdtrit(3, 0.5 ** (1.0 / k))
        lo, hi = stats.binom.interval(1 - 1e-6, n, 0.5)
        assert lo <= np.count_nonzero(maxima <= exact) <= hi, (k, exact)
        medians.append(np.median(maxima))
    assert medians[0] < medians[1] < medians[2]


def test_sum_statistic_is_symmetric():
    # at k = 1 a row maximum is one sum, symmetric around zero: its median is zero
    gen = RandomStream(SEED).substream(1).generator
    draws = extremes._draw_base(gen, 10**5, 1, 3, MAX_OF_T_SUM)
    # median se ~ 1/(2 f(0) sqrt(n)) = 0.0069, f(0) = 0.2297 for a sum of two t_3
    assert abs(np.median(draws)) < 3.0 * 0.0069
    assert abs(np.mean(draws < 0) - 0.5) < 3.0 * math.sqrt(0.25 / 10**5)
    # |T1 + T2| has median x with dd_prob(x, 1, 3) = 3/4, about 1.209, and
    # density 2 f(x) = 0.333 there: median se 0.0047
    x = brentq(lambda x: dd_prob(x, 1, 3) - 0.75, 0.0, 5.0)
    assert abs(np.median(np.abs(draws)) - x) < 3.0 * 0.0047


def test_hill_recovers_pareto_index():
    gen = np.random.Generator(np.random.PCG64(SEED))
    draws = gen.pareto(3.0, size=10**5) + 1.0  # tail index exactly 3
    est = hill_tail_index(draws)
    assert est == pytest.approx(3.0, rel=0.1)


def test_hill_insufficient_positives():
    assert math.isnan(hill_tail_index(np.full(100, -1.0)))
    assert math.isnan(hill_tail_index(np.arange(1, 15, dtype=float)))


def test_hill_tied_top_order_statistics():
    # at 100 positives the estimate reads the top m = 5 over the 6th: when all
    # six tie, every log spacing is 0 and there is no tail to measure
    assert math.isnan(hill_tail_index(np.ones(100)))
    assert math.isnan(hill_tail_index(np.concatenate((np.arange(1.0, 95.0), np.full(6, 99.0)))))
    assert math.isfinite(hill_tail_index(np.concatenate((np.arange(1.0, 96.0), np.full(5, 99.0)))))


def test_ad_distance_discriminates_families():
    gen = np.random.Generator(np.random.PCG64(SEED))
    sample = gen.gumbel(loc=2.0, scale=1.5, size=4000)
    loc, scale = stats.gumbel_r.fit(sample)
    good = ad_distance(sample, lambda x: stats.gumbel_r.cdf(x, loc, scale))
    bad = ad_distance(sample, lambda x: stats.norm.cdf(x, sample.mean(), sample.std()))
    assert 0.0 < good < 2.0
    assert bad > good
    with pytest.raises(ValueError):
        ad_distance(np.array([1.0]), stats.norm.cdf)


def test_fixed_nu_maxima_prefer_heavy_tail():
    # polynomial tails: the heavy-tailed family must fit better and the
    # advantage must grow with k
    rows = fit_extremes((10, 1000), NU3, MAX_OF_T, 10**4, RandomStream(SEED))
    by_k = {row.k: row for row in rows}
    assert by_k[1000].ad_frechet < by_k[1000].ad_gumbel
    assert by_k[1000].ad_frechet < by_k[10].ad_frechet
    # tail index of the base t_3 variable is 3; maxima inherit it
    assert by_k[1000].hill_index == pytest.approx(3.0, rel=0.35)
    assert by_k[10].median < by_k[1000].median


def _frechet_nll(x, c, loc, scale):
    """Negative log-likelihood of a Frechet fit; c = inf is the Gumbel limit.

    Written with log1p around loc + scale: at the c ~ 1e8 fits that scipy
    returns for Gumbel-domain samples, invweibull.nnlf loses ~1e-5 to
    rounding, more than the tolerance compared here.
    """
    if math.isinf(c):
        return stats.gumbel_r.nnlf((loc, scale), x)
    log_z = np.log1p((x - (loc + scale)) / scale)
    return (x.size * math.log(scale / c) + (1.0 + c) * log_z.sum()
            + np.exp(-c * log_z).sum())


# the bulk-mc extremes rows, fixed nu = 3, and three edge rows of 100 maxima
# (ks, schedule, statistic, replications), seed
FIT_CASES = {
    "bulk-mc": (((10, 100, 1000), ScheduleSpec("log-growth"), MAX_OF_T_SUM, 10**4), 1),
    "nu3": (((10, 1000), NU3, MAX_OF_T, 10**4), SEED),
    "cauchy-k1": (((1,), ScheduleSpec("constant", 1), MAX_OF_T, 100), 0),
    "nu1e6-k1": (((1,), ScheduleSpec("constant", 10**6), MAX_OF_T, 100), 0),
    "linear-sum-k2": (((2,), ScheduleSpec("linear"), MAX_OF_T_SUM, 100), 0),
}


@pytest.fixture(scope="module")
def case_rows():
    """A FIT_CASES entry's rows and each row's maxima, drawn once per module."""
    done = {}

    def get(case):
        if case not in done:
            args, seed = FIT_CASES[case]
            _, _, statistic, replications = args
            rows = fit_extremes(*args, RandomStream(seed))
            maxima = [_draw_base(RandomStream(seed).substream(row.k).generator, replications,
                                 row.k, row.nu, statistic) for row in rows]
            done[case] = rows, maxima
        return done[case]

    return get


@pytest.mark.parametrize("case", FIT_CASES)
def test_frechet_fit_matches_scipy_likelihood(case_rows, case):
    rows, samples = case_rows(case)
    for row, maxima in zip(rows, samples):
        loc_g, scale_g = stats.gumbel_r.fit(maxima)
        fit = _frechet_fit(maxima, loc_g, scale_g)
        nll = _frechet_nll(maxima, *fit)
        assert nll <= _frechet_nll(maxima, *stats.invweibull.fit(maxima)) + 1e-6
        assert nll <= _frechet_nll(maxima, math.inf, loc_g, scale_g)
        assert math.isfinite(row.ad_frechet)
        if math.isinf(fit[0]):
            assert row.ad_frechet == row.ad_gumbel


def test_frechet_fit_takes_gumbel_limit_on_normal_maxima():
    # normal maxima lie in the Gumbel domain: no finite shape beats the limit
    gen = np.random.Generator(np.random.PCG64(SEED))
    maxima = gen.standard_normal((10**4, 100)).max(axis=1)
    loc_g, scale_g = stats.gumbel_r.fit(maxima)
    fit = _frechet_fit(maxima, loc_g, scale_g)
    assert fit == (math.inf, loc_g, scale_g)
    assert _frechet_nll(maxima, *fit) <= _frechet_nll(maxima, *stats.invweibull.fit(maxima)) + 1e-6


def test_frechet_fit_keeps_gumbel_limit_over_a_worse_interior_point(monkeypatch):
    # three Newton steps leave the search at a finite shape whose likelihood is
    # still below the Gumbel fit's: the limit must win
    monkeypatch.setattr(extremes, "_FRECHET_MAX_ITER", 3)
    gen = np.random.Generator(np.random.PCG64(SEED))
    maxima = gen.standard_normal((10**3, 100)).max(axis=1)
    loc_g, scale_g = stats.gumbel_r.fit(maxima)
    assert _frechet_fit(maxima, loc_g, scale_g) == (math.inf, loc_g, scale_g)


def test_fit_columns_other_than_frechet_follow_from_the_maxima(case_rows):
    rows, samples = case_rows("bulk-mc")
    for row, maxima in zip(rows, samples):
        q25, q50, q75 = np.percentile(maxima, [25, 50, 75])
        loc_g, scale_g = stats.gumbel_r.fit(maxima)
        assert row.median == float(q50)
        assert row.iqr == float(q75 - q25)
        assert row.ad_gumbel == ad_distance(maxima, lambda x: stats.gumbel_r.cdf(x, loc_g, scale_g))
        assert row.hill_index == hill_tail_index(maxima)


def test_growing_nu_rows_stay_finite():
    # nu = k growth: no limit claim, diagnostics must still be well-defined
    rows = fit_extremes((5, 50), ScheduleSpec("linear"), MAX_OF_T_SUM, 500, RandomStream(3))
    assert [row.nu for row in rows] == [5, 50]
    for row in rows:
        assert math.isfinite(row.median)
        assert math.isfinite(row.iqr) and row.iqr > 0
        assert math.isfinite(row.ad_gumbel)
        assert math.isfinite(row.ad_frechet)


def test_fit_extremes_deterministic_and_thread_independent():
    args = ((5, 20, 80), ScheduleSpec("constant", 4), MAX_OF_T, 400)
    a = fit_extremes(*args, RandomStream(11))
    b = fit_extremes(*args, RandomStream(11))
    assert a == b
    assert fit_extremes(*args, RandomStream(12)) != a


def test_fit_extremes_nu_mapping():
    rows = fit_extremes((2, 8), ScheduleSpec("log-growth"), MAX_OF_T, 200, RandomStream(4))
    assert [row.nu for row in rows] == [2, 4]
