"""Maxima-of-t diagnostics: sampling, fit distances, tail index."""

import math

import numpy as np
import pytest
from scipy import stats
from scipy.special import stdtr

import ranksel.distributions as distributions
import ranksel.extremes as extremes
from ranksel.distributions import RandomStream, chunks
from ranksel.extremes import (
    MAX_OF_T,
    MAX_OF_T_SUM,
    TriangularArraySpec,
    _sample_maxima,
    ad_distance,
    fit_extremes,
    hill_tail_index,
)

SEED = 20260814


def test_spec_validation():
    with pytest.raises(ValueError):
        TriangularArraySpec((), 3, MAX_OF_T, 1000)
    with pytest.raises(ValueError):
        TriangularArraySpec((10, 5), 3, MAX_OF_T, 1000)
    with pytest.raises(ValueError):
        TriangularArraySpec((5, 5), 3, MAX_OF_T, 1000)
    with pytest.raises(ValueError):
        TriangularArraySpec((5, 10), 3, "max-of-chi2", 1000)
    with pytest.raises(ValueError):
        TriangularArraySpec((5, 10), 3, MAX_OF_T, 99)


@pytest.mark.parametrize("statistic", [MAX_OF_T, MAX_OF_T_SUM])
def test_sample_maxima_independent_of_worker_count(monkeypatch, statistic):
    # 2001 rows of 12 draws (24 for the sum) in blocks of 1000 elements: 25 or
    # 49 blocks, each of which must equal _draw_base on its own substream
    monkeypatch.setattr(extremes, "_CHUNK_ELEMENTS", 1000)
    rng = RandomStream(5).substream(3)
    per_rep = 12 if statistic == MAX_OF_T else 24
    reference = np.concatenate([
        extremes._draw_base(rng.substream(b).generator, n, 12, 3, statistic).max(axis=1)
        for b, (_, n) in enumerate(chunks(2001, per_rep, 1000))
    ])
    for workers in (1, 2, 3):
        monkeypatch.setattr(distributions, "_worker_count", lambda: workers)
        assert np.array_equal(_sample_maxima(12, 3, statistic, 2001, rng), reference)


def test_max_of_t_maxima_follow_exact_law():
    # P(max of k t_nu draws <= x) = G_nu(x)^k, whatever the block layout
    k, nu = 1000, 3
    maxima = _sample_maxima(k, nu, MAX_OF_T, 20_000, RandomStream(SEED).substream(9))
    assert stats.kstest(maxima, lambda x: stdtr(nu, x) ** k).pvalue > 0.001


def test_draw_base_t_sum_matches_axis_sum():
    draws = extremes._draw_base(RandomStream(5).substream(4).generator, 300, 7, 3, MAX_OF_T_SUM)
    gen = RandomStream(5).substream(4).generator
    assert np.array_equal(draws, gen.standard_t(3, (300, 7, 2)).sum(axis=2))


def test_sample_max_monotone_in_k_under_shared_stream():
    # the generator hands out t draws as a prefix sequence, so the max over
    # a larger k from a fresh identical stream dominates the smaller one
    vals = [extremes._draw_base(RandomStream(77).substream(0).generator, 1, k, 3, MAX_OF_T).max()
            for k in (10, 100, 1000)]
    assert vals[0] <= vals[1] <= vals[2]


def test_sum_statistic_is_symmetric():
    # summand is symmetric around zero: the per-draw median is zero
    gen = RandomStream(SEED).substream(1).generator
    draws = gen.standard_t(3, size=(10**5, 2)).sum(axis=1)
    # median se ~ 1/(2 f(0) sqrt(n)); f(0) for a sum of two t_3 is below 0.37
    assert abs(np.median(draws)) < 3.0 * 0.022
    assert abs(np.mean(draws < 0) - 0.5) < 3.0 * math.sqrt(0.25 / 10**5)


def test_hill_recovers_pareto_index():
    gen = np.random.Generator(np.random.PCG64(SEED))
    draws = gen.pareto(3.0, size=10**5) + 1.0  # tail index exactly 3
    est = hill_tail_index(draws)
    assert est == pytest.approx(3.0, rel=0.1)


def test_hill_insufficient_positives():
    assert math.isnan(hill_tail_index(np.full(100, -1.0)))
    assert math.isnan(hill_tail_index(np.arange(1, 15, dtype=float)))
    with pytest.raises(ValueError):
        hill_tail_index(np.arange(1.0, 100.0), fraction=1.5)


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
    spec = TriangularArraySpec((10, 1000), 3, MAX_OF_T, 10**4)
    report = fit_extremes(spec, RandomStream(SEED))
    by_k = {row.k: row for row in report.rows}
    assert by_k[1000].ad_frechet < by_k[1000].ad_gumbel
    assert by_k[1000].ad_frechet < by_k[10].ad_frechet
    # tail index of the base t_3 variable is 3; maxima inherit it
    assert by_k[1000].hill_index == pytest.approx(3.0, rel=0.35)
    assert by_k[10].median < by_k[1000].median


def test_growing_nu_rows_stay_finite():
    # nu = k growth: no limit claim, diagnostics must still be well-defined
    spec = TriangularArraySpec((5, 50), lambda k: k, MAX_OF_T_SUM, 500)
    report = fit_extremes(spec, RandomStream(3))
    assert [row.nu for row in report.rows] == [5, 50]
    for row in report.rows:
        assert math.isfinite(row.median)
        assert math.isfinite(row.iqr) and row.iqr > 0
        assert math.isfinite(row.ad_gumbel)
        assert math.isfinite(row.ad_frechet)


def test_fit_extremes_deterministic_and_thread_independent():
    spec = TriangularArraySpec((5, 20, 80), 4, MAX_OF_T, 400)
    a = fit_extremes(spec, RandomStream(11))
    b = fit_extremes(spec, RandomStream(11))
    assert a == b
    assert fit_extremes(spec, RandomStream(12)) != a


def test_fit_extremes_nu_mapping():
    spec = TriangularArraySpec((2, 8), lambda k: k + 1, MAX_OF_T, 200)
    report = fit_extremes(spec, RandomStream(4))
    assert [row.nu for row in report.rows] == [3, 9]
    assert report.statistic == MAX_OF_T
    assert report.replications == 200
