"""Student-t primitives and random stream tests.

Closed forms exist for nu in {1, 2}; the CDF is checked against them deep
into the tails, the hand-written density against scipy.stats.t, and
everything else against internal round-trip identities.
"""

import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy import stats
from scipy.special import stdtr

import ranksel.distributions as distributions
from ranksel.distributions import (
    RandomStream,
    chunks,
    map_blocks,
    t_cdf,
    t_logcdf,
    t_pdf,
    t_quantile,
)
from ranksel.quadrature import geometric_edges, panel_quadrature


def test_pdf_cauchy_closed_form():
    assert t_pdf(0.0, 1) == pytest.approx(1.0 / math.pi, abs=1e-14)


def test_pdf_nu2_closed_form():
    # g_2(1) = 1 / (3 * sqrt(3))
    assert t_pdf(1.0, 2) == pytest.approx(1.0 / (3.0 * math.sqrt(3.0)), abs=1e-14)


def test_cdf_zero_is_half():
    for nu in (1, 2, 7, 100):
        assert t_cdf(0.0, nu) == 0.5


def test_cdf_cauchy_closed_form():
    assert t_cdf(1.0, 1) == pytest.approx(0.75, abs=1e-13)
    assert t_cdf(-1.0, 1) == pytest.approx(0.25, abs=1e-13)


def test_cdf_nu2_closed_form():
    # G_2(x) = 1/2 + x / (2 * sqrt(2 + x^2))
    x = math.sqrt(2.0)
    assert t_cdf(x, 2) == pytest.approx(0.5 + x / (2.0 * math.sqrt(2.0 + x * x)), abs=1e-13)


def _nu2_lower_tail(x):
    # G_2(x) for x <= 0, written without the cancellation in 1/2 + x / (2 sqrt(2 + x^2))
    r = math.sqrt(2.0 + x * x)
    return 1.0 / ((r + abs(x)) * r)


def test_cdf_nu2_deep_lower_tail():
    xs = -np.logspace(-3.0, 11.0, 57)
    expected = np.array([_nu2_lower_tail(x) for x in xs])
    assert np.abs(t_cdf(xs, 2) / expected - 1.0).max() < 1e-13
    assert np.abs(t_logcdf(-xs, 2) / np.log1p(-expected) - 1.0).max() < 1e-13


def test_pdf_matches_scipy():
    xs = np.concatenate([np.linspace(-80.0, 80.0, 321), np.linspace(-2.0, 2.0, 81)])
    for nu in (1, 2, 3, 5, 9, 30, 120, 500):
        assert np.abs(t_pdf(xs, nu) - stats.t.pdf(xs, nu)).max() < 1e-12


# log Gamma((nu+1)/2) - log Gamma(nu/2) - log(nu*pi)/2, the log t density at
# 0, from mpmath at 40 significant digits
LOG_PDF_AT_ZERO = {
    1: -1.144729885849400174143427,
    9: -0.9466599720873063793241598,
    99: -0.9214637427930916460355868,
    100: -0.9214384915430045581168471,
    500: -0.9194385328713410084275683,
    10**4: -0.9189635332046310751141631,
    12345: -0.9189587843184618543707244,
    10**6: -0.9189387832046727417386631,
}


@pytest.mark.parametrize("nu", sorted(LOG_PDF_AT_ZERO))
def test_pdf_normalizer_large_nu(nu):
    # the lgamma difference is 5.5e-10 off at nu = 1e6, poch up to 5.7e-12
    # off at nu = 12345
    got = distributions._t_logpdf(np.array(0.0), nu)
    assert got == pytest.approx(LOG_PDF_AT_ZERO[nu], abs=5e-14)


def test_logcdf_underflow_is_minus_inf_without_warning():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert t_logcdf(-1e3, 10**6) == -math.inf


@pytest.mark.parametrize("nu", [1, 2, 9, 500, 10**6])
def test_logcdf_bits_match_split_tails(nu):
    # log of the CDF for x <= 0, log1p of minus the upper tail above: the
    # lower tail of -|x| serves both sides to the bit
    x = np.concatenate((
        [0.0, -0.0, math.inf, -math.inf, math.nan],
        np.linspace(-50.0, 50.0, 2001),
        np.random.default_rng(nu).standard_cauchy(2000) * 1e3,
    ))
    expected = np.empty_like(x)
    neg = x <= 0
    with np.errstate(divide="ignore"):
        expected[neg] = np.log(stdtr(nu, x[neg]))
    expected[~neg] = np.log1p(-stdtr(nu, -x[~neg]))
    assert np.array_equal(t_logcdf(x, nu).view(np.int64), expected.view(np.int64))


def test_logcdf_deep_tail():
    # direct log in the lower tail keeps precision where cdf underflows to 0
    for x in (-1e3, -1e11):
        assert t_logcdf(x, 2) == pytest.approx(math.log(_nu2_lower_tail(x)), rel=1e-13)
    assert t_logcdf(6.0, 7) == pytest.approx(math.log(t_cdf(6.0, 7)), abs=1e-13)


@given(st.floats(-60.0, 60.0), st.integers(1, 60))
@settings(max_examples=60)
def test_pdf_symmetry(x, nu):
    assert t_pdf(x, nu) == t_pdf(-x, nu)
    assert t_pdf(x, nu) > 0.0


@given(st.floats(-60.0, 60.0), st.integers(1, 60))
@settings(max_examples=60)
def test_cdf_reflection(x, nu):
    assert abs(t_cdf(x, nu) + t_cdf(-x, nu) - 1.0) < 1e-12


@given(st.floats(-40.0, 40.0), st.floats(-40.0, 40.0), st.integers(1, 60))
@settings(max_examples=60)
def test_cdf_monotone(x1, x2, nu):
    lo, hi = min(x1, x2), max(x1, x2)
    assert t_cdf(lo, nu) <= t_cdf(hi, nu)


def test_pdf_integrates_to_one():
    for nu in (1, 3, 30):
        T = t_quantile(1.0 - 1e-12, nu)
        edges = geometric_edges(-T, T, (0.0,))
        res = panel_quadrature(lambda x: t_pdf(x, nu), edges)
        assert res.value == pytest.approx(1.0, abs=1e-9)


def test_quantile_median_and_cauchy():
    assert t_quantile(0.5, 7) == 0.0
    assert t_quantile(0.75, 1) == pytest.approx(1.0, abs=1e-12)
    assert t_quantile(0.25, 1) == pytest.approx(-1.0, abs=1e-12)


def test_quantile_lower_tail_exact():
    # G_1^{-1}(q) = -1 / tan(pi q); 1 - q would lose the low bits
    q = 1e-12
    assert t_quantile(q, 1) == pytest.approx(-1.0 / math.tan(math.pi * q), rel=1e-14)


def test_quantile_integration_cutoff_pinned():
    # the critical constants are pinned to the bits of this cutoff
    seed_values = {2: 707102.7720269063, 9: 51.4149112795738, 500: 7.215936391103697}
    for nu, value in seed_values.items():
        assert t_quantile(1.0 - 1e-12, nu) == value


def test_quantile_round_trip():
    for nu in (1, 2, 4, 30):
        for q in (1e-9, 0.01, 0.3, 0.9, 0.999, 1.0 - 1e-9):
            v = t_quantile(q, nu)
            assert abs(t_cdf(v, nu) - q) < 1e-10


def test_quantile_rejects_bad_q():
    for q in (0.0, 1.0, -0.5, 1.5):
        with pytest.raises(ValueError):
            t_quantile(q, 4)


def test_nu_validation():
    with pytest.raises(ValueError):
        t_cdf(0.0, 0)
    with pytest.raises(TypeError):
        t_cdf(0.0, 2.5)


def test_stream_determinism():
    a = RandomStream(9).substream(1, 2).generator.standard_t(4, size=16)
    b = RandomStream(9).substream(1, 2).generator.standard_t(4, size=16)
    c = RandomStream(9).substream(1, 3).generator.standard_t(4, size=16)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)


def test_substream_nesting_matches_flat_path():
    flat = RandomStream(11).substream(3, 1, 4)
    nested = RandomStream(11).substream(3).substream(1).substream(4)
    assert np.array_equal(
        flat.generator.standard_normal(8), nested.generator.standard_normal(8)
    )


def test_chunks_cover_range_in_order():
    assert list(chunks(10, 3, 7)) == [(0, 2), (2, 2), (4, 2), (6, 2), (8, 2)]
    assert list(chunks(5, 100, 7)) == [(0, 1), (1, 1), (2, 1), (3, 1), (4, 1)]
    assert list(chunks(5, 1, 1000)) == [(0, 5)]
    assert list(chunks(0, 1, 10)) == []


def test_map_blocks_runs_block_b_on_substream_b(monkeypatch):
    rng = RandomStream(4).substream(2)

    def fn(stream, n):
        return stream.path, stream.generator.standard_normal(n)

    want = [(rng.substream(b).path, rng.substream(b).generator.standard_normal(n))
            for b, (_, n) in enumerate(chunks(10, 3, 7))]
    for workers in (1, 2, 3):
        monkeypatch.setattr(distributions, "_worker_count", lambda: workers)
        got = map_blocks(fn, 10, 3, 7, rng)
        assert [path for path, _ in got] == [path for path, _ in want]
        assert all(np.array_equal(g, w) for (_, g), (_, w) in zip(got, want))
        assert map_blocks(fn, 0, 3, 7, rng) == []


def test_substream_id_validation():
    rng = RandomStream(1)
    with pytest.raises(ValueError):
        rng.substream(-1)
    with pytest.raises(ValueError):
        rng.substream(2**32)


def test_scalar_versus_array_returns():
    rng = RandomStream(2)
    assert isinstance(rng.generator.standard_t(3), float)
    assert rng.generator.standard_t(3, size=4).shape == (4,)
    assert isinstance(t_cdf(1.0, 3), float)
    assert t_cdf(np.array([0.0, 1.0]), 3).shape == (2,)
