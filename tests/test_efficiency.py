"""Normalized-sample-size estimation and efficiency-ratio tests."""

import math

import numpy as np
import pytest
from scipy import integrate, stats

from ranksel.distributions import RandomStream, ScheduleSpec
from ranksel.efficiency import (
    AlphaEstimate,
    efficiency_curve,
    estimate_alpha,
    limit_maxmix,
    theoretical_eta,
)
from ranksel.hconst import DD, RINOTT, HEquationSpec, solve_h
from ranksel.procedures import VariancePrior

SEED = 20260814


def test_theoretical_eta_values():
    assert theoretical_eta(2) == 2.0
    assert theoretical_eta(4) == pytest.approx(math.sqrt(2.0), rel=1e-15)
    assert theoretical_eta(1000) == pytest.approx(2.0 ** 0.002, rel=1e-15)
    with pytest.raises(ValueError):
        theoretical_eta(0)


def test_schedule_values():
    const = ScheduleSpec("constant", 4)
    assert const.nu_at(1) == const.nu_at(10**6) == 4
    log = ScheduleSpec("log-growth")
    assert log.nu_at(1) == 1
    assert log.nu_at(3) == 3
    assert log.nu_at(100) == 6
    power = ScheduleSpec("power-growth")
    assert power.nu_at(16) == 3
    assert power.nu_at(81) == 4
    linear = ScheduleSpec("linear")
    assert linear.nu_at(1) == 1
    assert linear.nu_at(1000) == 1000
    # nondecreasing over a dense range
    for spec in (log, power, linear):
        vals = [spec.nu_at(k) for k in range(1, 2000)]
        assert all(a <= b for a, b in zip(vals, vals[1:]))
    # the nu(k) of extremes' --nu-schedule log, and N0(k) - 1 of efficiency's log-growth
    assert all(log.nu_at(k) == math.ceil(math.log(k)) + 1 for k in range(1, 2001))


def test_schedule_validation():
    with pytest.raises(TypeError):
        ScheduleSpec("constant")
    with pytest.raises(ValueError, match="degrees of freedom must be >= 1"):
        ScheduleSpec("constant", 0)
    with pytest.raises(ValueError):
        ScheduleSpec("log-growth", 5)
    with pytest.raises(ValueError):
        ScheduleSpec("linear", 5)
    with pytest.raises(ValueError):
        ScheduleSpec("geometric")
    with pytest.raises(ValueError):
        ScheduleSpec("log-growth").nu_at(0)
    with pytest.raises(ValueError):
        ScheduleSpec("linear").nu_at(0)


def test_estimate_alpha_matches_reconstructed_draws():
    # white-box oracle: replay the documented substreams and the size rule
    k, nu, p, delta = 10, 4, 0.9, 1.0
    prior = VariancePrior.inverse_gamma(3.0, 4.0)
    reps = 10**4
    rng = RandomStream(SEED).substream(0)
    h = solve_h(HEquationSpec(k, nu, p, DD)).value
    est = estimate_alpha(h, nu, delta, prior, reps, rng)
    sigma2 = prior.sample(reps, rng.substream(0))
    chi2 = rng.substream(1).generator.chisquare(nu, size=reps)
    s2 = sigma2 * chi2 / nu
    r2 = (h / delta) ** 2
    samples = np.maximum(float(nu + 2), np.ceil(s2 * r2)) / r2
    assert est == AlphaEstimate(samples.mean(), samples.std(ddof=1) / math.sqrt(reps))


def test_estimate_alpha_floor_regime():
    # variance prior so tiny every replication hits the N0 + 1 floor
    prior = VariancePrior.fixed(1e-12)
    nu = 4
    h = solve_h(HEquationSpec(5, nu, 0.9, DD)).value
    est = estimate_alpha(h, nu, 1.0, prior, 200, RandomStream(1).substream(0))
    floor_alpha = (nu + 2) / h**2
    assert est.alpha == pytest.approx(floor_alpha, rel=1e-14)
    # all replications are the identical constant; only summation roundoff remains
    assert est.std_error < 1e-12 * est.alpha


def test_estimate_alpha_ceiling_band():
    # with sigma^2 fixed at 1 and k large, alpha is pinned near E S^2 = 1
    prior = VariancePrior.fixed(1.0)
    reps = 10**5
    h = solve_h(HEquationSpec(1000, 5, 0.9, RINOTT)).value
    est = estimate_alpha(h, 5, 1.0, prior, reps, RandomStream(2).substream(0))
    r2 = h**2
    assert est.alpha >= 1.0 - 3.0 * math.sqrt(2.0 / 5 / reps)
    # ceil adds at most 1/r2; the floor can only push upward, bounded via
    # the probability that chi2_5/5 lands under the floor
    floor_excess = (7.0 / r2) * stats.chi2(5).cdf(5 * 7.0 / r2)
    assert est.alpha <= 1.0 + 3.0 * math.sqrt(2.0 / 5 / reps) + 1.0 / r2 + floor_excess


def test_estimate_alpha_variant_draws_are_shared():
    # same rng => identical sigma^2 and chi2 draws for both variants
    prior = VariancePrior.inverse_gamma(3.0, 4.0)
    rng = RandomStream(SEED).substream(3)
    h_dd = solve_h(HEquationSpec(10, 4, 0.9, DD)).value
    h_rinott = solve_h(HEquationSpec(10, 4, 0.9, RINOTT)).value
    a = estimate_alpha(h_dd, 4, 1.0, prior, 5000, rng)
    b = estimate_alpha(h_rinott, 4, 1.0, prior, 5000, rng)
    # coupled draws: the alpha gap reflects only the h gap, so the ratio of
    # floors-free products r2*alpha (= mean raw sizes) stays within ceil slack
    ra = h_dd**2 * a.alpha
    rb = h_rinott**2 * b.alpha
    assert abs(ra - rb) <= 1.0 + (5 + 1) * 2  # ceil slack + rare floor slack
    again = estimate_alpha(h_dd, 4, 1.0, prior, 5000, rng)
    assert again == a


def test_estimate_alpha_exchangeable_across_populations():
    # alpha from population 1 only vs an all-populations average
    k, nu, p, delta = 5, 6, 0.9, 1.0
    prior = VariancePrior.lognormal(0.0, 0.5)
    reps = 2 * 10**4
    h = solve_h(HEquationSpec(k, nu, p, DD)).value
    est = estimate_alpha(h, nu, delta, prior, reps, RandomStream(4).substream(0))
    gen = np.random.Generator(np.random.PCG64(99))
    sigma2 = stats.lognorm(0.5, scale=1.0).rvs(size=(reps, k + 1), random_state=gen)
    s2 = sigma2 * gen.chisquare(nu, size=(reps, k + 1)) / nu
    r2 = (h / delta) ** 2
    samples = np.maximum(float(nu + 2), np.ceil(s2 * r2)) / r2
    pooled = math.hypot(est.std_error, samples.mean(axis=1).std(ddof=1) / math.sqrt(reps))
    assert abs(est.alpha - samples.mean()) < 3.0 * pooled


def test_estimate_alpha_validation():
    prior = VariancePrior.fixed(1.0)
    rng = RandomStream(0)
    h = solve_h(HEquationSpec(2, 4, 0.9, DD)).value
    with pytest.raises(ValueError):
        estimate_alpha(h, 0, 1.0, prior, 10, rng)
    with pytest.raises(ValueError):
        estimate_alpha(h, 4, 0.0, prior, 10, rng)
    with pytest.raises(ValueError):
        estimate_alpha(h, 4, 1.0, prior, 0, rng)
    with pytest.raises(ValueError):
        # p below the symmetry point solves to h < 0
        estimate_alpha(solve_h(HEquationSpec(1, 3, 0.2, DD)).value, 3, 1.0, prior, 10, rng)


def test_efficiency_curve_k1_row():
    prior = VariancePrior.inverse_gamma(3.0, 4.0)
    rows = efficiency_curve([1], ScheduleSpec("constant", 4), 0.9, 1.0, prior, 5000,
                            RandomStream(5))
    row = rows[0]
    assert row.h_ratio == pytest.approx(1.0, abs=1e-8)
    assert row.alpha_ratio == pytest.approx(1.0, abs=1e-6)
    assert row.total_ratio == pytest.approx(1.0, abs=1e-6)


def test_efficiency_curve_row_consistency():
    prior = VariancePrior.inverse_gamma(3.0, 4.0)
    rows = efficiency_curve([2, 10, 50], ScheduleSpec("constant", 4), 0.9, 2.0, prior, 5000,
                            RandomStream(6))
    for row in rows:
        assert row.nu == 4
        assert row.n0 == 5
        # critical constants obey the convexity ordering for k >= 2
        assert row.h_rinott.value > row.h_dd.value
        assert row.h_ratio == row.h_rinott.value / row.h_dd.value
        assert row.h_ratio_sq == pytest.approx(row.h_ratio**2, rel=1e-15)
        assert row.alpha_ratio == row.alpha_rinott.alpha / row.alpha_dd.alpha
        assert row.total_ratio == pytest.approx(row.alpha_ratio * row.h_ratio_sq, rel=1e-15)
        assert row.lhat_dd == pytest.approx(5 / (row.h_dd.value / 2.0) ** 2, rel=1e-15)
        assert row.lhat_rinott == pytest.approx(5 / (row.h_rinott.value / 2.0) ** 2, rel=1e-15)


def test_efficiency_curve_follows_growing_schedule():
    prior = VariancePrior.fixed(1.0)
    schedule = ScheduleSpec("log-growth")
    rows = efficiency_curve([2, 100], schedule, 0.9, 1.0, prior, 500, RandomStream(7))
    assert [(r.nu, r.n0) for r in rows] == [(2, 3), (6, 7)]


def test_efficiency_curve_validation():
    prior = VariancePrior.fixed(1.0)
    schedule = ScheduleSpec("constant", 4)
    with pytest.raises(ValueError):
        efficiency_curve([], schedule, 0.9, 1.0, prior, 10, RandomStream(0))
    with pytest.raises(ValueError):
        efficiency_curve([4, 2], schedule, 0.9, 1.0, prior, 10, RandomStream(0))
    with pytest.raises(ValueError):
        efficiency_curve([2, 2], schedule, 0.9, 1.0, prior, 10, RandomStream(0))


def test_limit_maxmix_closed_cases():
    prior = VariancePrior.fixed(2.5)
    assert limit_maxmix(0.0, prior) == 2.5
    assert limit_maxmix(4.0, prior) == 4.0
    ig = VariancePrior.inverse_gamma(3.0, 4.0)
    assert limit_maxmix(0.0, ig) == ig.mean()
    big = limit_maxmix(1e6, ig)
    assert 1e6 <= big < 1e6 + 1e-3
    with pytest.raises(ValueError):
        limit_maxmix(-1.0, ig)


@pytest.mark.parametrize("prior, ref", [
    (VariancePrior.inverse_gamma(3.0, 4.0), stats.invgamma(3.0, scale=4.0)),
    (VariancePrior.lognormal(0.5, 0.8), stats.lognorm(0.8, scale=math.exp(0.5))),
])
@pytest.mark.parametrize("L", [0.0, 0.5, 2.0, 10.0, 1e6])
def test_limit_maxmix_matches_tail_integral(prior, ref, L):
    # E max{L, X} = L + integral over (L, inf) of P(X > x) dx
    if L == 0.0:
        expected = ref.mean()
    else:
        tail, _ = integrate.quad(ref.sf, L, np.inf, epsabs=1e-13, epsrel=1e-13, limit=200)
        expected = L + tail
    assert limit_maxmix(L, prior) == pytest.approx(expected, rel=1e-14)


def test_limit_maxmix_against_mc():
    ig = VariancePrior.inverse_gamma(3.0, 4.0)
    gen = np.random.Generator(np.random.PCG64(SEED))
    draws = np.maximum(2.0, 4.0 / gen.standard_gamma(3.0, 10**7))
    se = draws.std(ddof=1) / math.sqrt(10**7)
    assert abs(limit_maxmix(2.0, ig) - draws.mean()) < 3.0 * se


def test_limit_maxmix_dominates_plain_max():
    # E max{L, X} >= max{L, E X} since max(L, .) is convex
    for prior in (
        VariancePrior.inverse_gamma(3.0, 4.0),
        VariancePrior.lognormal(0.0, 0.7),
    ):
        for L in (0.5, prior.mean(), 3.0 * prior.mean()):
            assert limit_maxmix(L, prior) >= max(L, prior.mean()) - 1e-12
