"""Normalized-sample-size estimation and efficiency-ratio tests."""

import math
import threading
import tracemalloc

import numpy as np
import pytest
from scipy import integrate, stats

import ranksel.efficiency as efficiency
from ranksel.distributions import RandomStream, ScheduleSpec
from ranksel.efficiency import (
    AlphaEstimate,
    efficiency_curve,
    estimate_alpha,
    theoretical_eta,
)
from ranksel.extremes import MAX_OF_T, MAX_OF_T_SUM, fit_extremes
from ranksel.hconst import DD, RINOTT, HEquationSpec, solve_h
from ranksel.procedures import (
    ProcedureParams, VariancePrior, estimate_pcs, make_slippage_instance, second_stage_size,
)

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
    with pytest.raises(ValueError, match=r"constant schedule needs nu \(--nu\)"):
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


def reconstructed_alpha(h, nu, delta, prior, reps, rng):
    """White-box oracle: replay the documented substreams and the size rule."""
    sigma2 = prior.sample(reps, rng.substream(0))
    chi2 = rng.substream(1).generator.chisquare(nu, size=reps)
    s2 = sigma2 * chi2 / nu
    r2 = (h / delta) ** 2
    samples = np.maximum(float(nu + 2), np.ceil(s2 * r2)) / r2
    return AlphaEstimate(samples.mean(), samples.std(ddof=1) / math.sqrt(reps))


def test_estimate_alpha_matches_reconstructed_draws():
    k, nu, p, delta = 10, 4, 0.9, 1.0
    prior = VariancePrior.inverse_gamma(3.0, 4.0)
    reps = 10**4
    rng = RandomStream(SEED).substream(0)
    h = solve_h(HEquationSpec(k, nu, p, DD)).value
    est = estimate_alpha(h, nu, delta, prior, reps, rng)
    assert est == reconstructed_alpha(h, nu, delta, prior, reps, rng)


# S^2 at the edges of the size rule, for h = 2, delta = 1 ((h/delta)^2 = 4) and
# N0 = 5: 0 and small S^2 at the N0 + 1 floor, 4 S^2 an exact integer at the
# floor and above it and one ulp past each, and sizes above 2^53
SIZE_EDGES = [0.0, 1e-300, 1.0, 1.5, math.nextafter(1.5, math.inf), 2.75,
              math.nextafter(2.75, math.inf), 2.0**51 + 0.25, 3 * 2.0**55, 2.0**61 - 2.0**8]


def _alpha_at(monkeypatch, s2):
    """estimate_alpha's one replication at S^2 = s2: a fixed prior of 1 and a chi-square of 4 s2."""
    monkeypatch.setattr(efficiency, "_chi_square", lambda rng, nu, reps: np.full(reps, nu * s2))
    return estimate_alpha(2.0, 4, 1.0, VariancePrior.fixed(1.0), 1, RandomStream(SEED))


@pytest.mark.parametrize("s2", SIZE_EDGES)
def test_estimate_alpha_sizes_follow_second_stage_size(monkeypatch, s2):
    # one size rule: a replication's alpha is second_stage_size's size over
    # (h/delta)^2, exactly, since 4 S^2 / 4 = S^2 and 4 alpha are exact
    assert _alpha_at(monkeypatch, s2) == AlphaEstimate(second_stage_size(s2, 2.0, 1.0, 5) / 4.0, 0.0)


def test_estimate_alpha_refuses_the_sizes_second_stage_size_refuses(monkeypatch):
    # 4 S^2 = 2^63 does not fit int64; both name the same size
    with pytest.raises(ValueError) as size:
        second_stage_size(2.0**61, 2.0, 1.0, 5)
    with pytest.raises(ValueError) as alpha:
        _alpha_at(monkeypatch, 2.0**61)
    assert str(alpha.value) == str(size.value)


PRIOR = VariancePrior.inverse_gamma(3.0, 4.0)
PCS_PARAMS = ProcedureParams(0.9, 1.0, 3, 5, DD)

# one tiny call of each Monte Carlo entry point
MONTE_CARLO_CALLS = {
    "estimate_alpha": lambda rng: estimate_alpha(2.0, 4, 1.0, PRIOR, 1000, rng),
    "estimate_pcs": lambda rng: estimate_pcs(
        PCS_PARAMS, make_slippage_instance(PCS_PARAMS, 1.5, (1.0,) * 4), 200, rng, h=2.5),
    "efficiency_curve": lambda rng: efficiency_curve(
        [2, 5], ScheduleSpec("constant", 4), 0.9, 1.0, PRIOR, 1000, rng),
    "fit_extremes-max-of-t": lambda rng: fit_extremes(
        (5, 10), ScheduleSpec("constant", 3), MAX_OF_T, 100, rng),
    "fit_extremes-max-of-t-sum": lambda rng: fit_extremes(
        (5, 10), ScheduleSpec("constant", 3), MAX_OF_T_SUM, 100, rng),
}


@pytest.mark.parametrize("call", MONTE_CARLO_CALLS)
def test_monte_carlo_starts_no_thread(monkeypatch, call):
    # every block, row and draw runs in order in the caller's thread, so no
    # result can depend on the CPU count
    def refuse(thread):
        raise AssertionError(f"{call} started a thread")

    monkeypatch.setattr(threading.Thread, "start", refuse)
    MONTE_CARLO_CALLS[call](RandomStream(SEED).substream(0))


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


@pytest.mark.parametrize("ks, schedule", [
    ([10], ScheduleSpec("constant", 5_000_000_000)),
    ([2, 2**130], ScheduleSpec("power-growth")),
], ids=["constant", "power-growth"])
def test_efficiency_curve_refuses_unkeyable_nu_before_solving(monkeypatch, ks, schedule):
    # each row draws from rng.substream(nu), and stream ids stop below 2^32
    def no_table(*args):
        raise AssertionError("h_table reached")

    monkeypatch.setattr(efficiency, "h_table", no_table)
    with pytest.raises(ValueError, match="degrees of freedom must be at most 4294967295"):
        efficiency_curve(ks, schedule, 0.9, 1.0, VariancePrior.fixed(1.0), 10, RandomStream(0))


class CountingGenerator:
    """A numpy Generator whose chisquare calls are recorded as (df, size)."""

    def __init__(self, generator, calls):
        self._generator = generator
        self._calls = calls

    def __getattr__(self, name):
        return getattr(self._generator, name)

    def chisquare(self, df, size=None):
        self._calls.append((df, size))
        return self._generator.chisquare(df, size=size)


@pytest.mark.parametrize("schedule, chi_squares", [
    (ScheduleSpec("constant", 4), [(4, 1000)]),
    (ScheduleSpec("log-growth"), [(4, 1000), (6, 1000), (8, 1000), (11, 1000)]),
], ids=["constant", "log-growth"])
def test_efficiency_curve_draw_budget(monkeypatch, schedule, chi_squares):
    # the bulk-mc efficiency tables: every estimate_alpha call draws its prior,
    # but the rows that share nu share one stream, so one chi-square per nu
    calls, samples = [], []
    generator = RandomStream.__dict__["generator"]
    monkeypatch.setattr(RandomStream, "generator", property(
        lambda stream: CountingGenerator(generator.fget(stream), calls)))
    sample = VariancePrior.sample

    def counting_sample(prior, count, rng):
        samples.append(count)
        return sample(prior, count, rng)

    monkeypatch.setattr(VariancePrior, "sample", counting_sample)
    rows = efficiency_curve([10, 100, 1000, 10000], schedule, 0.9, 1.0, PRIOR, 1000,
                            RandomStream(SEED))
    assert calls == chi_squares
    assert samples == [1000] * (2 * len(rows))


def test_chi_square_memo_never_serves_another_key():
    # alternate streams, nu and counts, each change next to the first key:
    # every alpha is its own replay
    base = RandomStream(SEED)
    first = (2.5, 4, 1000, base.substream(4))
    calls = [
        first,
        (3.0, 4, 1000, base.substream(4)),  # the key again, another h
        (2.5, 4, 1000, RandomStream(SEED + 1).substream(4)),  # another seed
        first,
        (2.5, 4, 1000, base.substream(5)),  # another path
        first,
        (2.5, 4, 1000, base.substream(4, 1)),  # the first key's own chi-square stream
        first,
        (2.5, 5, 1000, base.substream(4)),  # another nu
        first,
        (2.5, 4, 999, base.substream(4)),  # another count
        first,
        (3.5, 4, 1000, base),
    ]
    for h, nu, reps, rng in calls:
        assert estimate_alpha(h, nu, 1.0, PRIOR, reps, rng) == reconstructed_alpha(
            h, nu, 1.0, PRIOR, reps, rng)


def _traced_peak(call) -> int:
    """Bytes of the largest traced allocation total while call() runs, over the start."""
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


BULK_REPS = 200_000  # bulk-mc's replications: one array of them is 1.6 MB


def test_estimate_alpha_keeps_one_array_beside_the_chi_square():
    # S^2, the sizes and the standard error's squared deviations share the
    # prior's array, which each prior forms in place in its one draw; with the
    # chi-square already drawn, nothing else of its size is allocated
    for prior in (PRIOR, VariancePrior.lognormal(0.0, 0.5)):
        args = (2.5, 4, 1.0, prior, BULK_REPS, RandomStream(SEED))
        estimate_alpha(*args)
        assert _traced_peak(lambda: estimate_alpha(*args)) < 1.25 * 8 * BULK_REPS, prior


def test_efficiency_curve_never_holds_two_chi_squares():
    # four rows of distinct nu (2, 3, 4, 5): each new chi-square is drawn
    # after the last is forgotten, so at most it and one S^2 array are alive
    ks, schedule = [2, 3, 8, 21], ScheduleSpec("log-growth")
    assert [nu for _, nu in schedule.grid(ks)] == [2, 3, 4, 5]

    def curve(reps):
        return efficiency_curve(ks, schedule, 0.9, 1.0, PRIOR, reps, RandomStream(SEED))

    curve(1000)  # the h solves' integrals are cached before the peak is read
    assert _traced_peak(lambda: curve(BULK_REPS)) < 1.25 * 2 * 8 * BULK_REPS


def test_chi_square_memo_is_read_only_and_emptied_by_efficiency_curve():
    estimate_alpha(2.5, 4, 1.0, PRIOR, 1000, RandomStream(SEED))
    (draw,) = efficiency._CHI_SQUARE_MEMO.values()
    with pytest.raises(ValueError, match="read-only"):
        draw[0] = 1.0
    efficiency_curve([2, 5], ScheduleSpec("constant", 4), 0.9, 1.0, PRIOR, 1000,
                     RandomStream(SEED))
    assert efficiency._CHI_SQUARE_MEMO == {}
    # also when a row is refused after its chi-square is drawn
    with pytest.raises(ValueError, match="not finite"):
        efficiency_curve([2, 5], ScheduleSpec("constant", 4), 0.9, 1.0,
                         VariancePrior.lognormal(0.0, 1000.0), 1000, RandomStream(SEED))
    assert efficiency._CHI_SQUARE_MEMO == {}


def test_limit_maxmix_closed_cases():
    prior = VariancePrior.fixed(2.5)
    assert prior.expected_max(0.0) == 2.5
    assert prior.expected_max(4.0) == 4.0
    ig = VariancePrior.inverse_gamma(3.0, 4.0)
    assert ig.expected_max(0.0) == ig.mean()
    big = ig.expected_max(1e6)
    assert 1e6 <= big < 1e6 + 1e-3
    with pytest.raises(ValueError):
        ig.expected_max(-1.0)


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
    assert prior.expected_max(L) == pytest.approx(expected, rel=1e-14)


def test_limit_maxmix_against_mc():
    ig = VariancePrior.inverse_gamma(3.0, 4.0)
    gen = np.random.Generator(np.random.PCG64(SEED))
    draws = np.maximum(2.0, 4.0 / gen.standard_gamma(3.0, 10**7))
    se = draws.std(ddof=1) / math.sqrt(10**7)
    assert abs(ig.expected_max(2.0) - draws.mean()) < 3.0 * se


def test_limit_maxmix_dominates_plain_max():
    # E max{L, X} >= max{L, E X} since max(L, .) is convex
    for prior in (
        VariancePrior.inverse_gamma(3.0, 4.0),
        VariancePrior.lognormal(0.0, 0.7),
    ):
        for L in (0.5, prior.mean(), 3.0 * prior.mean()):
            assert prior.expected_max(L) >= max(L, prior.mean()) - 1e-12


@pytest.mark.parametrize("prior", [
    VariancePrior.fixed(2.5),
    VariancePrior.inverse_gamma(3.0, 4.0),
    VariancePrior.lognormal(0.5, 0.8),
], ids=lambda prior: prior.kind)
@pytest.mark.parametrize("L", [-1.0, math.nan])
def test_expected_max_rejects_negative_and_nan_L(prior, L):
    # at L = -1 the inverse-gamma form gave nan, the lognormal a bare math
    # domain error and the fixed prior max(L, sigma^2)
    with pytest.raises(ValueError, match="L must be nonnegative"):
        prior.expected_max(L)
