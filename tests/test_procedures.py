"""Two-stage procedure tests: stage-1 moments, sample-size rule,
two-block weights, selection invariants, the batch against a
per-population reference loop, and PCS estimation."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy import stats

import ranksel.procedures as procedures
from ranksel.distributions import RandomStream, chunks
from ranksel.hconst import DD, RINOTT, HEquationSpec, solve_h
from ranksel.procedures import (
    CHI2,
    EXACT,
    ProblemInstance,
    ProcedureParams,
    VariancePrior,
    dd_weights,
    estimate_pcs,
    make_slippage_instance,
    run_procedure,
    run_stage1,
    second_stage_size,
)

SEED = 20260814


def params_for(k, delta=1.0, p=0.9, n0=5, variant=DD):
    return ProcedureParams(p=p, delta=delta, k=k, n0=n0, variant=variant)


def scalar_size(s2, h, delta, n0):
    return max(n0 + 1, math.ceil((h / delta) ** 2 * s2))


def scalar_weights(n0, n, s2, h, delta):
    """The two-block weight vector, one replication and population at a time."""
    q = (delta / h) ** 2 / s2
    n2 = n - n0
    d = math.sqrt(max(n0 * (q * n - 1.0) / n2, 0.0))
    c = (1.0 - d) / n
    b = (1.0 - n2 * c) / n0
    return np.concatenate([np.full(n0, b), np.full(n2, c)])


def reference_run(instance, params, h, gen, method, replications):
    """Per-replication, per-population loop replaying run_procedure's draw order.

    Stage 1 for all replications first ((R, k+1, n0) observations, or (R, k+1)
    normals then (R, k+1) chi-squares), then stage 2 one population after
    another in row-major order, each drawn as its own call.
    """
    n0, size = params.n0, instance.size
    sd = np.sqrt(instance.variances)
    if method == EXACT:
        obs = gen.standard_normal((replications, size, n0))
        obs = obs * sd[:, None] + instance.means[:, None]
        means1, s2s = obs.mean(axis=2), obs.var(axis=2, ddof=1)
    else:
        z = gen.standard_normal((replications, size))
        means1 = instance.means + sd * z / math.sqrt(n0)
        s2s = instance.variances * gen.chisquare(n0 - 1, size=(replications, size)) / (n0 - 1)
    sizes = np.empty((replications, size), dtype=np.int64)
    statistics = np.empty((replications, size))
    for r in range(replications):
        for i in range(size):
            n = scalar_size(s2s[r, i], h, params.delta, n0)
            n2 = n - n0
            if method == EXACT:
                mean2 = (gen.standard_normal(n2) * sd[i] + instance.means[i]).mean()
            else:
                mean2 = instance.means[i] + sd[i] * gen.standard_normal() / math.sqrt(n2)
            if params.variant == DD:
                w = scalar_weights(n0, n, s2s[r, i], h, params.delta)
                statistics[r, i] = w[0] * n0 * means1[r, i] + w[-1] * n2 * mean2
            else:
                statistics[r, i] = (n0 * means1[r, i] + n2 * mean2) / n
            sizes[r, i] = n
    return np.argmax(statistics, axis=1), sizes, statistics


# ---------------------------------------------------------------- priors


def test_prior_validation():
    with pytest.raises(ValueError):
        VariancePrior("fixed", (0.0,))
    with pytest.raises(ValueError):
        VariancePrior("inverse-gamma", (1.5, 4.0))  # needs shape > 2
    with pytest.raises(ValueError):
        VariancePrior("lognormal", (0.0, -1.0))
    with pytest.raises(ValueError):
        VariancePrior("beta", (2.0, 2.0))


def test_prior_from_string():
    p = VariancePrior.from_string("inverse-gamma:3,4")
    assert p.kind == "inverse-gamma"
    assert p.params == (3.0, 4.0)
    assert VariancePrior.from_string("fixed:2.5").mean() == 2.5
    with pytest.raises(ValueError):
        VariancePrior.from_string("inverse-gamma")
    with pytest.raises(ValueError):
        VariancePrior.from_string("fixed:1,2,3")


def test_prior_moments_against_sampling():
    prior = VariancePrior.inverse_gamma(3.0, 4.0)
    assert prior.mean() == pytest.approx(2.0)  # 4/(3-1)
    draws = prior.sample(10**6, RandomStream(SEED).substream(0))
    se = draws.std(ddof=1) / 1000.0
    assert abs(draws.mean() - prior.mean()) < 3.0 * se


@pytest.mark.parametrize("prior, ref", [
    (VariancePrior.inverse_gamma(3.0, 4.0), stats.invgamma(3.0, scale=4.0)),
    (VariancePrior.lognormal(0.5, 0.8), stats.lognorm(0.8, scale=math.exp(0.5))),
])
def test_prior_sample_ks(prior, ref):
    draws = prior.sample(20_000, RandomStream(SEED).substream(4))
    assert stats.kstest(draws, ref.cdf).pvalue > 0.001


def test_prior_lognormal_sample_matches_scipy_bits():
    prior = VariancePrior.lognormal(0.5, 0.8)
    draws = prior.sample(1000, RandomStream(SEED).substream(5))
    gen = RandomStream(SEED).substream(5).generator
    ref = stats.lognorm(0.8, scale=math.exp(0.5)).rvs(size=1000, random_state=gen)
    assert np.array_equal(draws, ref)


PRIORS_AND_SCIPY = [
    (VariancePrior.inverse_gamma(3.0, 4.0), stats.invgamma(3.0, scale=4.0)),
    (VariancePrior.inverse_gamma(2.5, 0.3), stats.invgamma(2.5, scale=0.3)),
    (VariancePrior.lognormal(0.5, 0.8), stats.lognorm(0.8, scale=math.exp(0.5))),
]


def test_prior_moments_match_scipy():
    for prior, ref in PRIORS_AND_SCIPY:
        assert prior.mean() == pytest.approx(ref.mean(), rel=1e-15)


# ------------------------------------------------------------- instances


def test_slippage_instance_layout():
    inst = make_slippage_instance(params_for(2), gap=1.5, variances=(1.0, 2.0, 3.0))
    assert inst.means.tolist() == [0.0, -1.5, -3.0]
    assert inst.best_index == 0
    assert inst.size == 3
    assert inst.min_gap() == pytest.approx(1.5)


def test_slippage_instance_rejects_gap_not_exceeding_delta():
    with pytest.raises(ValueError):
        make_slippage_instance(params_for(2), gap=1.0, variances=(1.0, 1.0, 1.0))
    with pytest.raises(ValueError):
        make_slippage_instance(params_for(2), gap=1.5, variances=(1.0, 1.0))
    for gap in (math.nan, math.inf, 1e308):  # 1e308 * 2 overflows to a -inf mean
        with pytest.raises(ValueError):
            make_slippage_instance(params_for(2), gap=gap, variances=(1.0, 1.0, 1.0))


def test_instance_validation():
    with pytest.raises(ValueError):
        ProblemInstance(means=np.zeros(3), variances=np.ones(2))
    with pytest.raises(ValueError):
        ProblemInstance(means=np.zeros(2), variances=np.array([1.0, -1.0]))
    for bad in (math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError):
            ProblemInstance(means=np.array([0.0, bad]), variances=np.ones(2))
        with pytest.raises(ValueError):
            ProblemInstance(means=np.zeros(2), variances=np.array([1.0, bad]))


@given(st.integers(1, 6), st.floats(0.1, 5.0), st.floats(1.01, 4.0))
@settings(max_examples=25, deadline=None)
def test_slippage_min_gap_property(k, delta, mult):
    gap = delta * mult
    inst = make_slippage_instance(params_for(k, delta=delta), gap, np.ones(k + 1))
    assert inst.min_gap() == pytest.approx(gap)
    assert inst.best_index == int(np.argmax(inst.means))


# --------------------------------------------------------------- stage 1


def test_stage1_moments_exact_method():
    # one huge instance: per-population sample stats, pooled moments
    n0 = 5
    inst = ProblemInstance(means=np.zeros(10**5), variances=np.ones(10**5))
    s1 = run_stage1(inst, n0, RandomStream(SEED).substream(2), method=EXACT)
    # E[S^2] = 1, Var[S^2] = 2/(n0-1) = 0.5 for unit normals
    se = math.sqrt(0.5 / 10**5)
    assert abs(s1.variances.mean() - 1.0) < 3.0 * se
    assert s1.variances.var(ddof=1) == pytest.approx(0.5, rel=0.05)
    mean_se = math.sqrt(1.0 / n0 / 10**5)
    assert abs(s1.means.mean()) < 3.0 * mean_se


def test_stage1_methods_agree_in_law():
    inst = ProblemInstance(means=np.zeros(2 * 10**4), variances=np.full(2 * 10**4, 3.0))
    rng = RandomStream(SEED)
    a = run_stage1(inst, 6, rng.substream(3), method=EXACT)
    b = run_stage1(inst, 6, rng.substream(4), method=CHI2)
    assert a.variances.shape == b.means.shape == (1, 2 * 10**4)
    assert stats.ks_2samp(a.variances[0], b.variances[0]).pvalue > 0.001
    assert stats.ks_2samp(a.means[0], b.means[0]).pvalue > 0.001


def test_stage1_validation():
    inst = make_slippage_instance(params_for(2), 1.5, np.ones(3))
    with pytest.raises(ValueError):
        run_stage1(inst, 1, RandomStream(0))
    with pytest.raises(ValueError):
        run_stage1(inst, 5, RandomStream(0), method="bootstrap")
    with pytest.raises(ValueError):
        run_stage1(inst, 5, RandomStream(0), replications=0)


# ----------------------------------------------------------- sample size


def test_second_stage_size_examples():
    # ceil((h/delta)^2 s2) with floor n0+1
    assert second_stage_size(2.0, h=2.0, delta=1.0, n0=10) == 11
    assert second_stage_size(5.0, h=2.0, delta=1.0, n0=10) == 20
    assert second_stage_size(0.1, h=2.0, delta=1.0, n0=10) == 11
    # exact integer boundary: 4*2.75 = 11 exactly, no spurious bump
    assert second_stage_size(2.75, h=2.0, delta=1.0, n0=5) == 11


def test_second_stage_size_zero_variance():
    assert second_stage_size(0.0, h=3.0, delta=1.0, n0=4) == 5


def test_second_stage_size_validation():
    with pytest.raises(ValueError):
        second_stage_size(-1.0, h=2.0, delta=1.0, n0=4)
    with pytest.raises(ValueError):
        second_stage_size(1.0, h=2.0, delta=0.0, n0=4)
    with pytest.raises(ValueError):
        second_stage_size(1.0, h=2.0, delta=1.0, n0=1)
    with pytest.raises(ValueError):
        second_stage_size(np.array([1.0, np.nan]), h=2.0, delta=1.0, n0=4)


@pytest.mark.parametrize("s2", [math.inf, 1e300, 2.0**63])
def test_second_stage_size_rejects_sizes_beyond_int64(s2):
    with pytest.raises(ValueError, match="64-bit"):
        second_stage_size(np.array([1.0, s2]), h=1.0, delta=1.0, n0=4)
    # the largest representable size below 2^63 still fits
    assert second_stage_size(2.0**63 - 1024, h=1.0, delta=1.0, n0=4) == 2**63 - 1024


def test_second_stage_size_vectorized_matches_scalar():
    s2 = RandomStream(SEED).substream(9).generator.chisquare(4, size=(50, 7)) / 4
    s2[0, :3] = (0.0, 2.75, 0.1)
    sizes = second_stage_size(s2, h=2.0, delta=1.0, n0=5)
    assert sizes.shape == s2.shape and sizes.dtype == np.int64
    expected = [[scalar_size(v, 2.0, 1.0, 5) for v in row] for row in s2]
    assert sizes.tolist() == expected


@given(st.floats(0.01, 50.0), st.integers(-3, 3))
@settings(max_examples=30, deadline=None)
def test_second_stage_size_scale_equivariance(s2, twopow):
    # scaling s2 by c and delta by sqrt(c) is exact for powers of two
    c = 2.0**twopow
    base = second_stage_size(s2, h=3.0, delta=1.0, n0=2)
    scaled = second_stage_size(s2 * c, h=3.0, delta=math.sqrt(c), n0=2)
    assert base == scaled


# ----------------------------------------------------------- two-block weights


def test_dd_weights_constraints():
    n0, h, delta = 5, 3.0, 1.0
    s2 = 2.0
    n = second_stage_size(s2, h, delta, n0)
    b, c = dd_weights(n0, n, s2, h, delta)
    assert n0 * b + (n - n0) * c == pytest.approx(1.0, abs=1e-12)
    assert s2 * (n0 * b**2 + (n - n0) * c**2) == pytest.approx((delta / h) ** 2, abs=1e-10)
    # first block heavier
    assert b > c > 0.0


def test_dd_weights_uniform_tie():
    # s2 = N (delta/h)^2 makes both roots collapse to uniform weights
    n0, n = 3, 8
    h, delta = 2.0, 1.0
    s2 = n * (delta / h) ** 2
    b, c = dd_weights(n0, n, s2, h, delta)
    assert np.allclose([b, c], 1.0 / n, atol=1e-12)


def test_dd_weights_match_quadratic_roots():
    # independent oracle: the stage-2 weight solves a quadratic in closed form
    n0, s2, h, delta = 5, 4.0, 3.5, 1.0
    n = second_stage_size(s2, h, delta, n0)
    q = (delta / h) ** 2 / s2
    n2 = n - n0
    # m*b + n2*c = 1, m*b^2 + n2*c^2 = q  =>  n2*N*c^2 - 2*n2*c + (1 - n0*q) = 0
    roots = np.roots([n2 * n, -2.0 * n2, 1.0 - n0 * q])
    _, c = dd_weights(n0, n, s2, h, delta)
    assert min(abs(c - r) for r in roots.real) < 1e-12
    assert c == pytest.approx(min(roots.real), abs=1e-12)


@given(st.integers(2, 12), st.floats(0.05, 20.0), st.floats(1.5, 6.0))
@settings(max_examples=40, deadline=None)
def test_dd_weights_constraints_property(n0, s2, h):
    delta = 1.0
    n = second_stage_size(s2, h, delta, n0)
    b, c = dd_weights(n0, n, s2, h, delta)
    w = scalar_weights(n0, n, s2, h, delta)
    assert (w[0], w[-1]) == (b, c)
    assert w.sum() == pytest.approx(1.0, abs=1e-12)
    assert s2 * np.sum(w**2) == pytest.approx((delta / h) ** 2, abs=1e-10)


def test_dd_weights_vectorized_matches_scalar():
    n0, h, delta = 6, 3.2, 0.8
    s2 = RandomStream(SEED).substream(10).generator.chisquare(n0 - 1, size=(40, 9)) / (n0 - 1)
    n = second_stage_size(s2, h, delta, n0)
    b, c = dd_weights(n0, n, s2, h, delta)
    assert b.shape == c.shape == s2.shape
    for idx in np.ndindex(s2.shape):
        w = scalar_weights(n0, int(n[idx]), s2[idx], h, delta)
        assert (b[idx], c[idx]) == (w[0], w[-1])
    n2 = n - n0
    assert np.allclose(n0 * b + n2 * c, 1.0, rtol=0.0, atol=1e-12)
    assert np.allclose(s2 * (n0 * b**2 + n2 * c**2), (delta / h) ** 2, rtol=0.0, atol=1e-12)


def test_dd_weights_validation():
    with pytest.raises(ValueError):
        dd_weights(5, 11, 2.0, 0.0, 1.0)
    with pytest.raises(ValueError):
        # N far below (h/delta)^2 S^2 -> negative discriminant
        dd_weights(5, 6, 100.0, 1.0, 1.0)
    with pytest.raises(ValueError):
        # one infeasible entry spoils the batch
        dd_weights(5, np.array([200, 6]), np.array([100.0, 100.0]), 1.0, 1.0)


# ----------------------------------------------------------- full procedure


def test_run_procedure_deterministic_limit():
    # vanishing variances: selection must hit the true best every time
    for variant in (DD, RINOTT):
        params = params_for(3, delta=10.0, variant=variant)
        inst = make_slippage_instance(params, 15.0, np.full(4, 1e-6))
        h = solve_h(HEquationSpec(3, params.nu, 0.9, variant))
        for method in (EXACT, CHI2):
            out = run_procedure(inst, params, h, RandomStream(SEED).substream(5), method=method)
            assert out.correct
            assert out.selected_index == inst.best_index


def test_run_procedure_invariants():
    params = params_for(4, n0=6, variant=RINOTT)
    inst = make_slippage_instance(params, 1.5, (1.0, 4.0, 0.25, 2.0, 9.0))
    h = solve_h(HEquationSpec(4, params.nu, 0.9, RINOTT))
    for reps in (1, 40):
        out = run_procedure(inst, params, h, RandomStream(SEED).substream(6), replications=reps)
        assert out.sample_sizes.shape == (reps, 5)
        assert (out.sample_sizes >= params.n0 + 1).all()
        assert np.array_equal(out.total_samples, out.sample_sizes.sum(axis=1))
        assert out.selected_index.shape == (reps,)
        assert ((0 <= out.selected_index) & (out.selected_index < 5)).all()
        assert out.statistics.shape == (reps, 5)
        assert np.array_equal(out.correct, out.selected_index == inst.best_index)


@pytest.mark.parametrize("method", [CHI2, EXACT])
@pytest.mark.parametrize("variant", [DD, RINOTT])
def test_batch_matches_reference_loop(variant, method):
    params = params_for(4, n0=6, variant=variant)
    inst = make_slippage_instance(params, 1.2, (1.0, 4.0, 0.25, 2.0, 9.0))
    h = solve_h(HEquationSpec(4, params.nu, 0.9, variant)).value
    reps = 60
    out = run_procedure(inst, params, h, RandomStream(SEED).substream(12), method, reps)
    gen = RandomStream(SEED).substream(12).generator
    selected, sizes, statistics = reference_run(inst, params, h, gen, method, reps)
    assert np.array_equal(out.selected_index, selected)
    assert np.array_equal(out.sample_sizes, sizes)
    assert np.allclose(out.statistics, statistics, rtol=0.0, atol=1e-12)
    # the batch consumed exactly the reference's draws
    rng = RandomStream(SEED).substream(12)
    run_procedure(inst, params, h, rng, method, reps)
    assert rng.generator.standard_normal() == gen.standard_normal()


def test_exact_stage2_bounded_pieces_match_one_draw(monkeypatch):
    # huge variances give second-stage runs longer than a piece of draws
    params = params_for(2, n0=4, variant=RINOTT)
    inst = make_slippage_instance(params, 1.5, (400.0, 900.0, 2500.0))
    h = solve_h(HEquationSpec(2, params.nu, 0.9, RINOTT)).value
    whole = run_procedure(inst, params, h, RandomStream(3), EXACT, 5)
    monkeypatch.setattr(procedures, "_BLOCK_ELEMENTS", 37)
    pieces = run_procedure(inst, params, h, RandomStream(3), EXACT, 5)
    assert whole.sample_sizes.min() > 37
    assert np.array_equal(whole.sample_sizes, pieces.sample_sizes)
    assert np.array_equal(whole.statistics, pieces.statistics)


def test_run_procedure_shift_invariance():
    # adding a constant to all means must not change the selection
    params = params_for(3)
    base = make_slippage_instance(params, 1.2, (1.0, 2.0, 0.5, 3.0))
    shifted = ProblemInstance(means=base.means + 100.0, variances=base.variances)
    h = solve_h(HEquationSpec(3, params.nu, 0.9, DD))
    for method in (EXACT, CHI2):
        a = run_procedure(base, params, h, RandomStream(11).substream(0), method=method)
        b = run_procedure(shifted, params, h, RandomStream(11).substream(0), method=method)
        assert a.selected_index == b.selected_index
        assert np.array_equal(a.sample_sizes, b.sample_sizes)


def test_run_procedure_validation():
    inst = make_slippage_instance(params_for(2), 1.5, np.ones(3))
    with pytest.raises(ValueError):
        run_procedure(inst, params_for(3), 2.0, RandomStream(0))  # k mismatch
    with pytest.raises(ValueError):
        run_procedure(inst, params_for(2), 0.0, RandomStream(0))  # DD needs h > 0
    with pytest.raises(ValueError):
        run_procedure(inst, params_for(2), 2.0, RandomStream(0), method="antithetic")
    with pytest.raises(ValueError):
        run_procedure(inst, params_for(2), 2.0, RandomStream(0), replications=0)
    # every size fits int64 but their sum over the k + 1 populations does not
    huge = make_slippage_instance(params_for(10), 1.5, np.full(11, 1e17))
    with pytest.raises(ValueError, match="total"):
        run_procedure(huge, params_for(10), 4.0, RandomStream(0))


def test_params_validation():
    with pytest.raises(ValueError):
        params_for(2, p=1.0)
    with pytest.raises(ValueError):
        params_for(2, delta=-1.0)
    for delta in (math.nan, math.inf):
        with pytest.raises(ValueError):
            params_for(2, delta=delta)
    with pytest.raises(ValueError):
        params_for(0)
    with pytest.raises(ValueError):
        params_for(2, n0=1)
    with pytest.raises(ValueError):
        params_for(2, variant="mean")
    assert params_for(2).nu == 4


def test_weighted_statistic_pivotal_distribution():
    # (W - theta) * h / delta should be exactly t with n0-1 dof
    reps = 2 * 10**4
    params = params_for(1)
    inst = make_slippage_instance(params, 1.5, (2.5, 2.5))
    h = solve_h(HEquationSpec(1, params.nu, 0.9, DD))
    out = run_procedure(inst, params, h, RandomStream(SEED).substream(7), replications=reps)
    pivots = (out.statistics - inst.means) * h.value / params.delta
    res = stats.kstest(pivots.ravel(), stats.t(params.nu).cdf)
    assert res.pvalue > 0.001


# ----------------------------------------------------------------- PCS


def test_estimate_pcs_deterministic():
    params = params_for(2, p=0.75, variant=RINOTT)
    inst = make_slippage_instance(params, 1.5, (1.0, 2.0, 0.5))
    a = estimate_pcs(params, inst, 500, RandomStream(9).substream(0))
    b = estimate_pcs(params, inst, 500, RandomStream(9).substream(0))
    assert a == b


def test_estimate_pcs_huge_gap():
    params = params_for(2)
    inst = make_slippage_instance(params, 100.0, (1.0, 1.0, 1.0))
    est = estimate_pcs(params, inst, 400, RandomStream(SEED).substream(8))
    assert est.pcs == 1.0
    assert est.replications == 400
    assert est.mean_total >= (2 + 1) * (5 + 1)
    assert est.h_used.value > 0.0


def test_estimate_pcs_monotone_in_gap():
    # wider gap => easier problem; same seeds kill most of the noise
    params = params_for(3, p=0.75)
    close = make_slippage_instance(params, 1.01, np.ones(4))
    wide = make_slippage_instance(params, 2.0, np.ones(4))
    reps = 4000
    a = estimate_pcs(params, close, reps, RandomStream(13).substream(0))
    b = estimate_pcs(params, wide, reps, RandomStream(13).substream(0))
    assert b.pcs >= a.pcs


def test_estimate_pcs_accepts_explicit_h():
    params = params_for(2, variant=RINOTT)
    inst = make_slippage_instance(params, 1.5, np.ones(3))
    hc = solve_h(HEquationSpec(2, params.nu, 0.9, RINOTT))
    a = estimate_pcs(params, inst, 300, RandomStream(21).substream(0), h=hc)
    b = estimate_pcs(params, inst, 300, RandomStream(21).substream(0), h=hc.value)
    assert (a.pcs, a.std_error, a.mean_total) == (b.pcs, b.std_error, b.mean_total)
    assert a.h_used is hc
    assert b.h_used == hc.value


@pytest.mark.parametrize("method", [CHI2, EXACT])
def test_estimate_pcs_sums_its_blocks(monkeypatch, method):
    # a small block budget forces several blocks and a partial last one
    monkeypatch.setattr(procedures, "_BLOCK_ELEMENTS", 5 * 7 * (5 if method == EXACT else 1))
    params = params_for(4, p=0.75)
    inst = make_slippage_instance(params, 1.01, (1.0, 2.0, 3.0, 4.0, 5.0))
    h = solve_h(HEquationSpec(4, params.nu, 0.75, DD))
    reps = 30
    est = estimate_pcs(params, inst, reps, RandomStream(17), h=h, method=method)
    blocks = [count for _, count in chunks(reps, 5 * (5 if method == EXACT else 1),
                                           procedures._BLOCK_ELEMENTS)]
    assert blocks == [7, 7, 7, 7, 2]
    hits = total = 0
    for b, count in enumerate(blocks):
        out = run_procedure(inst, params, h, RandomStream(17).substream(b), method, count)
        hits += int(out.correct.sum())
        total += int(out.total_samples.sum())
    assert est.pcs == hits / reps
    assert est.mean_total == total / reps
