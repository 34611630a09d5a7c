"""Two-stage procedure tests: stage-1 moments, sample-size rule,
two-block weights, selection invariants, and PCS estimation."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy import stats

from ranksel.distributions import RandomStream
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
    sq_se = np.std(draws**2, ddof=1) / 1000.0
    assert abs(np.mean(draws**2) - prior.second_moment()) < 3.0 * sq_se


def test_prior_sf_matches_scipy():
    prior = VariancePrior.lognormal(0.5, 0.8)
    ref = stats.lognorm(0.8, scale=math.exp(0.5))
    for x in (0.5, 1.0, 3.0):
        assert prior.sf(x) == pytest.approx(ref.sf(x), rel=1e-12)


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


def test_instance_validation():
    with pytest.raises(ValueError):
        ProblemInstance(means=np.zeros(3), variances=np.ones(2))
    with pytest.raises(ValueError):
        ProblemInstance(means=np.zeros(2), variances=np.array([1.0, -1.0]))


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
    assert stats.ks_2samp(a.variances, b.variances).pvalue > 0.001
    assert stats.ks_2samp(a.means, b.means).pvalue > 0.001


def test_stage1_validation():
    inst = make_slippage_instance(params_for(2), 1.5, np.ones(3))
    with pytest.raises(ValueError):
        run_stage1(inst, 1, RandomStream(0))
    with pytest.raises(ValueError):
        run_stage1(inst, 5, RandomStream(0), method="bootstrap")


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
    w = dd_weights(n0, n, s2, h, delta)
    assert w.shape == (n,)
    assert w.sum() == pytest.approx(1.0, abs=1e-12)
    assert s2 * np.sum(w**2) == pytest.approx((delta / h) ** 2, abs=1e-10)
    # two-block structure, first block heavier
    assert np.allclose(w[:n0], w[0])
    assert np.allclose(w[n0:], w[n0])
    assert w[0] > w[n0] > 0.0


def test_dd_weights_uniform_tie():
    # s2 = N (delta/h)^2 makes both roots collapse to uniform weights
    n0, n = 3, 8
    h, delta = 2.0, 1.0
    s2 = n * (delta / h) ** 2
    w = dd_weights(n0, n, s2, h, delta)
    assert np.allclose(w, 1.0 / n, atol=1e-12)


def test_dd_weights_match_quadratic_roots():
    # independent oracle: the stage-2 weight solves a quadratic in closed form
    n0, s2, h, delta = 5, 4.0, 3.5, 1.0
    n = second_stage_size(s2, h, delta, n0)
    q = (delta / h) ** 2 / s2
    n2 = n - n0
    # m*b + n2*c = 1, m*b^2 + n2*c^2 = q  =>  n2*N*c^2 - 2*n2*c + (1 - n0*q) = 0
    roots = np.roots([n2 * n, -2.0 * n2, 1.0 - n0 * q])
    w = dd_weights(n0, n, s2, h, delta)
    assert min(abs(w[-1] - r) for r in roots.real) < 1e-12
    assert w[-1] == pytest.approx(min(roots.real), abs=1e-12)


@given(st.integers(2, 12), st.floats(0.05, 20.0), st.floats(1.5, 6.0))
@settings(max_examples=40, deadline=None)
def test_dd_weights_constraints_property(n0, s2, h):
    delta = 1.0
    n = second_stage_size(s2, h, delta, n0)
    w = dd_weights(n0, n, s2, h, delta)
    assert w.sum() == pytest.approx(1.0, abs=1e-12)
    assert s2 * np.sum(w**2) == pytest.approx((delta / h) ** 2, abs=1e-10)


def test_dd_weights_validation():
    with pytest.raises(ValueError):
        dd_weights(5, 11, 2.0, 0.0, 1.0)
    with pytest.raises(ValueError):
        # N far below (h/delta)^2 S^2 -> negative discriminant
        dd_weights(5, 6, 100.0, 1.0, 1.0)


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
    out = run_procedure(inst, params, h, RandomStream(SEED).substream(6))
    assert out.sample_sizes.shape == (5,)
    assert (out.sample_sizes >= params.n0 + 1).all()
    assert out.total_samples == out.sample_sizes.sum()
    assert 0 <= out.selected_index < 5
    assert out.statistics.shape == (5,)
    assert out.correct == (out.selected_index == inst.best_index)


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


def test_params_validation():
    with pytest.raises(ValueError):
        params_for(2, p=1.0)
    with pytest.raises(ValueError):
        params_for(2, delta=-1.0)
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
    rng = RandomStream(SEED).substream(7)
    pivots = np.empty((reps, 2))
    for rep in range(reps):
        out = run_procedure(inst, params, h, rng.substream(rep))
        pivots[rep] = (out.statistics - inst.means) * h.value / params.delta
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
