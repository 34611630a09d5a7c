"""Critical-constant equation tests: closed identities, Monte Carlo
oracles independent of the quadrature path, and solver contracts."""

import itertools
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy import integrate
from scipy.optimize import brentq
from scipy.special import stdtr

import ranksel.hconst as hconst
from oracle import oracle
from ranksel.distributions import RandomStream, ScheduleSpec, _t_logpdf, t_logcdf, t_pdf
from ranksel.hconst import (
    DD,
    RINOTT,
    HEquationSpec,
    SolverError,
    dd_prob,
    h_table,
    solve_h,
)
from ranksel.quadrature import (
    QuadratureError,
    QuadratureResult,
    geometric_edges,
    panel_quadrature,
)

SEED = 20260814


def test_pairwise_prob_at_zero():
    for nu in (1, 2, 9, 40):
        assert dd_prob(0.0, 1, nu) == pytest.approx(0.5, abs=1e-9)


def test_pairwise_prob_symmetry():
    for h in (0.5, 2.0, 7.5):
        total = dd_prob(h, 1, 5) + dd_prob(-h, 1, 5)
        assert total == pytest.approx(1.0, abs=1e-9)


def test_dd_prob_at_zero_is_uniform_best():
    # max of k t draws beats one more with probability k/(k+1)
    for k in (1, 2, 9, 99):
        assert dd_prob(0.0, k, 5) == pytest.approx(1.0 / (k + 1), abs=1e-9)


def test_dd_prob_k1_equals_pairwise():
    # P(T2 - T1 <= h) = integral of G(t + h) g(t) dt, by scipy's adaptive quad
    for h in (-2.0, 0.3, 4.0):
        for nu in (2, 17):
            pairwise, _ = integrate.quad(lambda t: stdtr(nu, t + h) * t_pdf(t, nu),
                                         -np.inf, np.inf, epsabs=1e-13, limit=200)
            assert dd_prob(h, 1, nu) == pytest.approx(pairwise, abs=1e-10)


def test_pairwise_prob_against_mc():
    # independent oracle: raw numpy paired draws, no shared code path
    gen = np.random.Generator(np.random.PCG64(SEED))
    draws = gen.standard_t(4, size=(10**7, 2))
    hits = np.mean(draws[:, 1] - draws[:, 0] <= 2.0)
    se = math.sqrt(hits * (1 - hits) / 10**7)
    assert abs(dd_prob(2.0, 1, 4) - hits) < 3.0 * se


def test_dd_prob_against_mc():
    spec = HEquationSpec(50, 4, 0.9, DD)
    value, std_error = oracle(spec, 3.0, 10**6, RandomStream(SEED).substream(1))
    assert abs(dd_prob(3.0, 50, 4) - value) < 3.0 * std_error


def test_dd_prob_large_k_stable():
    v = dd_prob(3.0, 10**5, 4)
    assert 0.0 < v < 1.0
    assert np.isfinite(v)


def test_dd_prob_monotone_in_h_and_k():
    probs = [dd_prob(h, 10, 6) for h in (0.0, 1.0, 2.0, 4.0)]
    assert all(a < b for a, b in zip(probs, probs[1:]))
    by_k = [dd_prob(2.0, k, 6) for k in (1, 5, 25)]
    assert all(a > b for a, b in zip(by_k, by_k[1:]))


def test_solve_symmetry_point():
    for variant in (DD, RINOTT):
        hc = solve_h(HEquationSpec(1, 4, 0.5, variant))
        assert abs(hc.value) < 1e-9
        assert hc.residual < 1e-8


def test_solve_k1_variants_coincide():
    for nu, p in ((4, 0.9), (1, 0.75), (30, 0.99)):
        a = solve_h(HEquationSpec(1, nu, p, DD))
        b = solve_h(HEquationSpec(1, nu, p, RINOTT))
        assert abs(a.value - b.value) < 1e-8


def test_solve_monotone_in_p_and_k():
    hs = [solve_h(HEquationSpec(5, 6, p, DD)).value for p in (0.6, 0.8, 0.95)]
    assert all(a < b for a, b in zip(hs, hs[1:]))
    hs = [solve_h(HEquationSpec(k, 6, 0.9, RINOTT)).value for k in (1, 4, 20)]
    assert all(a < b for a, b in zip(hs, hs[1:]))


def test_solve_jensen_ordering():
    for k in (2, 10, 50):
        for nu in (2, 9):
            dd = solve_h(HEquationSpec(k, nu, 0.9, DD))
            rin = solve_h(HEquationSpec(k, nu, 0.9, RINOTT))
            assert rin.value > dd.value


def test_solve_negative_h_regime():
    # p below the h=0 value 1/(k+1) forces a mirrored bracket
    hc = solve_h(HEquationSpec(1, 3, 0.2, DD))
    assert hc.value < 0.0
    assert hc.bracket[0] < 0.0
    assert dd_prob(hc.value, 1, 3) == pytest.approx(0.2, abs=1e-8)


def test_solve_diagnostics_contract():
    hc = solve_h(HEquationSpec(10, 9, 0.9, RINOTT))
    assert hc.residual < 1e-8
    assert hc.bracket[0] <= hc.value <= hc.bracket[1]
    assert all(math.isfinite(end) for end in hc.bracket)
    assert all(type(x) is float for x in (hc.value, hc.residual, *hc.bracket))
    assert hc.iterations > 0
    assert hc.quadrature_nodes > 0


def test_solve_rinott_matches_restated_equation():
    # the pairwise probability dd_prob(h, 1, nu) must equal p^(1/k) at the solution
    spec = HEquationSpec(100, 7, 0.95, RINOTT)
    hc = solve_h(spec)
    assert dd_prob(hc.value, 1, 7) == pytest.approx(0.95 ** (1 / 100), abs=1e-10)


def test_solve_very_large_k():
    hc = solve_h(HEquationSpec(10**5, 4, 0.9, DD))
    assert hc.residual < 1e-8
    assert hc.value > 0.0


@given(
    st.integers(1, 20),
    st.integers(1, 30),
    st.floats(0.05, 0.99),
    st.sampled_from((DD, RINOTT)),
)
@settings(max_examples=15, deadline=None)
def test_solve_round_trip_property(k, nu, p, variant):
    hc = solve_h(HEquationSpec(k, nu, p, variant))
    if variant == DD:
        assert dd_prob(hc.value, k, nu) == pytest.approx(p, abs=1e-8)
    else:
        assert dd_prob(hc.value, 1, nu) ** k == pytest.approx(p, abs=1e-7)


def test_spec_validation():
    with pytest.raises(ValueError):
        HEquationSpec(0, 4, 0.9, DD)
    with pytest.raises(ValueError):
        HEquationSpec(2, 4, 1.0, DD)
    with pytest.raises(ValueError):
        HEquationSpec(2, 4, 0.9, "median")
    with pytest.raises(ValueError):
        HEquationSpec(2, 0, 0.9, RINOTT)
    with pytest.raises(TypeError):  # dd_prob would read it as k = 2
        HEquationSpec(2.5, 4, 0.9, DD)


def test_spec_accepts_numpy_integer_k():
    spec = HEquationSpec(np.int64(3), 4, 0.9, DD)
    assert type(spec.k) is int
    assert solve_h(spec) == solve_h(HEquationSpec(3, 4, 0.9, DD))


def test_solver_draws_nothing(monkeypatch):
    # the constants are deterministic roots: no stream is built on the way
    # to one, and the solver module holds no random source
    def refuse(self):
        raise AssertionError("the solver drew from a random stream")

    monkeypatch.setattr(RandomStream, "generator", property(refuse))
    assert not hasattr(hconst, "RandomStream")
    hconst._dd_integral.cache_clear()  # every integral is evaluated here
    (row,) = h_table([1000], ScheduleSpec("constant", 9), 0.99)
    for variant in (DD, RINOTT):
        hc = solve_h(HEquationSpec(1000, 9, 0.99, variant))
        assert hc == getattr(row, variant)
    assert dd_prob(row.dd.value, 1000, 9) == pytest.approx(0.99, abs=1e-8)


def test_mc_oracle_trivial_cases():
    rng = RandomStream(SEED)
    value, std_error = oracle(HEquationSpec(1, 1, 0.9, DD), 0.0, 10**6, rng.substream(0))
    assert abs(value - 0.5) < 3.0 * std_error
    value, _ = oracle(HEquationSpec(3, 2, 0.9, RINOTT), 1e6, 10**4, rng.substream(1))
    assert value == 1.0


def test_mc_oracle_solver_agreement():
    spec = HEquationSpec(10, 9, 0.9, DD)
    hc = solve_h(spec)
    value, std_error = oracle(spec, hc.value, 10**6, RandomStream(SEED).substream(2))
    assert abs(value - 0.9) < 3.0 * std_error


def test_h_table_k1_ratio_is_one():
    rows = h_table([1], ScheduleSpec("constant", 6), 0.9)
    assert rows[0].ratio == pytest.approx(1.0, abs=1e-8)


def test_h_table_columns_increasing():
    rows = h_table([2, 5, 20, 100], ScheduleSpec("constant", 4), 0.9)
    dd_col = [r.dd.value for r in rows]
    rin_col = [r.rinott.value for r in rows]
    assert all(a < b for a, b in zip(dd_col, dd_col[1:]))
    assert all(a < b for a, b in zip(rin_col, rin_col[1:]))


def test_h_table_ratio_drifts_toward_limit():
    rows = h_table([10, 100, 1000], ScheduleSpec("constant", 4), 0.9)
    target = 2.0 ** (2.0 / 4.0)
    gaps = [abs(r.ratio**2 - target) for r in rows]
    assert gaps[0] > gaps[1] > gaps[2]


def test_h_table_validation():
    with pytest.raises(ValueError):
        h_table([], ScheduleSpec("constant", 4), 0.9)
    with pytest.raises(ValueError):
        h_table([5, 5], ScheduleSpec("constant", 4), 0.9)
    with pytest.raises(ValueError):
        h_table([5, 2], ScheduleSpec("constant", 4), 0.9)


def clear_integral_caches():
    hconst._dd_integral.cache_clear()


@pytest.mark.parametrize("k, nu, p", [
    (10, 2, 0.9), (1000, 9, 0.99), (100, 500, 0.9), (3, 9, 0.1),
])
@pytest.mark.parametrize("variant", (DD, RINOTT))
def test_solve_independent_of_cache_state(monkeypatch, k, nu, p, variant):
    # p = 0.1 at k = 3 lies below 1/(k+1) (and p^(1/k) below 1/2): both
    # variants solve to a negative h through the mirrored bracket
    spec = HEquationSpec(k, nu, p, variant)
    with monkeypatch.context() as m:
        m.setattr(hconst, "_dd_integral", hconst._dd_integral.__wrapped__)
        uncached = solve_h(spec)
    clear_integral_caches()
    cold = solve_h(spec)
    warm = solve_h(spec)
    assert cold == uncached and warm == uncached
    assert (cold.value < 0) == (p < 1 / (k + 1))


def test_h_table_skips_repeated_integrals(monkeypatch):
    calls = []
    real = hconst.panel_quadrature

    def counting(*args, **kwargs):
        calls.append(1)
        return real(*args, **kwargs)

    monkeypatch.setattr(hconst, "panel_quadrature", counting)
    clear_integral_caches()
    ks, schedule = [1, 10, 100, 1000, 10000, 100000], ScheduleSpec("constant", 9)
    rows = h_table(ks, schedule, 0.99)
    solves = [hc for r in rows for hc in (r.dd, r.rinott)]
    # on a cold cache each integral a solve asks for (its iterations; the
    # residual comes from the last step's evaluation) is one quadrature ...
    assert len(calls) == sum(hc.iterations for hc in solves)
    # ... and the same table solved again is served from the cache alone
    calls.clear()
    assert h_table(ks, schedule, 0.99) == rows
    assert calls == []


def test_integral_caches_are_bounded():
    assert hconst._dd_integral.cache_info().maxsize is not None


# (k, h): a DD value, and the Rinott tail qbar(2.5) = P_1(-2.5)
@pytest.mark.parametrize("k, h", [(50, 2.5), (1, -2.5)], ids=[DD, RINOTT])
def test_integrals_keep_value_bits_and_return_derivative(k, h):
    # the value row is the one-row integrand's integral to the bit; the
    # derivative row matches a central difference of the value
    nu, eps = 4, 1e-4

    def one_row(t):
        return np.exp(k * t_logcdf(t + h, nu) + _t_logpdf(t, nu))

    def integral(h):
        return hconst._dd_integral.__wrapped__(h, k, nu)

    T = hconst._tail_cutoff(nu)
    edges = geometric_edges(min(-T, -T + h), max(T, T + h), (0.0, -h))
    value, nodes, derivative = integral(h)
    alone = panel_quadrature(one_row, edges)
    assert value == alone.value and nodes == alone.nodes
    central = (integral(h + eps)[0] - integral(h - eps)[0]) / (2.0 * eps)
    assert derivative == pytest.approx(central, rel=1e-6)
    assert derivative > 0


def _complement_tail(h, nu):
    """P(T2 - T1 > h) as the integral of G(-(t+h)) g(t) dt and its h-derivative,
    on the mirror image of the domain _dd_integral(-h, 1, nu) integrates over."""
    T = hconst._tail_cutoff(nu)

    def integrand(t):
        log_pdf = _t_logpdf(t, nu)
        return np.stack((
            np.exp(t_logcdf(-(t + h), nu) + log_pdf),
            -np.exp(_t_logpdf(t + h, nu) + log_pdf),
        ))

    res = panel_quadrature(integrand, geometric_edges(min(-T, -T + h), max(T, T + h), (0.0, -h)))
    return res.value, res.companion


@pytest.mark.parametrize("nu", [1, 2, 9, 500, 10**6])
def test_rinott_tail_is_mirrored_dd_integral(nu):
    # qbar(h) = P(T2 - T1 > h) = P_1(-h) by the symmetry of g: the Rinott
    # tail from the one h integral matches the complement integrand
    for h in np.concatenate((np.logspace(-2, 6, 17), -np.logspace(-2, 6, 17))):
        h = float(h)
        value, _, slope = hconst._dd_integral.__wrapped__(-h, 1, nu)
        tail, tail_slope = _complement_tail(h, nu)
        assert abs(value - tail) <= 1e-14 * abs(tail), (h, value, tail)
        assert abs(-slope - tail_slope) <= 1e-13 * abs(tail_slope), (h, slope, tail_slope)


def test_companion_slope_meets_the_cauchy_closed_form():
    # refinement reads the value row only, and the slope row rides on its
    # nodes.  At nu = 1, T2 - T1 is Cauchy of scale 2, so the slope at h = -x
    # is 2 / (pi (4 + x^2)): within 1e-12 relative out to x = 1e6 (1.9e-13
    # there; 6e-11 at 1e8 and 1.5e-8 at 5e10, where t + h rounds in the peak)
    for x in (0.0, 0.5, 1.0, 3.0, 10.0, 1e2, 1e3, 1e4, 1e5, 3e5, 1e6):
        slope = hconst._dd_integral(-x, 1, 1)[2]
        exact = 2.0 / (math.pi * (4.0 + x * x))
        assert abs(slope / exact - 1.0) <= 1e-12, (x, slope, exact)


def _brent_reference(spec):
    """h from a doubling bracket search from [0, 1] and brentq, on the solver's integrals."""
    k, nu, p = spec.k, spec.nu, spec.p
    if spec.variant == DD:
        def fn(h):
            return hconst._dd_integral(h, k, nu)[0] - p
    else:
        log_root = math.log(p) / k
        target_q = -math.expm1(log_root)

        def fn(h):
            if h < 0.0:  # 1 - qbar(h) = qbar(-h) = P_1(h), to full precision
                return hconst._dd_integral(h, 1, nu)[0] - math.exp(log_root)
            return target_q - hconst._dd_integral(-h, 1, nu)[0]

    f0 = fn(0.0)
    if f0 == 0.0:
        return 0.0
    if f0 > 0.0:
        hi, lo = 0.0, -1.0
        while fn(lo) > 0.0:
            hi, lo = lo, 2.0 * lo
    else:
        lo, hi = 0.0, 1.0
        while fn(hi) < 0.0:
            lo, hi = hi, 2.0 * hi
    return brentq(fn, lo, hi, xtol=hconst.H_INTERVAL_TOL, rtol=8.9e-16)


PARITY_SWEEP = list(itertools.product(
    (1, 3, 10**3, 10**6, 10**9, 10**12),
    (1, 2, 9, 500, 10**6),
    (1e-6, 0.2, 0.5, 0.9, 1 - 1e-9),
    (DD, RINOTT),
))


def test_solver_parity_with_brent_reference():
    # Every spec the reference solves must solve, to the same h for p <= 0.9.
    # At p = 1 - 1e-9 the DD value is flat to the last bit over ~1e-8 relative
    # in h, where both solvers print residual 0, so only the residual is
    # checked there.  The only error solve_h may raise is SolverError.
    problems = []
    for k, nu, p, variant in PARITY_SWEEP:
        spec = HEquationSpec(k, nu, p, variant)
        try:
            expected = _brent_reference(spec)
        except QuadratureError:
            expected = None
        try:
            hc = solve_h(spec)
        except SolverError as err:
            if expected is not None:
                problems.append(f"{spec}: {err}")
            continue
        lo, hi = hc.bracket
        bracketed = math.isfinite(lo) and math.isfinite(hi) and lo <= hc.value <= hi
        if not (hc.residual < 1e-8 and bracketed):
            problems.append(f"{spec}: {hc}")
        elif expected is not None and p <= 0.9:
            if abs(hc.value - expected) > 1e-9 * max(1.0, abs(expected)):
                problems.append(f"{spec}: h {hc.value!r}, reference {expected!r}")
    assert problems == []
    assert len(PARITY_SWEEP) == 300


def test_convergence_guard_keeps_the_brent_root():
    # the Hermite step may propose the next point but never ends a solve: a
    # solver that stopped on its own short step returned 0.3183113 here
    spec = HEquationSpec(10**6, 1, 1e-6, DD)
    assert abs(solve_h(spec).value - _brent_reference(spec)) <= 1e-9


def test_solve_grid_integral_budget(monkeypatch):
    # the six hconst tables of the solve-grid benchmark on a cold cache: 303
    # integrals and 211 995 nodes with every panel halved per pass and a
    # plain Newton step from each point alone
    budget = {"integrals": 0, "nodes": 0}
    real = hconst.panel_quadrature

    def counting(*args):
        res = real(*args)
        budget["integrals"] += 1
        budget["nodes"] += res.nodes
        return res

    monkeypatch.setattr(hconst, "panel_quadrature", counting)
    clear_integral_caches()
    for nu, p in itertools.product((2, 9, 500), (0.9, 0.99)):
        h_table([1, 10, 100, 1000, 10000, 100000], ScheduleSpec("constant", nu), p)
    assert budget["integrals"] <= 254 and budget["nodes"] <= 163_000, budget


def _log_cubic_point(u, coefficients):
    """(u, tail, d tail / du) where log tail is a cubic in log u."""
    x = math.log(u)
    y = np.polyval(coefficients, x)
    return u, math.exp(y), math.exp(y) * np.polyval(np.polyder(coefficients), x) / u


def test_hermite_point_solves_a_log_cubic_tail_exactly():
    # the interpolant reproduces a tail whose log is a cubic in log u, so its
    # root is the tail's own, also when both points lie on one side of it
    coefficients = np.array([-0.01, 0.05, -2.0, -1.0])
    root = 3.7
    goal = _log_cubic_point(root, coefficients)[1]
    for u0, u1 in ((1.0, 6.0), (6.0, 1.0), (1.0, 2.0), (8.0, 5.0)):
        new = hconst._hermite_point(_log_cubic_point(u0, coefficients),
                                    _log_cubic_point(u1, coefficients), goal)
        assert new == pytest.approx(root, rel=1e-13)


@pytest.mark.parametrize("first, second, goal", [
    ((2.0, 0.1, -0.05), (2.0, 0.1, -0.05), 1e-3),  # the same u twice
    ((0.0, 0.5, -0.1), (2.0, 0.1, -0.05), 1e-3),  # u = 0 has no log
    ((1.0, 0.0, -0.1), (2.0, 0.1, -0.05), 1e-3),  # tail 0 has no log
    ((1.0, 0.3, 0.1), (2.0, 0.1, -0.05), 1e-3),  # a tail that rises with u
    ((1.0, 0.3, -10.0), (2.0, 0.1, -0.1), 0.15),  # Newton on the cubic meets its bump
    ((1.0, 0.3, -0.01), (2.0, 0.29, -0.01), 1e-3),  # the goal 1e6 octaves away
])
def test_hermite_point_refuses_degenerate_data(first, second, goal):
    assert math.isnan(hconst._hermite_point(first, second, goal))


def _gl20_two_level(f, edges, abs_tol=1e-13, rel_tol=1e-11, max_refinements=8):
    """Reference rule: Gauss-Legendre-20 on every panel, all panels halved
    until two successive totals agree; f returns the solver's (2, n) stack."""
    gx, gw = np.polynomial.legendre.leggauss(20)
    prev, nodes = None, 0
    for refinement in range(max_refinements + 1):
        mids = 0.5 * (edges[1:] + edges[:-1])
        halfs = 0.5 * (edges[1:] - edges[:-1])
        xs = (mids[:, None] + halfs[:, None] * gx).ravel()
        ws = (halfs[:, None] * gw).ravel()
        fx = f(xs)
        value, nodes = float(np.dot(fx[0], ws)), nodes + xs.size
        change = math.inf if prev is None else abs(value - prev)
        if change <= max(abs_tol, rel_tol * abs(value)):
            return QuadratureResult(value, nodes, refinement, change, float(np.dot(fx[1], ws)))
        prev = value
        edges = np.sort(np.concatenate([edges, mids]))
    raise QuadratureError("reference rule did not converge")


def _reference_integral(*args):
    """The h integral's value under the reference rule, past its cache."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(hconst, "panel_quadrature", _gl20_two_level)
        return hconst._dd_integral.__wrapped__(*args)[0]


def _random_k_nu(rng):
    return int(10 ** rng.uniform(0, 6)), int(10 ** rng.uniform(math.log10(2), 6))


def test_integrals_match_gauss_legendre_reference():
    rng = np.random.default_rng(SEED)
    for _ in range(100):
        h = float(rng.choice([-1.0, 1.0]) * 10 ** rng.uniform(-2, 2))
        k, nu = _random_k_nu(rng)
        # a DD value and the Rinott tail qbar(h) = P_1(-h)
        for args in ((h, k, nu), (-h, 1, nu)):
            value = hconst._dd_integral.__wrapped__(*args)[0]
            reference = _reference_integral(*args)
            assert abs(value - reference) <= max(1e-13, 1e-11 * abs(reference)), args


def test_roots_meet_residual_under_reference_rule():
    # p-space residual of each root with both h integrals re-evaluated by the
    # Gauss-Legendre reference, positive and negative roots of both variants
    rng = np.random.default_rng(SEED + 1)
    for _ in range(300):
        k, nu = _random_k_nu(rng)
        p = 1.0 / (1.0 + math.exp(-rng.uniform(-12.0, 16.0)))
        variant = (DD, RINOTT)[rng.integers(2)]
        h = solve_h(HEquationSpec(k, nu, p, variant)).value
        if variant == DD:
            implied_p = _reference_integral(h, k, nu)
        elif h >= 0.0:
            tail = _reference_integral(-h, 1, nu)
            implied_p = math.exp(k * math.log1p(-tail))
        else:
            tail = _reference_integral(h, 1, nu)
            implied_p = math.exp(k * math.log(tail))
        assert abs(implied_p - p) < 1e-8, (k, nu, p, variant, h)


@pytest.mark.parametrize("guess", [1e-3, 1.0, 1e6])
def test_solver_converges_from_poor_first_guesses(monkeypatch, guess):
    # the bracket, the step clamp and the bisection make the iteration
    # converge; the t-quantile start only makes it short
    monkeypatch.setattr(hconst, "_first_guess", lambda nu, tail: guess)
    for k, nu, p, variant in itertools.product(
        (1, 10**3, 10**9), (1, 9, 10**6), (1e-6, 0.5, 0.9), (DD, RINOTT)
    ):
        assert solve_h(HEquationSpec(k, nu, p, variant)).residual < 1e-8


def test_root_where_the_square_overflows_fails_cleanly():
    # at nu = 1 and p = 1e-200 the negative root lies beyond |t| = 1.3e154,
    # where t^2 overflows in the log-density: the solver still fails only
    # with SolverError, not with numpy's overflow warning
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert np.array_equal(_t_logpdf(np.array([1e155, -1e200, math.inf]), 1),
                              np.full(3, -math.inf))
        with pytest.raises(SolverError):
            solve_h(HEquationSpec(1, 1, 1e-200, DD))


def test_root_beyond_float_range_fails_cleanly():
    # at k = 1e300 the Cauchy Rinott root lies near 6e300
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(SolverError):
            solve_h(HEquationSpec(10**300, 1, 0.9, RINOTT))
