"""End-to-end acceptance checks.

Each test prints exactly one ACCEPTANCE line (run pytest with -s to see
them all; failures surface the line in the captured output).  The checks
exercise the full pipeline at realistic Monte Carlo scale, so this module
takes about 12 s on 2 CPUs; everything is seeded and deterministic.
"""

import json
import math
import os
import time
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from scipy import stats

import ranksel.cli as cli
from ranksel.distributions import RandomStream, ScheduleSpec
from ranksel.efficiency import (
    efficiency_curve,
    estimate_alpha,
    theoretical_eta,
)
from ranksel.extremes import MAX_OF_T, fit_extremes
from oracle import oracle
from ranksel.hconst import DD, RINOTT, HEquationSpec, solve_h
from ranksel.procedures import (
    EXACT,
    ProcedureParams,
    VariancePrior,
    estimate_pcs,
    make_slippage_instance,
    run_procedure,
)

SEED = 20260814

# k x nu cross with p cycling through representative confidence levels and
# the two variants alternating, padded to twelve with mixed extremes
_PS = (0.75, 0.9, 0.95, 0.99)
GRID = [
    HEquationSpec(k, nu, _PS[i % 4], DD if i % 2 == 0 else RINOTT)
    for i, (k, nu) in enumerate((k, nu) for k in (1, 10, 100) for nu in (2, 5, 30))
]
GRID += [
    HEquationSpec(1, 5, 0.99, RINOTT),
    HEquationSpec(10, 30, 0.9, DD),
    HEquationSpec(100, 2, 0.95, RINOTT),
]


def report(num: int, ok: bool, detail: str) -> None:
    print(f"\nACCEPTANCE {num:02d} {'PASS' if ok else 'FAIL'} {detail}", flush=True)
    assert ok, f"criterion {num}: {detail}"


def test_criterion_01_solver_matches_mc_oracle():
    rng = RandomStream(SEED)
    start = time.monotonic()

    def z_score(idx: int, spec: HEquationSpec) -> float:
        value, std_error = oracle(spec, solve_h(spec).value, 10**6, rng.substream(idx))
        return abs(value - spec.p) / std_error

    # each spec owns its substream, so the specs run on a pool, a thread per
    # CPU (numpy's samplers release the interpreter lock), the most draws
    # per replication first so that no large oracle runs alone at the end
    order = sorted(range(len(GRID)),
                   key=lambda i: -GRID[i].k * (1 if GRID[i].variant == DD else 2))
    with ThreadPoolExecutor(os.cpu_count()) as pool:
        worst = max(pool.map(z_score, order, [GRID[i] for i in order]))
    elapsed = time.monotonic() - start
    ok = worst <= 3.0 and elapsed < 300.0
    report(
        1,
        ok,
        f"solved h reproduces p within 3 s.e. on all {len(GRID)} grid specs "
        f"at 1e6 replications (worst |z|={worst:.2f}, {elapsed:.0f}s)",
    )


def test_criterion_02_k1_variants_coincide():
    gen = np.random.Generator(np.random.PCG64(SEED))
    worst = 0.0
    for _ in range(20):
        nu = int(gen.integers(1, 61))
        p = float(gen.uniform(0.05, 0.99))
        a = solve_h(HEquationSpec(1, nu, p, DD))
        b = solve_h(HEquationSpec(1, nu, p, RINOTT))
        worst = max(worst, abs(a.value - b.value))
    at_half = max(
        abs(solve_h(HEquationSpec(1, 7, 0.5, variant)).value) for variant in (DD, RINOTT)
    )
    ok = worst < 1e-8 and at_half < 1e-9
    report(
        2,
        ok,
        f"k=1 equations coincide over 20 random (nu, p) draws "
        f"(max gap {worst:.2e}) and both give h=0 at p=0.5 ({at_half:.2e})",
    )


def test_criterion_03_convexity_orders_the_constants():
    gaps = []
    for spec in GRID:
        if spec.k < 2:
            continue
        dd = solve_h(HEquationSpec(spec.k, spec.nu, spec.p, DD)).value
        rin = solve_h(HEquationSpec(spec.k, spec.nu, spec.p, RINOTT)).value
        gaps.append(rin - dd)
    ok = all(g > 0 for g in gaps)
    report(
        3,
        ok,
        f"plain-mean constant strictly dominates weighted-mean constant on all "
        f"{len(gaps)} grid specs with k >= 2 (min gap {min(gaps):.2e})",
    )


def test_criterion_04_pcs_meets_design_guarantee():
    results = []
    for p in (0.75, 0.9):
        for variant in (DD, RINOTT):
            params = ProcedureParams(p=p, delta=1.0, k=4, n0=10, variant=variant)
            inst = make_slippage_instance(params, 1.01, np.ones(5))
            est = estimate_pcs(
                params, inst, 10**4,
                RandomStream(SEED).substream(0 if variant == DD else 1),
            )
            results.append((p, variant, est))
    # exact one-sided binomial bound: a hit count this low must not be
    # implausible for Binomial(n, p), P(Bin(n, p) <= hits) >= 1e-6; unlike
    # p - 3 * std_error it does not collapse when the estimate reads 1
    tails = [stats.binom.cdf(round(est.pcs * est.replications), est.replications, p)
             for p, _, est in results]
    ok = all(tail >= 1e-6 for tail in tails)
    shown = ", ".join(f"{v}@{p}: {est.pcs:.4f} (tail {tail:.3g})"
                      for (p, v, est), tail in zip(results, tails))
    report(4, ok, f"slippage PCS at gap=1.01*delta stays above target ({shown})")


def test_criterion_05_weighted_mean_is_pivotal():
    params = ProcedureParams(p=0.9, delta=1.0, k=1, n0=5, variant=DD)
    inst = make_slippage_instance(params, 1.5, np.array([2.5, 2.5]))
    h = solve_h(HEquationSpec(1, 4, 0.9, DD))
    reps = 10**5
    # the exact path forms the weighted mean from drawn observations
    out = run_procedure(inst, params, h, RandomStream(SEED), EXACT, reps)
    samples = ((out.statistics - inst.means) * h.value).ravel()
    res = stats.kstest(samples, lambda x: stats.t.cdf(x, 4))
    ok = res.pvalue > 0.001
    report(
        5,
        ok,
        f"standardized weighted mean passes KS against t_4 over 2e5 pooled "
        f"statistics (p-value {res.pvalue:.3f})",
    )


def test_criterion_06_alpha_approaches_prior_mean():
    prior = VariancePrior.inverse_gamma(3.0, 4.0)
    stream = RandomStream(SEED).substream(4)  # shared: trends are pure bias
    ok = True
    details = []
    for variant in (DD, RINOTT):
        alphas = [
            estimate_alpha(
                solve_h(HEquationSpec(k, 4, 0.9, variant)).value, 4, 1.0, prior, 10**6, stream
            ).alpha
            for k in (10**2, 10**3, 10**4)
        ]
        gaps = [abs(a - 2.0) for a in alphas]
        ok = ok and gaps[0] > gaps[1] > gaps[2] and gaps[2] < gaps[0]
        details.append(f"{variant}: " + "->".join(f"{a:.4f}" for a in alphas))
    report(
        6,
        ok,
        "normalized sample size approaches E sigma^2 = 2 monotonically in k "
        f"({'; '.join(details)})",
    )


def test_criterion_07_efficiency_ratio_trends_to_limit():
    prior = VariancePrior.inverse_gamma(3.0, 4.0)
    ok = True
    details = []
    for nu in (2, 4):
        rows = efficiency_curve(
            [10**2, 10**3, 10**4], ScheduleSpec("constant", nu), 0.9, 1.0, prior,
            2 * 10**5, RandomStream(SEED),
        )
        eta = theoretical_eta(nu)
        for series in ([r.h_ratio_sq for r in rows], [r.total_ratio for r in rows]):
            gaps = [abs(v - eta) for v in series]
            monotone = gaps[0] > gaps[1] > gaps[2]
            shrink_ok = all(b <= 0.75 * a for a, b in zip(gaps, gaps[1:]))
            ok = ok and monotone and shrink_ok
        details.append(
            f"nu={nu}: total ratio {rows[-1].total_ratio:.4f} vs limit {eta:.4f}"
        )
    report(
        7,
        ok,
        "squared h-ratio and total-sample ratio close at least 25% of the gap "
        f"to 2^(2/nu) per decade of k ({'; '.join(details)})",
    )


def test_criterion_08_growing_pilot_matches_maxmix_oracle():
    prior = VariancePrior.inverse_gamma(3.0, 4.0)
    rows = efficiency_curve(
        [10**2, 10**3, 10**4],
        ScheduleSpec("log-growth"),
        0.9, 1.0, prior, 10**6, RandomStream(SEED),
    )
    last = rows[-1]
    ok = True
    details = []
    for variant, est, h, lhat in (
        (DD, last.alpha_dd, last.h_dd, last.lhat_dd),
        (RINOTT, last.alpha_rinott, last.h_rinott, last.lhat_rinott),
    ):
        oracle = prior.expected_max(lhat)
        slack = 3.0 * est.std_error + (1.0 / h.value) ** 2
        ok = ok and abs(est.alpha - oracle) < slack
        details.append(
            f"{variant}: alpha={est.alpha:.4f} oracle={oracle:.4f} slack={slack:.4f}"
        )
    report(
        8,
        ok,
        f"log-growth pilot alpha at k=1e4 matches E max(L, sigma^2) "
        f"({'; '.join(details)})",
    )


def test_criterion_09_fixed_nu_maxima_look_heavy_tailed():
    rows = fit_extremes((10, 100, 1000), ScheduleSpec("constant", 3), MAX_OF_T, 10**4,
                        RandomStream(SEED))
    last = rows[-1]
    ok = last.ad_frechet < last.ad_gumbel
    report(
        9,
        ok,
        f"heavy-tailed family fits maxima of t_3 best at k=1000 "
        f"(AD {last.ad_frechet:.2f} vs {last.ad_gumbel:.2f}, hill {last.hill_index:.2f})",
    )


def test_criterion_10_cli_runs_are_reproducible(tmp_path):
    workloads = {
        "hconst": ["hconst", "--ks", "1,4", "--nu", "4", "--p", "0.9"],
        "pcs": ["pcs", "--k", "2", "--n0", "5", "--p", "0.8", "--gap", "1.5",
                "--replications", "300"],
        "efficiency": ["efficiency", "--ks", "1,3", "--nu", "3", "--p", "0.9",
                       "--replications", "500"],
        "extremes": ["extremes", "--ks", "2,4", "--nu", "3", "--replications", "150"],
    }

    def run(name, argv, tag):
        out = tmp_path / f"{name}-{tag}.csv"
        rc = cli.main(argv + ["--seed", str(SEED), "--out", str(out)])
        assert rc == 0
        return "\n".join(
            line for line in out.read_text().splitlines()
            if not line.startswith("# timestamp")
        )

    ok = True
    for name, argv in workloads.items():
        first = run(name, argv + ["--threads", "1"], "a")
        again = run(name, argv + ["--threads", "1"], "b")
        threaded = run(name, argv + ["--threads", "3"], "c")
        ok = ok and first == again == threaded
    report(
        10,
        ok,
        "all four commands byte-identical across repeat runs and thread counts "
        "(timestamp line excluded)",
    )
