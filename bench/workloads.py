"""The benchmark's workloads: which ranksel CLI commands each one runs.

A workload is a fixed list of command lines.  The benchmark seed only picks
the ``--seed`` each command receives, so the same benchmark seed always gives
the same inputs, and the deterministic columns of every command can be
compared with one stored reference.

Work counts (h solves, procedure replications, random variates) are derived
from the command lines themselves, never from what the program reports, so
the rates and the traced completeness checks have an independent base.
"""

from __future__ import annotations

import random

PCS_BASE = ["pcs", "--n0", "10", "--p", "0.9", "--gap", "1.01"]
EFFICIENCY_BASE = ["efficiency", "--ks", "10,100,1000,10000", "--p", "0.9",
                   "--replications", "200000"]

# Each command is (label, argv).  Labels name a command in metrics such as
# procedures.rep_us.k4 and in the printed per-command breakdown.  "traced"
# names the instrumentation (bench/tracing.py) whose metrics the workload is
# meant to move: the traced run fails if any of it is absent from the program
# or records nothing.
WORKLOADS = {
    # All time goes through distributions -> quadrature -> hconst: heavy tails
    # (nu=2), the slowest continued fraction (nu=500) and the large-k
    # log-domain DD power.  No Monte Carlo layer does any work here.
    "solve-grid": {
        "commands": [
            (f"nu{nu}-p{p}", ["hconst", "--ks", "1,10,100,1000,10000,100000",
                              "--nu", str(nu), "--p", str(p)])
            for nu in (2, 9, 500)
            for p in (0.9, 0.99)
        ],
        # Raises RuntimeError in the t quantile at the seed commit.  It runs in
        # every pass and its outcome is printed, but it is kept out of the
        # timed operations, so that a fix (which must take longer than an
        # immediate failure) does not read as a slowdown of wall_s.
        "probe": ("nu10000-probe", ["hconst", "--k", "2", "--nu", "10000", "--p", "0.9"]),
        "traced": ["cli.main", "hconst.solve_h", "distributions.t_logcdf",
                   "distributions.t_quantile", "quadrature.panel_quadrature",
                   "quadrature.geometric_edges"],
    },
    # Per-replication Python path of procedures plus per-replication stream
    # set-up in distributions; k=100 and k=1000 stress the per-population loop,
    # the exact method draws every observation.  Only 8 h solves.
    "pcs-sim": {
        "commands": [
            ("k4", PCS_BASE + ["--k", "4", "--replications", "10000",
                               "--variances", "1,2,3,4,5"]),
            ("k100", PCS_BASE + ["--k", "100", "--replications", "1000"]),
            ("k1000", PCS_BASE + ["--k", "1000", "--replications", "100"]),
            ("exact", PCS_BASE + ["--k", "4", "--replications", "2000",
                                  "--method", "exact"]),
        ],
        "probe": None,
        "traced": ["cli.main", "hconst.solve_h", "distributions.generators_built",
                   "procedures.estimate_pcs", "procedures.run_procedure",
                   "procedures.run_stage1", "procedures.second_stage_size",
                   "procedures.dd_weights"],
    },
    # The already-vectorised paths: bulk prior, chi-square and t draws in
    # chunks, scipy.stats fits, DD solves up to k=1e4 over mixed nu, and the
    # largest memory use of the three workloads.
    "bulk-mc": {
        "commands": [
            ("eff-nu4", EFFICIENCY_BASE + ["--nu", "4"]),
            ("eff-log", EFFICIENCY_BASE + ["--schedule", "log-growth"]),
            ("extremes", ["extremes", "--ks", "10,100,1000", "--nu-schedule", "log",
                          "--statistic", "max-of-t-sum", "--replications", "10000"]),
        ],
        "probe": None,
        "traced": ["cli.main", "hconst.solve_h", "distributions.t_logcdf",
                   "quadrature.panel_quadrature", "procedures.prior_sample",
                   "efficiency.efficiency_curve", "efficiency.estimate_alpha",
                   "extremes.fit_extremes", "extremes.scipy_fit", "extremes.ad_distance",
                   "extremes.hill_tail_index", "extremes.draws"],
    },
}


def options(argv: list[str]) -> dict[str, str]:
    """The ``--name value`` pairs of a command line, keyed by name."""
    return {argv[i][2:]: argv[i + 1] for i in range(1, len(argv) - 1, 2)}


def ks_of(argv: list[str]) -> list[int]:
    opts = options(argv)
    if "ks" in opts:
        return [int(k) for k in opts["ks"].split(",")]
    return [int(opts["k"])]


def work(argv: list[str]) -> dict[str, int]:
    """h solves, procedure replications and bulk random variates of a command.

    Replications count only the pcs procedure runs (both variants); variates
    count only the bulk paths (efficiency prior and chi-square draws, extremes
    t draws), whose numbers follow from the command line alone.
    """
    command, opts = argv[0], options(argv)
    if command == "hconst":
        return {"solves": 2 * len(ks_of(argv)), "reps": 0, "draws": 0}
    if command == "pcs":
        return {"solves": 2, "reps": 2 * int(opts["replications"]), "draws": 0}
    if command == "efficiency":
        ks, reps = ks_of(argv), int(opts["replications"])
        # per row and variant: one prior and one chi-square draw per replication
        return {"solves": 2 * len(ks), "reps": 0, "draws": 4 * reps * len(ks)}
    if command == "extremes":
        return {"solves": 0, "reps": 0, "draws": extremes_draws(argv)}
    raise ValueError(f"unknown command {command!r}")


def extremes_draws(argv: list[str]) -> int:
    opts = options(argv)
    width = 2 if opts.get("statistic") == "max-of-t-sum" else 1
    return sum(k * int(opts["replications"]) * width for k in ks_of(argv))


def reference_key(argv: list[str]) -> str:
    """Stable key of a command in the reference file (no seed or threads)."""
    return " ".join(argv)


def commands(workload: str, seed: int, threads: int) -> list[dict]:
    """The workload's commands for one benchmark seed, probe last."""
    spec = WORKLOADS[workload]
    rnd = random.Random(seed)
    entries = [(label, argv, False) for label, argv in spec["commands"]]
    if spec["probe"] is not None:
        entries.append((*spec["probe"], True))
    out = []
    for label, argv, probe in entries:
        cli_seed = rnd.randrange(2**31)
        out.append({
            "label": label,
            "key": reference_key(argv),
            "probe": probe,
            "argv": argv + ["--seed", str(cli_seed), "--threads", str(threads),
                            "--format", "jsonl"],
        })
    return out
