"""Output checks for every command the benchmark runs.

Deterministic columns must match the stored reference (exact for integers
and labels, 1e-9 absolute for constants derived from h), and every solver
residual must stay below 1e-8.  Monte Carlo columns are checked with bounds
that hold for any seed, never against identical bytes:

* pcs: an exact one-sided binomial bound.  The procedures guarantee a
  probability of correct selection of at least p on these instances, so the
  observed hit count may not be implausibly low for Binomial(n, p).
* mean_total, alpha_*, the ratios, median and iqr: within Z_BOUND standard
  deviations of the reference mean, the deviation taken across the
  reference's independent seeds.
"""

from __future__ import annotations

import json
import math

from scipy.stats import binom

RESIDUAL_TOL = 1e-8
CLOSE_TOL = 1e-9
Z_BOUND = 8.0
BINOMIAL_ALPHA = 1e-9

EXACT = {
    "hconst": ["k", "nu", "p"],
    "pcs": ["variant", "k", "n0", "p", "delta", "gap", "replications"],
    "efficiency": ["k", "nu", "n0"],
    "extremes": ["k", "nu", "statistic", "replications"],
}
CLOSE = {
    "hconst": ["h_dd", "h_rinott", "ratio"],
    "pcs": ["h"],
    "efficiency": ["h_dd", "h_rinott", "h_ratio", "h_ratio_sq", "lhat_dd",
                   "lhat_rinott", "theoretical_eta"],
    "extremes": [],
}
DETERMINISTIC = {c: EXACT[c] + CLOSE[c] for c in EXACT}
RESIDUALS = {"hconst": ["residual_dd", "residual_rinott"], "pcs": ["residual"],
             "efficiency": [], "extremes": []}
MONTE_CARLO = {
    "hconst": [],
    "pcs": ["mean_total"],
    "efficiency": ["alpha_dd", "alpha_rinott", "alpha_ratio", "total_ratio"],
    "extremes": ["median", "iqr"],
}
POSITIVE = {"hconst": [], "pcs": [], "efficiency": ["alpha_dd_se", "alpha_rinott_se"],
            "extremes": ["ad_gumbel", "ad_frechet", "hill_index"]}


def parse_rows(text: str) -> list[dict]:
    """Data rows of a ``--format jsonl`` output."""
    rows = []
    for line in text.splitlines():
        record = json.loads(line)
        if record.get("record") == "row":
            record.pop("record")
            rows.append(record)
    return rows


def _finite(value) -> bool:
    return isinstance(value, (int, float)) and math.isfinite(value)


def check_rows(command: str, rows: list[dict], reference: dict | None) -> list[str]:
    """Problems found in one command's rows; empty when the output is correct.

    ``reference`` is None for the known-defect probe, which has no stored
    output: its rows only have to meet the solver contract.
    """
    problems = []
    if not rows:
        return ["no output rows"]
    if reference is None:
        for i, row in enumerate(rows):
            for col in RESIDUALS[command]:
                if not (_finite(row[col]) and row[col] < RESIDUAL_TOL):
                    problems.append(f"row {i}: {col}={row[col]!r} not below {RESIDUAL_TOL}")
            if command == "hconst" and not (
                    _finite(row["h_dd"]) and _finite(row["h_rinott"])
                    and 0 < row["h_dd"] <= row["h_rinott"] + CLOSE_TOL):
                problems.append(f"row {i}: constants out of order: {row}")
        return problems
    ref_rows = reference["rows"]
    if len(rows) != len(ref_rows):
        return [f"{len(rows)} rows, reference has {len(ref_rows)}"]
    mc_ref = reference.get("monte_carlo") or [{}] * len(rows)
    mc_seeds = reference.get("mc_seeds", 1)
    for i, (row, ref, mc) in enumerate(zip(rows, ref_rows, mc_ref)):
        for col in EXACT[command]:
            if row[col] != ref[col]:
                problems.append(f"row {i}: {col}={row[col]!r}, reference {ref[col]!r}")
        for col in CLOSE[command]:
            got, want = row[col], ref[col]
            if (got is None) != (want is None) or (
                    want is not None and not (_finite(got) and abs(got - want) <= CLOSE_TOL)):
                problems.append(f"row {i}: {col}={got!r}, reference {want!r}")
        for col in RESIDUALS[command]:
            if not (_finite(row[col]) and row[col] < RESIDUAL_TOL):
                problems.append(f"row {i}: {col}={row[col]!r} not below {RESIDUAL_TOL}")
        for col, stats in mc.items():
            got = row[col]
            width = Z_BOUND * stats["sd"] * math.sqrt(1.0 + 1.0 / mc_seeds)
            if not (_finite(got) and abs(got - stats["mean"]) <= width):
                problems.append(f"row {i}: {col}={got!r} outside {stats['mean']!r} +- {width:.3g}")
        for col in POSITIVE[command]:
            if not (_finite(row[col]) and row[col] > 0):
                problems.append(f"row {i}: {col}={row[col]!r} is not a positive number")
        if command == "pcs":
            problems += _check_pcs(i, row)
    return problems


def _check_pcs(i: int, row: dict) -> list[str]:
    n, pcs = row["replications"], row["pcs"]
    hits = round(pcs * n)
    problems = []
    if not (0 <= hits <= n and abs(hits - pcs * n) < 1e-6):
        return [f"row {i}: pcs={pcs!r} is not a hit fraction of {n} replications"]
    if binom.cdf(hits, n, row["p"]) < BINOMIAL_ALPHA:
        problems.append(f"row {i}: pcs={pcs!r} over {n} replications is below the "
                        f"guarantee p={row['p']} (binomial tail < {BINOMIAL_ALPHA})")
    want_se = math.sqrt(pcs * (1.0 - pcs) / n)
    if not abs(row["std_error"] - want_se) <= 1e-12 * max(want_se, 1e-300):
        problems.append(f"row {i}: std_error={row['std_error']!r}, expected {want_se!r}")
    return problems
