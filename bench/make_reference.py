"""Regenerate bench/reference.json, the expected outputs of every workload command.

    PYTHONPATH=src python3 bench/make_reference.py

Deterministic columns (critical constants and everything computed from them
alone) are stored as printed at one seed.  Monte Carlo columns are stored as
the mean and standard deviation of the column over MC_SEEDS independent
CLI seeds, so that the benchmark can bound a fresh run's value by standard
errors instead of demanding identical bytes.  Run it only on a commit whose
numbers are trusted; the file records the commit it was made at.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import platform
import statistics
import subprocess
import sys

from checks import DETERMINISTIC, MONTE_CARLO, parse_rows
from workloads import WORKLOADS, reference_key

HERE = os.path.dirname(os.path.abspath(__file__))
# far from any seed a benchmark run is likely to be given
REFERENCE_SEED0 = 900_000
# the check widths in checks.py are scaled by this count (read back from the file)
MC_SEEDS = 40


def run(argv: list[str]) -> list[dict]:
    import ranksel.cli as cli

    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        rc = cli.main(argv + ["--format", "jsonl"])
    if rc != 0:
        raise SystemExit(f"{' '.join(argv)} exited {rc}")
    return parse_rows(out.getvalue())


def main() -> int:
    import numpy
    import scipy

    sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=HERE, capture_output=True,
                         text=True).stdout.strip() or None
    reference = {
        "git_sha": sha,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "mc_seeds": MC_SEEDS,
        "commands": {},
    }
    for workload, spec in WORKLOADS.items():
        for label, argv in spec["commands"]:
            command = argv[0]
            first = run(argv + ["--seed", str(REFERENCE_SEED0)])
            entry = {"rows": [{c: row[c] for c in DETERMINISTIC[command]} for row in first]}
            mc_cols = MONTE_CARLO[command]
            if mc_cols:
                columns = [{c: [] for c in mc_cols} for _ in first]
                for i in range(MC_SEEDS):
                    rows = first if i == 0 else run(
                        argv + ["--seed", str(REFERENCE_SEED0 + i)])
                    for acc, row in zip(columns, rows):
                        for c in mc_cols:
                            acc[c].append(row[c])
                entry["mc_seeds"] = MC_SEEDS
                entry["monte_carlo"] = [
                    {c: {"mean": statistics.fmean(v), "sd": statistics.stdev(v)}
                     for c, v in acc.items()}
                    for acc in columns
                ]
            reference["commands"][reference_key(argv)] = entry
            print(f"{workload} {label}: {len(first)} rows", file=sys.stderr)
    path = os.path.join(HERE, "reference.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(reference, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
