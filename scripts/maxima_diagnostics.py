"""Fit diagnostics for maxima of t draws under fixed and growing nu.

Fixed nu is the classical heavy-tailed regime (Frechet should win); for
growing nu the limit law is an open question, so the table is purely
descriptive.

Usage: python scripts/maxima_diagnostics.py [--replications 10000]
"""

import argparse
import math

from ranksel.distributions import RandomStream
from ranksel.extremes import MAX_OF_T, MAX_OF_T_SUM, TriangularArraySpec, fit_extremes

KS = (10, 100, 1000)


def show(title, spec, rng):
    print(f"\n{title}")
    print(f"{'k':>6} {'nu':>4} {'median':>8} {'iqr':>7} {'AD gumbel':>10} "
          f"{'AD frechet':>11} {'hill':>6}")
    for r in fit_extremes(spec, rng).rows:
        print(f"{r.k:>6} {r.nu:>4} {r.median:>8.3f} {r.iqr:>7.3f} {r.ad_gumbel:>10.3f} "
              f"{r.ad_frechet:>11.3f} {r.hill_index:>6.2f}")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--replications", type=int, default=10**4)
    ap.add_argument("--seed", type=int, default=0)
    args = ap.parse_args()

    rng = RandomStream(args.seed)
    show("fixed nu=3, single t",
         TriangularArraySpec(KS, 3, MAX_OF_T, args.replications), rng)
    show("log-growth nu(k) = ceil(ln k) + 1, single t",
         TriangularArraySpec(KS, lambda k: math.ceil(math.log(k)) + 1, MAX_OF_T,
                             args.replications), rng)
    show("log-growth nu(k), sum of two t",
         TriangularArraySpec(KS, lambda k: math.ceil(math.log(k)) + 1, MAX_OF_T_SUM,
                             args.replications), rng)


if __name__ == "__main__":
    main()
