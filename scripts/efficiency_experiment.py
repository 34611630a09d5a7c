"""Estimate the total-sample efficiency ratio of the two procedures.

Runs the constant-pilot schedule (ratio should drift toward 2^(2/nu)) and
the log-growth schedule (normalized sizes should match E max{L, sigma^2}).

Usage: python scripts/efficiency_experiment.py [--nu 4] [--replications 200000]
"""

import argparse

from ranksel.distributions import RandomStream
from ranksel.efficiency import ScheduleSpec, efficiency_curve, limit_maxmix
from ranksel.procedures import VariancePrior

KS = [10, 100, 1000, 10**4]


def show(report):
    print(f"{'k':>6} {'n0':>4} {'h_ratio^2':>10} {'alpha_dd':>9} {'alpha_rin':>9} "
          f"{'total_ratio':>11} {'lhat_dd':>8}")
    for r in report.rows:
        print(f"{r.k:>6} {r.n0:>4} {r.h_ratio_sq:>10.5f} {r.alpha_dd.alpha:>9.5f} "
              f"{r.alpha_rinott.alpha:>9.5f} {r.total_ratio:>11.5f} {r.lhat_dd:>8.4f}")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--nu", type=int, default=4)
    ap.add_argument("--p", type=float, default=0.9)
    ap.add_argument("--prior", default="inverse-gamma:3,4")
    ap.add_argument("--replications", type=int, default=2 * 10**5)
    ap.add_argument("--seed", type=int, default=0)
    args = ap.parse_args()

    prior = VariancePrior.from_string(args.prior)

    report = efficiency_curve(KS, args.nu, args.p, 1.0, prior,
                              args.replications, RandomStream(args.seed))
    print(f"constant pilot n0={args.nu + 1}: total_ratio limit = {report.theoretical_eta:.6f}")
    show(report)

    report = efficiency_curve(KS, ScheduleSpec("log-growth"), args.p, 1.0, prior,
                              args.replications, RandomStream(args.seed))
    print("\nlog-growth pilot n0(k) = ceil(ln k) + 2: no closed ratio limit")
    show(report)
    last = report.rows[-1]
    for est, lhat in ((last.alpha_dd, last.lhat_dd), (last.alpha_rinott, last.lhat_rinott)):
        print(f"  {est.variant:6}: alpha={est.alpha:.5f} vs "
              f"E max(L, sigma^2)={limit_maxmix(lhat, prior):.5f} (L={lhat:.4f})")


if __name__ == "__main__":
    main()
