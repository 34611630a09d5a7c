"""Tabulate both critical constants over k and watch h2/h1 drift to 2^(1/nu).

Usage: python scripts/h_ratio_table.py [--nus 2,4,9] [--p 0.9] [--kmax 100000]
"""

import argparse

from ranksel.hconst import h_table


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--nus", default="2,4,9")
    ap.add_argument("--p", type=float, default=0.9)
    ap.add_argument("--kmax", type=int, default=10**5)
    args = ap.parse_args()

    ks = [k for k in (1, 10, 100, 1000, 10**4, 10**5) if k <= args.kmax]
    for nu in (int(v) for v in args.nus.split(",")):
        limit = 2.0 ** (1.0 / nu)
        print(f"\nnu={nu}  p={args.p}  (ratio limit 2^(1/nu) = {limit:.6f})")
        print(f"{'k':>8} {'h_dd':>12} {'h_rinott':>12} {'ratio':>10} {'gap':>10}")
        for row in h_table(ks, nu, args.p):
            print(
                f"{row.k:>8} {row.dd.value:>12.6f} {row.rinott.value:>12.6f} "
                f"{row.ratio:>10.6f} {abs(row.ratio - limit):>10.2e}"
            )


if __name__ == "__main__":
    main()
