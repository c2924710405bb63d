#!/usr/bin/env python3
"""Convergence study for the Stirling truncation of alternating Euler sums.

For each truncation depth kt, prints the exact closed form's decimal value
and its error against the accelerated series oracle.  Shows where the
often-quoted nine-decimal accuracy is actually reached (kt = 12 for p = 5).

Usage:
    python scripts/truncation_study.py [--p 5] [--kt-max 14]
"""

import argparse

from polylog.approx import s_minus_truncated
from polylog.eulersums import sum_oracle
from polylog.sigma import cf_num


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--p", type=int, default=5)
    parser.add_argument("--kt-max", type=int, default=14)
    args = parser.parse_args()

    oracle = sum_oracle("SMinus", args.p)
    print(f"S-({args.p}) oracle = {oracle:.15f}")
    print(f"{'kt':>3s}  {'truncated value':>20s}  {'abs error':>12s}")
    for kt in range(1, args.kt_max + 1):
        value = cf_num(s_minus_truncated(args.p, kt))
        print(f"{kt:3d}  {value:20.15f}  {abs(value - oracle):12.3e}")


if __name__ == "__main__":
    main()
