#!/usr/bin/env python3
"""Sweep the constant-coupling configuration over (c, lambda) and report the
smallest scanned window at which the future-side derivative sum is proved
divergent, with the sum over a window of 50.

For constant gamma = c every term of the future-side sum is c e^{-lambda}
(1 + c e^{-lambda})^d >= c e^{-lambda}, the closed-form floor `make_emo`
declares; once the computed terms bear that floor out, it proves divergence
at any window, so the first window scanned (10) is reported.  Writes a CSV
and prints a small table.

    python3 scripts/divergence_sweep.py --out out/divergence.csv
"""

import argparse
import csv
import sys
from pathlib import Path

from nonautolin import DIVERGENT, certify, system_by_name


def future_sum(sys, n, w):
    """The future-side derivative sum J_n over [n + 1, n + w]."""
    return certify(sys, (n, n), w, probes=4).ac2[n][1]


def smallest_divergent_window(sys, n, cap=80):
    for w in range(10, cap + 1, 2):
        if future_sum(sys, n, w).verdict == DIVERGENT:
            return w
    return None


def run(argv=None):
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out", default="out/divergence.csv")
    parser.add_argument("--n", type=int, default=0)
    args = parser.parse_args(argv)

    rows = []
    print(f"{'c':>8} {'lambda':>8} {'window':>8} {'J partial':>12}")
    for c in (1e-4, 1e-3, 1e-2, 0.1):
        for lam in (0.1, 0.5, 1.0, 2.0):
            sys_spec = system_by_name("emo", lam=lam, c=c)
            w = smallest_divergent_window(sys_spec, args.n)
            j_est = future_sum(sys_spec, args.n, 50)
            rows.append((c, lam, w, j_est.partial_sum))
            print(f"{c:8.0e} {lam:8.2f} {str(w):>8} {j_est.partial_sum:12.4e}")

    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    with out.open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["c", "lambda", "smallest_divergent_halfwidth", "j_partial_sum_w50"])
        writer.writerows(rows)
    print(f"wrote {out}")
    return 0


if __name__ == "__main__":
    sys.exit(run())
