#!/usr/bin/env python3
"""Cross-validate the three surface-coefficient routes over a grid of
orders and print a summary table with the Dirichlet-power comparison."""

import argparse
import sys

from fracweyl.halfline import FractionalOrder
from fracweyl.constants import compute_weyl_coefficients


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--s-list", default="0.25,0.5,0.75")
    ap.add_argument("--d", type=int, default=2)
    args = ap.parse_args()
    s_strs = args.s_list.split(",")
    try:
        orders = [FractionalOrder(float(v), args.d) for v in s_strs]
    except ValueError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2
    print(f"{'s':>5} {'L1':>12} {'L2(layer)':>12} {'L2(eig)':>12} "
          f"{'L2(shift)':>12} {'tilde-L2':>12} {'worst pair':>11}")
    bad = 0
    for s_str, order in zip(s_strs, orders):
        coefs = {name: entry[0] for name, entry in compute_weyl_coefficients(order).items()}
        vals = (coefs["L2"], coefs["L2_eigenfunction"], coefs["L2_energy_shift"])
        worst = max(abs(a - b) / max(abs(a), abs(b))
                    for i, a in enumerate(vals) for b in vals[i + 1:])
        flag = "" if worst < 0.01 and 0 < coefs["L2"] < coefs["L2_tilde"] else "  <-- FAIL"
        bad += bool(flag)
        print(f"{s_str:>5} {coefs['L1']:12.6e} {vals[0]:12.6e} {vals[1]:12.6e} "
              f"{vals[2]:12.6e} {coefs['L2_tilde']:12.6e} {worst:11.2e}{flag}")
    return 4 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
