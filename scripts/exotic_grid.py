#!/usr/bin/env python3
"""Tabulate the full large-field character reports over an (r, q) grid:
degree and norm exponents, constituent data, value-field conductors, and
the character tests for the two Kirillov functions.

Example:
    python scripts/exotic_grid.py --rmax 3 --qs 2,3,4,5
"""

import argparse
import sys
import time

sys.path.insert(0, "src")

from utchar.exotic import exotic_report  # noqa: E402
from utchar.cli import field_for  # noqa: E402


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--rmin", type=int, default=2)
    parser.add_argument("--rmax", type=int, default=3)
    parser.add_argument("--qs", type=str, default="2,3")
    args = parser.parse_args()
    try:
        fields = [(q, field_for(q)) for q in map(int, args.qs.split(","))]
    except ValueError as err:
        parser.error(str(err))
    header = (f"{'r':>2} {'q':>2} {'n':>3} {'xi deg':>7} {'norm':>5} "
              f"{'#cons':>6} {'cons deg':>8} {'cond':>5} {'psi?':>5} "
              f"{'psiExp?':>8} {'sec':>7}")
    print(header)
    for r in range(args.rmin, args.rmax + 1):
        for q, field in fields:
            start = time.perf_counter()
            rep = exotic_report(r, field)
            elapsed = time.perf_counter() - start
            print(f"{r:>2} {q:>2} {rep.n:>3} "
                  f"q^{rep.xi_degree_exponent:<4} q^{rep.xi_norm_exponent:<2} "
                  f"{rep.constituent_count:>6} "
                  f"q^{rep.constituent_degree_exponent:<5} "
                  f"{rep.value_field_conductor:>5} "
                  f"{str(rep.kirillov_is_character):>5} "
                  f"{str(rep.exp_kirillov_is_character):>8} {elapsed:>7.2f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
