#!/usr/bin/env python3
"""Run the closed-form chain verification over an (r, q) grid and print a
timing/dimension summary.

Example:
    python scripts/verify_grid.py --rmax 4 --qs 2,3,4
"""

import argparse
import sys
import time

sys.path.insert(0, "src")

from utchar.exotic import verify_chain_closed_forms  # noqa: E402
from utchar.cli import field_for  # noqa: E402


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--rmin", type=int, default=2)
    parser.add_argument("--rmax", type=int, default=4)
    parser.add_argument("--qs", type=str, default="2,3,4")
    args = parser.parse_args()
    try:
        fields = [(q, field_for(q)) for q in map(int, args.qs.split(","))]
    except ValueError as err:
        parser.error(str(err))
    print(f"{'r':>3} {'q':>3} {'dim n':>6} {'dim s':>6} {'dim l':>6} "
          f"{'d':>2} {'pass':>5} {'sec':>7}")
    failures = 0
    for r in range(args.rmin, args.rmax + 1):
        for q, field in fields:
            start = time.perf_counter()
            tech, _, _ = verify_chain_closed_forms(r, field)
            elapsed = time.perf_counter() - start
            failures += not tech.ok
            print(f"{r:>3} {q:>3} {tech.dim_ambient:>6} {tech.dim_s_bar:>6} "
                  f"{tech.dim_l_bar:>6} {tech.stabilization:>2} "
                  f"{str(tech.ok):>5} {elapsed:>7.2f}")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
