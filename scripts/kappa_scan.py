#!/usr/bin/env python3
"""Scan the corner supercharacter of the constant-diagonal groups A_n(q):
constituent counts, maximal value conductors, element orders, and the two
Kirillov character tests.

Example:
    python scripts/kappa_scan.py --nmax 6 --qs 2,3 --cap 1000
"""

import argparse
import sys
import time

sys.path.insert(0, "src")

from utchar.exotic import corner_character_analysis  # noqa: E402
from utchar.cli import field_for  # noqa: E402


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--nmin", type=int, default=2)
    parser.add_argument("--nmax", type=int, default=6)
    parser.add_argument("--qs", type=str, default="2,3")
    parser.add_argument("--cap", type=int, default=1 << 12)
    args = parser.parse_args()
    try:
        fields = [(q, field_for(q)) for q in map(int, args.qs.split(","))]
    except ValueError as err:
        parser.error(str(err))
    print(f"{'n':>2} {'q':>2} {'|A|':>5} {'#cons':>6} {'cond':>5} "
          f"{'maxord':>7} {'psi?':>5} {'psiExp?':>8} {'sec':>6}")
    for q, field in fields:
        for n in range(args.nmin, args.nmax + 1):
            if q ** (n - 1) > args.cap:
                continue
            start = time.perf_counter()
            rep = corner_character_analysis(n, field, args.cap)
            elapsed = time.perf_counter() - start
            print(f"{n:>2} {q:>2} {rep.group_size:>5} "
                  f"{rep.constituent_count:>6} "
                  f"{rep.max_constituent_conductor:>5} "
                  f"{rep.max_element_order:>7} "
                  f"{str(rep.kirillov_is_character):>5} "
                  f"{str(rep.exp_kirillov_is_character):>8} {elapsed:>6.2f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
