#!/usr/bin/env python3
"""Run one computation over a grid of sizes and fields and print one row
per run, ending with its time in seconds:

    verify  the closed-form chain verification on UT_{6r+1}(q): dimensions,
            stabilization step and verdict;
    exotic  the full large-field character report on UT_{6r+1}(q): degree
            and norm exponents, constituent data, value-field conductor and
            the character tests for the two Kirillov functions;
    kappa   the corner supercharacter of A_n(q), for |A_n(q)| <= --cap:
            constituent count, maximal conductor and element order, and the
            two Kirillov character tests.

Exits 1 if the checks of any row fail, and 2 if a --qs entry is not a
prime power, as the CLI does.

Examples:
    python scripts/grid.py verify --rmax 4 --qs 2,3,4
    python scripts/grid.py exotic --rmax 3 --qs 2,3,4,5
    python scripts/grid.py kappa --nmax 6 --qs 2,3 --cap 1000
"""

import argparse
import sys
import time
from dataclasses import dataclass

sys.path.insert(0, "src")

from utchar.cli import field_for  # noqa: E402
from utchar.exotic import (constant_diagonal_algebra,  # noqa: E402
                           corner_character_analysis, exotic_report,
                           verdict, verify_chain_closed_forms)


def verify_row(r, q, tech, sec):
    return (f"{r:>3} {q:>3} {tech['dim_ambient']:>6} "
            f"{tech['dim_s_bar']:>6} {tech['dim_l_bar']:>6} "
            f"{tech['stabilization']:>2} "
            f"{str(verdict(tech)):>5} {sec:>7.2f}")


def exotic_row(r, q, rep, sec):
    return (f"{r:>2} {q:>2} {rep['n']:>3} "
            f"q^{rep['xi_degree_exponent']:<4} "
            f"q^{rep['xi_norm_exponent']:<2} "
            f"{rep['constituent_count']:>6} "
            f"q^{rep['constituent_degree_exponent']:<5} "
            f"{rep['value_field_conductor']:>5} "
            f"{str(rep['kirillov_is_character']):>5} "
            f"{str(rep['exp_kirillov_is_character']):>8} {sec:>7.2f}")


def kappa_run(n, field, cap):
    if field.q ** (n - 1) > cap:
        return None  # A_n(q) has q^(n-1) elements
    return (corner_character_analysis(constant_diagonal_algebra(n, field),
                                      cap),)


def kappa_row(n, q, rep, sec):
    return (f"{n:>2} {q:>2} {rep['group_size']:>5} "
            f"{rep['constituent_count']:>6} "
            f"{rep['max_constituent_conductor']:>5} "
            f"{rep['max_element_order']:>7} "
            f"{str(rep['kirillov_is_character']):>5} "
            f"{str(rep['exp_kirillov_is_character']):>8} {sec:>6.2f}")


@dataclass(frozen=True)
class Grid:
    """One subcommand.  size names the varied size ("r" or "n"), with the
    default range sizes; run(size, field, cap) returns the library's
    results, which the row passes if `verdict` holds on all of them, or
    None to skip the point; row(size, q, result, seconds) formats the
    first under header.  cap is the default --cap, and None means the
    subcommand has no cap."""

    size: str
    sizes: tuple
    qs: str
    header: str
    run: object
    row: object
    cap: object = None


GRIDS = {
    "verify": Grid(
        "r", (2, 4), "2,3,4",
        f"{'r':>3} {'q':>3} {'dim n':>6} {'dim s':>6} {'dim l':>6} "
        f"{'d':>2} {'pass':>5} {'sec':>7}",
        lambda r, field, cap: verify_chain_closed_forms(r, field)[:1],
        verify_row),
    "exotic": Grid(
        "r", (2, 3), "2,3",
        f"{'r':>2} {'q':>2} {'n':>3} {'xi deg':>7} {'norm':>5} "
        f"{'#cons':>6} {'cons deg':>8} {'cond':>5} {'psi?':>5} "
        f"{'psiExp?':>8} {'sec':>7}",
        lambda r, field, cap: exotic_report(r, field),
        exotic_row),
    "kappa": Grid(
        "n", (2, 6), "2,3",
        f"{'n':>2} {'q':>2} {'|A|':>5} {'#cons':>6} {'cond':>5} "
        f"{'maxord':>7} {'psi?':>5} {'psiExp?':>8} {'sec':>6}",
        kappa_run, kappa_row, cap=1 << 12),
}


def main(argv=None):
    parser = argparse.ArgumentParser(
        description="Run verify, exotic or kappa over a grid of sizes and "
                    "fields.")
    sub = parser.add_subparsers(dest="grid", required=True)
    for name, grid in GRIDS.items():
        p = sub.add_parser(name)
        p.add_argument(f"--{grid.size}min", type=int, default=grid.sizes[0])
        p.add_argument(f"--{grid.size}max", type=int, default=grid.sizes[1])
        p.add_argument("--qs", type=str, default=grid.qs,
                       help="comma-separated field sizes, prime powers")
        if grid.cap is not None:
            p.add_argument("--cap", type=int, default=grid.cap,
                           help="enumeration cap")
    args = parser.parse_args(argv)
    grid = GRIDS[args.grid]
    try:
        fields = [(q, field_for(q)) for q in map(int, args.qs.split(","))]
    except ValueError as err:
        parser.error(str(err))
    print(grid.header)
    failures = 0
    for size in range(getattr(args, grid.size + "min"),
                      getattr(args, grid.size + "max") + 1):
        for q, field in fields:
            start = time.perf_counter()
            results = grid.run(size, field, getattr(args, "cap", None))
            if results is None:
                continue
            elapsed = time.perf_counter() - start
            failures += not verdict(*results)
            print(grid.row(size, q, results[0], elapsed))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
