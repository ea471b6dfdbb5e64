"""Batch command-line surface: every computation is driven from a JobSpec
and emits deterministic JSON (sorted keys, exact rational strings).

Exit codes: 0 success, 1 verification mismatch, 2 invalid input,
3 enumeration cap exceeded or out of memory.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
from dataclasses import asdict, dataclass, field as dc_field, fields
from itertools import compress
from math import gcd
from operator import getitem

from .algebra import (DEFAULT_CAP, CapExceeded, NilAlgebra, Pattern,
                      VerificationFailed)
from .characters import (GroupTable, exp_kirillov, kirillov, supercharacter,
                         theta_lambda, xi)
from .chain import chain_compute
from .duals import Functional, orbit
from .exotic import (constant_diagonal_algebra, corner_character_analysis,
                     exotic_report, verdict, verify_chain_closed_forms)
from .scalars import field_make, prime_power_split


KINDS = {"orbit": ("left", "right", "two-sided", "coadjoint"),
         "table": ("theta", "kirillov", "expkirillov", "superchar", "xi")}


@dataclass
class JobSpec:
    """Normalized description of one CLI invocation; round-trips through
    JSON losslessly."""

    command: str
    q: int = 2
    modulus: list = None
    n: int = 0
    r: int = 0
    lam: list = dc_field(default_factory=list)
    which: str = ""
    cap: int = DEFAULT_CAP
    out: str = ""

    def to_json(self):
        return _encode(asdict(self))

    @classmethod
    def from_json(cls, text):
        """The job of a JSON object; ValueError naming the field for a
        key that is not a field or a missing command, and for a top level
        that is not an object."""
        data = json.loads(text)
        if not isinstance(data, dict):
            raise ValueError(f"job must be a JSON object, got {data!r}")
        names = [f.name for f in fields(cls)]
        for key in data:
            if key not in names:
                raise ValueError(f"{key} is not a job field; the fields are "
                                 f"{', '.join(names)}")
        if "command" not in data:
            raise ValueError("command is required")
        return cls(**data)

    def validate(self):
        """Raise ValueError for inputs no command accepts: an unknown
        command; q, n, r or cap that is not an integer, or a modulus that
        is not null or a list of integers (a float, bool or string is
        rejected rather than coerced); which or out that is not a string;
        an enumeration cap below 1, chain, orbit or table with n < 1,
        kappa with n < 2 (A_n(q) then has no corner), a which outside
        KINDS, or a lambda that is not a list of integer [i, j, c]
        triples."""
        if self.command not in COMMANDS:
            raise ValueError(f"command must be one of {', '.join(COMMANDS)}, "
                             f"got {self.command!r}")
        for name in ("q", "n", "r", "cap"):
            if type(getattr(self, name)) is not int:
                raise ValueError(f"{name} must be an integer, got "
                                 f"{getattr(self, name)!r}")
        if self.modulus is not None and not (
                isinstance(self.modulus, list)
                and all(type(c) is int for c in self.modulus)):
            raise ValueError("modulus must be null or a list of integers, "
                             f"got {self.modulus!r}")
        for name in ("which", "out"):
            if not isinstance(getattr(self, name), str):
                raise ValueError(f"{name} must be a string, got "
                                 f"{getattr(self, name)!r}")
        if self.cap < 1:
            raise ValueError(f"cap {self.cap} is not a positive integer")
        if self.command in ("chain", "orbit", "table") and self.n < 1:
            raise ValueError(f"{self.command} needs n >= 1, got n = {self.n}")
        if self.command == "kappa" and self.n < 2:
            raise ValueError(f"kappa needs n >= 2, got n = {self.n}")
        if self.command in KINDS and self.which not in KINDS[self.command]:
            raise ValueError(f"unknown {self.command} kind {self.which!r}: "
                             f"expected {', '.join(KINDS[self.command])}")
        if not isinstance(self.lam, (list, tuple)):
            raise ValueError("lambda must be a JSON list of [i, j, c] triples")
        for entry in self.lam:
            if not (isinstance(entry, (list, tuple)) and len(entry) == 3
                    and all(type(x) is int for x in entry)):
                raise ValueError(f"bad lambda entry {entry!r}: expected "
                                 "[i, j, c] with integer i, j and c")


def field_for(q, modulus=None):
    """F_q, with the given modulus if any; ValueError unless q is a prime
    power."""
    return field_make(*prime_power_split(q), modulus)


# ---------------------------------------------------------------------------
# serialization


class Raw:
    """JSON text, which render copies as it is."""

    __slots__ = ("text",)

    def __init__(self, text):
        self.text = text


# the one JSON encoder: sorted keys, no spaces
_encode = json.JSONEncoder(sort_keys=True, separators=(",", ":")).encode


def ser_cyclotomic(c):
    """Each coefficient nums[i] / den as str(Fraction) writes it: in lowest
    terms, "n" or "n/d"."""
    den = c.den
    if den == 1:
        return {"m": c.m, "coeffs": [str(x) for x in c.nums]}
    coeffs = []
    for x in c.nums:
        g = gcd(x, den)
        coeffs.append(f"{x // g}/{den // g}" if g != den else str(x // g))
    return {"m": c.m, "coeffs": coeffs}


def _array(texts):
    return f"[{','.join(texts)}]"


class _Position(dict):
    """The text [i,j,c] of one position by value c, made on first read."""

    def __init__(self, i, j):
        self.pair = f"[{i},{j}]"
        self.prefix = f"[{i},{j},"

    def __missing__(self, c):
        text = self[c] = f"{self.prefix}{c}]"
        return text


def _entries(pieces, x):
    """[i,j,c] of each nonzero coordinate of x, sorted as pattern order is."""
    return _array(map(getitem, compress(pieces, x), compress(x, x)))


def _subspace(pieces, space):
    basis = _array([_array([pieces[k][v] for k, v in row])
                    for row in space.rows])
    pivots = _array([pieces[k].pair for k in space.pivots])
    return (f'{{"basis":{basis},"dim":{space.dim},'
            f'"pivot_positions":{pivots}}}')


def _extend(texts, piece, q):
    """The q extensions of each text in turn: for c = 0 the text itself,
    else the text followed by piece's [i,j,c], after a comma unless the
    text is empty."""
    head = ["", *[piece[c] for c in range(1, q)]]
    tail = ["", *["," + text for text in head[1:]]]
    return (s + e for s in texts for e in (tail if s else head))


def _table(pieces, q, values):
    """The table's values in the order of
    itertools.product(range(q), repeat=len(pieces)), the coordinates of
    GroupTable.from_algebra, each with the g text of its coordinates.

    The g texts are built over that grid: the texts of the first k
    coordinates are those of the first k - 1, each followed by the k-th
    coordinate's [i,j,c] for c in range(q) (`_extend`).  The last
    coordinate's texts go straight into the row strings.  Each
    value's text is encoded once per distinct (m, nums, den)."""
    if len(values) != q ** len(pieces):
        raise ValueError(f"{len(values)} values for a grid of "
                         f"{q}^{len(pieces)} elements")
    keys = [(v.m, v.nums, v.den) for v in values]
    texts = {key: _encode(ser_cyclotomic(v))
             for key, v in dict(zip(keys, values)).items()}
    grid = [""]
    for piece in pieces[:-1]:
        grid = list(_extend(grid, piece, q))
    if pieces:
        grid = _extend(grid, pieces[-1], q)
    return _array(map('{{"g":[{}],"value":{}}}'.format, grid,
                      map(texts.__getitem__, keys)))


# ---------------------------------------------------------------------------
# commands


def _u_n_job(spec):
    """u_n(q), the job's lambda on it, the text pieces of its positions and
    the fields that open a chain, orbit or table body.  Each coefficient
    must be a field-element encoding in [0, q), and each position must
    occur once; Functional.from_entries would otherwise silently reduce the
    one and keep only the last value of the other."""
    field = field_for(spec.q, spec.modulus)
    algebra = NilAlgebra.pattern_algebra(Pattern.full(spec.n), field)
    seen = set()
    for i, j, c in spec.lam:
        if not 0 <= c < spec.q:
            raise ValueError(f"lambda coefficient {c} at ({i}, {j}) is not "
                             f"an encoding in [0, {spec.q})")
        if (i, j) in seen:
            raise ValueError(f"lambda position ({i}, {j}) is repeated")
        seen.add((i, j))
    lam = Functional.from_entries(algebra,
                                  {(i, j): c for i, j, c in spec.lam})
    pieces = [_Position(i, j) for i, j in algebra.pattern.order]
    return algebra, lam, pieces, {
        "command": spec.command, "n": spec.n, "q": spec.q,
        "lambda": Raw(_entries(pieces, lam.values))}


def cmd_chain(spec):
    algebra, lam, pieces, head = _u_n_job(spec)
    ch = chain_compute(algebra, lam)
    # l_bar, s_bar and the last s^i can be one object: one text each
    spaces = {id(s): s for s in ch.l_list[1:] + ch.s_list[1:]}
    texts = {k: _subspace(pieces, s) for k, s in spaces.items()}
    return {
        **head,
        "d": ch.d,
        "dims_l": [s.dim for s in ch.l_list],
        "dims_s": [s.dim for s in ch.s_list],
        "l": Raw(_array([texts[id(s)] for s in ch.l_list[1:]])),
        "s": Raw(_array([texts[id(s)] for s in ch.s_list[1:]])),
        "l_bar": Raw(texts[id(ch.l_bar)]),
        "s_bar": Raw(texts[id(ch.s_bar)]),
        "xi_degree_exponent": ch.degree_exponent,
        "xi_norm_exponent": ch.norm_exponent,
        "chi_degree_exponent": ch.chi_degree_exponent,
        "chi_norm_exponent": ch.chi_norm_exponent,
    }, 0


def cmd_exotic(spec):
    field = field_for(spec.q, spec.modulus)
    n = spec.n if spec.n else 6 * spec.r + 1
    body, corner = exotic_report(spec.r, field, n, spec.cap)
    return {"command": "exotic", **body}, 0 if verdict(body, corner) else 1


def cmd_verify(spec):
    field = field_for(spec.q, spec.modulus)
    result, _, _ = verify_chain_closed_forms(spec.r, field)
    ok = verdict(result)
    return {"command": "verify", **result, "pass": ok}, 0 if ok else 1


def cmd_kappa(spec):
    field = field_for(spec.q, spec.modulus)
    result = corner_character_analysis(
        constant_diagonal_algebra(spec.n, field), spec.cap)
    return {"command": "kappa", **result}, 0 if verdict(result) else 1


def cmd_orbit(spec):
    algebra, lam, pieces, head = _u_n_job(spec)
    orb = orbit(lam, spec.which, spec.cap)
    return {
        **head,
        "which": spec.which,
        "size": len(orb),
        "orbit": Raw(_array([_entries(pieces, v) for v in orb])),
    }, 0


def cmd_table(spec):
    algebra, lam, pieces, head = _u_n_job(spec)
    group = GroupTable.from_algebra(algebra, spec.cap)
    if spec.which == "theta":
        fn = theta_lambda(group, lam)
    elif spec.which == "kirillov":
        fn = kirillov(group, lam, spec.cap)
    elif spec.which == "expkirillov":
        fn = exp_kirillov(group, lam, spec.cap)
    elif spec.which == "superchar":
        fn = supercharacter(group, lam, spec.cap)
    else:  # xi; validate rejects every other kind
        fn = xi(algebra, lam, group, spec.cap)
    return {
        **head,
        "which": spec.which,
        "degree": ser_cyclotomic(fn.degree),
        # u_n's coordinates are its entries in pattern order
        "values": Raw(_table(pieces, spec.q, fn.values)),
    }, 0


COMMANDS = {
    "chain": cmd_chain,
    "exotic": cmd_exotic,
    "verify": cmd_verify,
    "kappa": cmd_kappa,
    "orbit": cmd_orbit,
    "table": cmd_table,
}


@functools.cache
def build_parser():
    """The argparse tree, built on first use and shared by later calls."""
    parser = argparse.ArgumentParser(
        prog="utchar",
        description="Exact supercharacter / Kirillov computations on "
                    "unitriangular and algebra groups.")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, n=False, r=False, lam=False, which=None):
        p.add_argument("--q", type=int, required=True,
                       help="field size, a prime power")
        p.add_argument("--modulus", type=str, default=None,
                       help="comma-separated modulus coefficients, low "
                            "degree first (optional)")
        p.add_argument("--cap", type=int, default=DEFAULT_CAP,
                       help="enumeration cap")
        p.add_argument("--out", type=str, default="",
                       help="write JSON to this file instead of stdout")
        if n:
            p.add_argument("--n", type=int, required=True)
        if r:
            p.add_argument("--r", type=int, required=True)
        if lam:
            p.add_argument("--lambda", dest="lam", type=str, default="[]",
                           help='JSON list of [i, j, c] entries, 1-based')
        if which:
            p.add_argument("--which", type=str, required=True,
                           choices=which)

    common(sub.add_parser("chain", help="kernel chain of a functional"),
           n=True, lam=True)
    p_exotic = sub.add_parser("exotic", help="large-field character report")
    common(p_exotic, r=True)
    p_exotic.add_argument("--n", type=int, default=0,
                          help="ambient size (default 6r+1)")
    common(sub.add_parser("verify",
                          help="closed-form chain verification"), r=True)
    common(sub.add_parser("kappa",
                          help="corner supercharacter analysis on the "
                               "constant-diagonal group"), n=True)
    common(sub.add_parser("orbit", help="orbit of a functional"),
           n=True, lam=True, which=KINDS["orbit"])
    common(sub.add_parser("table", help="full value table of a function"),
           n=True, lam=True, which=KINDS["table"])
    return parser


def spec_from_args(args):
    modulus = None
    if getattr(args, "modulus", None):
        modulus = [int(x) for x in args.modulus.split(",")]
    return JobSpec(
        command=args.command,
        q=args.q,
        modulus=modulus,
        n=getattr(args, "n", 0) or 0,
        r=getattr(args, "r", 0) or 0,
        lam=json.loads(getattr(args, "lam", "[]") or "[]"),
        which=getattr(args, "which", "") or "",
        cap=args.cap,
        out=args.out,
    )


def run(spec):
    spec.validate()
    return COMMANDS[spec.command](spec)


def render(body):
    """body as one line of JSON with sorted keys, each Raw value's text
    copied as it is: what json.dumps writes for those values as lists."""
    return "{%s}\n" % ",".join(
        [f"{_encode(k)}:{v.text if type(v) is Raw else _encode(v)}"
         for k, v in sorted(body.items())])


def _out_problem(path):
    """Why the output cannot be written to path, or None.  Nothing is
    opened, so a run that then fails leaves an existing file as it was."""
    folder = os.path.dirname(path) or "."
    if os.path.isdir(path):
        return f"cannot write {path}: it is a directory"
    if not os.path.isdir(folder):
        return f"cannot write {path}: no directory {folder}"
    if not os.access(path if os.path.exists(path) else folder, os.W_OK):
        return f"cannot write {path}: permission denied"
    return None


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        spec = spec_from_args(args)
        # checked before the work, which can take minutes
        if spec.out and (problem := _out_problem(spec.out)):
            raise ValueError(problem)
        body, code = run(spec)
    except CapExceeded as err:
        print(f"error: {err}", file=sys.stderr)
        return 3
    except MemoryError:
        # the cap bounds |G|, not the |G|^2 tables some stages build
        print("error: out of memory", file=sys.stderr)
        return 3
    except VerificationFailed as err:
        print(f"error: {err}", file=sys.stderr)
        return 1
    except (ValueError, AssertionError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    text = render(body)
    if not spec.out:
        sys.stdout.write(text)
        return code
    try:
        with open(spec.out, "w") as handle:
            handle.write(text)
    except OSError as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    return code


if __name__ == "__main__":
    sys.exit(main())
