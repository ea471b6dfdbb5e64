"""Output checks, run outside the timed region.

`check_output` gates one job's exit code and rendered JSON: the schema in
`schemas/`, the `pass`/`checks` verdicts, the closed-form exponents of the
UT_{6r+1}(q) construction, and, where one is recorded, the sha256 of the
bytes.  `cross_check` compares results with independent computations:
chains with the dense oracle in `tests/oracles.py`, and xi tables with
<xi, xi> = q^(norm exponent), summed exactly in the group ring Q[Z/p].
"""

from __future__ import annotations

import hashlib
import importlib.util
import json
from fractions import Fraction
from math import lcm

# boolean verdicts a command reports about itself, beyond "pass"/"checks"
VERDICTS = {
    "verify": ("matches", "final_bilinear", "first_step_obstruction_sets"),
    "kappa": ("chi_formula_matches", "constituents_distinct",
              "constituents_sum_matches"),
}


def sha256(text):
    return hashlib.sha256(text.encode()).hexdigest()


def load_validators(schema_dir):
    """A Draft 2020-12 validator per command schema.  References into
    `defs.schema.json` are inlined first: the definitions are not
    recursive, and resolving them per array item is what makes validating
    a large table slow."""
    from jsonschema import Draft202012Validator

    defs = json.loads((schema_dir / "defs.schema.json").read_text())["$defs"]

    def inline(node):
        if isinstance(node, list):
            return [inline(item) for item in node]
        if not isinstance(node, dict):
            return node
        if "$ref" not in node:
            return {key: inline(value) for key, value in node.items()}
        target = inline(defs[node["$ref"].rpartition("/")[2]])
        rest = {key: inline(value) for key, value in node.items()
                if key != "$ref"}
        return {"allOf": [target, rest]} if rest else target

    return {path.name.split(".")[0]:
            Draft202012Validator(inline(json.loads(path.read_text())))
            for path in sorted(schema_dir.glob("*.schema.json"))
            if path.name != "defs.schema.json"}


def _all_true(value):
    if isinstance(value, dict):
        return all(_all_true(v) for v in value.values())
    return value is True


def check_output(job, code, text, validators, digest=None):
    """Problems with one job's result; an empty list means it passed."""
    if code != 0:
        return [f"exit code {code}"]
    if digest is not None and sha256(text) != digest:
        return ["output differs from the recorded digest"]
    try:
        body = json.loads(text)
    except ValueError as err:
        return [f"output is not JSON: {err}"]
    problems = [f"schema: {err.message}"
                for err in validators[job.command].iter_errors(body)][:1]
    if problems:
        return problems
    for key in ("pass", "checks") + VERDICTS.get(job.command, ()):
        if key in body and not _all_true(body[key]):
            problems.append(f"{key} is not all true")
    if job.command in ("verify", "exotic"):
        if job.command == "verify":
            degree = body["dim_ambient"] - body["dim_l_bar"]
            norm = body["dim_s_bar"] - body["dim_l_bar"]
        else:
            degree = body["xi_degree_exponent"]
            norm = body["xi_norm_exponent"]
        r = job.r
        if degree != 5 * r * r - r - 1:
            problems.append(f"xi degree exponent {degree} != 5r^2-r-1")
        if norm != r - 1:
            problems.append(f"xi norm exponent {norm} != r-1")
    return problems


# ---------------------------------------------------------------------------
# independent cross-checks


def load_oracles(root):
    """tests/oracles.py, imported read-only by path."""
    spec = importlib.util.spec_from_file_location(
        "perfbench_oracles", root / "tests" / "oracles.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def prime_power(q):
    p = next(d for d in range(2, q + 1) if q % d == 0)
    e = 0
    while q % p == 0:
        q //= p
        e += 1
    if q != 1:
        raise ValueError("q is not a prime power")
    return p, e


def _dense_chain(oracles, job):
    from utchar.algebra import NilAlgebra, Pattern
    from utchar.duals import Functional
    from utchar.scalars import field_make

    field = field_make(*prime_power(job.q))
    algebra = NilAlgebra.pattern_algebra(Pattern.full(job.n), field)
    lam = Functional.from_entries(algebra,
                                  {(i, j): c for i, j, c in job.lam})
    return oracles.dense_chain(algebra, lam)


def _dense_rows(space, n):
    index = {(i, j): k for k, (i, j) in enumerate(
        (i, j) for i in range(1, n) for j in range(i + 1, n + 1))}
    rows = []
    for basis_row in space["basis"]:
        vec = [0] * len(index)
        for i, j, c in basis_row:
            vec[index[(i, j)]] = c
        rows.append(vec)
    return rows


def group_ring_norm(values):
    """(1/|G|) sum |v|^2 for cyclotomic values {"m", "coeffs"} whose
    conductors divide one prime P (or are 1), as an exact Fraction, or None
    if it is not rational.  Works in Q[Z/P], where zeta_P -> x; a sum
    s_0 + s_1 x + ... is rational in Q(zeta_P) iff s_1 = ... = s_{P-1}, and
    then equals s_0 - s_1."""
    big = 1
    for v in values:
        big = lcm(big, v["m"])
    if big > 1 and any(big % d == 0 for d in range(2, big)):
        raise ValueError(f"conductor {big} is not prime")
    total = [Fraction(0)] * big
    for v in values:
        step = big // v["m"]
        a = [Fraction(0)] * big
        for k, c in enumerate(v["coeffs"]):
            a[(k * step) % big] += Fraction(c)
        for i, x in enumerate(a):
            if x:
                for j, y in enumerate(a):
                    if y:
                        total[(i - j) % big] += x * y
    if len(set(total[1:])) > 1:
        return None
    value = total[0] - (total[1] if big > 1 else 0)
    return value / len(values)


def cross_check(oracles, job, text):
    """Problems found by the independent checks for this job's command
    (none for commands without one)."""
    if not (job.command == "chain"
            or (job.command == "table" and job.which == "xi")):
        return []
    body = json.loads(text)
    l_steps, s_steps = _dense_chain(oracles, job)
    if job.command == "chain":
        got_l = [_dense_rows(s, job.n) for s in body["l"]]
        got_s = [_dense_rows(s, job.n) for s in body["s"]]
        if got_l != l_steps or got_s != s_steps:
            return ["chain differs from the dense oracle"]
        return []
    norm_exponent = len(s_steps[-1]) - len(l_steps[-1])
    norm = group_ring_norm([item["value"] for item in body["values"]])
    if norm != job.q ** norm_exponent:
        return [f"<xi, xi> = {norm}, expected q^{norm_exponent}"]
    return []
