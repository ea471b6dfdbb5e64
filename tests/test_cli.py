import hashlib
import importlib.util
import json
import os
import pathlib
import subprocess
import sys
from fractions import Fraction
from types import SimpleNamespace

import pytest
from jsonschema import Draft202012Validator
from referencing import Registry, Resource

from utchar import characters, cli, exotic
from utchar.algebra import (GroupElement, NilAlgebra, Pattern,
                            VerificationFailed)
from utchar.characters import ClassFunction, GroupTable
from utchar.cli import (JobSpec, build_parser, main, render, run,
                        ser_cyclotomic, spec_from_args)
from utchar.duals import SetPartition
from utchar.scalars import CyclotomicNumber, field_make

import oracles
from oracles import structured_body

ROOT = pathlib.Path(__file__).resolve().parent.parent
SCHEMA_DIR = ROOT / "schemas"


def load_validator(name):
    registry = Registry()
    for path in SCHEMA_DIR.glob("*.schema.json"):
        resource = Resource.from_contents(json.loads(path.read_text()))
        registry = registry.with_resource(path.name, resource)
    schema = json.loads((SCHEMA_DIR / name).read_text())
    return Draft202012Validator(schema, registry=registry)


def run_cli(argv):
    """The parsed JSON the command writes, and its exit code."""
    body, code = run(spec_from_args(build_parser().parse_args(argv)))
    return json.loads(render(body)), code


def test_jobspec_roundtrip():
    spec = JobSpec(command="chain", q=3, n=6,
                   lam=[[1, 3, 1], [2, 4, 1]], cap=1000)
    again = JobSpec.from_json(spec.to_json())
    assert again == spec


def test_chain_command_staircase():
    body, code = run_cli([
        "chain", "--n", "6", "--q", "2",
        "--lambda", "[[1,3,1],[2,4,1],[3,5,1],[4,6,1]]"])
    assert code == 0
    assert body["d"] == 3
    l1_pivots = {tuple(p) for p in body["l"][0]["pivot_positions"]}
    constrained = {(i, j) for i in range(1, 6) for j in range(i + 1, 7)} \
        - l1_pivots
    assert constrained == {(1, 2), (2, 3), (3, 4), (4, 5)}
    assert body["xi_degree_exponent"] == 2
    assert body["chi_degree_exponent"] == 4
    load_validator("chain.schema.json").validate(body)


def test_chain_command_corner_and_zero():
    body, _ = run_cli(["chain", "--n", "3", "--q", "2",
                       "--lambda", "[[1,3,1]]"])
    assert body["l_bar"] == body["s_bar"]
    assert body["xi_degree_exponent"] == 1
    body0, _ = run_cli(["chain", "--n", "3", "--q", "2"])
    assert body0["d"] == 1
    assert body0["dims_l"] == [0, 3] and body0["dims_s"] == [3, 3]
    load_validator("chain.schema.json").validate(body0)


def test_chain_command_writes_each_subspace_from_its_own_object():
    # the defining functional at r = 2 ends with l_bar < s_bar, and s_bar is
    # the object of the last two s^i, so a text keyed to the wrong object
    # shows here; the pivot positions are checked against pattern order
    lam = oracles.exotic_functional(2, field_make(2))
    entries = [[i, j, c] for (i, j), c in sorted(lam.entries().items()) if c]
    body, code = run_cli(["chain", "--n", "13", "--q", "2",
                          "--lambda", json.dumps(entries)])
    assert code == 0
    assert body["l_bar"] == body["l"][-1] != body["s_bar"]
    assert body["s_bar"] == body["s"][-1] == body["s"][-2]
    ch = cli.chain_compute(lam.algebra, lam)
    order = lam.algebra.pattern.order
    for texts, spaces in ((body["l"], ch.l_list[1:]),
                          (body["s"], ch.s_list[1:])):
        for text, space in zip(texts, spaces, strict=True):
            assert text["dim"] == space.dim
            assert [tuple(p) for p in text["pivot_positions"]] == \
                [order[k] for k in space.pivots]
    load_validator("chain.schema.json").validate(body)


def test_exotic_command():
    body, code = run_cli(["exotic", "--r", "2", "--q", "2"])
    assert code == 0
    assert body["xi_degree_exponent"] == 17
    assert body["constituent_degree_exponent"] == 16
    assert body["xi_norm_exponent"] == 1
    assert body["value_field_conductor"] == 4
    load_validator("exotic.schema.json").validate(body)


def test_verify_command():
    body, code = run_cli(["verify", "--r", "3", "--q", "2"])
    assert code == 0 and body["pass"]
    assert all(body["matches"].values())
    load_validator("verify.schema.json").validate(body)


def test_kappa_command():
    body, code = run_cli(["kappa", "--n", "4", "--q", "3"])
    assert code == 0
    assert body["exp_kirillov_is_character"] is False  # n = p + 1
    assert body["kirillov_is_character"] is False
    assert body["constituent_count"] == 9
    assert body["exp_kirillov_witness"] is not None
    load_validator("kappa.schema.json").validate(body)


def test_orbit_command():
    body, code = run_cli(["orbit", "--n", "3", "--q", "2",
                          "--lambda", "[[1,3,1]]", "--which", "coadjoint"])
    assert code == 0 and body["size"] == 4
    load_validator("orbit.schema.json").validate(body)


def test_table_command():
    body, code = run_cli(["table", "--n", "3", "--q", "2",
                          "--lambda", "[[1,3,1]]", "--which", "kirillov"])
    assert code == 0
    assert body["degree"] == {"m": 2, "coeffs": ["2"]}
    nonzero = [v for v in body["values"] if v["value"]["coeffs"] != ["0"]]
    assert len(nonzero) == 2
    load_validator("table.schema.json").validate(body)


@pytest.mark.parametrize("nums,den", [
    ((2, -4), 6), ((3, 2), 6), ((0, 0), 1), ((0, 5), 5), ((-7, 0), 1),
    ((6, -9, 0, 12), 3), ((1, -1, 0, 3), 105), ((-250, 125), 1000)])
def test_ser_cyclotomic_writes_each_coefficient_like_fraction(nums, den):
    # ser_cyclotomic reads only m, nums and den, so a numerator tuple that
    # is not in lowest terms overall is rendered per coefficient too
    number = SimpleNamespace(m=5, nums=nums, den=den)
    assert ser_cyclotomic(number) == {
        "m": 5, "coeffs": [str(Fraction(n, den)) for n in nums]}


def test_ser_cyclotomic_matches_fraction_coefficients():
    values = [CyclotomicNumber(3, [Fraction(1, 2), Fraction(1, 3)]),
              CyclotomicNumber(4, [Fraction(-2, 4), 0]),
              CyclotomicNumber.rational(Fraction(-9, 6), 5),
              CyclotomicNumber.zero(8), CyclotomicNumber.zeta(9, 4),
              CyclotomicNumber.zeta(5, 4).scale(Fraction(-3, 10))]
    for c in values:
        assert ser_cyclotomic(c) == {"m": c.m,
                                     "coeffs": [str(x) for x in c.coeffs]}
    assert ser_cyclotomic(values[0])["coeffs"] == ["1/2", "1/3"]
    assert ser_cyclotomic(values[2])["coeffs"] == ["-3/2", "0", "0", "0"]


def test_output_is_deterministic():
    spec = spec_from_args(build_parser().parse_args([
        "table", "--n", "3", "--q", "3", "--lambda", "[[1,3,2]]",
        "--which", "superchar"]))
    body1, _ = run(spec)
    body2, _ = run(spec)
    assert render(body1) == render(body2)
    assert json.loads(render(body1)) == structured_body(spec)


def _jobs(command, cells, kinds):
    return [JobSpec(command=command, n=n, q=q, lam=lam, which=which)
            for n, q, lam in cells for which in kinds]


# two-digit encodings (F_11, F_16), empty arrays (n = 1, 2 and a zero
# lambda) and every table and orbit kind; the tables' g texts are built on
# the coordinate grid, checked also over F_9, on the grids of n = 1 (no
# coordinate) and n = 2 (one), and on a zero lambda, whose values repeat
TABLE_CELLS = [(3, 5, [[1, 3, 4], [2, 3, 1]]), (4, 3, [[1, 4, 1], [2, 3, 2]]),
               (3, 4, [[1, 2, 3], [1, 3, 2]]),
               (3, 11, [[1, 3, 10], [2, 3, 7]]),
               (1, 2, []), (2, 3, []), (2, 5, [[1, 2, 4]]),
               (3, 9, [[1, 3, 5], [2, 3, 7]]), (1, 9, []),
               (2, 9, [[1, 2, 8]]), (3, 4, [])]
ORACLE_JOBS = (
    _jobs("table", TABLE_CELLS,
          ["theta", "kirillov", "expkirillov", "superchar", "xi"])
    + _jobs("orbit", [(4, 2, [[1, 4, 1], [2, 3, 1]]),
                      (3, 9, [[1, 3, 5], [1, 2, 8]]),
                      (3, 11, [[1, 3, 10], [2, 3, 7]]),
                      (1, 3, []), (2, 2, []), (2, 11, [[1, 2, 10]])],
            ["left", "right", "two-sided", "coadjoint"])
    + _jobs("chain", [(6, 2, [[1, 3, 1], [2, 4, 1], [3, 5, 1], [4, 6, 1]]),
                      (5, 3, [[1, 5, 2], [1, 3, 1], [2, 4, 2], [3, 5, 1]]),
                      (5, 4, [[1, 4, 3], [2, 5, 2], [2, 3, 1]]),
                      (5, 16, [[1, 5, 13], [1, 3, 15], [2, 4, 11]]),
                      (4, 16, []), (1, 2, []), (2, 16, [[1, 2, 12]])],
            [""]))


@pytest.mark.parametrize("spec", ORACLE_JOBS, ids=lambda spec: (
    f"{spec.command}-{spec.which}-n{spec.n}-q{spec.q}-{len(spec.lam)}"))
def test_render_writes_the_bytes_of_the_structured_body(spec):
    body, code = run(spec)
    assert code == 0
    assert render(body) == json.dumps(structured_body(spec), sort_keys=True,
                                      separators=(",", ":")) + "\n"


@pytest.mark.parametrize("n,q,lam", TABLE_CELLS)
def test_grid_texts_match_the_per_element_writer(n, q, lam):
    spec = JobSpec(command="table", n=n, q=q, lam=lam, which="superchar")
    algebra, lam, pieces, _ = cli._u_n_job(spec)
    group = GroupTable.from_algebra(algebra)
    values = characters.supercharacter(group, lam).values
    assert cli._table(pieces, q, values) == \
        oracles.per_element_table(pieces, group.coords, values)
    with pytest.raises(ValueError, match="values for a grid"):
        cli._table(pieces, q, values[1:])


def test_render_tells_values_apart_by_their_denominator(monkeypatch):
    # character values are algebraic integers, so the tables above have
    # denominator 1 throughout; halving every other value puts a/1 and a/2,
    # with the same numerators, in one table
    tables = []

    def halved(group, lam):
        values = characters.theta_lambda(group, lam).values
        tables.append(ClassFunction(group, [
            v.scale(Fraction(1, 1 + k % 2)) for k, v in enumerate(values)]))
        return tables[-1]

    monkeypatch.setattr(cli, "theta_lambda", halved)
    monkeypatch.setattr(oracles, "theta_lambda", halved)
    spec = JobSpec(command="table", n=3, q=3, lam=[[1, 3, 1]], which="theta")
    body, _ = run(spec)
    assert render(body) == json.dumps(structured_body(spec), sort_keys=True,
                                      separators=(",", ":")) + "\n"
    keys = {(v.m, v.nums, v.den) for v in tables[0].values}
    assert any((m, nums, 1) in keys for m, nums, den in keys if den == 2)


def test_main_exit_codes(tmp_path, capsys):
    out = tmp_path / "chain.json"
    code = main(["chain", "--n", "3", "--q", "2", "--lambda", "[[1,3,1]]",
                 "--out", str(out)])
    assert code == 0
    assert json.loads(out.read_text())["command"] == "chain"
    capsys.readouterr()
    assert main(["chain", "--n", "3", "--q", "6", "--lambda", "[]"]) == 2
    err = capsys.readouterr()
    assert err.out == "" and "error" in err.err
    assert main(["orbit", "--n", "4", "--q", "3", "--lambda",
                 "[[1,4,1],[2,3,1]]", "--which", "two-sided",
                 "--cap", "2"]) == 3
    err = capsys.readouterr()
    assert err.out == "" and "error" in err.err
    with pytest.raises(SystemExit) as exc:
        main(["chain", "--n", "3"])  # missing required --q
    assert exc.value.code == 2


def test_unwritable_out_exits_2(tmp_path, capsys):
    # an --out path that cannot be opened is invalid input (exit 2), not a
    # verification mismatch (exit 1) with a traceback
    out = tmp_path / "missing" / "verify.json"
    assert main(["verify", "--r", "2", "--q", "2", "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ")
    assert len(captured.err.splitlines()) == 1
    assert not out.parent.exists()


def test_command_bodies_are_the_library_results():
    # each body is the library's result under its command name, with no
    # field renamed, added or dropped; verify adds only its verdict "pass"
    field = cli.field_for(2)
    result, _, _ = exotic.verify_chain_closed_forms(2, field)
    assert run(JobSpec(command="verify", r=2, q=2)) == (
        {"command": "verify", **result, "pass": exotic.verdict(result)}, 0)
    body, _ = exotic.exotic_report(2, field)
    assert run(JobSpec(command="exotic", r=2, q=2)) == (
        {"command": "exotic", **body}, 0)
    result = exotic.corner_character_analysis(
        exotic.constant_diagonal_algebra(4, cli.field_for(3)))
    assert run(JobSpec(command="kappa", n=4, q=3)) == (
        {"command": "kappa", **result}, 0)


def test_two_sided_cap_error_names_the_given_cap(capsys):
    # 27 left orbits of 81 points: the 27th does not fit in 2,186
    argv = ["orbit", "--which", "two-sided", "--n", "5", "--q", "3",
            "--lambda", "[[1,4,2],[2,5,1]]", "--cap"]
    assert main(argv + ["2186"]) == 3
    err = capsys.readouterr()
    assert err.out == "" and err.err == "error: orbit exceeds cap 2186\n"
    assert main(argv + ["2187"]) == 0
    assert json.loads(capsys.readouterr().out)["size"] == 2187


def test_bad_lambda_reports_validation_error(capsys):
    assert main(["chain", "--n", "3", "--q", "2", "--lambda",
                 "[[1,2]]"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""


def test_out_of_range_lambda_encoding_is_rejected(capsys):
    # 5 is not an encoding of F_4; it used to be read as 5 mod 4 = 1
    for argv in (["chain", "--n", "4", "--q", "4", "--lambda", "[[1,3,5]]"],
                 ["orbit", "--n", "3", "--q", "2", "--lambda", "[[1,3,-1]]",
                  "--which", "left"],
                 ["table", "--n", "3", "--q", "3", "--lambda", "[[1,3,3]]",
                  "--which", "theta"]):
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and "lambda coefficient" in captured.err
    with pytest.raises(ValueError):
        run(JobSpec(command="chain", q=4, n=4, lam=[[1, 3, 4]]))
    assert main(["chain", "--n", "4", "--q", "4", "--lambda",
                 "[[1,3,3]]"]) == 0


def test_repeated_lambda_position_is_rejected(capsys):
    # the second [1,3,1] used to overwrite the first, and the job exited 0
    for argv in (["chain", "--n", "3", "--q", "2", "--lambda",
                  "[[1,3,1],[1,3,1]]"],
                 ["orbit", "--n", "4", "--q", "3", "--lambda",
                  "[[1,4,1],[2,3,1],[1,4,2]]", "--which", "left"],
                 ["table", "--n", "3", "--q", "2", "--lambda",
                  "[[1,2,1],[1,2,0]]", "--which", "theta"]):
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and "repeated" in captured.err
    with pytest.raises(ValueError, match="repeated"):
        run(JobSpec(command="chain", q=2, n=3, lam=[[1, 3, 1], [1, 3, 1]]))


def _failing_closed_forms(real):
    def verify(r, field):
        tech, ch, atlas = real(r, field)
        tech["matches"]["l1"] = False
        return tech, ch, atlas
    return verify


def test_failed_verification_exits_1(monkeypatch, capsys):
    monkeypatch.setattr(exotic, "verify_chain_closed_forms",
                        _failing_closed_forms(exotic.verify_chain_closed_forms))
    assert main(["exotic", "--r", "2", "--q", "2"]) == 1
    captured = capsys.readouterr()
    assert captured.out == "" and "closed-form" in captured.err
    monkeypatch.setattr(cli, "verify_chain_closed_forms",
                        _failing_closed_forms(cli.verify_chain_closed_forms))
    assert main(["verify", "--r", "2", "--q", "2"]) == 1
    assert json.loads(capsys.readouterr().out)["pass"] is False


def test_exotic_builds_the_corner_algebra_once(monkeypatch, capsys):
    # the quotient split's target a_{r+1}(q) is the corner analysis's group
    calls = []
    real = exotic.constant_diagonal_algebra
    monkeypatch.setattr(exotic, "constant_diagonal_algebra",
                        lambda n, field: calls.append(n) or real(n, field))
    assert main(["exotic", "--r", "3", "--q", "2"]) == 0
    assert calls == [4]


def test_shape_mismatch_fails_verify(monkeypatch, capsys):
    # verify compares the closed-form shape with the computed shape of the
    # quasi-monomial part
    monkeypatch.setattr(exotic, "exotic_shape",
                        lambda r, n=None: SetPartition.singletons(6 * r + 1))
    assert main(["verify", "--r", "2", "--q", "2"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "closed-form shape differs" in captured.err


def test_exotic_builds_the_algebra_and_atlas_once(monkeypatch, capsys):
    counts = {"pattern_algebra": 0, "build_regions": 0}
    real_algebra = NilAlgebra.pattern_algebra.__func__
    real_regions = exotic.build_regions

    def pattern_algebra(cls, pattern, field):
        counts["pattern_algebra"] += 1
        return real_algebra(cls, pattern, field)

    def build_regions(r):
        counts["build_regions"] += 1
        return real_regions(r)

    monkeypatch.setattr(NilAlgebra, "pattern_algebra",
                        classmethod(pattern_algebra))
    monkeypatch.setattr(exotic, "build_regions", build_regions)
    assert main(["exotic", "--r", "2", "--q", "2"]) == 0
    assert counts == {"pattern_algebra": 1, "build_regions": 1}


def test_failed_character_checks_exit_1(monkeypatch, capsys):
    table = ["table", "--n", "3", "--q", "3", "--lambda", "[[1,3,1]]",
             "--which"]
    real_orbit = characters.orbit
    with monkeypatch.context() as m:
        # every functional counted twice: orbit sizes 2 and 18 are no squares
        m.setattr(characters, "orbit",
                  lambda lam, which, cap: real_orbit(lam, which, cap) * 2)
        for argv in (table + ["kirillov"], ["kappa", "--n", "4", "--q", "2"]):
            assert main(argv) == 1
            captured = capsys.readouterr()
            assert captured.out == "" and "perfect square" in captured.err
    with monkeypatch.context() as m:
        identity = GroupElement.identity(Pattern.full(3), field_make(3))
        m.setattr(characters, "trunc_exp", lambda mat: identity)
        assert main(table + ["expkirillov"]) == 1
        assert "Exp" in capsys.readouterr().err
    real_generators = NilAlgebra.group_generators
    with monkeypatch.context() as m:
        # 1 + e12 alone moves e13* to e13* + e23*: an orbit of size q
        m.setattr(NilAlgebra, "group_generators",
                  lambda algebra: real_generators(algebra)[:1])
        assert main(["orbit", "--n", "3", "--q", "2", "--lambda", "[[1,3,1]]",
                     "--which", "coadjoint"]) == 1
        captured = capsys.readouterr()
        assert captured.out == "" and "even power" in captured.err


def test_field_with_explicit_modulus():
    body, code = run_cli(["chain", "--n", "3", "--q", "9",
                          "--modulus", "1,0,1", "--lambda", "[[1,3,1]]"])
    assert code == 0
    assert body["xi_degree_exponent"] == 1


# F_p and extensions of it, with the modulus each is built from
BASE_CHANGES = {
    2: [(4, None), (8, None), (1024, [1, 0, 0, 1, 0, 0, 0, 0, 0, 0, 1])],
    3: [(9, [1, 0, 1]), (27, None), (2187, [1, 0, 2, 0, 0, 0, 0, 1])],
    5: [(25, None)],
    7: [(49, None)]}


def _chain_without_q(n, q, lam, modulus=None):
    body, code = run(JobSpec(command="chain", q=q, n=n, lam=lam,
                             modulus=modulus))
    assert code == 0
    body = json.loads(render(body))
    del body["q"]
    return body


@pytest.mark.parametrize("p", sorted(BASE_CHANGES))
def test_chain_is_unchanged_by_base_change(p, rng):
    """A functional with coefficients in F_p has its Gram matrix, hence its
    whole chain of reduced echelon bases, over F_p: every extension field
    must write the same chain.  F_p runs the inline prime-field arithmetic
    and F_q the Field-method path, on the defining functional up to
    r = 16 (n = 97), two random functionals on u_8 and a dense one on u_16
    (each position with probability 1/2, as in the benchmark's dense
    generic chains)."""
    field = field_make(p)
    jobs = []
    for r in (2, 3, 4, 8, 16):
        lam = oracles.exotic_functional(r, field)
        jobs.append((6 * r + 1, [[i, j, c] for (i, j), c
                                 in sorted(lam.entries().items()) if c]))
    positions = [(i, j) for i in range(1, 9) for j in range(i + 1, 9)]
    for _ in range(2):
        jobs.append((8, [[i, j, rng.randrange(1, p)]
                         for i, j in sorted(rng.sample(positions, 6))]))
    jobs.append((16, [[i, j, rng.randrange(1, p)] for i in range(1, 16)
                      for j in range(i + 1, 17) if rng.random() < 0.5]))
    for n, lam in jobs:
        base = _chain_without_q(n, p, lam)
        for q, modulus in BASE_CHANGES[p]:
            assert _chain_without_q(n, q, lam, modulus) == base


def test_invalid_kappa_n_and_cap_exit_2(capsys):
    # --n 0 and --n 1 used to exit 0 with chi_formula_matches false, and a
    # negative cap used to exit 3 ("exceeds cap -5")
    bad = [["kappa", "--n", "0", "--q", "2"],
           ["kappa", "--n", "1", "--q", "3"],
           ["kappa", "--n", "4", "--q", "2", "--cap", "0"],
           ["chain", "--n", "3", "--q", "2", "--cap", "-5"],
           ["exotic", "--r", "2", "--q", "2", "--cap", "0"],
           ["verify", "--r", "2", "--q", "2", "--cap", "-1"],
           ["orbit", "--n", "3", "--q", "2", "--lambda", "[[1,3,1]]",
            "--which", "left", "--cap", "-5"],
           ["table", "--n", "3", "--q", "2", "--lambda", "[[1,3,1]]",
            "--which", "theta", "--cap", "0"]]
    for argv in bad:
        assert main(argv) == 2, argv
        captured = capsys.readouterr()
        assert captured.out == "" and "error" in captured.err
    with pytest.raises(ValueError, match="n >= 2"):
        run(JobSpec(command="kappa", q=2, n=1))
    assert main(["kappa", "--n", "2", "--q", "2", "--cap", "2"]) == 0


def test_s_bar_closure_failure_exits_1(monkeypatch, capsys):
    # the closure check fails for the computed s_bar span only, so the
    # split part a and the target a_3(2) still pass it
    real_verify = exotic.verify_chain_closed_forms
    real_closed = NilAlgebra.is_closed_under_products
    s_bars = []

    def verify(r, field):
        tech, ch, atlas = real_verify(r, field)
        s_bars.append(ch.s_bar)
        return tech, ch, atlas

    def split(*args):
        raise VerificationFailed("the split ran before the closure check")

    monkeypatch.setattr(exotic, "verify_chain_closed_forms", verify)
    monkeypatch.setattr(
        NilAlgebra, "is_closed_under_products",
        lambda alg: alg.span not in s_bars and real_closed(alg))
    # the split's ideal test of h assumes a closed s_bar, so the closure
    # check must come first
    monkeypatch.setattr(exotic, "abelian_quotient_split", split)
    assert main(["exotic", "--r", "2", "--q", "2"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "s_bar is not closed under products" in captured.err


def test_nonabelian_corner_group_exits_1(monkeypatch, capsys):
    # the corner group of kappa must be abelian for its dual; a group that
    # fails that check is a verification mismatch, not invalid input
    monkeypatch.setattr(NilAlgebra, "is_commutative", lambda alg: False)
    assert main(["kappa", "--n", "3", "--q", "2"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "group is not abelian" in captured.err


def test_false_h_ideal_verdict_exits_1(monkeypatch, capsys):
    monkeypatch.setattr(exotic, "products_vanish_at", lambda *args: False)
    assert main(["exotic", "--r", "2", "--q", "2"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "'h_two_sided_ideal': False" in captured.err


@pytest.mark.parametrize("module,name,argv", [
    (cli, "exotic_report", ["exotic", "--r", "9", "--q", "3"]),
    (cli, "corner_character_analysis", ["kappa", "--n", "17", "--q", "2"]),
    (GroupTable, "from_algebra", ["table", "--n", "3", "--q", "2",
                                  "--lambda", "[[1,3,1]]", "--which",
                                  "theta"])])
def test_out_of_memory_exits_3(module, name, argv, monkeypatch, capsys):
    # the stage raises at once, so the test allocates nothing; a run that
    # passes --cap can still build |G|^2 tables and exhaust memory, which
    # is not a verification mismatch
    def exhausted(*args, **kwargs):
        raise MemoryError

    monkeypatch.setattr(module, name, exhausted)
    assert main(argv) == 3
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err == "error: out of memory\n"


CORNER_VERDICTS = ["chi_formula_matches", "constituents_distinct",
                   "constituents_sum_matches"]


def failing_corner(analysis, verdict):
    """corner_character_analysis with one verdict of its report false."""
    return lambda *args: {**analysis(*args), verdict: False}


@pytest.mark.parametrize("verdict", CORNER_VERDICTS)
def test_failed_corner_verdict_exits_1_from_kappa(monkeypatch, capsys,
                                                  verdict):
    argv = ["kappa", "--n", "3", "--q", "2"]
    assert main(argv) == 0
    want = json.loads(capsys.readouterr().out)
    monkeypatch.setattr(cli, "corner_character_analysis",
                        failing_corner(cli.corner_character_analysis,
                                       verdict))
    assert main(argv) == 1
    # the report is still printed, with only the failed verdict changed
    assert json.loads(capsys.readouterr().out) == {**want, verdict: False}


@pytest.mark.parametrize("verdict", CORNER_VERDICTS)
def test_failed_corner_verdict_exits_1_from_exotic(monkeypatch, capsys,
                                                   verdict):
    argv = ["exotic", "--r", "2", "--q", "2"]
    assert main(argv) == 0
    want = capsys.readouterr().out
    monkeypatch.setattr(exotic, "corner_character_analysis",
                        failing_corner(exotic.corner_character_analysis,
                                       verdict))
    assert main(argv) == 1
    # the exotic JSON carries no corner verdict, so it does not change
    assert capsys.readouterr().out == want


@pytest.mark.parametrize("module,argv", [
    (exotic, ["kappa", "--n", "4", "--q", "2"]),
    (characters, ["table", "--n", "4", "--q", "2", "--lambda",
                  "[[1,4,1],[2,3,1]]", "--which", "xi"])])
def test_l_bar_closure_failure_exits_1(module, argv, monkeypatch, capsys):
    # the closure check fails for the computed l_bar span only, so the
    # algebras the command starts from still pass it
    real_chain = module.chain_compute
    real_closed = NilAlgebra.is_closed_under_products
    l_bars = []

    def chain(algebra, lam):
        ch = real_chain(algebra, lam)
        l_bars.append(ch.l_bar)
        return ch

    monkeypatch.setattr(module, "chain_compute", chain)
    monkeypatch.setattr(
        NilAlgebra, "is_closed_under_products",
        lambda alg: alg.span not in l_bars and real_closed(alg))
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "not closed under products" in captured.err
    assert l_bars


def test_constant_diagonal_closure_failure_exits_1(monkeypatch, capsys):
    # a_n(q) is computed, not given, so a failed closure check is a
    # verification mismatch (exit 1), not invalid input (exit 2)
    monkeypatch.setattr(NilAlgebra, "is_closed_under_products",
                        lambda alg: False)
    assert main(["kappa", "--n", "3", "--q", "2"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "not closed under products" in captured.err


def test_non_integer_lambda_entries_exit_2(capsys):
    # [[1,3,2.7]] used to run as lambda_13 = 2, and the others as other
    # functionals; int() no longer coerces them
    bad = ("[[1,3,2.7]]", "[[1.5,3,1]]", "[[1,3,true]]", '[[1,3,"1"]]',
           "[[1,3,1.0]]", "[[1,3,null]]", "[[1,3]]", "[1,3,1]", '{"1":3}')
    for lam in bad:
        assert main(["chain", "--q", "3", "--n", "4", "--lambda", lam]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and "error: " in captured.err
        assert "lambda" in captured.err
    for entry in ([1, 3, 2.7], [1.5, 3, 1], [1, 3, True], [1, 3, "1"],
                  [1, 3, 1.0]):
        spec = JobSpec.from_json(JobSpec(command="chain", q=3, n=4,
                                         lam=[entry]).to_json())
        with pytest.raises(ValueError, match="bad lambda entry") as exc:
            run(spec)
        assert repr(entry) in str(exc.value)
    spec = JobSpec.from_json(JobSpec(command="chain", q=3, n=4,
                                     lam=[[1, 3, 2]]).to_json())
    assert json.loads(render(run(spec)[0]))["lambda"] == [[1, 3, 2]]


def test_jobspec_rejects_mistyped_fields():
    # each job used to raise TypeError or KeyError, or run with its value
    # coerced ("n": true read as 1, a float modulus reduced mod p)
    chain = {"command": "chain", "n": 4, "q": 2}
    table = (
        ({"n": "4"}, "n"), ({"n": 4.0}, "n"), ({"n": True}, "n"),
        ({"q": 2.0}, "q"), ({"q": True}, "q"), ({"cap": "9"}, "cap"),
        ({"cap": 9.0}, "cap"), ({"command": "verify", "r": 2.0}, "r"),
        ({"command": "nope"}, "command"), ({"modulus": [0.5, 1]}, "modulus"),
        ({"modulus": [1, True]}, "modulus"), ({"modulus": "1,1"}, "modulus"),
        ({"which": 5}, "which"), ({"out": ["x"]}, "out"))
    for change, name in table:
        job = json.dumps({**chain, **change})
        with pytest.raises(ValueError, match=f"^{name} must be"):
            run(JobSpec.from_json(job))
    assert run(JobSpec.from_json(json.dumps(chain)))[0]["n"] == 4


def test_jobspec_from_json_rejects_an_unknown_key():
    # "lambda" is the output's key; the field is lam
    with pytest.raises(ValueError, match="^lambda is not a job field"):
        JobSpec.from_json('{"command":"chain","n":3,"lambda":[[1,3,1]]}')


def test_jobspec_from_json_requires_a_command():
    with pytest.raises(ValueError, match="^command is required"):
        JobSpec.from_json('{"n":3}')


def test_jobspec_from_json_requires_an_object():
    for text in ("[1]", "3", "null", '"chain"'):
        with pytest.raises(ValueError, match="^job must be a JSON object"):
            JobSpec.from_json(text)


def test_one_process_runs_commands_like_fresh_processes(capsys):
    # build_parser is built once per process and shared by every main call
    assert build_parser() is build_parser()
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(ROOT / "src")] + os.environ.get("PYTHONPATH", "").split(
            os.pathsep)))
    table = ["table", "--n", "3", "--q", "3", "--lambda", "[[1,3,1]]",
             "--which"]
    for argv in (["chain", "--n", "4", "--q", "3", "--lambda", "[[1,4,1]]"],
                 table + ["bogus"],
                 ["orbit", "--n", "3", "--q", "2", "--lambda", "[[1,3,1]]",
                  "--which", "coadjoint"],
                 ["chain", "--n", "3", "--q", "6"],
                 table + ["expkirillov"],
                 ["kappa", "--n", "3", "--q", "2"],
                 table + ["theta"]):
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse rejects the argument
            code = exc.code
        captured = capsys.readouterr()
        fresh = subprocess.run([sys.executable, "-m", "utchar.cli", *argv],
                               capture_output=True, text=True, env=env,
                               timeout=120)
        assert (code, captured.out, captured.err) == \
            (fresh.returncode, fresh.stdout, fresh.stderr), argv
        assert code == (2 if "bogus" in argv or "6" in argv else 0)


def test_n_below_1_exits_2(capsys):
    # each of these used to exit 0 and print its n; the schemas say n >= 1
    for argv in (["chain", "--q", "2", "--n", "-3"],
                 ["orbit", "--q", "2", "--n", "-2", "--which", "left"],
                 ["table", "--q", "2", "--n", "0", "--which", "theta"],
                 ["chain", "--q", "3", "--n", "0", "--lambda", "[]"]):
        assert main(argv) == 2, argv
        captured = capsys.readouterr()
        assert captured.out == "" and "n >= 1" in captured.err
    for command in ("chain", "orbit", "table"):
        with pytest.raises(ValueError, match="n >= 1"):
            run(JobSpec.from_json(JobSpec(command=command, q=2, n=0,
                                          which="left").to_json()))
    for argv in (["chain", "--q", "2", "--n", "1"],
                 ["orbit", "--q", "2", "--n", "1", "--which", "left"],
                 ["table", "--q", "2", "--n", "1", "--which", "theta"]):
        assert main(argv) == 0, argv
        assert json.loads(capsys.readouterr().out)["n"] == 1


def test_invalid_exotic_and_verify_sizes_exit_2(capsys):
    for argv, message in (
            (["exotic", "--r", "1", "--q", "2"], "r must be >= 2"),
            (["verify", "--r", "1", "--q", "2"], "r must be >= 2"),
            (["exotic", "--r", "2", "--q", "2", "--n", "12"], "n > 6r")):
        assert main(argv) == 2, argv
        captured = capsys.readouterr()
        assert captured.out == "" and message in captured.err


def test_lambda_position_outside_the_pattern_exits_2(capsys):
    for lam in ("[[2,1,1]]", "[[1,4,1]]", "[[0,2,1]]"):
        assert main(["chain", "--n", "3", "--q", "2", "--lambda", lam]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and "outside the pattern" in captured.err


def test_unknown_which_exits_2(capsys):
    for command in ("orbit", "table"):
        with pytest.raises(SystemExit) as exc:
            main([command, "--n", "3", "--q", "2", "--which", "bogus"])
        assert exc.value.code == 2
        assert "invalid choice" in capsys.readouterr().err
        with pytest.raises(ValueError, match="unknown"):
            run(JobSpec(command=command, n=3, q=2, which="bogus"))


def test_unknown_which_is_rejected_before_enumeration(monkeypatch):
    # u_6(3) has 3^15 elements, above the cap of 10; the kind is checked
    # first, so the job is invalid input (exit 2), not a cap overrun (exit 3)
    def no_enumeration(*args, **kwargs):
        raise AssertionError("an invalid job enumerated the group")

    monkeypatch.setattr(GroupTable, "from_algebra", no_enumeration)
    for command in ("table", "orbit"):
        with pytest.raises(ValueError, match="unknown"):
            run(JobSpec(command=command, n=6, q=3, which="bogus", cap=10,
                        lam=[[1, 6, 1]]))


@pytest.mark.parametrize("argv", [
    ["verify", "--rmin", "2", "--rmax", "2", "--qs", "6"],
    ["exotic", "--rmin", "2", "--rmax", "2", "--qs", "2,12"],
    ["kappa", "--nmax", "3", "--qs", "1"]], ids=["verify", "exotic", "kappa"])
def test_scripts_reject_q_that_is_not_a_prime_power(argv):
    out = subprocess.run([sys.executable, str(ROOT / "scripts" / "grid.py")]
                         + argv, cwd=ROOT, capture_output=True, text=True,
                         timeout=120)
    assert out.returncode == 2
    assert out.stdout == "" and "is not a prime power" in out.stderr


def test_grid_script_exits_1_when_a_row_fails(monkeypatch, capsys):
    spec = importlib.util.spec_from_file_location("grid",
                                                  ROOT / "scripts" / "grid.py")
    grid = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(grid)
    argv = ["kappa", "--nmax", "3", "--qs", "2"]
    assert grid.main(argv) == 0
    rows = capsys.readouterr().out.splitlines()
    monkeypatch.setattr(grid, "corner_character_analysis",
                        failing_corner(grid.corner_character_analysis,
                                       "constituents_sum_matches"))
    assert grid.main(argv) == 1
    # the same rows are printed; only the timings may differ
    failed = capsys.readouterr().out.splitlines()
    assert [r.rsplit(None, 1)[0] for r in failed] == \
        [r.rsplit(None, 1)[0] for r in rows]


# sha256 of the JSON that main prints for each kappa and exotic run below,
# recorded before the corner analysis moved onto group generators; the
# report must not change by a byte
PINNED_DIGESTS = {
    "kappa --q 2 --n 2":
        "4529369d4d71049aef9dca17ab19cc5e2b06b28cdce075c772c7e85dae5bbbdc",
    "kappa --q 2 --n 3":
        "869fe4bcae514f073054530b35a50799d9225d320e1dd054d13fa43f372c48fc",
    "kappa --q 2 --n 4":
        "acbe14bd910cf5487a4cb167c30514f49cdfde4539f7eadcd56188d4e75c9735",
    "kappa --q 2 --n 5":
        "1c2d3aea0b0b71556ac63f2ace0de89865c71428e2c333f2da324b5dadd97c25",
    "kappa --q 2 --n 6":
        "60a6786fd0c8ed539c2fd5f1c29e0977cb04f5859e35c395ae1acb56eae3345a",
    "kappa --q 2 --n 7":
        "191d36c3c6b1494f3b1fc7b1c05c22950a9d23165bc10c8d9633917b0b798139",
    "kappa --q 2 --n 8":
        "d48bbd08b86a365d8a0fe50d3ce65b74253faa39702182e80076a24d95ef5b7c",
    "kappa --q 3 --n 2":
        "58d02d7bc23627cdadc815d6949627bcdb4d1e519657bdc13b20b940dee2ddd5",
    "kappa --q 3 --n 3":
        "1d8231a94f3d323f25c17a3d9d0f48418d33d6f2e2ba0c19cbbe3b67718c2bd2",
    "kappa --q 3 --n 4":
        "7cb89c359afda70c67959e0aa7b0047f76960166526a076e4c707a0a4a1dc988",
    "kappa --q 3 --n 5":
        "980edeebe58b9085f8200ab0d5338edfe0d33fbf500bae5a53d6d66e9914f927",
    "kappa --q 4 --n 2":
        "4d5f0288b03f23049f36e2cadb0004d37f1bc1df53ac606577f5b3008d03ae2b",
    "kappa --q 4 --n 3":
        "3d49270c30a205cd527f7b51321f97a5cccc6df21bf3e2593ec12457c4a51914",
    "kappa --q 4 --n 4":
        "7fd5d1b7be8917f0cee33280ec026749c8dde613e925ebf2b35406469268fa3b",
    "kappa --q 5 --n 2":
        "c014f401527f7a06441f6e452867409e59bd261f09415e1e2cc5462862fc1f94",
    "kappa --q 5 --n 3":
        "186766505bf6d1689ea43f9c26b60975267ad2de43a4404d55cac0110cec83ce",
    "kappa --q 5 --n 4":
        "a80f4c5213f34ba499a588767c724a8df53b7b9f63c3dd5738594f3a15b332d0",
    "exotic --r 2 --q 2":
        "7fca34128928d2789b6e7953d62d32be4fe445188b153f62b36aa5371c1de0c6",
    "exotic --r 2 --q 3":
        "dbedfcba0edcf4c3741911d134fd2efb93c03f4e438417da7e6ef93bf9f5e007",
    "exotic --r 2 --q 4":
        "c6cf8336db8d45bc3863fae192e7c76a7cf4b6d0f8009bc92aed9ea3c0277738",
    "exotic --r 2 --q 5":
        "57ed572abd81e2821c3eaf02007056335ed177c6954fd82c6e45129dd3357334",
}


@pytest.mark.parametrize("argv", sorted(PINNED_DIGESTS))
def test_corner_reports_match_pinned_digests(argv, capsys):
    assert main(argv.split()) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == PINNED_DIGESTS[argv]


# sha256 of the JSON that main prints for closed-form verifications and for
# kernel chains of functionals that are not quasi-monomial (each shares a
# row or a column, so the chain is computed by elimination), recorded before
# rref kept its column index; the reports must not change by a byte
PINNED_CHAIN_DIGESTS = {
    "verify --r 2 --q 2":
        "0469bc1815bf0927459b10256e4a03bcd210eff2973f3024d1cc2e2a925cd147",
    "verify --r 2 --q 3":
        "ac75985cb6e27ba9e2aac3f1a59c24396e9d6882a3e44611ddc50ce523267435",
    "verify --r 2 --q 4":
        "62e8596d1c1500405e05ec7543300146b8a760d56736f41038026560a509d855",
    "verify --r 2 --q 5":
        "4fa79f944c3ce4b3c7a0e5e7cdee37b86d4880067433df92c5a134cc70f68738",
    "verify --r 3 --q 2":
        "d1806303d3dba0fbf87bf08fe62557fa06562790213c863032982a879f1c7430",
    "verify --r 3 --q 3":
        "6bb4052ef51a7a3930139b0d8447a255af94a6a1f2f7b11ac85ba06a1966d10a",
    "verify --r 3 --q 4":
        "d2db6aba790a4ff2c2604590ddb7a5286eaf253b73355ad3866a3b996981e419",
    "verify --r 3 --q 5":
        "b9ee632516c51eb21e024ca7dcd34c82d2fda85408f70612396bdda1269c75bf",
    "verify --r 4 --q 2":
        "cd25e93196177836888f241e4dbc659e0d0a03124656e2667f2e3c5614342b6d",
    "verify --r 4 --q 3":
        "60d2043ec2f44aa9f280f52e618b205c3b3b6b5159a70fb7c774438b981f5075",
    "verify --r 4 --q 4":
        "915ed50a407ddbf9f7571a94e514cef1fc5c179e2527e7f0eaea56d56c29e334",
    "verify --r 4 --q 5":
        "a7d288253357f2b3584563be9a7d11f75f486261dde4c682ee5600418981f17e",
    "verify --r 5 --q 2":
        "b3da7fc0971a40a085e66a7f03e75736a911f76bd41ab9cbc679975636e44c28",
    "verify --r 5 --q 3":
        "4921d924a6930bcd38c9ebbc56bab6a41e7d3759c011918c42bc000f1428831e",
    "verify --r 5 --q 4":
        "8bcc50f1dc0d216431b443c2938773c7b0a230adb46345c5c44d4b75c76a268a",
    "verify --r 5 --q 5":
        "c6937d160927ecf14c8f085c013e4801f7696de2faa6d206508c80ca685f0cb1",
    "verify --r 6 --q 2":
        "3d1541b82f2ece4bac2397ebb8176ec9dc79f8de9a4dd1a3fcda41b40b87d284",
    "verify --r 6 --q 3":
        "5862c9aa669ba2fe9b1872923d5e2a1db65e696145a5f3231eb96221d8680030",
    "verify --r 6 --q 4":
        "768a76073cf8db815f16f73dda2b2393ed5e363a757e5881024e40aeef03de57",
    "verify --r 6 --q 5":
        "9e540648a7c4b05ec7a59f7341bcb7c48fc3aba7271396b8a08bb97044db87ad",
    "chain --q 2 --n 8 --lambda "
    "[[1,5,1],[1,7,1],[2,6,1],[3,8,1],[4,8,1]]":
        "c4dee58ddc618e868fae288a472d2435926b4a4bf3522a37eae8251cc6437d8b",
    "chain --q 3 --n 9 --lambda "
    "[[1,6,2],[1,9,1],[2,7,1],[3,9,2],[4,8,1],[2,5,1]]":
        "4952a6b920ca7ff938f1691fc3ba608c9a8d0414dde03f1798c8005b57974bee",
    "chain --q 4 --n 10 --lambda "
    "[[1,7,1],[2,7,3],[2,9,2],[3,10,1],[4,8,1],[5,10,3]]":
        "dca7e969ce852362d2f951af5572257aed6576569cc081ae06e8e7891a4fc5a5",
    "chain --q 5 --n 10 --lambda "
    "[[1,6,4],[1,8,1],[2,9,3],[3,7,1],[3,10,2],[4,9,1]]":
        "06159b71064ded1a670edc1cb093d545260b6a405d26bb3ce66382634c8452ba",
    "chain --q 2 --n 11 --lambda "
    "[[1,7,1],[1,11,1],[2,8,1],[3,10,1],[4,9,1],[5,11,1],[2,10,1]]":
        "0c3f8dacb44f935e4070ae0c2654b7790aa66eaf783ba867bf3b19ff2d1566d5",
    "chain --q 3 --n 12 --lambda "
    "[[1,8,1],[1,12,2],[2,9,1],[3,11,1],[4,10,2],[5,12,1],[6,9,1]]":
        "8114226e65f9d254906686c5a7ed1fd1282e13c2780299306c9504d29dc616ed",
    "chain --q 5 --n 9 --lambda "
    "[[1,2,2],[1,3,4],[1,4,1],[1,8,3],[2,3,3],[2,5,3],[2,8,4],[2,9,1],"
    "[3,5,2],[3,6,3],[3,7,4],[4,6,4],[4,7,1],[4,9,2],[5,6,2],[5,7,3],"
    "[5,8,3],[6,7,3],[6,9,1],[8,9,1]]":
        "f15e2c23b00e484ba869328462dc8019c9f8ab438e3f96d18fcece2d81cb3233",
    "chain --q 4 --n 12 --lambda "
    "[[1,2,3],[1,3,3],[1,4,1],[1,5,3],[1,6,1],[1,7,1],[1,9,3],[1,11,1],"
    "[2,4,3],[2,7,1],[2,11,1],[2,12,2],[3,4,2],[3,5,3],[3,6,3],[3,8,3],"
    "[3,11,2],[3,12,3],[4,5,3],[4,8,2],[4,10,3],[4,12,1],[5,7,1],"
    "[5,9,2],[5,10,3],[5,11,2],[5,12,3],[6,10,1],[6,12,1],[7,8,2],"
    "[7,10,2],[7,12,2],[8,10,1],[9,11,2],[9,12,3],[10,11,1],[10,12,2]]":
        "9d322af68db03b55225c48093d61ecfd70ddc298138387d53f0412deaf9be4fe",
}


@pytest.mark.parametrize("argv", sorted(PINNED_CHAIN_DIGESTS))
def test_chain_reports_match_pinned_digests(argv, capsys):
    assert main(argv.split()) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() \
        == PINNED_CHAIN_DIGESTS[argv]


# sha256 of the JSON that main prints for value tables and orbits below,
# recorded before orbit moves kept only their nonzero columns and before
# group tables took their coordinates from the enumeration and their
# inverses from the generators' search tree; the reports must not change by
# a byte
PINNED_TABLE_DIGESTS = {
    "table --which theta --n 3 --q 5 --lambda [[1,3,2]]":
        "2eef6878ef3300eb7ba68d81386f807d8851340b731a0be781bd593c70c983b4",
    "table --which kirillov --n 3 --q 5 --lambda [[1,3,2]]":
        "e92d9226c8689d5435c4fd4cb11372f291250a838cdb40e461f66f055890ee5d",
    "table --which expkirillov --n 3 --q 5 --lambda [[1,3,2]]":
        "21fd077292f483d3f58d5e9470a4de8ee2a59106cb55f2c4baf88b2ba695103f",
    "table --which superchar --n 3 --q 5 --lambda [[1,3,2]]":
        "dbc39cd8537b234449127c6788ad8995311a7f36014d07ef69b596a88b4130c1",
    "table --which xi --n 3 --q 5 --lambda [[1,3,2]]":
        "6cb267427a7c7faee1c5ae77acf8edeb339ab393b83af95eaef6bdb710cc17e5",
    "table --which theta --n 4 --q 3 --lambda [[1,3,1],[2,4,2]]":
        "5e779d406f0c02d242f7a9b3b905f77693d63f9023a6ef9cc527ab1f7770ecab",
    "table --which kirillov --n 4 --q 3 --lambda [[1,3,1],[2,4,2]]":
        "885444825970e601808e20e3c5320b677c6c0205ca83e73fb182d8a21cbfe0cd",
    "table --which expkirillov --n 4 --q 3 --lambda [[1,3,1],[2,4,2]]":
        "7babf3f100808576bd1376714fd5819f3cc3840ddf0b3b2d9c552617694218f2",
    "table --which superchar --n 4 --q 3 --lambda [[1,3,1],[2,4,2]]":
        "2a8bfb2d0a1c155a8edd1c36f53e604dff97ddd9d0a4255c38598104234c1485",
    "table --which xi --n 4 --q 3 --lambda [[1,3,1],[2,4,2]]":
        "b3ba6b31b65330bb521cdb4a7ef2d626f24c7b0261f45d877a2593e5071051b8",
    "table --which theta --n 5 --q 2 --lambda [[1,5,1],[2,3,1]]":
        "ebcdef37f03609813f057615f72d2e9b3922a04d00524b8fb104bd23523763ff",
    "orbit --which left --n 5 --q 3 --lambda [[1,4,1],[2,5,2]]":
        "374720408fd53364124614a8ea02ce575d6cf23531387bf8fbee1d08ca31512b",
    "orbit --which right --n 5 --q 3 --lambda [[1,4,1],[2,5,2]]":
        "2a0a329c86f45992fbb560c004d6a48688cab0b822966e08d48bc4a5ca0d676d",
    "orbit --which two-sided --n 5 --q 3 --lambda [[1,4,1],[2,5,2]]":
        "0c0e98ed8786d94e164044cddf571c741a70516b0e4eb2241a1ee08734c53fce",
    "orbit --which coadjoint --n 5 --q 3 --lambda [[1,4,1],[2,5,2]]":
        "64a37d3294dc2a058a025805ebef7bb3656b3e169a7ed1b63e6be2150ec5a972",
    "orbit --which coadjoint --n 6 --q 2 --lambda [[1,6,1],[2,5,1]]":
        "704a859cd53a6be16cc11f67be82de747dfef29605eecce0038e1cf659ed33d1",
}


@pytest.mark.parametrize("argv", sorted(PINNED_TABLE_DIGESTS))
def test_tables_and_orbits_match_pinned_digests(argv, capsys):
    assert main(argv.split()) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() \
        == PINNED_TABLE_DIGESTS[argv]
