import dataclasses
import json

import pytest

from utchar import exotic
from utchar.algebra import (NilAlgebra, Pattern, Subspace,
                            VerificationFailed)
from utchar.cli import main
from utchar.chain import chain_compute, quasimonomial_kernels
from utchar.characters import GroupTable, abelian_dual, induce, theta_lambda
from utchar.duals import is_quasi_monomial, orbit, shape
from utchar.exotic import (abelian_quotient_split, build_regions,
                           closed_form_chain, constant_diagonal_algebra,
                           corner_functional, corner_character_analysis,
                           exotic_functional_parts, exotic_report,
                           exotic_shape, is_closed_form, verdict,
                           verify_chain_closed_forms)
from utchar.scalars import field_make, prime_power_split

from oracles import (brute_force_abelian_dual, brute_force_corner_constituents,
                     closed_form_subspaces, exotic_functional,
                     exotic_quasimonomial, field_of_values, random_functional,
                     torus_shape_transitivity)

F2 = field_make(2)
F3 = field_make(3)
F4 = field_make(2, 2)


def test_functional_entries_r2():
    lam = exotic_functional(2, F2)
    entries = lam.entries()
    minus = {(1, 3), (2, 4), (3, 8), (4, 9)}
    plus = {(1, 5), (2, 6), (3, 10), (4, 11), (5, 7), (6, 8), (7, 9),
            (8, 12), (9, 13)}
    assert set(entries) == minus | plus
    assert len(entries) == 13
    lam3 = exotic_functional(2, F3).entries()
    assert all(lam3[p] == F3.neg(1) for p in minus)
    assert all(lam3[p] == 1 for p in plus)


def test_functional_counts_and_quasimonomial_part():
    for r in (2, 3, 4):
        lam = exotic_functional(r, F2)
        assert len(lam.entries()) == 6 * r + 1
        plus, minus = exotic_functional_parts(r, F2)
        assert is_quasi_monomial(plus)
        assert not set(plus.entries()) & set(minus.entries())
    with pytest.raises(ValueError):
        exotic_functional(1, F2)


def test_functional_lies_in_right_orbit_of_quasimonomial_part():
    # the defining functional differs from its quasi-monomial part by
    # entries supported on the first-step obstruction positions
    for r in (2, 3):
        lam = exotic_functional(r, F2)
        lamp = exotic_quasimonomial(r, F2)
        alg = lam.algebra
        qk = quasimonomial_kernels(alg, lamp)
        diff = (lam - lamp).entries()
        assert set(diff) <= qk.perp_l


def test_regions_r2_frozen():
    atlas = build_regions(2)
    assert atlas.A == frozenset({(4, 8)})
    assert atlas.B == frozenset({(3, 4)})
    assert atlas.C == frozenset({(2, 3)})
    assert atlas.D == frozenset({(1, 2), (2, 5)})
    assert atlas.Ap == frozenset({(7, 8)})
    assert atlas.Bp == frozenset({(6, 7)})
    assert atlas.Cp == frozenset({(5, 6)})
    assert atlas.mirror[(4, 8)] == (7, 8)
    assert len(atlas.Z) == 12 and len(atlas.D) == 2
    assert atlas.Z1 == frozenset({(3, 5), (3, 6), (4, 5), (4, 6),
                                  (3, 7), (4, 7)})
    orbits = atlas.mirror_orbits_on_d()
    assert len(orbits) == 1 and set(orbits[0]) == {(1, 2), (2, 5)}


@pytest.mark.parametrize("r", [2, 3, 4, 5, 6, 7, 8])
def test_region_invariants(r):
    atlas = build_regions(r)
    assert atlas.validate()
    assert len(atlas.Z1) == r * r + r
    assert len(atlas.Z2) == len(atlas.Z4) == (r * r - r) // 2
    assert len(atlas.Z3) == r * r


def test_first_step_obstructions_match_regions():
    for r in (2, 3, 4):
        atlas = build_regions(r)
        alg = NilAlgebra.pattern_algebra(Pattern.full(6 * r + 1), F2)
        qk = quasimonomial_kernels(alg, exotic_quasimonomial(r, F2))
        assert qk.perp_l == atlas.lettered | atlas.Z | atlas.Zp
        assert qk.perp_s == atlas.Z


def test_shape():
    shp = exotic_shape(2, 13)
    assert shp.sorted_parts() == [[1, 5, 7, 9, 13], [2, 6, 8, 12],
                                  [3, 10], [4, 11]]
    assert len(shp) == 13 - 8 - 1
    padded = exotic_shape(2, 15)
    assert padded.sorted_parts()[-2:] == [[14], [15]]
    assert len(padded) == 15 - 8 - 1
    for r in (2, 3, 4):
        assert shape(exotic_quasimonomial(r, F2)) == exotic_shape(r)
    with pytest.raises(ValueError):
        exotic_shape(2, 12)


@pytest.mark.parametrize("r,field", [(2, F2), (2, F3), (2, F4), (3, F2),
                                     (4, F2)])
def test_verify_chain_closed_forms(r, field):
    tech, ch, atlas = verify_chain_closed_forms(r, field)
    assert verdict(tech)
    assert tech["dim_s_bar"] == 13 * r * r + 5 * r
    assert tech["dim_l_bar"] == tech["dim_s_bar"] - (r - 1)
    assert tech["dim_ambient"] - tech["dim_l_bar"] == 5 * r * r - r - 1
    assert tech["dim_ambient"] - tech["dim_s_bar"] == 5 * r * r - 2 * r
    assert tech["stabilization"] == 4


CLOSED_FORM_GRID = ([(r, q) for q in (2, 3, 4, 5) for r in range(2, 10)]
                    + [(r, q) for q in (7, 9) for r in (2, 3)])


@pytest.mark.parametrize("r,q", CLOSED_FORM_GRID)
def test_closed_form_check_matches_subspace_oracle(r, q):
    # each chain subspace is its own closed form and none of the other
    # five, by the membership check and by the eliminated subspaces alike
    field = field_make(*prime_power_split(q))
    _, ch, atlas = verify_chain_closed_forms(r, field)
    closed = closed_form_chain(atlas)
    oracle = closed_form_subspaces(atlas, ch.algebra)
    spaces = {f"{side}{i}": chain[i] for i in (1, 2, 3)
              for side, chain in (("l", ch.l_list), ("s", ch.s_list))}
    for key, space in spaces.items():
        for form, description in closed.items():
            assert is_closed_form(space, *description, atlas) \
                == (space == oracle[form]) == (key == form), (key, form)
    # a class of the mirror identifications that holds a zero position
    # adds no dimension: s^2 with one end of a mirrored pair set to zero
    zero, mirrored = closed["s2"]
    pinned = (zero | {atlas.mirror[min(atlas.A)]}, mirrored)
    cut = exotic._constrained_subspace(ch.algebra, *pinned, atlas)
    assert cut.dim == spaces["s2"].dim - 1
    assert is_closed_form(cut, *pinned, atlas)
    assert not is_closed_form(spaces["s2"], *pinned, atlas)

    def rejected(key, rows):
        space = Subspace.from_vectors(ch.algebra.pattern, field, rows)
        return (not is_closed_form(space, *closed[key], atlas)
                and space != oracle[key])

    index = ch.algebra.pattern.index
    z = index[min(atlas.Z)]
    for key, space in spaces.items():
        rows = space.row_dicts()
        # one row dropped: every row lies in the closed form, one too few
        assert rejected(key, rows[1:])
        # an entry on Z
        assert rejected(key, [{**rows[0], z: 1}] + rows[1:])
        # a row changed at one end of a mirrored pair, either end
        pairs = [(index[p], index[atlas.mirror[p]]) for p in closed[key][1]]
        hit = next(((a, pair) for a, row in enumerate(rows) for pair in pairs
                    if pair[0] in row and pair[1] in row), None)
        assert (hit is None) == (not pairs), key
        if hit:
            a, pair = hit
            for end in pair:
                changed = {**rows[a], end: field.add(rows[a][end], 1)}
                changed = {c: v for c, v in changed.items() if v}
                assert rejected(key, rows[:a] + [changed] + rows[a + 1:])


def _s2_loses_a_row(real):
    def compute(algebra, lam):
        ch = real(algebra, lam)
        s2 = ch.s_list[2]
        ch.s_list[2] = Subspace(s2.pattern, s2.field, s2.rows[1:])
        return ch
    return compute


def test_chain_that_loses_a_row_fails_verify(monkeypatch, capsys):
    monkeypatch.setattr(exotic, "chain_compute",
                        _s2_loses_a_row(exotic.chain_compute))
    tech, _, _ = verify_chain_closed_forms(2, F2)
    assert tech["matches"] == {"l1": True, "s1": True, "l2": True,
                               "s2": False, "l3": True, "s3": True}
    assert not verdict(tech)
    assert main(["verify", "--r", "2", "--q", "2"]) == 1
    body = json.loads(capsys.readouterr().out)
    assert body["pass"] is False and body["matches"]["s2"] is False


def test_exotic_chain_satisfies_ideal_laws():
    _, ch, _ = verify_chain_closed_forms(2, F2)
    assert ch.validate()


def test_chain_matches_dense_oracle_at_r2():
    from oracles import dense_chain, subspace_dense_rows
    for field in (F2, F3):
        tech, ch, _ = verify_chain_closed_forms(2, field)
        assert verdict(tech)
        l_steps, s_steps = dense_chain(ch.algebra, ch.functional)
        assert len(l_steps) == len(ch.l_list) - 1
        for i, dense in enumerate(l_steps, start=1):
            assert subspace_dense_rows(ch.l_list[i]) == dense
        for i, dense in enumerate(s_steps, start=1):
            assert subspace_dense_rows(ch.s_list[i]) == dense


def test_quotient_split_r2():
    for field in (F2, F3):
        _, ch, atlas = verify_chain_closed_forms(2, field)
        split = abelian_quotient_split(atlas, field, ch)
        assert split.ok
        assert split.a_span.dim == 2  # isomorphic image has dimension r
        assert split.h_span.dim == ch.s_bar.dim - 2


@pytest.mark.parametrize("order", ["s_bar h", "h s_bar"])
def test_h_ideal_test_reads_both_orders(order, monkeypatch):
    # the products of either order alone can fail the h test; the other
    # checks of the split do not call the helper
    _, ch, atlas = verify_chain_closed_forms(2, F3)
    real_vanish = exotic.products_vanish_on

    def vanish(left, right, covectors):
        if (left, right)[order == "h s_bar"] is ch.s_bar and left is not right:
            return False
        return real_vanish(left, right, covectors)

    monkeypatch.setattr(exotic, "products_vanish_on", vanish)
    checks = abelian_quotient_split(atlas, F3, ch).checks
    assert {key for key, ok in checks.items() if not ok} == {
        "h_two_sided_ideal"}


def test_quotient_split_r3():
    _, ch, atlas = verify_chain_closed_forms(3, F2)
    split = abelian_quotient_split(atlas, F2, ch)
    assert split.ok
    assert split.a_span.dim == 3


def test_constant_diagonal_algebra():
    a3 = constant_diagonal_algebra(3, F2)
    assert a3.dim == 2 and a3.is_commutative()
    assert len(list(a3.enumerate_group())) == 4
    a43 = constant_diagonal_algebra(4, F3)
    assert a43.dim == 3 and a43.is_commutative()
    kappa = corner_functional(a43)
    assert len(set(orbit(kappa, "coadjoint"))) == 1


@pytest.mark.parametrize("n,q,psi_char,psi_exp_char", [
    (2, 2, True, True),
    (3, 2, False, False),
    (2, 3, True, True),
    (3, 3, False, True),
    (4, 3, False, False),
    (3, 4, False, False),
])
def test_corner_analysis_character_flags(n, q, psi_char, psi_exp_char):
    rep = corner_character_analysis(
        constant_diagonal_algebra(n, field_make(q) if q != 4 else F4))
    assert rep["kirillov_is_character"] is psi_char
    assert rep["exp_kirillov_is_character"] is psi_exp_char
    assert rep["constituent_count"] == q ** (n - 2)
    assert rep["chi_degree"] == q ** (n - 2)
    assert rep["chi_formula_matches"]
    assert rep["constituents_distinct"] and rep["constituents_sum_matches"]


def test_corner_analysis_conductors():
    # the maximal constituent conductor is p times the largest power of p
    # below n, which is also the maximal element order
    for n, q, cond in ((2, 2, 2), (3, 2, 4), (4, 2, 4), (5, 2, 8),
                       (2, 3, 3), (3, 3, 3), (4, 3, 9)):
        rep = corner_character_analysis(
            constant_diagonal_algebra(n, field_make(q)))
        assert rep["max_constituent_conductor"] == cond
        assert rep["max_element_order"] == cond


# A_n(q) for n = 2..6 and q = 2..5, up to 256 elements
CORNER_CASES = [(n, q) for q in (2, 3, 4, 5) for n in range(2, 7)
                if q ** (n - 1) <= 256]


@pytest.mark.parametrize("n,q", CORNER_CASES)
def test_corner_analysis_matches_constituent_oracle(n, q, monkeypatch):
    field = F4 if q == 4 else field_make(q)
    algebra = constant_diagonal_algebra(n, field)
    fast = corner_character_analysis(algebra)

    def oracle(dual, lgroup, kappa, chi):
        cons_idx, sum_ok = brute_force_corner_constituents(
            dual, lgroup, kappa, chi)
        return as_assignments(dual, cons_idx), sum_ok

    monkeypatch.setattr(exotic, "_corner_constituents", oracle)
    assert corner_character_analysis(algebra) == fast


def as_assignments(dual, cons_idx):
    """The assignments of the characters dual.characters[i] for i in
    cons_idx, matched through their exponent tables, which order
    dual.characters."""
    by_table = {dual.exponent_table(t): t for t in dual.assignments}
    tables = sorted(by_table)
    return [by_table[tables[i]] for i in cons_idx]


@pytest.mark.parametrize("n,q", [(n, q) for q in (2, 3, 4, 5)
                                 for n in range(2, 8) if q ** (n - 1) <= 64])
def test_corner_value_field_matches_galois_oracle(n, q):
    # the report's conductor and level come from exponent gcds; the oracle
    # finds the order of every value of every constituent, built from an
    # independent dual, and tests each level by its Galois action
    field = F4 if q == 4 else field_make(q)
    algebra = constant_diagonal_algebra(n, field)
    report = corner_character_analysis(algebra)
    group = GroupTable.from_algebra(algebra)
    kappa = corner_functional(algebra)
    lgroup = GroupTable.from_subspace(
        algebra, chain_compute(algebra, kappa).l_bar)
    chi = induce(theta_lambda(lgroup, kappa), group)
    dual = brute_force_abelian_dual(group)
    cons_idx, sum_ok = brute_force_corner_constituents(
        dual, lgroup, kappa, chi)
    assert sum_ok and len(cons_idx) == report["constituent_count"]
    fields = [field_of_values(dual.characters[i]) for i in cons_idx]
    assert report["max_constituent_conductor"] == \
        max(f.conductor for f in fields)
    assert report["max_min_level"] == max(f.min_level for f in fields)


@pytest.mark.parametrize("n,q", [(3, 2), (4, 2), (5, 2), (3, 3), (4, 3),
                                 (3, 4), (3, 5)])
def test_corner_constituents_of_other_functionals_match_oracle(n, q, rng):
    # restrictions to theta_mu for functionals mu other than kappa, and sums
    # against a chi they do not add up to
    field = F4 if q == 4 else field_make(q)
    algebra = constant_diagonal_algebra(n, field)
    group = GroupTable.from_algebra(algebra)
    kappa = corner_functional(algebra)
    lgroup = GroupTable.from_subspace(
        algebra, chain_compute(algebra, kappa).l_bar)
    chi = induce(theta_lambda(lgroup, kappa), group)
    dual = abelian_dual(group)
    sums = set()
    for mu in [kappa, kappa.scale(field.q - 1)] + \
            [random_functional(rng, algebra) for _ in range(4)]:
        for target in (chi, chi.scale(2)):
            cons, sum_ok = exotic._corner_constituents(
                dual, lgroup, mu, target)
            cons_idx, want_ok = brute_force_corner_constituents(
                dual, lgroup, mu, target)
            assert sorted(cons) == sorted(as_assignments(dual, cons_idx))
            assert sum_ok == want_ok
            sums.add(sum_ok)
    assert sums == {True, False}


def test_exotic_report_r2_q2():
    rep, corner = exotic_report(2, F2)
    assert verdict(rep, corner)
    assert rep["n"] == 13
    assert rep["dim_s_bar"] == 62 and rep["dim_l_bar"] == 61
    assert rep["xi_degree_exponent"] == 17
    assert rep["xi_norm_exponent"] == 1
    assert rep["constituent_count"] == 2
    assert rep["constituent_degree_exponent"] == 16
    assert rep["kirillov_degree_exponent"] == 16
    assert rep["xi_set_size_exponent"] == 2 * 16 + 1
    assert rep["value_field_conductor"] == 4
    assert rep["value_field_min_level"] == 2
    assert rep["kirillov_is_character"] is False
    assert rep["exp_kirillov_is_character"] is False
    assert rep["shape"][0] == [1, 5, 7, 9, 13]
    assert rep["provenance"]["value_field_on_full_group"].startswith(
        "lifted")


def test_exotic_report_r2_q3_flips_exp_kirillov():
    rep, corner = exotic_report(2, F3)
    assert verdict(rep, corner)
    assert rep["kirillov_is_character"] is False
    assert rep["exp_kirillov_is_character"] is True  # r = 2 < p = 3
    assert rep["xi_degree_exponent"] == 17


def test_exotic_report_padding():
    rep, _ = exotic_report(2, F2, n=15)
    assert rep["n"] == 15
    assert rep["xi_degree_exponent"] == 17
    assert len(rep["shape"]) == 15 - 8 - 1


def test_torus_shape_transitivity():
    ok, size, expected = torus_shape_transitivity(2, F2)
    assert ok and size == expected == 1
    ok, size, expected = torus_shape_transitivity(2, F3)
    assert ok
    assert size == expected == 2 ** 9


# ---------------------------------------------------------------------------
# the exotic checks raise VerificationFailed, also under python -O


def test_corrupted_region_atlas_raises():
    atlas = build_regions(2)
    for corrupt in (dataclasses.replace(atlas,
                                        A=frozenset(sorted(atlas.A)[1:])),
                    dataclasses.replace(atlas, Z3=atlas.Z3 | atlas.Z7),
                    dataclasses.replace(atlas, mirror={
                        **atlas.mirror, min(atlas.D): min(atlas.A)})):
        with pytest.raises(VerificationFailed, match="exotic check failed"):
            corrupt.validate()


def _with_zero_l_bar(real):
    def verify(r, field):
        tech, ch, atlas = real(r, field)
        ch.l_list.append(ch.l_list[0])  # l_bar = 0: xi degree exponent dim n
        return tech, ch, atlas
    return verify


def test_corrupted_exponent_raises_and_exits_1(monkeypatch, capsys):
    monkeypatch.setattr(exotic, "verify_chain_closed_forms",
                        _with_zero_l_bar(exotic.verify_chain_closed_forms))
    with pytest.raises(VerificationFailed, match="xi degree exponent"):
        exotic_report(2, F2)
    assert main(["exotic", "--r", "2", "--q", "2"]) == 1
    captured = capsys.readouterr()
    assert captured.out == "" and "xi degree exponent" in captured.err


def test_nonvanishing_nu_block_fails_verification(monkeypatch, capsys):
    # kappa's Gram block on s_bar, which the chain's last form (lam's) must
    # equal, gets 1 added at entry (0, 0): then nu(u_0 u_0) != 0, whatever
    # that entry held
    real = exotic.gram_block

    def shifted(*args):
        block = real(*args)
        row = dict(block[0])
        row[0] = F2.add(row.get(0, 0), 1)
        return [{b: v for b, v in row.items() if v}] + block[1:]

    monkeypatch.setattr(exotic, "gram_block", shifted)
    tech, _, _ = verify_chain_closed_forms(2, F2)
    assert not tech["final_bilinear"] and not verdict(tech)
    assert main(["verify", "--r", "2", "--q", "2"]) == 1
    assert main(["exotic", "--r", "2", "--q", "2"]) == 1
    assert "closed-form" in capsys.readouterr().err


def test_non_p_power_value_group_raises():
    with pytest.raises(VerificationFailed, match="p-power"):
        exotic._cyclic_value_level(6, 2)


OPTIMIZED_SCRIPT = """
import dataclasses
from utchar import exotic
from utchar.algebra import VerificationFailed
from utchar.scalars import field_make
assert False, "assertions are enabled"
atlas = exotic.build_regions(2)
try:
    dataclasses.replace(atlas, A=frozenset(sorted(atlas.A)[1:])).validate()
except VerificationFailed:
    print("raised")
real = exotic.verify_chain_closed_forms
def verify(r, field):
    tech, ch, atlas = real(r, field)
    ch.l_list.append(ch.l_list[0])
    return tech, ch, atlas
exotic.verify_chain_closed_forms = verify
try:
    exotic.exotic_report(2, field_make(2))
except VerificationFailed:
    print("raised")
"""


def test_exotic_checks_survive_optimized_mode(run_optimized):
    out = run_optimized(OPTIMIZED_SCRIPT)
    assert out.returncode == 0, out.stderr
    assert out.stdout.split() == ["raised", "raised"]


LOST_ROW_SCRIPT = """
from utchar import exotic
from utchar.algebra import Subspace
from utchar.cli import main
assert False, "assertions are enabled"
real = exotic.chain_compute
def compute(algebra, lam):
    ch = real(algebra, lam)
    s2 = ch.s_list[2]
    ch.s_list[2] = Subspace(s2.pattern, s2.field, s2.rows[1:])
    return ch
exotic.chain_compute = compute
print("exit", main(["verify", "--r", "2", "--q", "2"]))
"""


def test_lost_row_fails_verify_in_optimized_mode(run_optimized):
    out = run_optimized(LOST_ROW_SCRIPT)
    assert out.returncode == 0, out.stderr
    body, code = out.stdout.splitlines()
    assert json.loads(body)["matches"]["s2"] is False
    assert code == "exit 1"
