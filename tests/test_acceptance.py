"""Acceptance suite: one test per criterion, each printing a pass line with
its runtime (run with `pytest -s tests/test_acceptance.py` to see them)."""

import itertools
import random
import time
from fractions import Fraction

import pytest

from utchar.algebra import NilAlgebra, Pattern, Subspace
from utchar.cli import main
from utchar.chain import chain_compute, quasimonomial_kernels
from utchar.characters import (GroupTable, abelian_dual,
                               constituents_of_induced_linear, exp_kirillov,
                               kirillov, supercharacter, theta_lambda, xi)
from utchar.duals import (Functional, is_quasi_monomial, orbit, shape,
                          torus_orbit)
from utchar.exotic import (constant_diagonal_algebra, corner_functional,
                           corner_character_analysis, exotic_report,
                           verdict, verify_chain_closed_forms)
from utchar.scalars import CyclotomicNumber, field_make, in_subfield

from oracles import (brute_force_first_kernels, orbit_keys,
                     random_closed_pattern, random_quasimonomial,
                     subspace_dense_rows)

ONE = CyclotomicNumber.one()
ZERO = CyclotomicNumber.zero()


class Timer:
    def __init__(self, label, limit):
        self.label = label
        self.limit = limit

    def __enter__(self):
        self.start = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb):
        elapsed = time.perf_counter() - self.start
        if exc_type is None:
            status = "PASS"
            print(f"criterion {self.label}: {status} "
                  f"({elapsed:.2f}s, limit {self.limit}s)")
            assert elapsed < self.limit, \
                f"{self.label} exceeded the {self.limit}s budget"
        else:
            print(f"criterion {self.label}: FAIL ({elapsed:.2f}s)")
        return False


def constraint_space(alg, zero_positions):
    idx = alg.pattern.index
    vecs = [{idx[p]: 1} for p in alg.pattern.order
            if p not in set(zero_positions)]
    return Subspace.from_vectors(alg.pattern, alg.field, vecs)


def test_criterion_1_chain_example_on_u6():
    with Timer("1 (u_6 chain example)", 1.0):
        for q in (2, 3):
            field = field_make(q)
            u6 = NilAlgebra.pattern_algebra(Pattern.full(6), field)
            lam = Functional.from_entries(
                u6, {(1, 3): 1, (2, 4): 1, (3, 5): 1, (4, 6): 1})
            ch = chain_compute(u6, lam)
            assert ch.l_list[1] == constraint_space(
                u6, [(1, 2), (2, 3), (3, 4), (4, 5)])
            assert ch.l_list[2] == constraint_space(u6, [(1, 2), (2, 3), (4, 5)])
            assert ch.s_list[1] == constraint_space(u6, [(4, 5)])
            assert ch.s_list[2] == constraint_space(u6, [(2, 3), (4, 5)])
            assert ch.l_list[3] == ch.s_list[2]
            assert ch.s_list[3] == ch.s_list[2]
            assert ch.chi_degree_exponent == 4   # chi has degree q^4
            assert ch.degree_exponent == 2       # xi has degree q^2
            assert ch.l_bar == ch.s_bar          # xi is irreducible


def test_criterion_2_closed_form_chain_grid():
    fields = {2: field_make(2), 3: field_make(3), 4: field_make(2, 2)}
    for r in (2, 3, 4):
        for q, field in fields.items():
            with Timer(f"2 (closed-form chain, r={r} q={q})", 30.0):
                tech, _, _ = verify_chain_closed_forms(r, field)
                assert all(tech["matches"].values()), tech["matches"]
                assert tech["final_bilinear"]
                assert tech["first_step_obstruction_sets"]


def test_criterion_3_exotic_quantitative_report():
    with Timer("3 (quantitative report, r=2 q=2 n=13)", 10.0):
        field = field_make(2)
        rep, corner = exotic_report(2, field, n=13)
        assert verdict(rep, corner)
        assert rep["xi_degree_exponent"] == 17
        assert rep["xi_norm_exponent"] == 1
        assert rep["constituent_count"] == 2
        assert rep["constituent_degree_exponent"] == 16
        assert rep["dim_s_bar"] == 62 and rep["dim_l_bar"] == 61
        assert rep["value_field_conductor"] == 4
        # at least one constituent on the abelian quotient has a value that
        # the Galois test zeta -> zeta^3 moves, i.e. a non-rational value
        a3 = constant_diagonal_algebra(3, field)
        group = GroupTable.from_algebra(a3)
        kappa = corner_functional(a3)
        ch = chain_compute(a3, kappa)
        lgroup = GroupTable.from_subspace(a3, ch.l_bar)
        cons = constituents_of_induced_linear(
            abelian_dual(group), lgroup, theta_lambda(lgroup, kappa))
        assert len(cons) == 2
        assert any(
            not in_subfield(v.promote(4), 1)
            for c in cons for v in c.values if v.m in (1, 2, 4))


def test_criterion_4_corner_supercharacter_scan():
    with Timer("4 (constant-diagonal group scan)", 10.0):
        for q in (2, 3):
            field = field_make(q)
            p = field.p
            for n in range(2, 7):
                if q ** (n - 1) > 729:
                    continue
                rep = corner_character_analysis(
                    constant_diagonal_algebra(n, field))
                assert rep["constituent_count"] == q ** (n - 2)
                assert rep["constituents_distinct"]
                assert rep["constituents_sum_matches"]
                largest = 1
                while largest * p < n:
                    largest *= p
                assert rep["max_constituent_conductor"] == p * largest
                assert rep["kirillov_is_character"] is (n == 2)
                assert rep["exp_kirillov_is_character"] is (n <= p)


def test_criterion_5_orthogonality_suite():
    with Timer("5 (orthogonality suite)", 60.0):
        rng = random.Random(51)
        # theta orthonormality: exhaustive for n <= 3, sampled for n = 4
        for q in (2, 3):
            field = field_make(q)
            for n in (2, 3):
                alg = NilAlgebra.pattern_algebra(Pattern.full(n), field)
                group = GroupTable.from_algebra(alg)
                lams = [Functional(alg, v) for v in
                        itertools.product(range(q), repeat=alg.dim)]
                thetas = [theta_lambda(group, lam) for lam in lams]
                for i, f in enumerate(thetas):
                    for j, g in enumerate(thetas):
                        assert f.inner(g) == (ONE if i == j else ZERO)
            alg4 = NilAlgebra.pattern_algebra(Pattern.full(4), field)
            group4 = GroupTable.from_algebra(alg4)
            for _ in range(200):
                a = Functional(alg4, [rng.randrange(q) for _ in range(6)])
                b = Functional(alg4, [rng.randrange(q) for _ in range(6)])
                expected = ONE if a.key() == b.key() else ZERO
                assert theta_lambda(group4, a).inner(
                    theta_lambda(group4, b)) == expected
        # Kirillov functions: orthonormal basis of class functions, n <= 3
        for q in (2, 3):
            field = field_make(q)
            for n in (2, 3):
                alg = NilAlgebra.pattern_algebra(Pattern.full(n), field)
                group = GroupTable.from_algebra(alg)
                reps = {}
                for v in itertools.product(range(q), repeat=alg.dim):
                    lam = Functional(alg, v)
                    reps.setdefault(
                        min(orbit_keys(orbit(lam, "coadjoint"))), lam)
                psis = [kirillov(group, lam) for lam in reps.values()]
                for i, f in enumerate(psis):
                    for j, g in enumerate(psis):
                        assert f.inner(g) == (ONE if i == j else ZERO)
        # supercharacter inner products on all quasi-monomial pairs, q = 2
        for n in (2, 3, 4):
            alg = NilAlgebra.pattern_algebra(Pattern.full(n), field_make(2))
            group = GroupTable.from_algebra(alg)
            qms = [Functional(alg, v) for v in
                   itertools.product(range(2), repeat=alg.dim)
                   if is_quasi_monomial(Functional(alg, v))]
            chis = {lam.key(): supercharacter(group, lam) for lam in qms}
            for lam in qms:
                two_sided = orbit_keys(orbit(lam, "two-sided"))
                overlap = orbit_keys(orbit(lam, "left")) & \
                    orbit_keys(orbit(lam, "right"))
                for mu in qms:
                    got = chis[lam.key()].inner(chis[mu.key()])
                    if mu.key() in two_sided:
                        assert got == CyclotomicNumber.rational(len(overlap))
                    else:
                        assert got == ZERO


def test_criterion_6_fast_path_versus_dense_oracle():
    with Timer("6 (combinatorial kernels vs dense oracle)", 60.0):
        rng = random.Random(62)
        fields = [field_make(2), field_make(3)]
        done = 0
        while done < 200:
            pattern = random_closed_pattern(rng, rng.randrange(3, 8))
            if not pattern.positions:
                continue
            alg = NilAlgebra.pattern_algebra(pattern, rng.choice(fields))
            lam = random_quasimonomial(rng, alg)
            qk = quasimonomial_kernels(alg, lam)
            l1_dense, s1_dense = brute_force_first_kernels(alg, lam)
            assert subspace_dense_rows(qk.l1) == l1_dense
            assert subspace_dense_rows(qk.s1) == s1_dense
            ch = chain_compute(alg, lam)
            assert ch.l_list[1] == qk.l1 and ch.s_list[1] == qk.s1
            assert ch.l_bar == ch.s_bar
            done += 1


def test_criterion_7_kirillov_character_pipeline():
    with Timer("7 (Kirillov reduction pipeline)", 10.0):
        for q, exp_is_char in ((2, False), (3, True)):
            field = field_make(q)
            rep, corner = exotic_report(2, field)
            checks = rep["checks"]
            split_checks = checks["quotient_split"]
            # every computational link of the reduction is verified
            assert checks["final_bilinear"]
            assert checks["nu_central"]
            assert split_checks["h_two_sided_ideal"]
            assert split_checks["a_subalgebra"]
            assert split_checks["direct_sum"]
            assert split_checks["corner_kills_h"]
            assert split_checks["iso_linear_bijective"]
            assert split_checks["iso_multiplicative"]
            assert split_checks["corner_matches_kappa"]
            assert rep["kirillov_is_character"] is False
            assert rep["exp_kirillov_is_character"] is exp_is_char
            # the homomorphism failure witness on A_3(q) is explicit
            a3 = constant_diagonal_algebra(3, field)
            group = GroupTable.from_algebra(a3)
            kappa = corner_functional(a3)
            psi = kirillov(group, kappa)
            by_key = {g.key(): g for g in group.elements}

            def element(witness):  # the [i,j,c] entries of an element
                return by_key[tuple(((i, j), c) for i, j, c in witness)]

            g, h = map(element, corner["kirillov_witness"])
            assert psi(g * h) != psi(g) * psi(h)
            if not exp_is_char:
                psi_exp = exp_kirillov(group, kappa)
                g, h = map(element, corner["exp_kirillov_witness"])
                assert psi_exp(g * h) != psi_exp(g) * psi_exp(h)
            else:
                assert corner["exp_kirillov_witness"] is None


def test_criterion_8_inflation_and_torus():
    with Timer("8 (inflation and torus)", 30.0):
        # inflation: u_4(2) = u_3(2)-block (+) last-column ideal
        from utchar.algebra import NilMatrix, quotient_project
        field = field_make(2)
        p4 = Pattern.full(4)
        u42 = NilAlgebra.pattern_algebra(p4, field)
        g42 = GroupTable.from_algebra(u42)
        sub_span = Subspace.from_matrices(
            p4, field, [NilMatrix.elementary(p4, field, *pos)
                        for pos in ((1, 2), (1, 3), (2, 3))])
        ideal = Subspace.from_matrices(
            p4, field, [NilMatrix.elementary(p4, field, i, 4)
                        for i in (1, 2, 3)])
        proj = quotient_project(u42, sub_span, ideal)
        sub_alg = NilAlgebra.from_subspace(sub_span, field)
        assert sub_alg.is_closed_under_products()
        quotient = GroupTable.from_algebra(sub_alg)
        for values in itertools.product(range(2), repeat=3):
            entries = {pos: v for pos, v in
                       zip(((1, 2), (1, 3), (2, 3)), values)}
            lam = Functional.from_entries(u42, entries)
            mu = Functional.from_entries(sub_alg, entries)
            tables = (
                (kirillov(g42, lam), kirillov(quotient, mu)),
                (exp_kirillov(g42, lam), exp_kirillov(quotient, mu)),
                (supercharacter(g42, lam), supercharacter(quotient, mu)),
            )
            xi_lam = xi(u42, lam, group=g42)
            xi_mu = xi(sub_alg, mu, group=quotient)
            for g in g42.elements:
                image = proj.project_group(g)
                for big, small in tables:
                    assert big(g) == small(image)
                assert xi_lam.table(g) == xi_mu.table(image)
            assert xi_lam.chain.l_bar == xi_mu.chain.l_bar.sum_with(ideal)
            assert xi_lam.chain.s_bar == xi_mu.chain.s_bar.sum_with(ideal)
        # torus orbits have size (q-1)^(n - parts), q = 3, n <= 5
        field3 = field_make(3)
        rng = random.Random(83)
        for n in (3, 4, 5):
            alg = NilAlgebra.pattern_algebra(Pattern.full(n), field3)
            for _ in range(6):
                lam = random_quasimonomial(rng, alg)
                orb = torus_orbit(lam)
                assert len(orb) == 2 ** (n - len(shape(lam)))
                assert all(shape(f) == shape(lam) for f in orb)


def test_kirillov_table_on_ut6_2_within_budget():
    # |G| = 32768 and a coadjoint orbit of 4096 functionals, within
    # criterion 2's budget; sampled values against direct trace counts
    field = field_make(2)
    alg = NilAlgebra.pattern_algebra(Pattern.full(6), field)
    lam = Functional.from_entries(alg, {(1, 6): 1, (2, 5): 1})
    with Timer("UT_6(2) Kirillov table", 30.0):
        group = GroupTable.from_algebra(alg)
        psi = kirillov(group, lam)
    functionals = orbit(lam, "coadjoint")
    assert len(functionals) == 4096
    for g in random.Random(62).sample(group.elements, 200):
        counts = [0, 0]
        for mu in functionals:
            counts[field.trace(mu.evaluate_group(g))] += 1
        assert psi(g) == CyclotomicNumber.rational(
            Fraction(counts[0] - counts[1], 64))


OPTIMIZED_CLI = """
import sys
from utchar.cli import main
assert False, "assertions are enabled"
sys.exit(main({argv!r}))
"""


@pytest.mark.parametrize("argv", [["exotic", "--r", "2", "--q", "2"],
                                  ["verify", "--r", "3", "--q", "2"]])
def test_cli_output_unchanged_under_python_O(argv, run_optimized, capsys):
    # every check of these commands runs without assert statements, so
    # python -O must give the same exit code and the same bytes
    assert main(argv) == 0
    want = capsys.readouterr().out
    out = run_optimized(OPTIMIZED_CLI.format(argv=argv))
    assert out.returncode == 0, out.stderr
    assert out.stdout == want
