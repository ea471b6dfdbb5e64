import itertools
import tracemalloc
from fractions import Fraction
from math import isqrt

import pytest

from utchar import characters
from utchar.algebra import (GroupElement, NilAlgebra, NilMatrix, Pattern,
                            Subspace, VerificationFailed, trunc_exp)
from utchar.chain import chain_compute
from utchar.characters import (ClassFunction, GroupTable, abelian_dual,
                               constituents_of_induced_linear, exp_kirillov,
                               homomorphism_defect, induce, kirillov,
                               supercharacter, theta_lambda, xi)
from utchar.duals import Functional, orbit
from utchar.exotic import constant_diagonal_algebra, corner_functional
from utchar.scalars import CyclotomicNumber, field_make

from oracles import (brute_force_character_sums, closed_subspace_algebra,
                     dense_orbit_sum, field_of_values, is_character_linear,
                     key_index, orbit_keys, random_functional, restrict,
                     u4_and_subalgebra, xi_set)

F2 = field_make(2)
F3 = field_make(3)
ONE = CyclotomicNumber.one()
ZERO = CyclotomicNumber.zero()

U32 = NilAlgebra.pattern_algebra(Pattern.full(3), F2)
G32 = GroupTable.from_algebra(U32)
U33 = NilAlgebra.pattern_algebra(Pattern.full(3), F3)
G33 = GroupTable.from_algebra(U33)
U42 = NilAlgebra.pattern_algebra(Pattern.full(4), F2)
G42 = GroupTable.from_algebra(U42)


def all_functionals(alg):
    q = alg.field.q
    return [Functional(alg, v)
            for v in itertools.product(range(q), repeat=alg.dim)]


def test_theta_basics():
    lam0 = Functional.zero(U32)
    assert all(v == ONE for v in theta_lambda(G32, lam0).values)
    u2 = NilAlgebra.pattern_algebra(Pattern.full(2), F2)
    g2 = GroupTable.from_algebra(u2)
    th = theta_lambda(g2, Functional.from_entries(u2, {(1, 2): 1}))
    assert th(GroupElement(NilMatrix.elementary(Pattern.full(2), F2, 1, 2))) \
        == CyclotomicNumber.rational(-1)


def test_theta_orthonormality_exhaustive_u3():
    for group in (G32, G33):
        lams = all_functionals(group.algebra)
        thetas = [theta_lambda(group, lam) for lam in lams]
        for i, f in enumerate(thetas):
            for j, g in enumerate(thetas):
                assert f.inner(g) == (ONE if i == j else ZERO)


def test_kirillov_frozen_values_ut32():
    lam = Functional.from_entries(U32, {(1, 3): 1})
    psi = kirillov(G32, lam)
    assert psi.degree == CyclotomicNumber.rational(2)
    e13 = GroupElement(NilMatrix.elementary(Pattern.full(3), F2, 1, 3))
    assert psi(e13) == CyclotomicNumber.rational(-2)
    assert sum(1 for v in psi.values if not v.is_zero()) == 2


def test_kirillov_degree_is_sqrt_orbit(rng):
    for alg, group in ((U42, G42), (U33, G33)):
        for _ in range(8):
            lam = random_functional(rng, alg)
            psi = kirillov(group, lam)
            size = len(orbit(lam, "coadjoint"))
            assert psi.degree * psi.degree == CyclotomicNumber.rational(size)


def test_kirillov_orthonormal_on_class_functions():
    for group, alg in ((G32, U32), (G33, U33)):
        reps = {}
        for lam in all_functionals(alg):
            key = min(orbit_keys(orbit(lam, "coadjoint")))
            reps.setdefault(key, lam)
        psis = [kirillov(group, lam) for lam in reps.values()]
        assert len(psis) == len(reps)
        for i, f in enumerate(psis):
            assert all(f.values[k] == f.values[members[0]]
                       for members in group.classes() for k in members)
            for j, g in enumerate(psis):
                assert f.inner(g) == (ONE if i == j else ZERO)


def test_exp_kirillov_orthonormal_on_class_functions():
    reps = {}
    for v in itertools.product(range(3), repeat=3):
        lam = Functional(U33, v)
        reps.setdefault(min(orbit_keys(orbit(lam, "coadjoint"))), lam)
    psis = [exp_kirillov(G33, lam) for lam in reps.values()]
    for i, f in enumerate(psis):
        for j, g in enumerate(psis):
            assert f.inner(g) == (ONE if i == j else ZERO)


def test_exp_kirillov_equals_kirillov_in_char2():
    for lam in all_functionals(U32):
        assert exp_kirillov(G32, lam) == kirillov(G32, lam)


def test_exp_kirillov_is_kirillov_through_exp():
    u4 = NilAlgebra.pattern_algebra(Pattern.full(4), F3)
    g4 = GroupTable.from_algebra(u4)
    lam = Functional.from_entries(u4, {(1, 3): 1, (2, 4): 2})
    psi = kirillov(g4, lam)
    psi_exp = exp_kirillov(g4, lam)
    for g in u4.enumerate_group():
        assert psi_exp(trunc_exp(g.body)) == psi(g)


def test_supercharacter_values_and_norm():
    lam = Functional.from_entries(U32, {(1, 3): 1})
    chi = supercharacter(G32, lam)
    assert chi.degree == CyclotomicNumber.rational(2)
    assert chi.inner(chi) == ONE
    lam0 = Functional.zero(U32)
    assert all(v == ONE for v in supercharacter(G32, lam0).values)


def test_supercharacter_inner_products_on_quasimonomials():
    from utchar.duals import is_quasi_monomial
    qms = [lam for lam in all_functionals(U42) if is_quasi_monomial(lam)]
    assert len(qms) == 15  # one per set partition of [4]
    chis = {lam.key(): supercharacter(G42, lam) for lam in qms}
    for lam in qms:
        two_sided = orbit_keys(orbit(lam, "two-sided"))
        left = orbit_keys(orbit(lam, "left"))
        right = orbit_keys(orbit(lam, "right"))
        expected = CyclotomicNumber.rational(len(left & right))
        for mu in qms:
            got = chis[lam.key()].inner(chis[mu.key()])
            if mu.key() in two_sided:
                assert got == expected
            else:
                assert got == ZERO


def test_xi_equals_induced_and_equals_chi_when_irreducible():
    lam = Functional.from_entries(U32, {(1, 3): 1})
    data = xi(U32, lam, group=G32)
    assert data.chain.degree_exponent == 1 and data.chain.norm_exponent == 0
    assert data.chain.norm_exponent == 0  # irreducible
    assert data.table == supercharacter(G32, lam)
    assert data.table == kirillov(G32, lam)


def test_xi_equals_supercharacter_when_s_bar_is_everything():
    for entries in ({}, {(1, 2): 1}, {(2, 3): 1}, {(1, 2): 1, (2, 3): 1}):
        lam = Functional.from_entries(U32, entries)
        data = xi(U32, lam, group=G32)
        if data.chain.s_bar == U32.span:
            assert data.table == supercharacter(G32, lam)


def test_xi_without_group_returns_structural_data_only():
    lam = Functional.from_entries(U42, {(1, 4): 1})
    data = xi(U42, lam)
    assert data.table is None
    assert data.chain.degree_exponent == 2 and data.chain.norm_exponent == 0
    # the structural report survives a cap too small for the subgroup table
    capped = xi(U42, lam, group=G42, cap=2)
    assert capped.table is None
    assert capped.chain.degree_exponent == 2


def test_xi_formula_as_orbit_sum():
    lam = Functional.from_entries(U42, {(1, 4): 1, (2, 3): 1})
    data = xi(U42, lam, group=G42)
    ch = data.chain
    functionals = xi_set(G42, lam, ch.s_bar)
    size_expected = 2 ** (2 * U42.dim - ch.l_bar.dim - ch.s_bar.dim)
    assert len(functionals) == size_expected
    th = G42.theta
    from fractions import Fraction
    scale = Fraction(2 ** ch.s_bar.dim, G42.size)
    for g, value in zip(G42.elements, data.table.values):
        acc = CyclotomicNumber.zero()
        for mu in functionals:
            acc = acc + th(mu.evaluate_group(g))
        assert acc.scale(scale) == value


def test_xi_inner_products():
    lam = Functional.from_entries(U42, {(1, 4): 1, (2, 3): 1})
    mu = Functional.from_entries(U42, {(1, 3): 1})
    data_l = xi(U42, lam, group=G42)
    data_m = xi(U42, mu, group=G42)
    norm = data_l.table.inner(data_l.table)
    assert norm == CyclotomicNumber.rational(2 ** data_l.chain.norm_exponent)
    in_xi = mu.key() in {f.key() for f in
                         xi_set(G42, lam, data_l.chain.s_bar)}
    cross = data_l.table.inner(data_m.table)
    if in_xi:
        assert cross == norm
    else:
        assert cross == ZERO


def test_induce_from_trivial_subgroup_gives_regular_character():
    u2 = NilAlgebra.pattern_algebra(Pattern.full(2), F2)
    g2 = GroupTable.from_algebra(u2)
    triv = GroupTable.from_subspace(u2, Subspace.zero(Pattern.full(2), F2))
    reg = induce(ClassFunction(triv, [ONE]), g2)
    assert reg.degree == CyclotomicNumber.rational(2)
    nonid = [v for g, v in zip(g2.elements, reg.values)
             if not g.body.is_zero()]
    assert all(v == ZERO for v in nonid)


def test_from_subspace_builds_and_group_table_checks_closure():
    # NilAlgebra.from_subspace only builds; GroupTable.from_subspace, whose
    # subspaces are computed, checks closure and raises VerificationFailed
    p3 = Pattern.full(3)
    span = Subspace.from_matrices(
        p3, F2, [NilMatrix.elementary(p3, F2, 1, 2),
                 NilMatrix.elementary(p3, F2, 2, 3)])
    alg = NilAlgebra.from_subspace(span, F2)
    assert alg.span == span and alg.dim == 2 and not alg.is_pattern
    assert not alg.is_closed_under_products()
    with pytest.raises(VerificationFailed, match="not closed under products"):
        GroupTable.from_subspace(U32, span)


def test_frobenius_reciprocity(rng):
    span = Subspace.from_matrices(
        Pattern.full(3), F2,
        [NilMatrix.elementary(Pattern.full(3), F2, 1, 3),
         NilMatrix.elementary(Pattern.full(3), F2, 2, 3)])
    sub = GroupTable.from_subspace(U32, span)
    values = [ONE, CyclotomicNumber.rational(-1), ZERO,
              CyclotomicNumber.rational(2)]
    for _ in range(8):
        f = ClassFunction(sub, [rng.choice(values) for _ in range(sub.size)])
        g = kirillov(G32, random_functional(rng, U32))
        assert induce(f, G32).inner(g) == f.inner(restrict(g, sub))


def test_induction_transitivity():
    p4 = Pattern.full(4)
    h_span = Subspace.from_matrices(
        p4, F2, [NilMatrix.elementary(p4, F2, *pos)
                 for pos in ((1, 3), (1, 4), (2, 4), (3, 4))])
    k_span = Subspace.from_matrices(
        p4, F2, [NilMatrix.elementary(p4, F2, *pos)
                 for pos in ((1, 4), (2, 4))])
    H = GroupTable.from_subspace(U42, h_span)
    K = GroupTable.from_subspace(U42, k_span)
    f = theta_lambda(K, Functional.from_entries(U42, {(1, 4): 1}))
    assert induce(induce(f, H), G42) == induce(f, G42)


def test_abelian_dual_a32():
    a3 = constant_diagonal_algebra(3, F2)
    A3 = GroupTable.from_algebra(a3)
    assert A3.is_abelian() and A3.size == 4
    dual = abelian_dual(A3)
    assert len(dual) == 4
    assert dual.modulus == 4 and dual.structure == [4]
    x = GroupElement(NilMatrix(Pattern.full(3), F2,
                               {(1, 2): 1, (2, 3): 1}))
    values_at_x = [psi(x) for psi in dual.characters]
    for k in range(4):
        assert sum(1 for v in values_at_x
                   if v == CyclotomicNumber.zeta(4, k)) == 1
    for i, f in enumerate(dual.characters):
        for j, g in enumerate(dual.characters):
            assert f.inner(g) == (ONE if i == j else ZERO)


def test_abelian_dual_klein_group():
    p4 = Pattern(4, [(1, 2), (3, 4)])
    alg = NilAlgebra.pattern_algebra(p4, F2)
    group = GroupTable.from_algebra(alg)
    dual = abelian_dual(group)
    assert len(dual) == 4
    assert sorted(dual.structure) == [2, 2]
    for psi in dual.characters:
        assert all(v == ONE or v == CyclotomicNumber.rational(-1)
                   for v in psi.values)


def test_abelian_dual_a2q_is_field_additive_group():
    for field in (F2, F3):
        u2 = NilAlgebra.pattern_algebra(Pattern.full(2), field)
        group = GroupTable.from_algebra(u2)
        dual = abelian_dual(group)
        assert len(dual) == field.q
        assert all(is_character_linear(psi) for psi in dual.characters)


def test_constituents_of_corner_supercharacter():
    a3 = constant_diagonal_algebra(3, F2)
    A3 = GroupTable.from_algebra(a3)
    kappa = corner_functional(a3)
    ch = chain_compute(a3, kappa)
    assert ch.l_bar.dim == 1 and ch.s_bar == a3.span
    L = GroupTable.from_subspace(a3, ch.l_bar)
    theta_l = theta_lambda(L, kappa)
    dual = abelian_dual(A3)
    cons = constituents_of_induced_linear(dual, L, theta_l)
    assert len(cons) == 2
    total = cons[0] + cons[1]
    assert total == induce(theta_l, A3)
    x = GroupElement(NilMatrix(Pattern.full(3), F2, {(1, 2): 1, (2, 3): 1}))
    assert {str(c(x).coeffs) for c in cons} == \
        {str(CyclotomicNumber.zeta(4).coeffs),
         str(CyclotomicNumber.zeta(4, 3).coeffs)}
    # full-group restriction: single constituent
    cons_all = constituents_of_induced_linear(
        dual, A3, dual.characters[1])
    assert cons_all == [dual.characters[1]]


def test_kirillov_equals_theta_on_abelian_groups():
    a3 = constant_diagonal_algebra(3, F2)
    A3 = GroupTable.from_algebra(a3)
    kappa = corner_functional(a3)
    # on an abelian algebra group the coadjoint orbit is a singleton
    assert len(orbit(kappa, "coadjoint")) == 1
    assert kirillov(A3, kappa) == theta_lambda(A3, kappa)


def test_is_character_linear_and_witnesses():
    u2 = NilAlgebra.pattern_algebra(Pattern.full(2), F3)
    A2 = GroupTable.from_algebra(u2)
    k2 = Functional.from_entries(u2, {(1, 2): 1})
    assert is_character_linear(kirillov(A2, k2))
    a3 = constant_diagonal_algebra(3, F2)
    A3 = GroupTable.from_algebra(a3)
    psi = kirillov(A3, corner_functional(a3))
    assert not is_character_linear(psi)
    g, h = homomorphism_defect(psi)
    assert psi(g * h) != psi(g) * psi(h)


def test_exp_kirillov_character_threshold_on_constant_diagonal():
    # character iff n <= p
    a33 = constant_diagonal_algebra(3, F3)
    A33 = GroupTable.from_algebra(a33)
    assert is_character_linear(
        exp_kirillov(A33, corner_functional(a33)))
    a43 = constant_diagonal_algebra(4, F3)
    A43 = GroupTable.from_algebra(a43)
    assert not is_character_linear(
        exp_kirillov(A43, corner_functional(a43)))


def test_field_of_values():
    triv = ClassFunction(G32, [ONE] * G32.size)
    fov = field_of_values(triv)
    assert fov.p == 0 and fov.conductor == 1 and fov.min_level == 0
    with pytest.raises(ValueError, match="is not a prime power"):
        field_of_values(ClassFunction(G32, [CyclotomicNumber.zeta(6)]
                                      * G32.size))
    a3 = constant_diagonal_algebra(3, F2)
    A3 = GroupTable.from_algebra(a3)
    dual = abelian_dual(A3)
    levels = sorted(
        (field_of_values(c).conductor, field_of_values(c).min_level)
        for c in dual.characters)
    assert levels == [(1, 0), (2, 0), (4, 2), (4, 2)]


def test_field_of_values_conductor9():
    a4 = constant_diagonal_algebra(4, F3)
    A4 = GroupTable.from_algebra(a4)
    dual = abelian_dual(A4)
    conductors = {field_of_values(c).conductor for c in dual.characters}
    assert 9 in conductors
    hot = [c for c in dual.characters
           if field_of_values(c).conductor == 9]
    assert all(field_of_values(c).min_level == 2 for c in hot)


def test_inflation_identities_u42():
    p4 = Pattern.full(4)
    sub_span = Subspace.from_matrices(
        p4, F2, [NilMatrix.elementary(p4, F2, *pos)
                 for pos in ((1, 2), (1, 3), (2, 3))])
    ideal = Subspace.from_matrices(
        p4, F2, [NilMatrix.elementary(p4, F2, i, 4) for i in (1, 2, 3)])
    from utchar.algebra import quotient_project
    proj = quotient_project(U42, sub_span, ideal)
    sub_alg = NilAlgebra.from_subspace(sub_span, F2)
    assert sub_alg.is_closed_under_products()
    A = GroupTable.from_algebra(sub_alg)
    for entries in ({(1, 3): 1}, {(1, 2): 1}, {(1, 3): 1, (2, 3): 1},
                    {(1, 2): 1, (2, 3): 1}):
        lam = Functional.from_entries(U42, entries)
        mu = Functional.from_entries(sub_alg, entries)
        psi_lam = kirillov(G42, lam)
        psi_mu = kirillov(A, mu)
        chi_lam = supercharacter(G42, lam)
        chi_mu = supercharacter(A, mu)
        psi_exp_lam = exp_kirillov(G42, lam)
        psi_exp_mu = exp_kirillov(A, mu)
        xi_lam = xi(U42, lam, group=G42)
        xi_mu = xi(sub_alg, mu, group=A)
        for g in G42.elements:
            image = proj.project_group(g)
            assert psi_lam(g) == psi_mu(image)
            assert chi_lam(g) == chi_mu(image)
            assert psi_exp_lam(g) == psi_exp_mu(image)
            assert xi_lam.table(g) == xi_mu.table(image)
        # l_bar and s_bar pull back through the projection
        lam_chain = xi_lam.chain
        mu_chain = xi_mu.chain
        pulled_l = mu_chain.l_bar.sum_with(ideal)
        pulled_s = mu_chain.s_bar.sum_with(ideal)
        assert lam_chain.l_bar == pulled_l
        assert lam_chain.s_bar == pulled_s


def test_induce_rejects_nothing_but_class_functions_silently():
    # restriction then induction satisfies the exact Frobenius formula
    span = Subspace.from_matrices(
        Pattern.full(3), F2,
        [NilMatrix.elementary(Pattern.full(3), F2, 1, 3)])
    sub = GroupTable.from_subspace(U32, span)
    lam = Functional.from_entries(U32, {(1, 3): 1})
    th = theta_lambda(sub, lam)
    ind = induce(th, G32)
    assert ind.degree == CyclotomicNumber.rational(4)


# ---------------------------------------------------------------------------
# trace-count orbit sums against the per-functional cyclotomic sum


def exact_values(f):
    """Conductor and coefficients of every value; == on CyclotomicNumber
    promotes conductors, this does not."""
    return [(v.m, v.coeffs) for v in f.values]


def check_orbit_sums(group, lam):
    coadjoint = orbit(lam, "coadjoint")
    psi = dense_orbit_sum(group, coadjoint,
                          Fraction(1, isqrt(len(coadjoint))))
    assert exact_values(kirillov(group, lam)) == exact_values(psi)
    index = key_index(group)
    psi_exp = [None] * group.size
    for g, v in zip(group.elements, psi.values):
        psi_exp[index[trunc_exp(g.body).key()]] = v
    assert exact_values(exp_kirillov(group, lam)) == \
        exact_values(ClassFunction(group, psi_exp))
    two = orbit(lam, "two-sided")
    chi = dense_orbit_sum(group, two,
                          Fraction(len(orbit(lam, "left")), len(two)))
    assert exact_values(supercharacter(group, lam)) == exact_values(chi)


ORBIT_SUM_GROUPS = [(3, (2, 1)), (3, (3, 1)), (3, (2, 2)), (3, (5, 1)),
                    (3, (2, 3)), (3, (3, 2)), (4, (2, 1)), (4, (3, 1))]


@pytest.mark.parametrize("n, pe", ORBIT_SUM_GROUPS)
def test_orbit_sums_match_dense_oracle_on_ut(n, pe, rng):
    field = field_make(*pe)
    alg = NilAlgebra.pattern_algebra(Pattern.full(n), field)
    group = GroupTable.from_algebra(alg)
    top = field.q - 1  # the largest encoding: a non-prime element if e > 1
    lams = [Functional.from_entries(alg, {(1, n): top, (1, 2): 1}),
            random_functional(rng, alg)]
    if group.size < 500:
        lams += [Functional.zero(alg), random_functional(rng, alg)]
    for lam in lams:
        check_orbit_sums(group, lam)


@pytest.mark.parametrize("n", [3, 4, 5])
def test_orbit_sums_match_dense_oracle_on_constant_diagonal(n, rng):
    for field in (F2, F3):
        alg = constant_diagonal_algebra(n, field)
        group = GroupTable.from_algebra(alg)
        for lam in (corner_functional(alg), random_functional(rng, alg)):
            check_orbit_sums(group, lam)


@pytest.mark.parametrize("p", [2, 3])
def test_orbit_sums_match_dense_oracle_on_u4_and_subalgebra(p, rng):
    for alg in u4_and_subalgebra(field_make(p)):
        group = GroupTable.from_algebra(alg)
        for lam in (Functional.zero(alg), random_functional(rng, alg)):
            check_orbit_sums(group, lam)


@pytest.mark.parametrize("pe", [pe for n, pe in ORBIT_SUM_GROUPS if n == 3])
def test_orbit_sum_of_any_functionals_matches_dense_oracle(pe, rng):
    # the transform does not use that the functionals form an orbit; a
    # repeated functional counts twice
    alg = NilAlgebra.pattern_algebra(Pattern.full(3), field_make(*pe))
    group = GroupTable.from_algebra(alg)
    pool = all_functionals(alg)
    for size in (1, 2, 7, min(40, len(pool))):
        chosen = rng.sample(pool, size)
        chosen.append(chosen[0])
        scale = Fraction(1, size)
        assert exact_values(characters._orbit_sum(group, chosen, scale)) \
            == exact_values(dense_orbit_sum(group, chosen, scale))


def test_orbit_sum_on_a_subgroup_extends_only_its_prefixes():
    # 1 + span(e12, e13, e23) is 8 elements of UT_6(2): the transform must
    # extend only their coordinate prefixes, never all 2^15 of UT_6(2)
    alg = NilAlgebra.pattern_algebra(Pattern.full(6), F2)
    span = Subspace.from_matrices(
        alg.pattern, F2, [NilMatrix.elementary(alg.pattern, F2, *pos)
                          for pos in ((1, 2), (1, 3), (2, 3))])
    sub = GroupTable.from_subspace(alg, span)
    functionals = orbit(Functional.from_entries(alg, {(1, 6): 1}),
                        "coadjoint")
    scale = Fraction(1, 16)
    tracemalloc.start()
    try:
        table = characters._orbit_sum(sub, functionals, scale)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert exact_values(table) == \
        exact_values(dense_orbit_sum(sub, functionals, scale))
    assert len({v.coeffs for v in table.values}) > 1
    assert peak < 1 << 22, peak  # all 2^15 prefixes take over 20 MB


@pytest.mark.parametrize("period", [8, 9])
def test_character_sums_match_brute_force(period, rng):
    # arbitrary pairing tables, mixed radices for the points' coordinates
    # and for the vectors' entries, repeated vectors, and as points the
    # whole grid, a random subset, and a box inside it: all points with
    # x_1 = 0 and x_3 < 2, whose prefixes are a proper subset of the grid's
    point_radices = [2, 3, 4, 3]
    vector_radices = [5, 2, 3, 4]
    pairing = [[[rng.randrange(period) for _ in range(m)] for _ in range(r)]
               for m, r in zip(point_radices, vector_radices)]
    grid = list(itertools.product(*map(range, point_radices)))
    box = [x for x in grid if x[0] == 0 and x[2] < 2]
    for points in (grid, rng.sample(grid, 17), box):
        for count in (1, 6, 40):
            vectors = [tuple(map(rng.randrange, vector_radices))
                       for _ in range(count)]
            vectors.append(vectors[0])
            scale = Fraction(1, count)
            assert characters._character_sums(
                points, vectors, pairing, period, scale) == \
                brute_force_character_sums(
                    points, vectors, pairing, period, scale)


@pytest.mark.parametrize("period", [2, 3, 8, 9])
def test_character_sums_on_random_radices_match_brute_force(period, rng):
    # random mixed radices; each draw has an axis with more distinct
    # vector values than point values and one with fewer, the vectors
    # repeat, and the points are the grid, a shuffle of it and a subset
    for _ in range(6):
        point_radices = [rng.randint(2, 4) for _ in range(rng.randint(2, 4))]
        vector_radices = [rng.randint(1, 5) for _ in point_radices]
        vector_radices[0] = point_radices[0] + rng.randint(1, 2)
        vector_radices[-1] = rng.randint(1, point_radices[-1] - 1)
        pairing = [[[rng.randrange(period) for _ in range(m)]
                    for _ in range(r)]
                   for m, r in zip(point_radices, vector_radices)]
        # every vector value occurs, so each axis has r distinct values
        vectors = [tuple(i % r for r in vector_radices)
                   for i in range(max(vector_radices))]
        vectors += [tuple(map(rng.randrange, vector_radices))
                    for _ in range(rng.randint(0, 30))]
        vectors += rng.choices(vectors, k=3)
        grid = list(itertools.product(*map(range, point_radices)))
        shuffled = rng.sample(grid, len(grid))
        for points in (grid, shuffled, shuffled[:5]):
            scale = Fraction(rng.randint(1, 5), len(vectors))
            assert characters._character_sums(
                points, vectors, pairing, period, scale) == \
                brute_force_character_sums(
                    points, vectors, pairing, period, scale)


@pytest.mark.parametrize("count", [255, 256, 65535, 65536])
def test_character_sums_at_digit_width_edges(count):
    # count vectors, almost all one vector, on a 2 x 2 grid: at x = (0, 0)
    # every vector has exponent 0, so one digit holds count, the most an
    # 8-bit (count 255) or 16-bit (count 65535) digit can hold, or one
    # more than that
    pairing = [[[0, 1], [0, 2]], [[0, 2], [0, 1]]]
    vectors = [(1, 1)] * (count - 2) + [(0, 1), (1, 0)]
    points = [(0, 0), (0, 1), (1, 0), (1, 1)]
    sums = characters._character_sums(points, vectors, pairing, 3, 1)
    assert sums == brute_force_character_sums(points, vectors, pairing, 3, 1)
    assert sums[0] == CyclotomicNumber.rational(count)


def test_orbit_sum_on_a_shuffled_table_matches_dense_oracle(rng):
    # tables made from an explicit, shuffled element list, so that their
    # coordinate tuples are not in product order: u_3(3), and the
    # subgroup 1 + span(e12 + e23, e13) of u_3(3) with the orbits of
    # functionals on u_3(3)
    alg = NilAlgebra.pattern_algebra(Pattern.full(3), F3)
    sub = closed_subspace_algebra(Subspace.from_matrices(
        alg.pattern, F3, [NilMatrix(alg.pattern, F3, entries) for entries
                          in ({(1, 2): 1, (2, 3): 1}, {(1, 3): 1})]), F3)
    lams = [Functional.from_entries(alg, {(1, 3): 1}),
            Functional.from_entries(alg, {(1, 2): 2, (2, 3): 1}),
            random_functional(rng, alg)]
    for algebra in (alg, sub):
        elements = list(GroupTable.from_algebra(algebra).elements)
        rng.shuffle(elements)
        group = GroupTable(algebra, elements)
        assert group.coords != sorted(group.coords)
        for lam in lams:
            for which in ("coadjoint", "two-sided"):
                functionals = orbit(lam, which)
                scale = Fraction(1, len(functionals))
                assert exact_values(
                    characters._orbit_sum(group, functionals, scale)) == \
                    exact_values(dense_orbit_sum(group, functionals, scale))


def test_vanishing_orbit_sum_keeps_conductor_p():
    for field in (F3, field_make(2, 2), field_make(5)):
        alg = NilAlgebra.pattern_algebra(Pattern.full(3), field)
        group = GroupTable.from_algebra(alg)
        lam = Functional.from_entries(alg, {(1, 3): 1})
        for fn in (kirillov(group, lam), supercharacter(group, lam)):
            assert any(v.is_zero() for v in fn.values)
            assert all(v.m == field.p for v in fn.values)


# ---------------------------------------------------------------------------
# mathematical checks raise VerificationFailed


def test_kirillov_checks_raise_verification_failed(monkeypatch):
    lam = Functional.from_entries(U32, {(1, 3): 1})
    real = characters.orbit
    monkeypatch.setattr(characters, "orbit",
                        lambda lam, which, cap=characters.DEFAULT_CAP:
                        real(lam, which, cap)[:2])
    with pytest.raises(VerificationFailed, match="perfect square"):
        kirillov(G32, lam)


def test_exp_kirillov_unfilled_value_raises(monkeypatch):
    lam = Functional.from_entries(U33, {(1, 3): 1})
    identity = G33.elements[G33.identity_index()]
    monkeypatch.setattr(characters, "trunc_exp", lambda mat: identity)
    with pytest.raises(VerificationFailed, match="Exp"):
        exp_kirillov(G33, lam)


def test_incomplete_abelian_dual_raises():
    # 1, x, x^2 of the cyclic group of order 3, listed without x^2
    u2 = NilAlgebra.pattern_algebra(Pattern.full(2), F3)
    elements = list(GroupTable.from_algebra(u2).elements)
    fake = GroupTable(u2, elements[:2])
    with pytest.raises(VerificationFailed, match="incomplete"):
        abelian_dual(fake)


OPTIMIZED_SCRIPT = """
from utchar import characters, duals
from utchar.algebra import NilAlgebra, Pattern, VerificationFailed
from utchar.characters import GroupTable, kirillov
from utchar.duals import Functional
from utchar.scalars import field_make
assert False, "assertions are enabled"
u3 = NilAlgebra.pattern_algebra(Pattern.full(3), field_make(2))
lam = Functional.from_entries(u3, {(1, 3): 1})
real = characters.orbit
characters.orbit = lambda lam, which, cap: real(lam, which, cap)[:2]
try:
    kirillov(GroupTable.from_algebra(u3), lam)
except VerificationFailed:
    print("raised")
gens = NilAlgebra.group_generators
NilAlgebra.group_generators = lambda algebra: gens(algebra)[:1]
try:
    duals.orbit(lam, "coadjoint")
except VerificationFailed:
    print("raised")
"""


def test_orbit_size_check_survives_optimized_mode(run_optimized):
    out = run_optimized(OPTIMIZED_SCRIPT)
    assert out.returncode == 0, out.stderr
    assert out.stdout.split() == ["raised", "raised"]
