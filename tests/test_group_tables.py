"""Group tables computed on coordinate vectors, checked for exact equality
against the GroupElement-product oracles in oracles.py."""

from fractions import Fraction

import pytest

from utchar.algebra import NilAlgebra, Pattern, Subspace, VerificationFailed
from utchar.chain import chain_compute
from utchar.characters import (ClassFunction, GroupTable, abelian_dual,
                               homomorphism_defect, induce, theta_lambda)
from utchar.exotic import constant_diagonal_algebra, corner_functional
from utchar.scalars import CyclotomicNumber, field_make

from oracles import (brute_force_abelian_dual, brute_force_induce,
                     brute_force_mul_table, random_functional,
                     u4_and_subalgebra)

FIELDS = {q: field_make(p, e) for q, p, e in
          ((2, 2, 1), (3, 3, 1), (4, 2, 2), (5, 5, 1), (8, 2, 3), (9, 3, 2))}


def unitriangular(n, q):
    return GroupTable.from_algebra(
        NilAlgebra.pattern_algebra(Pattern.full(n), FIELDS[q]))


# A_n(q) for n = 2..6 and q = 2..5, up to 256 elements
CONSTANT_DIAGONAL = [(n, q) for q in (2, 3, 4, 5) for n in range(2, 7)
                     if q ** (n - 1) <= 256]


def constant_diagonal(n, q):
    return GroupTable.from_algebra(constant_diagonal_algebra(n, FIELDS[q]))


@pytest.mark.parametrize("q", [2, 3, 4, 5, 8, 9])
def test_mul_table_matches_oracle_on_ut3(q):
    group = unitriangular(3, q)
    assert group.mul_table() == brute_force_mul_table(group)


def test_mul_table_matches_oracle_on_ut4_2():
    group = unitriangular(4, 2)
    assert group.mul_table() == brute_force_mul_table(group)


@pytest.mark.parametrize("n,q", CONSTANT_DIAGONAL)
def test_mul_table_matches_oracle_on_constant_diagonal(n, q):
    group = constant_diagonal(n, q)
    assert not group.algebra.is_pattern  # subspace coordinates
    assert group.mul_table() == brute_force_mul_table(group)


@pytest.mark.parametrize("q", [2, 3])
def test_mul_table_matches_oracle_on_noncommutative_subalgebra(q):
    u4, sub = u4_and_subalgebra(FIELDS[q])
    group = GroupTable.from_algebra(sub)
    assert not group.is_abelian()
    assert group.mul_table() == brute_force_mul_table(group)
    if q == 2:
        full = GroupTable.from_algebra(u4)
        assert full.mul_table() == brute_force_mul_table(full)


def test_incomplete_mul_table_raises():
    group = unitriangular(3, 2)
    partial = GroupTable(group.algebra, group.elements[:5])
    with pytest.raises(VerificationFailed, match="incomplete"):
        partial.mul_table()


def random_subalgebra(rng, algebra):
    """The subalgebra generated by two random elements of the algebra."""
    field, pattern = algebra.field, algebra.pattern
    gens = [algebra.from_coordinates(
        [rng.randrange(field.q) for _ in range(algebra.dim)])
        for _ in range(2)]
    span = Subspace.from_matrices(pattern, field, gens)
    while True:
        basis = list(span.basis_matrices())
        bigger = Subspace.from_matrices(
            pattern, field, basis + [u @ v for u in basis for v in basis])
        if bigger == span:
            return span
        span = bigger


@pytest.mark.parametrize("n,q", [(3, 2), (3, 3), (3, 4), (3, 5), (4, 2)])
def test_induce_theta_from_l_bar_matches_oracle(rng, n, q):
    group = unitriangular(n, q)
    for _ in range(2):
        lam = random_functional(rng, group.algebra)
        ch = chain_compute(group.algebra, lam)
        lgroup = GroupTable.from_subspace(group.algebra, ch.l_bar)
        theta = theta_lambda(lgroup, lam)
        assert induce(theta, group) == brute_force_induce(theta, group)


def test_induce_on_abelian_group_matches_oracle():
    for n, q in ((4, 3), (5, 2), (3, 4)):
        group = constant_diagonal(n, q)
        kappa = corner_functional(group.algebra)
        ch = chain_compute(group.algebra, kappa)
        lgroup = GroupTable.from_subspace(group.algebra, ch.l_bar)
        theta = theta_lambda(lgroup, kappa)
        assert induce(theta, group) == brute_force_induce(theta, group)


VALUE_POOL = [CyclotomicNumber.one(), CyclotomicNumber.rational(-1),
              CyclotomicNumber.zero(),
              CyclotomicNumber.rational(Fraction(5, 2)),
              CyclotomicNumber.zeta(3), CyclotomicNumber.zeta(4, 3),
              CyclotomicNumber.zeta(9, 2) + CyclotomicNumber.one()]


def noncommutative(q):
    return GroupTable.from_algebra(u4_and_subalgebra(FIELDS[q])[1])


# UT_3(q) alone would not do: there x u x and x u x^{-1} differ only by the
# sign of a commutator, which the sum over all x cannot see
@pytest.mark.parametrize("make,size", [
    (unitriangular, (3, 3)), (unitriangular, (4, 2)),
    (unitriangular, (3, 4)), (noncommutative, (2,)), (noncommutative, (3,))])
def test_induce_random_tables_on_random_subgroups_match_oracle(rng, make,
                                                                size):
    group = make(*size)
    for _ in range(3):
        span = random_subalgebra(rng, group.algebra)
        sub = GroupTable.from_subspace(group.algebra, span)
        f = ClassFunction(sub, [rng.choice(VALUE_POOL)
                                for _ in range(sub.size)])
        assert induce(f, group) == brute_force_induce(f, group)


@pytest.mark.parametrize("n,q", [(n, q) for n, q in CONSTANT_DIAGONAL
                                 if q ** (n - 1) <= 81])
def test_abelian_dual_matches_oracle_on_constant_diagonal(n, q):
    group = constant_diagonal(n, q)
    dual = abelian_dual(group)
    want = brute_force_abelian_dual(group)
    assert dual.exponents == want.exponents
    assert (dual.modulus, dual.structure) == (want.modulus, want.structure)
    assert dual.characters == want.characters


def first_defect(f):
    """The lexicographically first (i, j) with f(g_i g_j) != f(g_i) f(g_j),
    from the oracle's multiplication table."""
    mul = brute_force_mul_table(f.group)
    values = f.values
    for i, row in enumerate(mul):
        for j, k in enumerate(row):
            if values[k] != values[i] * values[j]:
                return i, j
    return None


def as_indices(group, defect):
    if defect is None:
        return None
    g, h = defect
    return group.index[g.key()], group.index[h.key()]


@pytest.mark.parametrize("n,q", [(3, 2), (4, 2), (4, 3), (3, 5)])
def test_homomorphism_defect_finds_first_planted_defect(rng, n, q):
    group = constant_diagonal(n, q)
    dual = abelian_dual(group)
    for _ in range(4):
        psi = rng.choice(dual.characters)
        assert homomorphism_defect(psi) is None
        values = list(psi.values)
        planted = rng.randrange(group.size)
        # another root of unity (exponent path) or a non-root (fallback)
        for wrong in (values[planted] * CyclotomicNumber.zeta(dual.modulus),
                      CyclotomicNumber.rational(2)):
            values[planted] = wrong
            f = ClassFunction(group, values)
            want = first_defect(f)
            assert want is not None
            assert as_indices(group, homomorphism_defect(f)) == want


def test_homomorphism_defect_on_nonabelian_group(rng):
    _, sub = u4_and_subalgebra(FIELDS[3])
    group = GroupTable.from_algebra(sub)
    lam = random_functional(rng, sub)
    theta = theta_lambda(group, lam)
    want = first_defect(theta)
    assert as_indices(group, homomorphism_defect(theta)) == want
