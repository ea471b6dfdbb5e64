"""Group tables computed on coordinate vectors, checked for exact equality
against the GroupElement-product oracles in oracles.py."""

from fractions import Fraction

import pytest

from utchar import characters
from utchar.algebra import (CapExceeded, GroupElement, NilAlgebra, NilMatrix,
                            Pattern, VerificationFailed, trunc_exp)
from utchar.chain import chain_compute
from utchar.characters import (ClassFunction, GroupTable, abelian_dual,
                               exp_kirillov, homomorphism_defect, induce,
                               theta_lambda, xi)
from utchar.cli import main
from utchar.duals import Functional
from utchar.exotic import (constant_diagonal_algebra,
                           corner_character_analysis, corner_functional)
from utchar.scalars import CyclotomicNumber, field_make

from oracles import (brute_force_abelian_dual, brute_force_classes,
                     brute_force_induce, brute_force_mul_table, dense_inverse,
                     generator_test_algebras, key_index, max_element_order,
                     random_functional, random_subalgebra, trunc_exp_kirillov,
                     u4_and_subalgebra)

FIELDS = {q: field_make(p, e) for q, p, e in
          ((2, 2, 1), (3, 3, 1), (4, 2, 2), (5, 5, 1), (7, 7, 1), (8, 2, 3),
           (9, 3, 2))}


def unitriangular(n, q):
    return GroupTable.from_algebra(
        NilAlgebra.pattern_algebra(Pattern.full(n), FIELDS[q]))


# A_n(q) for n = 2..6 and q = 2..5, up to 256 elements
CONSTANT_DIAGONAL = [(n, q) for q in (2, 3, 4, 5) for n in range(2, 7)
                     if q ** (n - 1) <= 256]


def constant_diagonal(n, q):
    return GroupTable.from_algebra(constant_diagonal_algebra(n, FIELDS[q]))


def exact(f):
    """Conductor and coefficients of every value; == on CyclotomicNumber
    promotes conductors, this does not."""
    return [(v.m, v.coeffs) for v in f.values]


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
    assert [partial.index_of(g) for g in group.elements[:5]] == list(range(5))
    # algebra elements that the partial table lacks are not found
    for g in group.elements[5:]:
        assert not partial.contains(g)
        with pytest.raises(KeyError):
            partial.index_of(g)
    with pytest.raises(VerificationFailed, match="incomplete"):
        partial.mul_table()


def noncommutative(q):
    return GroupTable.from_algebra(u4_and_subalgebra(FIELDS[q])[1])


@pytest.mark.parametrize("make,size", [
    (unitriangular, (3, 2)), (unitriangular, (3, 3)), (unitriangular, (3, 4)),
    (unitriangular, (3, 5)), (unitriangular, (4, 2)), (noncommutative, (2,)),
    (noncommutative, (3,)), (constant_diagonal, (4, 3))])
def test_classes_match_oracle(make, size):
    group = make(*size)
    classes = group.classes()
    assert {frozenset(c) for c in classes} == brute_force_classes(group)
    assert sorted(i for c in classes for i in c) == list(range(group.size))
    assert all(group.size % len(c) == 0 for c in classes)
    if group.is_abelian():
        assert all(len(c) == 1 for c in classes)


@pytest.mark.parametrize("make,size", [(unitriangular, (4, 2)),
                                       (noncommutative, (3,))])
def test_classes_make_no_mat_vec_after_rows_and_inverses(monkeypatch, make,
                                                         size):
    group = make(*size)
    group.generator_rows()
    group.inverses()
    calls = []
    real = characters.apply_columns

    def counting(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(characters, "apply_columns", counting)
    classes = group.classes()
    assert calls == []
    assert {frozenset(c) for c in classes} == brute_force_classes(group)


def test_incomplete_classes_raise():
    group = unitriangular(3, 2)
    partial = GroupTable(group.algebra, group.elements[:5])
    with pytest.raises(VerificationFailed, match="incomplete"):
        partial.classes()


def test_xi_table_keeps_both_kinds_of_zero():
    # on UT_3(5) with lam = 3 e13: a class that misses 1 + l_bar gives the
    # conductor-1 zero, a class whose values cancel a conductor-5 zero
    group = unitriangular(3, 5)
    lam = Functional.from_entries(group.algebra, {(1, 3): 3})
    table = xi(group.algebra, lam, group=group).table
    lgroup = GroupTable.from_subspace(
        group.algebra, chain_compute(group.algebra, lam).l_bar)
    assert exact(table) == exact(brute_force_induce(theta_lambda(lgroup, lam),
                                                    group))
    zeros = [v.m for v in table.values if v.is_zero()]
    assert (zeros.count(1), zeros.count(5)) == (100, 20)


@pytest.mark.parametrize("n,q", [(3, 2), (3, 3), (3, 4), (3, 5), (4, 2)])
def test_induce_theta_from_l_bar_matches_oracle(rng, n, q):
    group = unitriangular(n, q)
    for _ in range(2):
        lam = random_functional(rng, group.algebra)
        ch = chain_compute(group.algebra, lam)
        lgroup = GroupTable.from_subspace(group.algebra, ch.l_bar)
        theta = theta_lambda(lgroup, lam)
        assert exact(induce(theta, group)) == \
            exact(brute_force_induce(theta, group))


def test_induce_on_abelian_group_matches_oracle():
    for n, q in ((4, 3), (5, 2), (3, 4)):
        group = constant_diagonal(n, q)
        kappa = corner_functional(group.algebra)
        ch = chain_compute(group.algebra, kappa)
        lgroup = GroupTable.from_subspace(group.algebra, ch.l_bar)
        theta = theta_lambda(lgroup, kappa)
        assert exact(induce(theta, group)) == \
            exact(brute_force_induce(theta, group))


VALUE_POOL = [CyclotomicNumber.one(), CyclotomicNumber.rational(-1),
              CyclotomicNumber.zero(),
              CyclotomicNumber.rational(Fraction(5, 2)),
              CyclotomicNumber.zeta(3), CyclotomicNumber.zeta(4, 3),
              CyclotomicNumber.zeta(9, 2) + CyclotomicNumber.one()]


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
        assert exact(induce(f, group)) == exact(brute_force_induce(f, group))


def assert_dual_matches_oracle(group):
    dual = abelian_dual(group)
    want = brute_force_abelian_dual(group)
    assert (dual.modulus, dual.structure) == (want.modulus, want.structure)
    assert dual.characters == want.characters


@pytest.mark.parametrize("n,q", [(n, q) for q in (2, 3, 4, 5, 8, 9)
                                 for n in range(2, 9)
                                 if q ** (n - 1) <= 128])
def test_abelian_dual_matches_oracle_on_constant_diagonal(n, q):
    assert_dual_matches_oracle(constant_diagonal(n, q))


def test_abelian_dual_reads_no_multiplication_table(monkeypatch):
    # the layers s^k H come from the generator rows alone
    groups = [constant_diagonal(n, q) for n, q in CONSTANT_DIAGONAL]

    def refuse(group):
        raise AssertionError("abelian_dual read the multiplication table")

    monkeypatch.setattr(GroupTable, "mul_table", refuse)
    for group in groups:
        assert_dual_matches_oracle(group)


@pytest.mark.parametrize("n,q", [(3, 2), (5, 2), (7, 2), (4, 3), (5, 3),
                                 (3, 4), (4, 4), (4, 5), (3, 9)])
def test_abelian_dual_matches_oracle_on_corner_subgroups(n, q):
    # the subgroup 1 + l_bar of the corner functional's chain on A_n(q)
    algebra = constant_diagonal_algebra(n, FIELDS[q])
    ch = chain_compute(algebra, corner_functional(algebra))
    lgroup = GroupTable.from_subspace(algebra, ch.l_bar)
    assert lgroup.is_abelian()
    assert_dual_matches_oracle(lgroup)


@pytest.mark.parametrize("q", [2, 3])
def test_abelian_dual_matches_oracle_on_abelian_pattern_algebra(q):
    # span(e13, e14, e23, e24) in u_4(q): closed, with zero products
    algebra = NilAlgebra.pattern_algebra(
        Pattern(4, [(1, 3), (1, 4), (2, 3), (2, 4)]), FIELDS[q])
    group = GroupTable.from_algebra(algebra)
    assert group.is_abelian() and group.size == q ** 4
    assert_dual_matches_oracle(group)


@pytest.mark.parametrize("n,q", CONSTANT_DIAGONAL)
def test_max_element_order_matches_oracle(n, q):
    rep = corner_character_analysis(constant_diagonal_algebra(n, FIELDS[q]))
    assert rep.max_element_order == max_element_order(constant_diagonal(n, q))


def test_missing_generator_raises(monkeypatch, capsys):
    # without 1 + N, the rest generate only 1 + A^2 inside A_4(2)
    gens = NilAlgebra.group_generators
    monkeypatch.setattr(NilAlgebra, "group_generators",
                        lambda algebra: gens(algebra)[1:])
    with pytest.raises(VerificationFailed, match="incomplete"):
        constant_diagonal(4, 2).mul_table()
    with pytest.raises(VerificationFailed, match="incomplete"):
        abelian_dual(constant_diagonal(4, 2))
    assert main(["kappa", "--n", "4", "--q", "2"]) == 1
    captured = capsys.readouterr()
    assert captured.out == "" and "incomplete" in captured.err


def first_defect(f, mul=None):
    """The lexicographically first (i, j) with f(g_i g_j) != f(g_i) f(g_j),
    from the oracle's multiplication table."""
    if mul is None:
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
    index = key_index(group)
    return index[g.key()], index[h.key()]


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


def linear_functional(rng, algebra):
    """A random functional that vanishes on A^2, the span of the basis
    products, so that theta_lambda is a linear character."""
    basis = algebra.basis()
    square = {k for u in basis for v in basis
              for k, c in enumerate(algebra.coordinates(u @ v)) if c}
    return Functional(algebra, [0 if k in square
                                else rng.randrange(algebra.field.q)
                                for k in range(algebra.dim)])


@pytest.mark.parametrize("make,size", [
    (unitriangular, (3, 2)), (unitriangular, (3, 3)), (unitriangular, (3, 4)),
    (unitriangular, (3, 5)), (unitriangular, (4, 2)), (noncommutative, (2,)),
    (noncommutative, (3,)), (constant_diagonal, (4, 3)),
    (constant_diagonal, (5, 2))])
def test_homomorphism_defect_generator_test_matches_scan(rng, make, size):
    group = make(*size)
    mul = brute_force_mul_table(group)
    index = key_index(group)
    identity = index[()]
    gens = {index[s.key()] for s in group.algebra.group_generators()}
    psi = theta_lambda(group, linear_functional(rng, group.algebra))
    assert first_defect(psi, mul) is None
    assert homomorphism_defect(psi) is None
    # a defect planted at an element that is neither a generator nor a
    # product of two generators
    near = gens | {mul[s][t] for s in gens for t in gens} | {identity}
    planted = next(k for k in range(group.size) if k not in near)
    values = list(psi.values)
    zeta = CyclotomicNumber.zeta(group.algebra.field.p)
    tables = []
    for wrong in (values[planted] * zeta,  # exponent path
                  CyclotomicNumber.rational(2)):  # non-root path
        table = list(values)
        table[planted] = wrong
        tables.append(table)
    tables.append([v * zeta for v in values])  # roots of unity, f(1) != 1
    tables.append([v.scale(2) for v in values])  # non-root, f(1) != 1
    tables.append([CyclotomicNumber.zero()] * group.size)  # multiplicative
    wants = []
    for table in tables:
        f = ClassFunction(group, table)
        wants.append(first_defect(f, mul))
        assert as_indices(group, homomorphism_defect(f)) == wants[-1]
    assert None not in wants[:4] and wants[4] is None


def assert_inverses_match(group):
    """inverses() against the GroupElement inverse series and the dense
    oracle, element by element."""
    pattern, field = group.algebra.pattern, group.algebra.field
    width = len(pattern.order)
    inverses = [group.elements[i] for i in group.inverses()]
    assert inverses == [g.inverse() for g in group.elements]
    for g, inv in zip(group.elements, inverses):
        vec = g.body.vector()
        dense = dense_inverse(pattern, field,
                              [vec.get(k, 0) for k in range(width)])
        assert inv.body == NilMatrix.from_vector(pattern, field,
                                                 dict(enumerate(dense)))


@pytest.mark.parametrize("make,size", [
    (unitriangular, (3, 2)), (unitriangular, (3, 3)), (unitriangular, (3, 4)),
    (unitriangular, (3, 5)), (unitriangular, (4, 2)), (unitriangular, (4, 3)),
    (noncommutative, (2,)), (noncommutative, (3,)),
    (constant_diagonal, (2, 4)), (constant_diagonal, (3, 4)),
    (constant_diagonal, (4, 4)), (constant_diagonal, (5, 4)),
    (constant_diagonal, (2, 9)), (constant_diagonal, (3, 9))])
def test_inverses_match_series_and_dense_oracle(make, size):
    # UT_4(2) and UT_4(3) are the u_4(q) of u4_and_subalgebra
    assert_inverses_match(make(*size))


@pytest.mark.parametrize("q", [2, 3, 4])
def test_inverses_match_oracles_on_generator_test_algebras(rng, q):
    for algebra in generator_test_algebras(rng, FIELDS[q]):
        assert_inverses_match(GroupTable.from_algebra(algebra))


def subgroup_tables(q):
    """Tables built by enumeration, with their ambient algebras: UT_3(q),
    A_3(q) inside u_3(q), and the non-commutative subalgebra of u_4(q)
    inside u_4(q), through from_subspace."""
    field = FIELDS[q]
    u3 = NilAlgebra.pattern_algebra(Pattern.full(3), field)
    u4, sub = u4_and_subalgebra(field)
    return [(GroupTable.from_algebra(u3), u3),
            (GroupTable.from_algebra(constant_diagonal_algebra(3, field)), u3),
            (GroupTable.from_subspace(u4, sub.span), u4)]


@pytest.mark.parametrize("q", [2, 3, 4, 5, 8, 9])
def test_recorded_coordinates_match_computed(q):
    for group, ambient in subgroup_tables(q):
        algebra = group.algebra
        want = [tuple(algebra.coordinates(g.body)) for g in group.elements]
        assert group.coords == want
        # a table built from an element list computes its coordinates
        assert GroupTable(algebra, group.elements).coords == want
        assert group.coordinates_in(ambient) == [
            tuple(ambient.coordinates(g.body)) for g in group.elements]
        assert group.coordinates_in(algebra) == want
        # the coordinate tuples are the table's one index
        assert all(group.index_of(g) == i and group.contains(g)
                   for i, g in enumerate(group.elements))
        with pytest.raises(ValueError, match="duplicate group elements"):
            GroupTable(algebra, group.elements + group.elements[-1:])
        outside = [GroupElement(u) for u in ambient.basis()
                   if not algebra.span.contains(u)]
        assert bool(outside) == (ambient.span != algebra.span)
        for g in outside:
            assert not group.contains(g)
            with pytest.raises(KeyError):
                group.index_of(g)


def test_index_of_rejects_a_matrix_over_another_pattern():
    # e14 of u_4 lies at the place of e23 in the row-major order of u_3
    group = unitriangular(3, 2)
    e14 = NilMatrix.elementary(Pattern.full(4), FIELDS[2], 1, 4)
    assert not group.contains(GroupElement(e14))
    with pytest.raises(KeyError):
        group.index_of(GroupElement(e14))


@pytest.mark.parametrize("n,q", [(3, 2), (3, 5), (4, 2), (4, 3)])
def test_coordinates_in_matches_on_l_bar_subgroups(rng, n, q):
    algebra = unitriangular(n, q).algebra
    for _ in range(3):
        lam = random_functional(rng, algebra)
        lgroup = GroupTable.from_subspace(
            algebra, chain_compute(algebra, lam).l_bar)
        assert lgroup.coordinates_in(algebra) == [
            tuple(algebra.coordinates(h.body)) for h in lgroup.elements]


def test_group_generators_are_found_once():
    for algebra in u4_and_subalgebra(FIELDS[3]):
        gens = algebra.group_generators()
        assert isinstance(gens, tuple)
        assert algebra.group_generators() is gens


# ---------------------------------------------------------------------------
# Exp on coordinates, and elements built only when read


@pytest.mark.parametrize("q", [2, 3, 4, 5, 9])
def test_coordinate_exp_matches_trunc_exp_on_generator_test_algebras(rng, q):
    for algebra in generator_test_algebras(rng, FIELDS[q]):
        exp = characters._coordinate_exp(algebra)
        for g in algebra.enumerate_group():
            assert exp(tuple(algebra.coordinates(g.body))) == tuple(
                algebra.coordinates(trunc_exp(g.body).body))


@pytest.mark.parametrize("make,size", [
    (unitriangular, (3, q)) for q in (2, 3, 4, 5, 7, 8, 9)]
    + [(unitriangular, (4, 3))]
    + [(constant_diagonal, size) for size in CONSTANT_DIAGONAL])
def test_exp_kirillov_matches_trunc_exp_oracle(rng, make, size):
    group = make(*size)
    functionals = [random_functional(rng, group.algebra) for _ in range(3)]
    if make is constant_diagonal:
        functionals.append(corner_functional(group.algebra))
    for lam in functionals:
        assert exact(exp_kirillov(group, lam)) == \
            exact(trunc_exp_kirillov(group, lam))


def test_exp_kirillov_on_a_partial_element_list_raises():
    # Exp(1 + e12 + e23) = 1 + e12 + 2 e13 + e23 is not listed; the
    # coordinates are (x12, x13, x23)
    u3 = NilAlgebra.pattern_algebra(Pattern.full(3), FIELDS[3])
    elements = GroupTable.from_algebra(u3).elements
    part = GroupTable(u3, elements[:9] + [elements[10]])
    assert part.coords[-1] == (1, 0, 1)
    with pytest.raises(VerificationFailed, match="outside the group"):
        exp_kirillov(part, Functional.from_entries(u3, {(1, 3): 1}))


@pytest.mark.parametrize("which", [0, 1, 2, 3])
def test_corrupted_basis_product_exits_1(monkeypatch, capsys, which):
    # u_4(3) has four nonzero basis products; each is read by the check
    real = NilAlgebra.basis_products

    def corrupted(algebra):
        products = list(real(algebra))
        a, b, column = products[which]
        products[which] = (a, b, [(k, 3 - v) for k, v in column])
        return tuple(products)
    monkeypatch.setattr(NilAlgebra, "basis_products", corrupted)
    assert main(["table", "--n", "4", "--q", "3", "--lambda",
                 "[[1,4,1],[2,3,2]]", "--which", "expkirillov"]) == 1
    captured = capsys.readouterr()
    assert captured.out == "" and "trunc_exp" in captured.err


@pytest.mark.parametrize("q", [2, 3, 4, 9])
def test_from_algebra_elements_are_enumerated_in_order(q):
    for group, _ in subgroup_tables(q):
        assert "elements" not in vars(group)  # built on first read
        assert group.elements == list(group.algebra.enumerate_group())


@pytest.mark.parametrize("q", [2, 3, 4])
def test_element_builds_one_element_from_its_coordinates(q):
    for group, _ in subgroup_tables(q):
        built = [group.element(i) for i in range(group.size)]
        assert "elements" not in vars(group)  # none enumerated
        assert built == group.elements
        given = GroupTable(group.algebra, group.elements[::-1])
        assert [given.element(i) for i in range(given.size)] == \
            group.elements[::-1]


def refuse_enumeration(algebra, cap=None):
    raise AssertionError("the group was enumerated")


def test_cap_is_checked_before_enumeration(monkeypatch):
    u3 = NilAlgebra.pattern_algebra(Pattern.full(3), FIELDS[3])
    monkeypatch.setattr(NilAlgebra, "enumerate_group", refuse_enumeration)
    with pytest.raises(CapExceeded, match="size 27 exceeds cap 26"):
        GroupTable.from_algebra(u3, cap=26)
    assert GroupTable.from_algebra(u3, cap=27).size == 27


@pytest.mark.parametrize("n,q", [(3, 2), (3, 5), (3, 9), (4, 3), (4, 4)])
def test_theta_lambda_on_l_bar_matches_evaluate_group(rng, n, q):
    group = unitriangular(n, q)
    algebra = group.algebra
    for _ in range(3):
        lam = random_functional(rng, algebra)
        lgroup = GroupTable.from_subspace(
            algebra, chain_compute(algebra, lam).l_bar)
        for table in (group, lgroup):
            want = [table.theta(lam.evaluate_group(h))
                    for h in table.elements]
            assert exact(theta_lambda(table, lam)) == \
                [(v.m, v.coeffs) for v in want]


def test_value_tables_do_not_enumerate_elements(monkeypatch, capsys):
    argv = ["table", "--n", "4", "--q", "3", "--lambda", "[[1,4,1],[2,3,2]]",
            "--which"]
    kinds = ("theta", "kirillov", "expkirillov", "superchar", "xi")
    want = {}
    for which in kinds:
        assert main(argv + [which]) == 0
        want[which] = capsys.readouterr().out
    monkeypatch.setattr(NilAlgebra, "enumerate_group", refuse_enumeration)
    for which in kinds:
        assert main(argv + [which]) == 0
        assert capsys.readouterr().out == want[which]


def test_corner_analysis_enumerates_only_the_subgroup(monkeypatch, capsys):
    # the kappa report on A_4(3) reads the corner group's coordinate
    # tuples, not its elements; only the q elements of 1 + l_bar are
    # enumerated
    argv = ["kappa", "--n", "4", "--q", "3"]
    assert main(argv) == 0
    want = capsys.readouterr().out
    sizes = []
    real = NilAlgebra.enumerate_group

    def recording(algebra, *args):
        sizes.append(algebra.size)
        return real(algebra, *args)
    monkeypatch.setattr(NilAlgebra, "enumerate_group", recording)
    assert main(argv) == 0
    assert capsys.readouterr().out == want
    assert sizes == [3]
