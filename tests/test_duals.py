import itertools

import pytest
from hypothesis import given, strategies as st

from utchar import duals
from utchar.algebra import (CapExceeded, GroupElement, NilAlgebra, NilMatrix,
                            Pattern, Subspace)
from utchar.characters import GroupTable
from utchar.duals import (Functional, SetPartition, act_coadjoint, act_left,
                          act_right, gram_matrix, is_quasi_monomial, orbit,
                          shape, torus_act, torus_orbit)
from utchar.scalars import field_make

from oracles import (coordinate_evaluate, definition_act_left,
                     definition_act_right, full_group_orbit,
                     generator_test_algebras, orbit_keys, random_element,
                     random_functional, random_subspace_algebra,
                     u4_and_subalgebra)

F2 = field_make(2)
F3 = field_make(3)

U32 = NilAlgebra.pattern_algebra(Pattern.full(3), F2)
U33 = NilAlgebra.pattern_algebra(Pattern.full(3), F3)
U42 = NilAlgebra.pattern_algebra(Pattern.full(4), F2)


def test_bilinear_examples():
    lam = Functional.from_entries(U32, {(1, 3): 1})
    e12 = NilMatrix.elementary(Pattern.full(3), F2, 1, 2)
    e23 = NilMatrix.elementary(Pattern.full(3), F2, 2, 3)
    assert lam.evaluate(e12 @ e23) == 1
    assert lam.evaluate(e23 @ e12) == 0


def test_bilinear_matches_definitional_product(rng):
    # lam(XY) = x B y^T for the coordinates x, y of X, Y and the Gram
    # matrix B[a][b] = lam(e_a e_b)
    f = F3
    for alg in (U33, NilAlgebra.pattern_algebra(Pattern.full(4), f),
                u4_and_subalgebra(f)[1]):
        for _ in range(15):
            lam = random_functional(rng, alg)
            gram = gram_matrix(lam)
            x = alg.coordinates(random_element(rng, alg).body)
            y = alg.coordinates(random_element(rng, alg).body)
            acc = 0
            for a, row in enumerate(gram):
                for b, v in row.items():
                    acc = f.add(acc, f.mul(x[a], f.mul(v, y[b])))
            assert acc == lam.evaluate(alg.span.matrix(x)
                                       @ alg.span.matrix(y))


def test_left_action_example():
    p3 = Pattern.full(3)
    lam = Functional.from_entries(U33, {(1, 3): 1})
    g = GroupElement(NilMatrix.elementary(p3, F3, 1, 2))
    assert act_left(g, lam).entries() == {(1, 3): 1, (2, 3): 2}
    assert act_coadjoint(lam, GroupElement.identity(p3, F3)) == lam


def test_actions_against_definitions(rng):
    u4_f4 = NilAlgebra.pattern_algebra(Pattern.full(4), field_make(2, 2))
    for alg in (U42, u4_and_subalgebra(F3)[1], u4_f4):
        for _ in range(40):
            lam = random_functional(rng, alg)
            g = random_element(rng, alg)
            x = random_element(rng, alg).body
            ginv = g.inverse().body
            assert act_left(g, lam).evaluate(x) == lam.evaluate(x + ginv @ x)
            assert act_right(lam, g).evaluate(x) == \
                lam.evaluate(x + x @ ginv)
            conj = (g.body @ x @ ginv) + (g.body @ x) + (x @ ginv) + x
            assert act_coadjoint(lam, g).evaluate(x) == lam.evaluate(conj)


def test_actions_commute(rng):
    for _ in range(40):
        lam = random_functional(rng, U42)
        g, h = random_element(rng, U42), random_element(rng, U42)
        assert act_right(act_left(g, lam), h) == act_left(g, act_right(lam, h))


def test_coadjoint_is_right_action(rng):
    for _ in range(25):
        lam = random_functional(rng, U42)
        g, h = random_element(rng, U42), random_element(rng, U42)
        assert act_coadjoint(act_coadjoint(lam, g), h) == \
            act_coadjoint(lam, g * h)


def test_orbit_example_u3():
    lam = Functional.from_entries(U33, {(1, 3): 1})
    orb = orbit(lam, "coadjoint")
    assert len(orb) == 9
    keys = orbit_keys(orb)
    for a in range(3):
        for b in range(3):
            mu = Functional.from_entries(
                U33, {(1, 3): 1, (1, 2): a, (2, 3): b})
            assert mu.key() in keys


def test_orbits_match_full_group_application(rng):
    from utchar.characters import GroupTable
    group = GroupTable.from_algebra(U42)
    for _ in range(6):
        lam = random_functional(rng, U42)
        for which in ("left", "right", "coadjoint", "two-sided"):
            bfs = orbit_keys(orbit(lam, which))
            brute = set(full_group_orbit(group, lam, which))
            assert bfs == brute


@pytest.mark.parametrize("p,e", [(2, 1), (3, 1), (2, 2), (5, 1)])
def test_orbits_match_full_group_on_u4_and_subalgebra(p, e, rng):
    from utchar.characters import GroupTable
    field = field_make(p, e)
    for alg in u4_and_subalgebra(field):
        group = GroupTable.from_algebra(alg)
        kinds = ("left", "right", "coadjoint")
        if group.size <= 100:
            kinds += ("two-sided",)  # the oracle applies |G|^2 pairs
        lam = random_functional(rng, alg)
        for which in kinds:
            assert orbit_keys(orbit(lam, which)) == \
                set(full_group_orbit(group, lam, which))


@pytest.mark.parametrize("p,e", [(2, 1), (3, 1), (2, 2), (5, 1)])
def test_orbits_of_all_kinds_match_full_group(p, e, rng):
    # random subalgebras of u_4(q), random closed patterns of u_5(q), u_4(q)
    # and its non-commutative subalgebra, A_n(q), and u_5(2)
    for alg in generator_test_algebras(rng, field_make(p, e)):
        group = GroupTable.from_algebra(alg)
        for _ in range(2):
            lam = random_functional(rng, alg)
            for which in ("left", "right", "coadjoint", "two-sided"):
                assert orbit_keys(orbit(lam, which)) == \
                    set(full_group_orbit(group, lam, which)), (alg, which)


def sparse_functional(rng, alg, support):
    values = [0] * alg.dim
    for k in rng.sample(range(alg.dim), min(support, alg.dim)):
        values[k] = rng.randrange(1, alg.field.q)
    return Functional(alg, values)


@pytest.mark.parametrize("p,e", [(2, 1), (3, 1), (2, 2), (5, 1)])
def test_orbits_of_zero_and_sparse_functionals_match_full_group(p, e, rng):
    # the zero functional computes no column; a sparse one on a subspace
    # algebra starts with few columns and computes the rest as its orbit
    # reaches new coordinates
    for alg in generator_test_algebras(rng, field_make(p, e)):
        group = GroupTable.from_algebra(alg)
        lams = [Functional.zero(alg)]
        if not alg.is_pattern:
            lams += [sparse_functional(rng, alg, 1),
                     sparse_functional(rng, alg, 2)]
        for lam in lams:
            for which in ("left", "right", "coadjoint", "two-sided"):
                assert orbit_keys(orbit(lam, which)) == \
                    set(full_group_orbit(group, lam, which)), (alg, which)


ORBIT_FIELDS = [(2, 1), (3, 1), (2, 2), (5, 1), (3, 2)]


@pytest.mark.parametrize("p,e", ORBIT_FIELDS)
def test_contraction_actions_match_definitions(p, e, rng):
    # the actions contract h = g^-1 - 1 with lam's ambient covector; the
    # oracle evaluates lam on u + h u (or u + u h) for each basis matrix.
    # The algebras include proper closed patterns, where the contraction
    # reaches positions off the pattern, and subspace algebras
    kinds = set()
    for alg in generator_test_algebras(rng, field_make(p, e)):
        kinds.add(alg.is_pattern)
        for _ in range(5):
            lam = random_functional(rng, alg)
            g = random_element(rng, alg)
            assert act_left(g, lam) == definition_act_left(g, lam)
            assert act_right(lam, g) == definition_act_right(lam, g)
    assert kinds == {True, False}


@pytest.mark.parametrize("p,e", ORBIT_FIELDS)
def test_affine_orbits_match_full_group_without_actions(p, e, rng,
                                                        monkeypatch):
    # left, right and two-sided orbits are read off Gram matrices and never
    # apply a group action; the oracle applies every group element through
    # the definition actions.  u_4(9) (531,441 elements) is left out, and
    # u_3(q) keeps a two-sided orbit over F_9 within the oracle's budget
    def no_action(*args):
        raise AssertionError("an affine orbit applied a group action")

    monkeypatch.setattr(duals, "act_left", no_action)
    monkeypatch.setattr(duals, "act_right", no_action)
    field = field_make(p, e)
    algebras = list(u4_and_subalgebra(field)) + [
        NilAlgebra.pattern_algebra(Pattern.full(3), field)]
    two_sided = 0
    for alg in algebras:
        if alg.size > 16_000:
            continue
        group = GroupTable.from_algebra(alg)
        n = alg.pattern.n
        for lam in (random_functional(rng, alg),
                    Functional.from_entries(alg, {(1, n): 1})):
            left = set(full_group_orbit(group, lam, "left"))
            assert orbit_keys(orbit(lam, "left")) == left
            assert orbit_keys(orbit(lam, "right")) == \
                set(full_group_orbit(group, lam, "right"))
            if len(left) * group.size <= 60_000:  # the oracle's pairs
                two_sided += len(left) > 1
                assert orbit_keys(orbit(lam, "two-sided")) == \
                    set(full_group_orbit(group, lam, "two-sided"))
    assert two_sided


def test_affine_orbit_over_cap_raises_before_building_points(monkeypatch):
    # e*_16 on u_6(3): B has rank 4, so each orbit has 3^4 = 81 points; the
    # cap is compared with q^rank before any point is built
    u63 = NilAlgebra.pattern_algebra(Pattern.full(6), F3)
    lam = Functional.from_entries(u63, {(1, 6): 1})
    assert len(orbit(lam, "left", cap=81)) == 81
    real = duals.apply_columns
    built = []
    monkeypatch.setattr(duals, "apply_columns",
                        lambda *args: built.append(1) or real(*args))
    for which in ("left", "right", "two-sided"):
        with pytest.raises(CapExceeded, match="orbit exceeds cap 80"):
            orbit(lam, which, cap=80)
    assert not built
    # 5^28 points on u_30(5) raise at once
    u305 = NilAlgebra.pattern_algebra(Pattern.full(30), field_make(5))
    with pytest.raises(CapExceeded):
        orbit(Functional.from_entries(u305, {(1, 30): 1}), "left")


def test_left_and_right_orbits_same_size(rng):
    for _ in range(10):
        lam = random_functional(rng, U42)
        assert len(orbit(lam, "left")) == len(orbit(lam, "right"))


def test_two_sided_orbit_size_identity(rng):
    for values in itertools.product(range(2), repeat=6):
        lam = Functional(U42, values)
        left = orbit_keys(orbit(lam, "left"))
        right = orbit_keys(orbit(lam, "right"))
        two = orbit(lam, "two-sided")
        assert len(two) * len(left & right) == len(left) * len(right)


def test_coadjoint_orbit_of_abelian_algebra_is_trivial(monkeypatch):
    # kappa has one nonzero coordinate, and a move computes its column k
    # only once a functional with f_k != 0 is moved: one action per move
    from utchar.exotic import constant_diagonal_algebra, corner_functional
    a4 = constant_diagonal_algebra(4, F3)
    kappa = corner_functional(a4)
    assert sum(1 for v in kappa.values if v) == 1
    real = duals.act_coadjoint
    calls = []
    monkeypatch.setattr(duals, "act_coadjoint",
                        lambda f, g: calls.append(g) or real(f, g))
    assert len(orbit(kappa, "coadjoint")) == 1
    assert len(calls) == len(a4.group_generators())


def test_right_orbit_of_quasimonomial_is_affine():
    # lam G = lam + span{e*_(i,j) : (i,j) obstructed}
    from utchar.chain import quasimonomial_kernels
    u62 = NilAlgebra.pattern_algebra(Pattern.full(6), F2)
    for entries in ({(1, 4): 1, (2, 5): 1}, {(1, 6): 1}, {(2, 3): 1}):
        lam = Functional.from_entries(u62, entries)
        qk = quasimonomial_kernels(u62, lam)
        span_pos = sorted(qk.perp_l)
        affine = set()
        for coeffs in itertools.product(range(2), repeat=len(span_pos)):
            mu = lam
            for c, p in zip(coeffs, span_pos):
                if c:
                    mu = mu + Functional.from_entries(u62, {p: c})
            affine.add(mu.key())
        assert affine == orbit_keys(orbit(lam, "right"))


def test_quasi_monomial_and_shape():
    u6 = NilAlgebra.pattern_algebra(Pattern.full(6), F3)
    lam = Functional.from_entries(u6, {(1, 3): 1, (2, 4): 2, (3, 5): 1})
    assert is_quasi_monomial(lam)
    assert shape(lam) == SetPartition(6, [{1, 3, 5}, {2, 4}, {6}])
    assert shape(Functional.zero(u6)) == SetPartition.singletons(6)
    bad = Functional.from_entries(u6, {(1, 2): 1, (1, 3): 1})
    assert not is_quasi_monomial(bad)
    with pytest.raises(ValueError):
        shape(bad)


def test_entries_are_the_pivot_covector_on_every_algebra(rng):
    # lam(M) = sum of entries()[pos] M[pos] for members M; on a pattern
    # algebra entries() are lam's coefficients
    lam = Functional.from_entries(U33, {(1, 3): 2, (2, 3): 1})
    assert lam.entries() == {(1, 3): 2, (2, 3): 1}
    assert repr(lam) == "Functional({(1, 3): 2, (2, 3): 1})"
    for field in (F2, F3, field_make(2, 2)):
        _, sub = u4_and_subalgebra(field)
        for _ in range(8):
            lam = random_functional(rng, sub)
            cov = lam.entries()
            assert all(v for v in cov.values())
            for _ in range(4):
                m = random_element(rng, sub).body
                acc = 0
                for pos, c in cov.items():
                    acc = field.add(acc, field.mul(c, m.coeff(*pos)))
                assert lam.evaluate(m) == acc
        # quasi-monomial structure is defined on pattern algebras only
        with pytest.raises(ValueError, match="needs a pattern algebra"):
            is_quasi_monomial(lam)
        with pytest.raises(ValueError, match="needs a pattern algebra"):
            shape(lam)


def test_torus_action():
    lam = Functional.from_entries(U33, {(1, 3): 1})
    assert torus_act([1, 1, 1], lam) == lam
    assert torus_act([2, 1, 1], lam).entries() == {(1, 3): 2}
    with pytest.raises(ValueError):
        torus_act([0, 1, 1], lam)


@given(st.lists(st.integers(1, 2), min_size=5, max_size=5))
def test_torus_preserves_shape(diag):
    u5 = NilAlgebra.pattern_algebra(Pattern.full(5), F3)
    lam = Functional.from_entries(u5, {(1, 4): 1, (2, 5): 2})
    assert shape(torus_act(diag, lam)) == shape(lam)


def test_torus_orbit_size_formula(rng):
    u5 = NilAlgebra.pattern_algebra(Pattern.full(5), F3)
    for entries in ({(1, 4): 1, (2, 5): 2}, {(1, 5): 1}, {(1, 2): 1, (2, 3): 0},
                    {(1, 3): 2, (3, 5): 1, (2, 4): 1}):
        lam = Functional.from_entries(u5, entries)
        parts = len(shape(lam))
        orb = torus_orbit(lam)
        assert len(orb) == 2 ** (5 - parts)
        assert all(shape(f) == shape(lam) for f in orb)


def test_functional_on_subspace_algebra_roundtrip():
    span = Subspace.from_matrices(
        Pattern.full(4), F3,
        [NilMatrix(Pattern.full(4), F3, {(1, 2): 1, (2, 3): 1, (3, 4): 1}),
         NilMatrix(Pattern.full(4), F3, {(1, 3): 1, (2, 4): 1}),
         NilMatrix(Pattern.full(4), F3, {(1, 4): 1})])
    alg = NilAlgebra.from_subspace(span, F3)
    assert alg.is_closed_under_products()
    kappa = Functional.from_entries(alg, {(1, 4): 1})
    u = alg.basis()[0]  # the superdiagonal generator
    assert kappa.evaluate(u) == 0
    assert kappa.evaluate(u @ u) == 0
    assert kappa.evaluate(u @ u @ u) == 1
    assert kappa.values == (0, 0, 1)


@pytest.mark.parametrize("p, e", [(2, 1), (3, 1), (2, 2), (5, 1), (3, 2)])
def test_evaluate_on_subspace_algebras_matches_coordinates(p, e, rng):
    # evaluate sums lam_k times the k-th pivot entry; the oracle reads the
    # whole coordinate vector, and both reject a matrix off the algebra
    field = field_make(p, e)
    off = 0
    for _ in range(6):
        alg = random_subspace_algebra(rng, field)
        lam = random_functional(rng, alg)
        for _ in range(8):
            mat = random_element(rng, alg).body
            assert lam.evaluate(mat) == coordinate_evaluate(lam, mat)
        ambient = NilAlgebra.pattern_algebra(alg.pattern, field)
        for _ in range(8):
            mat = random_element(rng, ambient).body
            if alg.span.contains(mat):
                assert lam.evaluate(mat) == coordinate_evaluate(lam, mat)
                continue
            off += 1
            with pytest.raises(ValueError, match="outside the algebra"):
                lam.evaluate(mat)
            with pytest.raises(ValueError, match="outside the algebra"):
                coordinate_evaluate(lam, mat)
    assert off
