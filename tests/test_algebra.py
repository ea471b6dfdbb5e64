import pytest
from hypothesis import given, strategies as st

from utchar import algebra
from utchar.algebra import (CapExceeded, GroupElement, NilAlgebra, NilMatrix,
                            Pattern, Subspace, apply_columns, combine_rows,
                            echelon_combinations, ideal_check, left_kernel,
                            nonzero_products, null_space, products_vanish_at,
                            quotient_project, rref, solution_space,
                            sparse_column, trunc_exp)
from utchar.duals import Functional
from utchar.scalars import field_make

from oracles import (all_pairs_closed, all_pairs_commutative,
                     all_pairs_ideal_check, all_pairs_products, dense_inverse,
                     dense_left_kernel, dense_product, dense_rref,
                     elimination_coordinates, generated_group,
                     generator_test_algebras, pair_scan_is_closed,
                     pivot_scan_rref, random_closed_pattern, random_element,
                     random_subalgebra, subspace_dense_rows, trunc_log,
                     two_elimination_restrict_to_zero,
                     two_elimination_solution_space, two_elimination_span,
                     u4_and_subalgebra)

F2 = field_make(2)
F3 = field_make(3)


def test_pattern_closure():
    assert Pattern.full(4).is_closed()
    assert not Pattern(3, [(1, 2), (2, 3)]).is_closed()
    assert Pattern(3, [(1, 2), (2, 3), (1, 3)]).is_closed()
    with pytest.raises(ValueError):
        Pattern(3, [(2, 2)])
    with pytest.raises(ValueError):
        Pattern(3, [(1, 4)])


def test_pattern_closure_at_n_200():
    # (1, j), (j, 200) in P but (1, 200) not: the only failing pairs; the
    # pair-scan oracle is O(|P|^2), too slow at this size
    full = Pattern.full(200)
    assert full.is_closed()
    holed = Pattern(200, full.positions - {(1, 200)})
    assert not holed.is_closed()
    with pytest.raises(ValueError, match="not closed"):
        NilAlgebra.pattern_algebra(holed, F2)


def test_group_multiplication_example():
    p3 = Pattern.full(3)
    e12 = NilMatrix.elementary(p3, F2, 1, 2)
    e23 = NilMatrix.elementary(p3, F2, 2, 3)
    e13 = NilMatrix.elementary(p3, F2, 1, 3)
    g = GroupElement(e12) * GroupElement(e23)
    assert g.body == e12 + e23 + e13
    one = GroupElement.identity(p3, F2)
    assert g * one == g
    assert GroupElement(e12).inverse() == GroupElement(e12)


def test_group_laws_random(rng):
    u53 = NilAlgebra.pattern_algebra(Pattern.full(5), F3)
    for _ in range(40):
        a, b, c = (random_element(rng, u53) for _ in range(3))
        assert (a * b) * c == a * (b * c)
        assert (a * a.inverse()).body.is_zero()
        assert (a.inverse().inverse()) == a


@pytest.mark.parametrize("p,e", [(2, 1), (3, 1), (2, 2), (5, 1)])
def test_cached_inverse_matches_dense_oracle(p, e, rng):
    field = field_make(p, e)
    for alg in u4_and_subalgebra(field):
        width = len(alg.pattern.order)
        for _ in range(25):
            g = random_element(rng, alg)
            inv = g.inverse()
            assert g.inverse() is inv and inv.inverse() is g
            assert (g * inv).body.is_zero() and (inv * g).body.is_zero()
            vec = g.body.vector()
            dense = dense_inverse(alg.pattern, field,
                                  [vec.get(k, 0) for k in range(width)])
            assert inv.body == NilMatrix.from_vector(
                alg.pattern, field, dict(enumerate(dense)))


def test_nilpotency(rng):
    for alg in (NilAlgebra.pattern_algebra(Pattern.full(5), F3),
                NilAlgebra.pattern_algebra(Pattern.full(4), F2)):
        for _ in range(25):
            x = random_element(rng, alg).body
            assert x.power(alg.pattern.n).is_zero()


def test_trunc_exp_char2_and_char3():
    p3 = Pattern.full(3)
    x2 = NilMatrix(p3, F2, {(1, 2): 1, (2, 3): 1, (1, 3): 1})
    assert trunc_exp(x2).body == x2  # Exp(X) = 1 + X in characteristic 2
    x3 = NilMatrix(p3, F3, {(1, 2): 1, (2, 3): 1})
    assert trunc_exp(x3).body == NilMatrix(
        p3, F3, {(1, 2): 1, (2, 3): 1, (1, 3): 2})


@given(st.lists(st.integers(0, 2), min_size=10, max_size=10))
def test_trunc_exp_log_roundtrip(coeffs):
    u53 = NilAlgebra.pattern_algebra(Pattern.full(5), F3)
    x = u53.span.matrix(coeffs)
    assert trunc_log(trunc_exp(x)) == x


def test_trunc_exp_log_roundtrip_bulk(rng):
    u53 = NilAlgebra.pattern_algebra(Pattern.full(5), F3)
    for _ in range(100):
        x = random_element(rng, u53).body
        assert trunc_log(trunc_exp(x)) == x


def test_trunc_exp_is_bijection_small():
    u33 = NilAlgebra.pattern_algebra(Pattern.full(3), F3)
    images = {trunc_exp(g.body).key() for g in u33.enumerate_group()}
    assert len(images) == 27


def test_ideal_check_classification():
    p3 = Pattern.full(3)
    u3 = NilAlgebra.pattern_algebra(p3, F2)
    e12 = NilMatrix.elementary(p3, F2, 1, 2)
    e13 = NilMatrix.elementary(p3, F2, 1, 3)
    e23 = NilMatrix.elementary(p3, F2, 2, 3)
    assert ideal_check(Subspace.from_matrices(p3, F2, [e13]), u3) == \
        "two-sided-ideal"
    # span{e23} absorbs right multiplication but not left
    assert ideal_check(Subspace.from_matrices(p3, F2, [e23]), u3) == \
        "right-ideal"
    # span{e12} absorbs only left multiplication, hence just a subalgebra
    assert ideal_check(Subspace.from_matrices(p3, F2, [e12]), u3) == \
        "subalgebra"
    p4 = Pattern.full(4)
    u4 = NilAlgebra.pattern_algebra(p4, F2)
    not_closed = Subspace.from_matrices(
        p4, F2, [NilMatrix(p4, F2, {(1, 2): 1, (3, 4): 1})])
    assert ideal_check(not_closed, u4) == "subalgebra"  # products vanish
    line = Subspace.from_matrices(
        p4, F2, [NilMatrix(p4, F2, {(1, 2): 1, (2, 3): 1})])
    assert ideal_check(line, u4) == "none"


def test_quotient_projection_is_homomorphism(rng):
    p4 = Pattern.full(4)
    for field in (F2, F3):  # over F_3 a sign error shows
        u4 = NilAlgebra.pattern_algebra(p4, field)
        sub = Subspace.from_matrices(
            p4, field, [NilMatrix.elementary(p4, field, *pos)
                        for pos in ((1, 2), (1, 3), (2, 3))])
        ideal = Subspace.from_matrices(
            p4, field, [NilMatrix.elementary(p4, field, i, 4)
                        for i in (1, 2, 3)])
        proj = quotient_project(u4, sub, ideal)
        g = GroupElement(NilMatrix(p4, field, {(1, 2): 1, (1, 4): 1}))
        assert proj.project_group(g) == GroupElement(
            NilMatrix(p4, field, {(1, 2): 1}))
        for _ in range(50):
            a, b = random_element(rng, u4), random_element(rng, u4)
            assert proj.project_group(a * b) == \
                proj.project_group(a) * proj.project_group(b)


def test_quotient_project_rejects_bad_decomposition():
    p3 = Pattern.full(3)
    u3 = NilAlgebra.pattern_algebra(p3, F2)
    e12 = NilMatrix.elementary(p3, F2, 1, 2)
    e13 = NilMatrix.elementary(p3, F2, 1, 3)
    with pytest.raises(ValueError):
        quotient_project(u3, Subspace.from_matrices(p3, F2, [e12]),
                         Subspace.from_matrices(p3, F2, [e12 + e13]))
    # complement that is not an ideal
    e23 = NilMatrix.elementary(p3, F2, 2, 3)
    with pytest.raises(ValueError):
        quotient_project(u3, Subspace.from_matrices(p3, F2, [e13]),
                         Subspace.from_matrices(p3, F2, [e12, e23]))


def test_quotient_project_rejects_a_sub_that_is_not_closed():
    # u_4 = span{e12, e23} (+) span{e13, e14, e24, e34}, and the second part
    # is a two-sided ideal, but e12 e23 = e13 leaves the first
    p4 = Pattern.full(4)
    u4 = NilAlgebra.pattern_algebra(p4, F2)
    sub = Subspace.from_matrices(
        p4, F2, [NilMatrix.elementary(p4, F2, *pos)
                 for pos in ((1, 2), (2, 3))])
    ideal = Subspace.from_matrices(
        p4, F2, [NilMatrix.elementary(p4, F2, *pos)
                 for pos in ((1, 3), (1, 4), (2, 4), (3, 4))])
    assert ideal_check(ideal, u4) == "two-sided-ideal"
    with pytest.raises(ValueError, match="not closed under products"):
        quotient_project(u4, sub, ideal)


def test_enumerate_group_counts():
    assert len(list(
        NilAlgebra.pattern_algebra(Pattern.full(3), F2).enumerate_group())) == 8
    assert len(list(
        NilAlgebra.pattern_algebra(Pattern.full(4), F3).enumerate_group())) \
        == 729
    a3 = Pattern(3, [(1, 2), (1, 3)])
    assert len(list(
        NilAlgebra.pattern_algebra(a3, F2).enumerate_group())) == 4
    with pytest.raises(CapExceeded):
        list(NilAlgebra.pattern_algebra(Pattern.full(4), F3)
             .enumerate_group(cap=100))


@pytest.mark.parametrize("p,e", [(2, 1), (3, 1), (2, 2), (5, 1)])
def test_group_generators_generate_the_group(p, e, rng):
    # random subalgebras of u_4(q), random closed patterns of u_5(q), u_4(q)
    # and its non-commutative subalgebra, A_n(q), and u_5(2)
    field = field_make(p, e)
    for alg in generator_test_algebras(rng, field):
        gens = alg.group_generators()
        group = {g.key() for g in alg.enumerate_group()}
        assert {g.key() for g in gens} <= group
        assert generated_group(gens, alg.identity()) == group


def test_subspace_equality_matches_double_inclusion(rng):
    p4 = Pattern.full(4)
    width = len(p4.order)
    for _ in range(60):
        vecs = [{rng.randrange(width): rng.randrange(1, 3)
                 for _ in range(rng.randrange(1, 4))} for _ in range(3)]
        s1 = Subspace.from_vectors(p4, F3, [dict(v) for v in vecs])
        rng.shuffle(vecs)
        s2 = Subspace.from_vectors(p4, F3, [dict(v) for v in vecs])
        assert s1 == s2
        assert s1.is_subspace_of(s2) and s2.is_subspace_of(s1)


def test_rref_is_canonical_under_row_mixing(rng):
    for _ in range(80):
        vecs = [{rng.randrange(10): rng.randrange(1, 3)
                 for _ in range(rng.randrange(1, 4))}
                for _ in range(rng.randrange(1, 5))]
        base = rref([dict(v) for v in vecs], F3)
        mixed = [dict(v) for v in vecs]
        for _ in range(3):
            a, b = rng.choice(vecs), rng.choice(vecs)
            comb = dict(a)
            for c, v in b.items():
                comb[c] = (comb.get(c, 0) + 2 * v) % 3
            mixed.append({c: v for c, v in comb.items() if v})
        rng.shuffle(mixed)
        assert rref(mixed, F3) == base


RREF_FIELDS = [(2, 1), (3, 1), (2, 2), (5, 1), (3, 2)]


class CountingField:
    """A field whose operations count themselves.  Its e is not 1, so the
    sparse linear algebra takes its `Field`-method path, the one extension
    fields take, even over a prime field."""

    e = None

    def __init__(self, field):
        self.field = field
        self.ops = 0

    def __getattr__(self, name):
        op = getattr(self.field, name)

        def counted(*args):
            self.ops += 1
            return op(*args)
        return counted


def assert_rref_matches_oracles(rows, width, field):
    counting, scan_counting = CountingField(field), CountingField(field)
    got = rref(rows, counting)
    assert pivot_scan_rref(rows, scan_counting) == got
    assert counting.ops == scan_counting.ops
    dense = [[r.get(c, 0) for c in range(width)] for r in rows]
    assert [[r.get(c, 0) for c in range(width)] for r in got] \
        == dense_rref(dense, field)
    pivots = [min(r) for r in got]
    assert pivots == sorted(set(pivots))
    for r, c in zip(got, pivots):
        assert all(r.values())
        assert r[c] == 1
        assert all(c2 not in r for c2 in pivots if c2 != c)


def _random_row(rng, field, width, density):
    return {c: rng.randrange(1, field.q) for c in range(width)
            if rng.random() < density}


def _combination(rng, field, rows):
    out = {}
    for row in rows:
        f = rng.randrange(field.q)
        for c, v in row.items():
            out[c] = field.add(out.get(c, 0), field.mul(f, v))
    return out  # may hold zero entries


def _awkward_rows(rng, field):
    """Sparse and dense rows, with zero rows, stored zeros, duplicates,
    scaled copies and combinations of earlier rows, which cancel to zero
    after reduction; returns (rows, width)."""
    width = rng.randrange(0, 14)
    density = rng.choice([0.1, 0.25, 0.5, 0.9])
    rows = [_random_row(rng, field, width, density)
            for _ in range(rng.randrange(0, 10))]
    for _ in range(rng.randrange(0, 6)):
        kind = rng.randrange(4)
        if kind == 0:
            rows.append({})
        elif kind == 1 and width:
            rows.append({rng.randrange(width): 0})
        elif kind == 2 and rows:
            f = rng.randrange(1, field.q)
            rows.append({c: field.mul(f, v)
                         for c, v in rng.choice(rows).items()})
        elif rows:
            rows.append(_combination(
                rng, field, rng.sample(rows, rng.randrange(1, len(rows) + 1))))
    rng.shuffle(rows)
    return rows, width


@pytest.mark.parametrize("p,e", RREF_FIELDS)
def test_rref_matches_pivot_scan_and_dense_oracles(p, e, rng):
    field = field_make(p, e)
    for _ in range(60):
        assert_rref_matches_oracles(*_awkward_rows(rng, field), field)


@pytest.mark.parametrize("p,e", RREF_FIELDS)
def test_rref_fill_in_updates_the_column_index(p, e, rng):
    """Staircase rows k: e_k + entries in the next few columns, fed in
    order: each new pivot k is used by earlier rows, and reducing them
    fills in columns they did not use before, which later pivots must
    find through the column index; over small fields the fill-ins also
    cancel."""
    field = field_make(p, e)
    for _ in range(40):
        width = rng.randrange(4, 20)
        reach = rng.randrange(1, 5)
        rows = []
        for k in range(width):
            row = {k: rng.randrange(1, field.q)}
            for c in range(k + 1, min(width, k + 1 + reach)):
                if rng.random() < 0.7:
                    row[c] = rng.randrange(1, field.q)
            rows.append(row)
        if rng.random() < 0.3:
            rows.reverse()
        for _ in range(rng.randrange(0, 4)):
            rows.insert(rng.randrange(len(rows) + 1),
                        _combination(rng, field, rng.sample(rows, 2)))
        assert_rref_matches_oracles(rows, width, field)


PRIME_PATH_FIELDS = [2, 3, 5, 7, 13, 101]


@pytest.mark.parametrize("p", PRIME_PATH_FIELDS)
def test_prime_path_matches_method_path_and_dense_oracles(p, rng):
    """rref, null_space, left_kernel and combine_rows run int arithmetic
    over a prime field; the same calls through CountingField run the
    Field-method path.  Both must give the same rows, equal to the dense
    oracles', on the awkward rows of the rref tests."""
    field = field_make(p)
    method = CountingField(field)
    for _ in range(40):
        rows, width = _awkward_rows(rng, field)
        got = rref(rows, field)
        assert got == rref(rows, method)
        assert all(0 < v < p for r in got for v in r.values())
        dense = [[r.get(c, 0) for c in range(width)] for r in rows]
        assert [[r.get(c, 0) for c in range(width)] for r in got] == \
            dense_rref(dense, field)
        kernel = null_space(rows, width, field)
        assert kernel == null_space(rows, width, method)
        assert len(kernel) == width - len(got)
        for vec in kernel:
            assert all(sum(r.get(c, 0) * x for c, x in vec.items()) % p == 0
                       for r in rows)
        left = left_kernel(rows, width, field)
        assert left == left_kernel(rows, width, method)
        assert [[vec.get(a, 0) for a in range(len(rows))] for vec in left] \
            == dense_left_kernel(dense, field)
        coeffs = {a: rng.randrange(p) for a in range(len(rows))
                  if rng.random() < 0.6}
        combined = combine_rows(coeffs, rows, field)
        assert combined == combine_rows(coeffs, rows, method)
        assert combined == {c: x for c in range(width) if (x := sum(
            coeffs.get(a, 0) * r.get(c, 0) for a, r in enumerate(rows)) % p)}
    assert method.ops


@pytest.mark.parametrize("p", PRIME_PATH_FIELDS)
def test_prime_products_and_evaluations_match_method_path(p, rng):
    """NilMatrix @ and the pattern path of Functional.evaluate over a prime
    field, against the same calls through CountingField and against the
    dense product and the dense sum lam_k M_k; the products include
    cancelling sums and the zero matrix."""
    field = field_make(p)
    method = CountingField(field)
    for n in (4, 5, 7):
        pattern = Pattern.full(n)
        alg = NilAlgebra.pattern_algebra(pattern, field)
        alg_method = NilAlgebra.pattern_algebra(pattern, method)
        width = len(pattern.order)
        for _ in range(15):
            x, y = (_random_row(rng, field, width, rng.random())
                    for _ in range(2))
            if rng.random() < 0.3:  # a c + b d = 0: x y = 0 by cancelling
                a, b, c = (rng.randrange(1, p) for _ in range(3))
                idx = pattern.index
                x = {idx[1, 2]: a, idx[1, 3]: b}
                y = {idx[2, n]: c, idx[3, n]: (-a * c * pow(b, -1, p)) % p}
            prod = NilMatrix.from_vector(pattern, field, x) @ \
                NilMatrix.from_vector(pattern, field, y)
            assert prod.entries == (NilMatrix.from_vector(pattern, method, x)
                                    @ NilMatrix.from_vector(pattern, method,
                                                            y)).entries
            dense = dense_product(pattern, field,
                                  *([v.get(k, 0) for k in range(width)]
                                    for v in (x, y)))
            assert prod.vector() == {k: c for k, c in enumerate(dense) if c}
            values = [rng.randrange(p) for _ in range(width)]
            value = Functional(alg, values).evaluate(prod)
            assert value == Functional(alg_method, values).evaluate(
                NilMatrix.from_vector(pattern, method, prod.vector()))
            assert value == sum(values[k] * c
                                for k, c in enumerate(dense)) % p
    assert method.ops


def test_matmul_keeps_the_pattern_check():
    # (1,2)(2,3) = (1,3), which this non-closed pattern lacks
    pattern = Pattern(3, [(1, 2), (2, 3)])
    for field in (F3, field_make(2, 2)):
        x = NilMatrix.elementary(pattern, field, 1, 2)
        y = NilMatrix.elementary(pattern, field, 2, 3)
        with pytest.raises(ValueError, match="outside the pattern"):
            x @ y
        assert (y @ x).is_zero()


def test_pattern_closure_matches_pair_scan(rng):
    for _ in range(300):
        n = rng.randrange(1, 9)
        positions = [(i, j) for i in range(1, n) for j in range(i + 1, n + 1)]
        density = rng.random()
        pattern = Pattern(n, [pos for pos in positions
                              if rng.random() < density])
        assert pattern.is_closed() == pair_scan_is_closed(pattern)
    for n in range(2, 9):
        closed = random_closed_pattern(rng, n)
        assert closed.is_closed() and pair_scan_is_closed(closed)


def test_solution_space_and_restrict_to_zero():
    p4 = Pattern.full(4)
    idx = p4.index
    space = solution_space(
        p4, F2, [{idx[(1, 2)]: 1}, {idx[(2, 3)]: 1, idx[(1, 4)]: 1}])
    assert space.dim == 4
    assert not space.contains(NilMatrix.elementary(p4, F2, 1, 2))
    assert space.contains(NilMatrix(p4, F2, {(2, 3): 1, (1, 4): 1}))
    shrunk = space.restrict_to_zero([idx[(2, 3)]])
    assert shrunk.dim == 3
    assert all(m.coeff(2, 3) == 0 and m.coeff(1, 4) == 0
               for m in shrunk.basis_matrices())


@pytest.mark.parametrize("p,e", [(2, 1), (3, 1), (2, 2), (5, 1)])
def test_left_kernel_matches_dense_oracle(p, e, rng):
    field = field_make(p, e)
    for _ in range(40):
        nrows, width = rng.randrange(0, 9), rng.randrange(0, 9)
        density = rng.random()
        dense = [[rng.randrange(field.q) if rng.random() < density else 0
                  for _ in range(width)] for _ in range(nrows)]
        sparse = [{c: v for c, v in enumerate(row) if v} for row in dense]
        kernel = left_kernel(sparse, width, field)
        as_dense = [[vec.get(a, 0) for a in range(nrows)] for vec in kernel]
        # the kernel comes back in reduced echelon form, rows in pivot order
        assert as_dense == dense_left_kernel(dense, field)


def random_sparse_rows(rng, field, count, width):
    density = rng.random()
    return [{c: rng.randrange(1, field.q) for c in range(width)
             if rng.random() < density} for _ in range(count)]


ECHELON_FIELDS = [(2, 1), (3, 1), (2, 2), (5, 1)]


@pytest.mark.parametrize("p,e", ECHELON_FIELDS)
def test_echelon_kernels_need_no_second_elimination(p, e, rng):
    # solution_space, restrict_to_zero and the chain's spans build their
    # subspaces from echelon kernels without reducing them again; the
    # oracles reduce them again with rref
    field = field_make(p, e)
    for _ in range(30):
        pattern = Pattern.full(rng.randrange(2, 6))
        width = len(pattern.order)
        constraints = random_sparse_rows(
            rng, field, rng.randrange(0, width + 2), width)
        assert solution_space(pattern, field, constraints) == \
            two_elimination_solution_space(pattern, field, constraints)
        space = Subspace.from_vectors(pattern, field, random_sparse_rows(
            rng, field, rng.randrange(0, width + 1), width))
        coords = rng.sample(range(width), rng.randrange(0, width + 1))
        assert space.restrict_to_zero(coords) == \
            two_elimination_restrict_to_zero(space, coords)
        rows = space.row_dicts()
        form = random_sparse_rows(rng, field, len(rows), len(rows))
        for combos in (left_kernel(form, len(rows), field),
                       rref(random_sparse_rows(rng, field, len(rows),
                                               len(rows)), field)):
            assert echelon_combinations(pattern, field, combos, rows) == \
                two_elimination_span(pattern, field, combos, rows)


def test_each_subspace_costs_one_elimination(monkeypatch, rng):
    calls = []
    real_rref = algebra.rref
    monkeypatch.setattr(algebra, "rref",
                        lambda rows, field: calls.append(1)
                        or real_rref(rows, field))
    pattern = Pattern.full(5)
    width = len(pattern.order)
    space = solution_space(pattern, F3,
                           random_sparse_rows(rng, F3, 4, width))
    space.restrict_to_zero(rng.sample(range(width), 3))
    assert len(calls) == 2


SMALL_AMBIENTS = [(Pattern.full(4), F2), (Pattern.full(4), F3),
                  (Pattern.full(5), F2)]


def _dense_rank(rows, field):
    return len(dense_rref(rows, field))


def _combine(gens, coeffs, field, width):
    vec = [0] * width
    for c, g in zip(coeffs, gens):
        for k in range(width):
            vec[k] = field.add(vec[k], field.mul(c, g[k]))
    return vec


def _sparse(vec):
    return {k: v for k, v in enumerate(vec) if v}


@st.composite
def _generators(draw, width, q, max_size=5):
    """Dense generator vectors: random ones, and unit vectors so that
    coordinate subspaces (often ideals) come up too."""
    coeff = st.integers(0, q - 1)
    vec = st.one_of(
        st.lists(coeff, min_size=width, max_size=width),
        st.integers(0, width - 1).map(
            lambda k: [1 if c == k else 0 for c in range(width)]))
    return draw(st.lists(vec, max_size=max_size))


@st.composite
def _subspace_queries(draw):
    pattern, field = draw(st.sampled_from(SMALL_AMBIENTS))
    width, q = len(pattern.order), field.q
    gens = draw(_generators(width, q))
    other = draw(_generators(width, q))
    combos = draw(st.lists(st.lists(st.integers(0, q - 1), min_size=len(gens),
                                    max_size=len(gens)), max_size=6))
    inside = [_combine(gens, c, field, width) for c in combos]
    anywhere = draw(st.lists(st.lists(st.integers(0, q - 1), min_size=width,
                                      max_size=width), min_size=1, max_size=6))
    return pattern, field, gens, other, inside + anywhere


@given(_subspace_queries())
def test_cached_pivot_map_matches_dense_oracle(case):
    pattern, field, gens, other_gens, queries = case
    space = Subspace.from_vectors(pattern, field, [_sparse(g) for g in gens])
    dense = subspace_dense_rows(space)
    assert space.dim == _dense_rank(gens, field)
    # repeated queries on the same object reuse the cached pivot map
    for _ in range(2):
        for vec in queries:
            inside = _dense_rank(dense + [vec], field) == space.dim
            assert space.contains_vector(_sparse(vec)) == inside
            mat = NilMatrix.from_vector(pattern, field, _sparse(vec))
            assert space.contains(mat) == inside
            coords = space.coordinates(mat)
            if inside:
                assert _combine(dense, coords, field, len(vec)) == vec
            else:
                assert coords is None
    other = Subspace.from_vectors(pattern, field,
                                  [_sparse(g) for g in other_gens])
    other_dense = subspace_dense_rows(other)
    both = _dense_rank(dense + other_dense, field)
    assert space.is_subspace_of(other) == (both == other.dim)
    assert other.is_subspace_of(space) == (both == space.dim)
    summed = space.sum_with(other)
    assert summed.dim == both
    assert space.is_subspace_of(summed) and other.is_subspace_of(summed)
    assert space.is_subspace_of(space) and space == space


def _dense_ideal_class(pattern, field, sub_rows):
    width = len(pattern.order)
    units = [[1 if c == k else 0 for c in range(width)] for k in range(width)]

    def inside(vec):
        return _dense_rank(sub_rows + [vec], field) == len(sub_rows)

    def closed(lefts, rights):
        return all(inside(dense_product(pattern, field, x, y))
                   for x in lefts for y in rights)

    right = closed(sub_rows, units)
    left = closed(units, sub_rows)
    if right and left:
        return "two-sided-ideal"
    if right:
        return "right-ideal"
    if closed(sub_rows, sub_rows):
        return "subalgebra"
    return "none"


@given(_generators(6, 2, max_size=4))
def test_ideal_check_matches_dense_products(gens):
    p4 = Pattern.full(4)
    u42 = NilAlgebra.pattern_algebra(p4, F2)
    sub = Subspace.from_vectors(p4, F2, [_sparse(g) for g in gens])
    want = _dense_ideal_class(p4, F2, subspace_dense_rows(sub))
    assert ideal_check(sub, u42) == want
    assert ideal_check(sub, u42.span) == want


FIELD_PARAMS = [(2, 1), (3, 1), (2, 2), (5, 1)]


def _random_dense(rng, pattern, field):
    """A matrix with a random nonzero entry at about two thirds of the
    pattern's positions."""
    return NilMatrix(pattern, field, {
        pos: rng.randrange(1, field.q) for pos in pattern.order
        if rng.random() < 0.67})


def _pruned_pairs(left, right):
    """Compare nonzero_products with the product of every pair; returns
    the numbers of pairs skipped and of nonzero products yielded."""
    pruned = list(nonzero_products(left, right))
    kept = {(a, b) for a, b, _ in pruned}
    full = all_pairs_products(left, right)
    assert pruned == [t for t in full if t[:2] in kept]
    assert all(uv.is_zero() for a, b, uv in full if (a, b) not in kept)
    return len(full) - len(pruned), sum(not uv.is_zero() for *_, uv in pruned)


@pytest.mark.parametrize("p,e", FIELD_PARAMS)
def test_nonzero_products_skips_only_zero_products(p, e, rng):
    # on the bases of pattern and subspace algebras, and on random dense
    # (non-elementary) matrices of full and random closed patterns
    field = field_make(p, e)
    skipped = nonzero = 0
    for alg in generator_test_algebras(rng, field):
        basis = alg.basis()
        for left, right in ((basis, basis), (basis[::2], basis[1:])):
            s, z = _pruned_pairs(left, right)
            skipped, nonzero = skipped + s, nonzero + z
    for _ in range(24):
        n = rng.randrange(3, 7)
        pattern = (Pattern.full(n) if rng.random() < 0.5
                   else random_closed_pattern(rng, n))
        left, right = ([_random_dense(rng, pattern, field)
                        for _ in range(rng.randrange(5))] for _ in range(2))
        s, z = _pruned_pairs(left, right)
        skipped, nonzero = skipped + s, nonzero + z
    assert skipped and nonzero


def _random_subspace(rng, alg):
    """The span of random elements, of random basis matrices, or a random
    subalgebra of alg."""
    field, kind = alg.field, rng.randrange(3)
    if kind == 2:
        return random_subalgebra(rng, alg, count=rng.choice((1, 2)))
    if kind == 1:
        mats = rng.sample(alg.basis(), rng.randrange(1, alg.dim + 1))
    else:
        mats = [alg.span.matrix([rng.randrange(field.q)
                                 for _ in range(alg.dim)])
                for _ in range(rng.randrange(1, 4))]
    return Subspace.from_matrices(alg.pattern, field, mats)


@pytest.mark.parametrize("p,e", FIELD_PARAMS)
def test_pruned_checks_match_all_pairs_oracles(p, e, rng):
    field = field_make(p, e)
    classes, closed, commutative = set(), set(), set()
    for alg in generator_test_algebras(rng, field):
        assert alg.is_commutative() == all_pairs_commutative(alg)
        for _ in range(8):
            sub = _random_subspace(rng, alg)
            want = all_pairs_ideal_check(sub, alg)
            assert ideal_check(sub, alg) == want
            assert ideal_check(sub, alg.span) == want
            sub_alg = NilAlgebra.from_subspace(sub, field)
            assert sub_alg.is_closed_under_products() == \
                all_pairs_closed(sub_alg)
            assert sub_alg.is_commutative() == all_pairs_commutative(sub_alg)
            classes.add(want)
            closed.add(all_pairs_closed(sub_alg))
            commutative.add(all_pairs_commutative(sub_alg))
    assert classes == {"two-sided-ideal", "right-ideal", "subalgebra", "none"}
    assert closed == commutative == {True, False}


def _basis_combination(coeffs, mats, pattern, field):
    acc = NilMatrix.zero(pattern, field)
    for c, m in zip(coeffs, mats):
        if c:
            acc = acc + m.scale(c)
    return acc


@pytest.mark.parametrize("p,e", FIELD_PARAMS)
def test_span_matrix_inverts_coordinates(p, e, rng):
    field = field_make(p, e)
    outside = 0
    for alg in generator_test_algebras(rng, field):
        for span in [alg.span] + [_random_subspace(rng, alg)
                                  for _ in range(3)]:
            mats = span.basis_matrices()
            for _ in range(6):
                coeffs = [rng.randrange(field.q) for _ in range(span.dim)]
                m = span.matrix(coeffs)
                assert m == _basis_combination(coeffs, mats, alg.pattern,
                                               field)
                assert span.coordinates(m) == coeffs
                assert elimination_coordinates(span, m) == coeffs
                x = random_element(rng, alg).body
                coords = span.coordinates(x)
                assert coords == elimination_coordinates(span, x)
                assert (coords is None) == (not span.contains(x))
                if coords is None:
                    outside += 1
                else:
                    assert span.matrix(coords) == x
    assert outside


def test_pattern_algebra_basis_is_the_elementary_matrices(rng):
    f4 = field_make(2, 2)
    closed = Pattern(4, [(1, 2), (1, 3), (1, 4), (2, 4), (3, 4)])
    for pattern in (Pattern.full(4), closed, random_closed_pattern(rng, 5)):
        for field in (F2, F3, f4):
            alg = NilAlgebra.pattern_algebra(pattern, field)
            assert alg.basis() == tuple(
                NilMatrix.elementary(pattern, field, i, j)
                for i, j in pattern.order)
            x = random_element(rng, alg).body
            assert alg.coordinates(x) == [x.coeff(i, j)
                                          for i, j in pattern.order]


class Unread:
    """A column that fails the test if apply_columns reads it."""

    def __iter__(self):
        raise AssertionError("a column with a zero coefficient was read")


@pytest.mark.parametrize("p,e", [(2, 1), (3, 1), (5, 1), (2, 2), (3, 2)])
def test_apply_columns_matches_dense_mat_vec(p, e, rng):
    field = field_make(p, e)
    q = field.q
    for _ in range(40):
        width, height = rng.randint(1, 8), rng.randint(3, 8)
        # column 0 is zero and left out; coefficient 1 is zero
        dense = [[0] * width] + [
            [rng.choice((0, rng.randrange(q))) for _ in range(width)]
            for _ in range(height - 1)]
        vec = [rng.randrange(1, q)] + [0] + [
            rng.choice((0, rng.randrange(q))) for _ in range(height - 2)]
        start = [rng.randrange(q) for _ in range(width)]
        start[0] = rng.randrange(1, q)
        want = list(start)
        for c, column in zip(vec, dense):
            for k, v in enumerate(column):
                want[k] = field.add(want[k], field.mul(c, v))
        pairs = [(b, sparse_column(column) if vec[b] else Unread())
                 for b, column in enumerate(dense) if any(column)]
        rng.shuffle(pairs)
        assert apply_columns(field, pairs, vec, tuple(start)) == tuple(want)


@pytest.mark.parametrize("p,e", ECHELON_FIELDS)
def test_products_vanish_at_matches_basis_products(p, e, rng, monkeypatch):
    # right is a random subspace, or the solution space of
    # (u v)[i, k] = 0 for the u in some of left's basis, so that the test
    # holds, or fails only through the other u
    field = field_make(p, e)
    cases = []
    for _ in range(60):
        pattern = Pattern.full(rng.randrange(3, 7))
        width, index = len(pattern.order), pattern.index
        left = Subspace.from_vectors(pattern, field, random_sparse_rows(
            rng, field, rng.randrange(0, width + 1), width))
        positions = rng.sample(pattern.order, rng.randrange(0, 4))
        basis = left.basis_matrices()
        if rng.random() < 0.3:
            right = Subspace.from_vectors(pattern, field, random_sparse_rows(
                rng, field, rng.randrange(0, 4), width))
        else:
            some = rng.sample(basis, rng.randrange(len(basis) + 1))
            right = solution_space(pattern, field, [
                {index[(j, k)]: c for j, c in u.rows().get(i, ())
                 if (j, k) in index}
                for u in some for i, k in positions])
        want = all((u @ v).coeff(i, k) == 0
                   for u in basis for v in right.basis_matrices()
                   for i, k in positions)
        cases.append((left, right, positions, want))
    assert {want for *_, want in cases} == {True, False}

    def no_product(*args):
        raise AssertionError("a NilMatrix product was formed")

    monkeypatch.setattr(NilMatrix, "__matmul__", no_product)
    for left, right, positions, want in cases:
        assert products_vanish_at(left, right, positions) == want


def h_is_ideal(space, positions):
    """The ideal test of exotic.abelian_quotient_split: h, the part of the
    closed subspace vanishing on the positions, against ideal_check."""
    index = space.pattern.index
    h = space.restrict_to_zero([index[pos] for pos in positions])
    fast = (products_vanish_at(space, h, positions)
            and products_vanish_at(h, space, positions))
    return fast, ideal_check(h, space) == "two-sided-ideal"


@pytest.mark.parametrize("p,e", ECHELON_FIELDS)
def test_h_ideal_test_matches_ideal_check(p, e, rng):
    field = field_make(p, e)
    outcomes = set()
    for alg in generator_test_algebras(rng, field):
        order = alg.pattern.order
        for _ in range(4):
            positions = rng.sample(order, rng.randrange(0, len(order) + 1))
            fast, oracle = h_is_ideal(alg.span, positions)
            assert fast == oracle
            outcomes.add(oracle)
    assert outcomes == {True, False}
    # planted non-ideal: e12 and e23 vanish at (1, 3), their product e13
    # does not
    u4, _ = u4_and_subalgebra(field)
    assert h_is_ideal(u4.span, [(1, 3)]) == (False, False)
    # vanishing on the superdiagonal cuts out the ideal u_4(q)^2
    assert h_is_ideal(u4.span, [(1, 2), (2, 3), (3, 4)]) == (True, True)
