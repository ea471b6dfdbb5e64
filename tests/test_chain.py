from dataclasses import replace

import pytest

from utchar import algebra as algebra_module
from utchar import chain as chain_module
from utchar.algebra import (NilAlgebra, NilMatrix, Pattern, Subspace,
                            VerificationFailed, null_space)
from utchar.chain import chain_compute, gram_block, quasimonomial_kernels
from utchar.duals import Functional, gram_matrix, is_quasi_monomial, orbit
from utchar.exotic import constant_diagonal_algebra
from utchar.scalars import field_make

from oracles import (all_pairs_gram, brute_force_first_kernels, dense_chain,
                     exotic_functional,
                     generator_test_algebras, products_vanish,
                     quasimonomial_irreducible, random_closed_pattern,
                     random_functional, random_quasimonomial,
                     random_subspace_algebra, subspace_dense_rows)

F2 = field_make(2)
F3 = field_make(3)
FIELDS = (F2, F3, field_make(2, 2), field_make(5))


def constraint_space(alg, zero_positions):
    idx = alg.pattern.index
    vecs = [{idx[p]: 1} for p in alg.pattern.order
            if p not in set(zero_positions)]
    return Subspace.from_vectors(alg.pattern, alg.field, vecs)


@pytest.mark.parametrize("q", [2, 3])
def test_staircase_functional_on_u6(q):
    field = field_make(q)
    u6 = NilAlgebra.pattern_algebra(Pattern.full(6), field)
    lam = Functional.from_entries(
        u6, {(1, 3): 1, (2, 4): 1, (3, 5): 1, (4, 6): 1})
    ch = chain_compute(u6, lam)
    ch.validate()
    assert ch.d == 3
    assert ch.l_list[1] == constraint_space(u6, [(1, 2), (2, 3), (3, 4), (4, 5)])
    assert ch.s_list[1] == constraint_space(u6, [(4, 5)])
    assert ch.l_list[2] == constraint_space(u6, [(1, 2), (2, 3), (4, 5)])
    assert ch.s_list[2] == constraint_space(u6, [(2, 3), (4, 5)])
    assert ch.l_list[3] == ch.s_list[2]
    assert ch.s_list[3] == ch.s_list[2]
    assert ch.chi_degree_exponent == 4
    assert ch.degree_exponent == 2
    assert ch.norm_exponent == 0  # the induced character is irreducible


def test_zero_functional_chain():
    u3 = NilAlgebra.pattern_algebra(Pattern.full(3), F2)
    ch = chain_compute(u3, Functional.zero(u3))
    assert ch.d == 1
    assert ch.l_bar == u3.span and ch.s_bar == u3.span


def test_corner_functional_on_u3():
    for field in (F2, F3):
        u3 = NilAlgebra.pattern_algebra(Pattern.full(3), field)
        lam = Functional.from_entries(u3, {(1, 3): 1})
        ch = chain_compute(u3, lam)
        ch.validate()
        assert ch.l_list[1] == constraint_space(u3, [(1, 2)])
        assert ch.s_list[1] == ch.l_list[1]
        assert ch.degree_exponent == 1
        assert ch.l_bar == ch.s_bar


def test_first_step_matches_dense_oracle(rng):
    for _ in range(25):
        n = rng.randrange(3, 6)
        field = rng.choice([F2, F3])
        alg = NilAlgebra.pattern_algebra(Pattern.full(n), field)
        lam = Functional(alg, [rng.randrange(field.q)
                               for _ in range(alg.dim)])
        ch = chain_compute(alg, lam)
        l1_dense, s1_dense = brute_force_first_kernels(alg, lam)
        assert subspace_dense_rows(ch.l_list[1]) == l1_dense
        assert subspace_dense_rows(ch.s_list[1]) == s1_dense


def test_fast_path_matches_chain_on_random_instances(rng):
    hits = 0
    while hits < 60:
        pattern = random_closed_pattern(rng, rng.randrange(3, 8))
        if not pattern.positions:
            continue
        alg = NilAlgebra.pattern_algebra(pattern, rng.choice([F2, F3]))
        lam = random_quasimonomial(rng, alg)
        irreducible, ch = quasimonomial_irreducible(alg, lam)
        ch.validate()
        assert irreducible
        hits += 1


def test_fast_path_on_full_pattern_corner():
    for n in (4, 5, 6):
        alg = NilAlgebra.pattern_algebra(Pattern.full(n), F2)
        lam = Functional.from_entries(alg, {(1, n): 1})
        qk = quasimonomial_kernels(alg, lam)
        assert qk.perp_l == frozenset((1, j) for j in range(2, n))
        assert qk.perp_s == qk.perp_l


def test_fast_path_kernels_need_no_elimination(monkeypatch):
    # unit rows in pattern order are already reduced echelon rows
    alg = NilAlgebra.pattern_algebra(Pattern.full(6), F3)
    lam = Functional.from_entries(alg, {(1, 4): 1, (2, 5): 2, (3, 6): 1})
    ch = chain_compute(alg, lam)

    def refuse(rows, field):
        raise AssertionError("the fast path ran an elimination")

    monkeypatch.setattr(algebra_module, "rref", refuse)
    qk = quasimonomial_kernels(alg, lam)
    assert (qk.l1, qk.s1) == (ch.l_list[1], ch.s_list[1])


def test_perp_l_minus_perp_s_on_full_pattern():
    # on the full pattern the difference picks out crossings i<j<k<l with
    # entries at (i,k) and (j,l)
    alg = NilAlgebra.pattern_algebra(Pattern.full(6), F3)
    lam = Functional.from_entries(alg, {(1, 4): 1, (2, 5): 2, (3, 6): 1})
    qk = quasimonomial_kernels(alg, lam)
    entries = {i: k for (i, k) in lam.entries()}
    expected = set()
    for (i, j) in alg.pattern.positions:
        if i in entries and j in entries and i < j < entries[i] < entries[j]:
            expected.add((i, j))
    assert qk.perp_l - qk.perp_s == expected


def test_kernels_invariant_on_right_orbit():
    u6 = NilAlgebra.pattern_algebra(Pattern.full(6), F2)
    lam = Functional.from_entries(u6, {(1, 4): 1, (2, 5): 1})
    base = chain_compute(u6, lam)
    for mu in orbit(lam, "right"):
        ch = chain_compute(u6, mu)
        assert ch.l_list[1] == base.l_list[1]
        assert ch.s_list[1] == base.s_list[1]


def test_chain_validate_checks_ideal_structure():
    u4 = NilAlgebra.pattern_algebra(Pattern.full(4), F3)
    lam = Functional.from_entries(u4, {(1, 4): 1, (2, 3): 2})
    ch = chain_compute(u4, lam)
    assert ch.validate()


def test_degree_identities_against_orbit_sizes(rng):
    # chi(1) = |G lam| = q^(dim - dim l1) and the norm matches |s1|/|l1|
    for _ in range(8):
        alg = NilAlgebra.pattern_algebra(Pattern.full(4), F2)
        lam = Functional(alg, [rng.randrange(2) for _ in range(6)])
        ch = chain_compute(alg, lam)
        left = orbit(lam, "left")
        right = orbit(lam, "right")
        inter = {f.key() for f in left} & {f.key() for f in right}
        assert len(left) == 2 ** ch.chi_degree_exponent
        assert len(inter) == 2 ** ch.chi_norm_exponent


def assert_matches_dense_chain(alg, lam):
    ch = chain_compute(alg, lam)
    l_steps, s_steps = dense_chain(alg, lam)
    assert ch.d == len(l_steps) == len(s_steps)
    for i in range(ch.d):
        assert subspace_dense_rows(ch.l_list[i + 1]) == l_steps[i]
        assert subspace_dense_rows(ch.s_list[i + 1]) == s_steps[i]
    return ch


def perturbed_staircase(rng, alg):
    """lam_{i,i+2} != 0 for all i plus one random entry: long chains."""
    n, q = alg.pattern.n, alg.field.q
    entries = {(i, i + 2): rng.randrange(1, q) for i in range(1, n - 1)}
    i = rng.randrange(1, n)
    entries[(i, rng.randrange(i + 1, n + 1))] = rng.randrange(1, q)
    return Functional.from_entries(alg, entries)


def test_chain_matches_dense_oracle_on_closed_patterns(rng):
    hits, ds = 0, []
    while hits < 80:
        field = FIELDS[hits % 4]
        if hits % 2:
            alg = NilAlgebra.pattern_algebra(
                random_closed_pattern(rng, rng.randrange(4, 10)), field)
            lam = random_functional(rng, alg)
        else:
            alg = NilAlgebra.pattern_algebra(
                Pattern.full(rng.randrange(5, 9)), field)
            lam = perturbed_staircase(rng, alg)
        if is_quasi_monomial(lam):
            continue
        ds.append(assert_matches_dense_chain(alg, lam).d)
        hits += 1
    assert {1, 2, 3, 4} <= set(ds)


def test_chain_steps_restrict_the_last_form(monkeypatch, rng):
    # no step reads the Gram block of s^(i-1): each restricts the form of
    # the step before, and runs one elimination per kernel, so the spans
    # of l^i and s^i are not reduced again
    def no_gram_block(*args):
        raise AssertionError("chain_compute called gram_block")

    calls = []
    real_rref = algebra_module.rref
    monkeypatch.setattr(chain_module, "gram_block", no_gram_block)
    monkeypatch.setattr(algebra_module, "rref",
                        lambda rows, field: calls.append(1)
                        or real_rref(rows, field))
    ds = set()
    for k in range(12):
        alg = NilAlgebra.pattern_algebra(Pattern.full(rng.randrange(5, 8)),
                                         FIELDS[k % 4])
        lam = perturbed_staircase(rng, alg)
        calls.clear()
        d = chain_compute(alg, lam).d
        assert len(calls) == 2 * d
        assert_matches_dense_chain(alg, lam)
        ds.add(d)
    assert max(ds) >= 3


def test_chain_matches_dense_oracle_on_subspace_algebras(rng):
    for k in range(16):
        alg = random_subspace_algebra(rng, FIELDS[k % 4])
        assert_matches_dense_chain(alg, random_functional(rng, alg))
    for n in range(3, 7):
        for field in FIELDS:
            alg = constant_diagonal_algebra(n, field)
            assert_matches_dense_chain(alg, random_functional(rng, alg))
            ch = assert_matches_dense_chain(
                alg, Functional.from_entries(alg, {(1, n): 1}))
            # kappa(D_a D_b) = [a + b = n - 1]: only D_{n-1} is in the kernel
            assert ch.l_bar.dim == 1


def oracle_functionals(rng, alg):
    """Dense, sparse, single-entry, corner and zero functionals on alg; the
    corner is e*_(1,n), or the last position of a pattern without (1, n),
    restricted to the basis."""
    q, dim = alg.field.q, alg.dim
    sparse = [0] * dim
    for k in rng.sample(range(dim), min(dim, 2)):
        sparse[k] = rng.randrange(1, q)
    single = [0] * dim
    single[rng.randrange(dim)] = rng.randrange(1, q)
    n = alg.pattern.n
    corner = (1, n) if (1, n) in alg.pattern else alg.pattern.order[-1]
    return [random_functional(rng, alg), Functional(alg, sparse),
            Functional(alg, single), Functional.from_entries(alg, {corner: 1}),
            Functional.zero(alg)]


def test_gram_matrix_skips_only_zero_products(rng):
    # only the products that meet lam's support are formed; every other
    # entry must be zero, and the rows must come in the same order as the
    # oracle's, which forms every basis product
    fields = FIELDS + (field_make(3, 2),)
    algebras = [NilAlgebra.pattern_algebra(Pattern.full(n), F2)
                for n in range(2, 8)]
    algebras += [NilAlgebra.pattern_algebra(Pattern.full(4), f)
                 for f in fields[1:]]
    for field in fields:
        pattern = random_closed_pattern(rng, 6)
        while pattern == Pattern.full(6):
            pattern = random_closed_pattern(rng, 6)
        algebras.append(NilAlgebra.pattern_algebra(pattern, field))
        algebras += [random_subspace_algebra(rng, field) for _ in range(3)]
        algebras += generator_test_algebras(rng, field)
        algebras += [constant_diagonal_algebra(n, field) for n in (3, 5)]
    kinds = {"pattern": 0, "subspace": 0}
    for alg in algebras:
        if not alg.dim:
            continue
        for lam in oracle_functionals(rng, alg):
            gram = gram_matrix(lam)
            oracle = all_pairs_gram(lam)
            assert [list(row.items()) for row in gram] == \
                [list(row.items()) for row in oracle]
        kinds["pattern" if alg.is_pattern else "subspace"] += 1
    assert min(kinds.values()) >= 20


def test_gram_matrix_forms_only_products_on_the_support(monkeypatch):
    # on u_n, e*_(1,n)(e_a e_b) is nonzero only for e_1j e_jn, 1 < j < n
    count = [0]
    real_matmul = NilMatrix.__matmul__

    def counting(u, v):
        count[0] += 1
        return real_matmul(u, v)

    monkeypatch.setattr(NilMatrix, "__matmul__", counting)
    for n in range(2, 9):
        for field in (F2, F3):
            alg = NilAlgebra.pattern_algebra(Pattern.full(n), field)
            alg.basis()
            count[0] = 0
            gram = gram_matrix(Functional.from_entries(alg, {(1, n): 1}))
            assert count[0] == n - 2
            assert sum(len(row) for row in gram) == n - 2
            count[0] = 0
            assert not any(gram_matrix(Functional.zero(alg)))
            assert count[0] == 0


def annihilating_functional(rng, alg, space):
    """A random functional on alg that vanishes on every product of two
    elements of space."""
    field = alg.field
    basis = space.basis_matrices()
    products = [dict(enumerate(alg.coordinates(u @ v)))
                for u in basis for v in basis]
    values = [0] * alg.dim
    for vec in null_space(products, alg.dim, field):
        c = rng.randrange(field.q)
        for k, v in vec.items():
            values[k] = field.add(values[k], field.mul(c, v))
    return Functional(alg, values)


def test_chain_form_is_the_gram_block_on_s_bar(rng):
    # the form the chain stops on is lam(XY) on the echelon basis of s_bar,
    # the block of lam's Gram matrix there, for generic functionals, for
    # staircases with longer chains and for the defining functional
    fields = FIELDS + (field_make(3, 2),)
    ds = set()
    for k in range(30):
        field = fields[k % 5]
        if k % 3 == 2:
            alg = random_subspace_algebra(rng, field)
            lam = random_functional(rng, alg)
        else:
            alg = NilAlgebra.pattern_algebra(
                Pattern.full(rng.randrange(4, 8)), field)
            lam = (random_functional(rng, alg) if k % 3
                   else perturbed_staircase(rng, alg))
        ch = chain_compute(alg, lam)
        assert ch.form == gram_block(alg, gram_matrix(lam), ch.s_bar)
        ds.add(ch.d)
    assert max(ds) >= 3
    for r, field in ((2, F2), (3, F3)):
        lam = exotic_functional(r, field)
        ch = chain_compute(lam.algebra, lam)
        assert ch.form == gram_block(lam.algebra, gram_matrix(lam), ch.s_bar)
        assert any(ch.form)


def test_gram_block_matches_product_oracle(rng):
    # nu(XY) on a random subspace S, from the block C B C^T, against one
    # product per pair of basis matrices; nu is random (the check mostly
    # fails) or vanishes on S S (it holds)
    outcomes = set()
    for k in range(32):
        field = FIELDS[k % 4]
        if k % 3:
            alg = NilAlgebra.pattern_algebra(Pattern.full(4 + k % 2), field)
        else:
            alg = random_subspace_algebra(rng, field)
        space = Subspace.from_matrices(alg.pattern, field, [
            alg.span.matrix([rng.randrange(field.q)
                             for _ in range(alg.dim)])
            for _ in range(rng.randrange(1, 5))])
        nu = (random_functional(rng, alg) if k % 2
              else annihilating_functional(rng, alg, space))
        block = gram_block(alg, gram_matrix(nu), space)
        basis = space.basis_matrices()
        assert block == [{b: v for b, w in enumerate(basis)
                          if (v := nu.evaluate(u @ w))} for u in basis]
        vanish = products_vanish(nu, space)
        assert (not any(block)) == vanish
        outcomes.add(vanish)
    assert outcomes == {True, False}


def staircase_chain():
    u6 = NilAlgebra.pattern_algebra(Pattern.full(6), F2)
    lam = Functional.from_entries(
        u6, {(1, 3): 1, (2, 4): 1, (3, 5): 1, (4, 6): 1})
    return chain_compute(u6, lam)


def test_corrupted_chain_fails_validation():
    ch = staircase_chain()
    assert ch.validate()
    l_list = list(ch.l_list)
    l_list[1], l_list[2] = l_list[2], l_list[1]
    with pytest.raises(VerificationFailed, match="l\\^1 <= l\\^2"):
        replace(ch, l_list=l_list).validate()
    s_list = list(ch.s_list)
    s_list[1] = ch.l_list[1]
    with pytest.raises(VerificationFailed):
        replace(ch, s_list=s_list).validate()


def test_functional_on_another_algebra_is_rejected():
    u3 = NilAlgebra.pattern_algebra(Pattern.full(3), F2)
    a3 = constant_diagonal_algebra(3, F2)
    with pytest.raises(ValueError, match="another algebra"):
        chain_compute(u3, Functional.from_entries(a3, {(1, 3): 1}))


def test_unstable_chain_and_fast_path_mismatch_fail(monkeypatch):
    u3 = NilAlgebra.pattern_algebra(Pattern.full(3), F2)
    lam = Functional.from_entries(u3, {(1, 3): 1})
    with monkeypatch.context() as m:
        m.setattr(Subspace, "__eq__", lambda self, other: self is other)
        with pytest.raises(VerificationFailed, match="stabilize"):
            chain_compute(u3, lam)
    fast = quasimonomial_kernels(u3, lam)
    monkeypatch.setattr(chain_module, "quasimonomial_kernels",
                        lambda alg, f: replace(fast, l1=u3.span))
    with pytest.raises(VerificationFailed, match="fast path"):
        quasimonomial_irreducible(u3, lam)


OPTIMIZED_SCRIPT = """
from dataclasses import replace
from utchar.algebra import NilAlgebra, Pattern, VerificationFailed
from utchar.chain import chain_compute
from utchar.duals import Functional
from utchar.scalars import field_make
assert False, "assertions are enabled"
u6 = NilAlgebra.pattern_algebra(Pattern.full(6), field_make(2))
lam = Functional.from_entries(u6, {(1, 3): 1, (2, 4): 1, (3, 5): 1, (4, 6): 1})
ch = chain_compute(u6, lam)
bad = list(ch.l_list)
bad[1], bad[2] = bad[2], bad[1]
try:
    replace(ch, l_list=bad).validate()
except VerificationFailed:
    print("raised")
"""


def test_chain_checks_survive_optimized_mode(run_optimized):
    out = run_optimized(OPTIMIZED_SCRIPT)
    assert out.returncode == 0, out.stderr
    assert out.stdout.split() == ["raised"]
