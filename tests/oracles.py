"""Independent brute-force reference computations used to pin expected
values; these deliberately avoid the library's sparse elimination, BFS
orbits, and combinatorial shortcuts."""

import itertools
from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm

from utchar import chain as chain_module
from utchar import cli
from utchar.algebra import (DEFAULT_CAP, GroupElement, NilAlgebra, NilMatrix,
                            Pattern, Subspace, VerificationFailed,
                            combine_rows, left_kernel, null_space, trunc_exp)
from utchar.chain import chain_compute
from utchar.characters import (ClassFunction, GroupTable, exp_kirillov,
                               homomorphism_defect, kirillov, supercharacter,
                               theta_lambda, xi)
from utchar.duals import Functional, orbit, shape, torus_orbit
from utchar.exotic import constant_diagonal_algebra, exotic_functional_parts
from utchar.scalars import (CyclotomicNumber, cyclotomic_polynomial,
                            in_subfield, prime_power_split,
                            root_of_unity_order)


class DigitField:
    """F_q on the encodings of `field`, read as base-p digits: add and neg
    digit by digit, mul as polynomials reduced mod the modulus, inv as
    a^(q-2) and the trace as the sum of the e Frobenius conjugates."""

    def __init__(self, field):
        self.p, self.e, self.q = field.p, field.e, field.q
        self.modulus = field.modulus

    def _decode(self, a):
        return [a // self.p**i % self.p for i in range(self.e)]

    def _encode(self, coeffs):
        return sum((c % self.p) * self.p**i
                   for i, c in enumerate(coeffs[: self.e]))

    def add(self, a, b):
        return self._encode(
            [x + y for x, y in zip(self._decode(a), self._decode(b))])

    def neg(self, a):
        return self._encode([-x for x in self._decode(a)])

    def sub(self, a, b):
        return self.add(a, self.neg(b))

    def mul(self, a, b):
        p, e, modulus = self.p, self.e, self.modulus
        prod = [0] * (2 * e - 1)
        b_digits = self._decode(b)
        for i, x in enumerate(self._decode(a)):
            for j, y in enumerate(b_digits, i):
                prod[j] += x * y
        inv_lead = pow(modulus[-1], p - 2, p)
        for k in range(2 * e - 2, e - 1, -1):
            c = prod[k] * inv_lead % p
            for i, m in enumerate(modulus):
                prod[k - e + i] -= c * m
        return self._encode(prod)

    def pow(self, a, k):
        """a^k for k >= 1, by squaring."""
        result = a
        for bit in bin(k)[3:]:
            result = self.mul(result, result)
            if bit == "1":
                result = self.mul(result, a)
        return result

    def inv(self, a):
        if a == 0:
            raise ZeroDivisionError("inverse of zero in F_q")
        return self.pow(a, self.q - 2)

    def trace(self, a):
        total = 0
        for _ in range(self.e):
            total = self.add(total, a)
            a = self.pow(a, self.p)
        return total


def dense_rref(matrix, field):
    """Textbook dense reduced row echelon form over a Field; rows are
    lists of encodings."""
    rows = [list(r) for r in matrix]
    if not rows:
        return []
    ncols = len(rows[0])
    rank = 0
    for col in range(ncols):
        pivot = next((r for r in range(rank, len(rows)) if rows[r][col]), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        inv = field.inv(rows[rank][col])
        rows[rank] = [field.mul(inv, v) for v in rows[rank]]
        for r in range(len(rows)):
            if r != rank and rows[r][col]:
                factor = rows[r][col]
                rows[r] = [field.sub(a, field.mul(factor, b))
                           for a, b in zip(rows[r], rows[rank])]
        rank += 1
    return [r for r in rows[:rank] if any(r)]


def dense_left_kernel(matrix, field):
    """Basis (dense rref) of {c : c * matrix = 0}."""
    nrows = len(matrix)
    if nrows == 0:
        return []
    ncols = len(matrix[0])
    augmented = [list(row) + [1 if j == i else 0 for j in range(nrows)]
                 for i, row in enumerate(matrix)]
    reduced = dense_rref(augmented, field)
    kernel = []
    for row in reduced:
        if not any(row[:ncols]):
            kernel.append(row[ncols:])
    return dense_rref(kernel, field)


def two_elimination_span(pattern, field, combos, rows):
    """The span of the combinations sum_a k[a] * rows[a], reduced once more
    by rref, as the chain built its subspaces before kernels came back in
    echelon form."""
    return Subspace.from_vectors(
        pattern, field, [combine_rows(k, rows, field) for k in combos])


def two_elimination_solution_space(pattern, field, constraint_rows):
    """algebra.solution_space with its kernel reduced once more by rref."""
    return Subspace.from_vectors(
        pattern, field, null_space(constraint_rows, len(pattern.order), field))


def two_elimination_restrict_to_zero(space, coords):
    """Subspace.restrict_to_zero with the combinations of its rows reduced
    once more by rref."""
    cols = sorted(set(coords))
    col_pos = {c: k for k, c in enumerate(cols)}
    basis_rows = space.row_dicts()
    mrows = [{col_pos[c]: v for c, v in row.items() if c in col_pos}
             for row in basis_rows]
    combos = left_kernel(mrows, len(cols), space.field)
    return two_elimination_span(space.pattern, space.field, combos,
                                basis_rows)


def pivot_scan_rref(rows, field):
    """algebra.rref as it was before the column index: each incoming row is
    reduced one pivot hit at a time (min(hits), rescanned after every
    subtraction), and each new pivot scans every earlier pivot row."""

    def sub_scaled(row, factor, other):
        out = dict(row)
        for c, v in other.items():
            s = field.sub(out.get(c, 0), field.mul(factor, v))
            if s:
                out[c] = s
            else:
                out.pop(c, None)
        return out

    pivots = {}
    for row in rows:
        row = {c: v for c, v in row.items() if v}
        while row:
            hits = [c for c in row if c in pivots]
            if not hits:
                break
            c = min(hits)
            row = sub_scaled(row, row[c], pivots[c])
        if not row:
            continue
        c = min(row)
        inv = field.inv(row[c])
        row = {k: field.mul(inv, v) for k, v in row.items()}
        for c2 in list(pivots):
            prow = pivots[c2]
            if c in prow:
                pivots[c2] = sub_scaled(prow, prow[c], row)
        pivots[c] = row
    return [pivots[c] for c in sorted(pivots)]


def pair_scan_is_closed(pattern):
    """Pattern.is_closed by pairing every two positions, O(|P|^2)."""
    pos = pattern.positions
    return all((i, k) in pos
               for (i, j) in pos for (j2, k) in pos if j2 == j)


def definitional_form_matrix(algebra, lam, left_basis, right_basis):
    """The matrix of (X, Y) -> lam(XY) on the given bases, computed by
    actual matrix products."""
    return [[lam.evaluate(u @ w) for w in right_basis] for u in left_basis]


def brute_force_first_kernels(algebra, lam):
    """(l1, s1) of the kernel chain as dense rref bases over the position
    coordinates, from the definitional bilinear form."""
    basis = list(algebra.basis())
    width = len(algebra.pattern.order)

    def to_dense(mats, combos):
        out = []
        for combo in combos:
            vec = [0] * width
            for coeff, mat in zip(combo, mats):
                if coeff:
                    for k, v in mat.vector().items():
                        vec[k] = algebra.field.add(
                            vec[k], algebra.field.mul(coeff, v))
            out.append(vec)
        return dense_rref(out, algebra.field)

    m1 = definitional_form_matrix(algebra, lam, basis, basis)
    l1_combos = dense_left_kernel(m1, algebra.field)
    l1_dense = to_dense(basis, l1_combos)
    l1_mats = [NilMatrix.from_vector(algebra.pattern, algebra.field,
                                     {k: v for k, v in enumerate(row) if v})
               for row in l1_dense]
    m2 = definitional_form_matrix(algebra, lam, basis, l1_mats)
    s1_combos = dense_left_kernel(m2, algebra.field) if l1_mats else \
        [[1 if j == i else 0 for j in range(len(basis))]
         for i in range(len(basis))]
    s1_dense = to_dense(basis, s1_combos)
    return l1_dense, s1_dense


def dense_chain(algebra, lam):
    """The whole kernel chain computed densely: every step assembles the
    form matrix from definitional products and reduces it with the textbook
    elimination above.  Returns (l_steps, s_steps) as dense rref bases,
    starting at step 1."""
    field = algebra.field
    width = len(algebra.pattern.order)

    def to_dense(mat):
        vec = [0] * width
        for k, v in mat.vector().items():
            vec[k] = v
        return vec

    def to_mats(dense_rows):
        return [NilMatrix.from_vector(
            algebra.pattern, field,
            {k: v for k, v in enumerate(row) if v}) for row in dense_rows]

    def combine(mats, combos):
        out = []
        for combo in combos:
            vec = [0] * width
            for coeff, mat in zip(combo, mats):
                if coeff:
                    for k, v in mat.vector().items():
                        vec[k] = field.add(vec[k], field.mul(coeff, v))
            out.append(vec)
        return dense_rref(out, field)

    def kernel_against(space_mats, target_mats):
        if not target_mats:
            return dense_rref([to_dense(m) for m in space_mats], field)
        matrix = [[lam.evaluate(u @ w) for w in target_mats]
                  for u in space_mats]
        combos = dense_left_kernel(matrix, field)
        return combine(space_mats, combos)

    s_mats = list(algebra.basis())
    l_steps, s_steps = [], []
    for _ in range(algebra.dim + 1):
        l_dense = kernel_against(s_mats, s_mats)
        s_dense = kernel_against(s_mats, to_mats(l_dense))
        l_steps.append(l_dense)
        s_steps.append(s_dense)
        new_mats = to_mats(s_dense)
        if len(new_mats) == len(s_mats):
            break
        s_mats = new_mats
    return l_steps, s_steps


def elimination_coordinates(space, mat):
    """Coefficients of mat over the echelon rows of space, or None off the
    span: eliminate the least remaining column with the row whose pivot it
    is, reading the coefficient there."""
    field = space.field
    rows = {r[0][0]: dict(r) for r in space.rows}
    pivot_pos = {c: a for a, c in enumerate(space.pivots)}
    vec = dict(mat.vector())
    coeffs = [0] * space.dim
    while vec:
        c = min(vec)
        if c not in rows:
            return None
        factor = vec[c]
        coeffs[pivot_pos[c]] = factor
        for k, v in rows[c].items():
            s = field.sub(vec.get(k, 0), field.mul(factor, v))
            if s:
                vec[k] = s
            else:
                vec.pop(k, None)
    return coeffs


def subspace_dense_rows(space):
    width = len(space.pattern.order)
    out = []
    for row in space.rows:
        vec = [0] * width
        for k, v in row:
            vec[k] = v
        out.append(vec)
    return out


def dense_product(pattern, field, x, y):
    """Product of two dense coordinate vectors over pattern.order, by the
    textbook triple loop on full n x n matrices."""
    n = pattern.n

    def to_square(vec):
        mat = [[0] * (n + 1) for _ in range(n + 1)]
        for (i, j), v in zip(pattern.order, vec):
            mat[i][j] = v
        return mat

    a, b = to_square(x), to_square(y)
    prod = [[0] * (n + 1) for _ in range(n + 1)]
    for i in range(1, n + 1):
        for k in range(1, n + 1):
            if a[i][k]:
                for j in range(1, n + 1):
                    prod[i][j] = field.add(prod[i][j],
                                           field.mul(a[i][k], b[k][j]))
    return [prod[i][j] for i, j in pattern.order]


def dense_inverse(pattern, field, x):
    """(1 + X)^(-1) - 1 = -X + X^2 - X^3 + ... for a dense coordinate
    vector, with every power formed by dense_product."""
    neg = [field.neg(v) for v in x]
    acc, term = list(neg), list(neg)
    while any(term):
        term = dense_product(pattern, field, term, neg)
        acc = [field.add(a, b) for a, b in zip(acc, term)]
    return acc


def dense_orbit_sum(group, functionals, scale):
    """scale * sum of theta_mu over the functionals, one cyclotomic
    addition per functional and group element."""
    th = group.theta
    values = []
    for g in group.elements:
        total = CyclotomicNumber.zero(th.conductor)
        for mu in functionals:
            total = total + th(mu.evaluate_group(g))
        values.append(total.scale(scale))
    return ClassFunction(group, values)


def brute_force_character_sums(points, vectors, pairing, period, scale):
    """scale * sum over the vectors v of
    zeta_period^(sum_k pairing[k][v_k][x_k]) at each point x, one
    cyclotomic addition per vector and point."""
    zeta = [CyclotomicNumber.zeta(period, t) for t in range(period)]
    values = []
    for x in points:
        total = CyclotomicNumber.zero(period)
        for v in vectors:
            total = total + zeta[sum(table[a][b] for table, a, b
                                     in zip(pairing, v, x)) % period]
        values.append(total.scale(scale))
    return values


def trunc_exp_kirillov(group, lam, cap=DEFAULT_CAP):
    """psi^Exp_lambda(Exp X) = psi_lambda(1 + X), with one trunc_exp power
    series per element, found in the table through its span
    coordinates."""
    psi = kirillov(group, lam, cap)
    values = [None] * group.size
    for g, value in zip(group.elements, psi.values):
        values[group.index_of(trunc_exp(g.body))] = value
    if any(v is None for v in values):
        raise VerificationFailed("Exp does not map the group onto itself")
    return ClassFunction(group, values)


def key_index(group):
    """The oracles' own map from each element's sorted-entry key to its
    index, independent of the table's coordinate index."""
    return {g.key(): i for i, g in enumerate(group.elements)}


def brute_force_mul_table(group):
    """index x index -> index of the product, one GroupElement product and
    one sorted-key lookup per entry."""
    index = key_index(group)
    return [[index[(g * h).key()] for h in group.elements]
            for g in group.elements]


def brute_force_induce(f, group):
    """Ind_H^G f(g) = (1/|H|) sum over x in G with x g x^{-1} in H of
    f(x g x^{-1}); every conjugate is a GroupElement product, and every
    inverse a GroupElement inverse series; H's elements are found by their
    sorted-entry keys."""
    sub = f.group
    in_sub = key_index(sub)
    inverses = [x.inverse() for x in group.elements]
    values = []
    abelian_shortcut = group.is_abelian()
    for g in group.elements:
        if abelian_shortcut:
            h = in_sub.get(g.key())
            if h is not None:
                values.append(
                    f.values[h].scale(Fraction(group.size, sub.size)))
            else:
                values.append(CyclotomicNumber.zero())
            continue
        acc = CyclotomicNumber.zero()
        hit = False
        for x, xinv in zip(group.elements, inverses):
            h = in_sub.get((x * g * xinv).key())
            if h is not None:
                acc = acc + f.values[h]
                hit = True
        values.append(acc.scale(Fraction(1, sub.size)) if hit else acc)
    return ClassFunction(group, values)


def brute_force_classes(group):
    """The conjugacy classes as sets of element indices, one
    GroupElement conjugation x g x^{-1} for every pair (x, g), with each
    x^{-1} from the GroupElement inverse series."""
    index = key_index(group)
    inverses = [x.inverse() for x in group.elements]
    return {frozenset(index[(x * g * xinv).key()]
                      for x, xinv in zip(group.elements, inverses))
            for g in group.elements}


def max_element_order(group):
    """The largest order of an element, one chain of GroupElement
    products per element."""
    return max(g.order() for g in group.elements)


def xi_set(group, lam, s_bar):
    """Xi = {g lam s g^{-1} : g in G, s in 1 + s_bar} as a list of
    functionals in key order, one pair of actions for every (g, s)."""
    s_group = GroupTable.from_subspace(group.algebra, s_bar)
    seen = {}
    for g in group.elements:
        ginv = g.inverse()
        for s in s_group.elements:
            moved = definition_act_left(
                g, definition_act_right(lam, s * ginv))
            seen.setdefault(moved.key(), moved)
    return [seen[k] for k in sorted(seen)]


@dataclass
class EnumeratedDual:
    """The result of brute_force_abelian_dual.  Its characters are built
    here from the normal form, independently of AbelianDual.characters,
    which derives them from the assignments."""

    characters: list  # of ClassFunction
    exponents: list
    modulus: int
    structure: list


def brute_force_abelian_dual(group, cap=DEFAULT_CAP):
    """Characters of an abelian group via a power-normal form: generators
    are extracted greedily by maximal relative order, every element gets a
    normal-form exponent vector, and characters are built by solving
    z^m = chi(relation) stepwise."""
    if not group.is_abelian():
        raise ValueError("group is not abelian")
    identity = next(g for g in group.elements if g.body.is_zero())
    norm_form = {identity.key(): ()}
    reps = {identity.key(): identity}
    gens, rel_orders, rel_words = [], [], []
    while len(norm_form) < group.size:
        best, best_m, best_word = None, 0, None
        for g in group.elements:
            if g.key() in norm_form:
                continue
            m, h = 1, g
            while h.key() not in norm_form:
                h = h * g
                m += 1
            if m > best_m:
                best, best_m, best_word = g, m, norm_form[h.key()]
        g, m = best, best_m
        new_norm = {}
        new_reps = {}
        power = identity
        for k in range(m):
            for key, vec in norm_form.items():
                elt = reps[key] * power
                new_norm[elt.key()] = vec + (k,)
                new_reps[elt.key()] = elt
            power = power * g
        norm_form, reps = new_norm, new_reps
        gens.append(g)
        rel_orders.append(m)
        rel_words.append(best_word)
    modulus = 1
    for g in gens:
        modulus = lcm(modulus, g.order())
    # assignments of exponents t_i of zeta_M to generators
    assignments = [()]
    for i, m in enumerate(rel_orders):
        word = rel_words[i] + (0,) * (i - len(rel_words[i]))
        new_assignments = []
        for partial in assignments:
            c = sum(w * t for w, t in zip(word, partial)) % modulus
            if c % m:
                raise VerificationFailed(
                    "relation has no compatible character value")
            base = c // m
            step = modulus // m
            for j in range(m):
                new_assignments.append(partial + ((base + j * step) % modulus,))
        assignments = new_assignments
    if len(assignments) != group.size:
        raise VerificationFailed("dual is incomplete")
    zeta_powers = [CyclotomicNumber.zeta(modulus, t) for t in range(modulus)]
    characters = []
    exponents = []
    for ts in assignments:
        table_exp = []
        for g in group.elements:
            vec = norm_form[g.key()]
            table_exp.append(sum(v * t for v, t in zip(vec, ts)) % modulus)
        exponents.append(tuple(table_exp))
        characters.append(
            ClassFunction(group, [zeta_powers[e] for e in table_exp]))
    order = sorted(range(len(characters)), key=lambda i: exponents[i])
    return EnumeratedDual(characters=[characters[i] for i in order],
                          exponents=[exponents[i] for i in order],
                          modulus=modulus,
                          structure=rel_orders)


def definition_act_left(g, lam):
    """(g lam)(X) = lam(g^{-1} X), one NilMatrix product and one evaluate
    per basis element: the definition that duals.act_left contracts."""
    h = g.inverse().body  # g^{-1} - 1
    return Functional(lam.algebra, [lam.evaluate(u + h @ u)
                                    for u in lam.algebra.basis()])


def definition_act_right(lam, g):
    """(lam g)(X) = lam(X g^{-1}), as definition_act_left."""
    h = g.inverse().body
    return Functional(lam.algebra, [lam.evaluate(u + u @ h)
                                    for u in lam.algebra.basis()])


def definition_act_coadjoint(lam, g):
    """lam^g(X) = lam(g X g^{-1}) through the definition actions."""
    return definition_act_right(definition_act_left(g.inverse(), lam), g)


def orbit_keys(functionals):
    return {f.key() for f in functionals}


def full_group_orbit(group, lam, which):
    """Orbit computed by applying every group element through the
    definition actions (for the two-sided orbit: every element on the
    right of every element of the left orbit), rather than from the Gram
    matrix or by generator BFS."""
    seen = {}
    if which == "left":
        for g in group.elements:
            f = definition_act_left(g, lam)
            seen.setdefault(f.key(), f)
    elif which == "right":
        for g in group.elements:
            f = definition_act_right(lam, g)
            seen.setdefault(f.key(), f)
    elif which == "coadjoint":
        for g in group.elements:
            f = definition_act_coadjoint(lam, g)
            seen.setdefault(f.key(), f)
    elif which == "two-sided":
        # G lam G is the union of the right orbits mu G over mu in G lam
        left = full_group_orbit(group, lam, "left")
        for moved in left.values():
            for h in group.elements:
                f = definition_act_right(moved, h)
                seen.setdefault(f.key(), f)
    else:
        raise ValueError(which)
    return seen


def all_functionals(algebra):
    q = algebra.field.q
    for values in itertools.product(range(q), repeat=algebra.dim):
        yield Functional(algebra, values)


def random_closed_pattern(rng, n):
    pos = set()
    for _ in range(rng.randrange(1, 2 * n)):
        i = rng.randrange(1, n)
        j = rng.randrange(i + 1, n + 1)
        pos.add((i, j))
    changed = True
    while changed:
        changed = False
        for (i, j) in list(pos):
            for (j2, k) in list(pos):
                if j2 == j and (i, k) not in pos:
                    pos.add((i, k))
                    changed = True
    return Pattern(n, pos)


def random_quasimonomial(rng, algebra):
    rows = list(range(1, algebra.pattern.n))
    rng.shuffle(rows)
    used_cols = set()
    entries = {}
    for i in rows:
        cols = [j for (i2, j) in algebra.pattern.positions
                if i2 == i and j not in used_cols]
        if cols and rng.random() < 0.75:
            j = rng.choice(cols)
            entries[(i, j)] = rng.randrange(1, algebra.field.q)
            used_cols.add(j)
    return Functional.from_entries(algebra, entries)


def random_element(rng, algebra):
    coeffs = [rng.randrange(algebra.field.q) for _ in range(algebra.dim)]
    return GroupElement(algebra.span.matrix(coeffs))


def random_functional(rng, algebra):
    return Functional(algebra,
                      [rng.randrange(algebra.field.q)
                       for _ in range(algebra.dim)])


def random_subspace_algebra(rng, field):
    """The subalgebra s^1 of a random functional on u_n(q), 4 <= n <= 6."""
    u = NilAlgebra.pattern_algebra(Pattern.full(rng.randrange(4, 7)), field)
    s1 = chain_compute(u, random_functional(rng, u)).s_list[1]
    return closed_subspace_algebra(s1, field)


def closed_subspace_algebra(span, field):
    """NilAlgebra.from_subspace, which does not check closure, with the
    check; ValueError (kept under python -O) if span is not closed."""
    alg = NilAlgebra.from_subspace(span, field)
    if not alg.is_closed_under_products():
        raise ValueError("subspace is not closed under products")
    return alg


def u4_and_subalgebra(field):
    """u_4(q) and the non-commutative subalgebra spanned by e12 + e34, e13,
    e14 and e24, which is not spanned by pattern positions."""
    p4 = Pattern.full(4)
    span = Subspace.from_matrices(
        p4, field, [NilMatrix(p4, field, {(1, 2): 1, (3, 4): 1})]
        + [NilMatrix.elementary(p4, field, *pos)
           for pos in ((1, 3), (1, 4), (2, 4))])
    return (NilAlgebra.pattern_algebra(p4, field),
            closed_subspace_algebra(span, field))


def random_subalgebra(rng, algebra, count=2):
    """The subalgebra generated by count random elements of the algebra."""
    field, pattern = algebra.field, algebra.pattern
    gens = [algebra.span.matrix(
        [rng.randrange(field.q) for _ in range(algebra.dim)])
        for _ in range(count)]
    span = Subspace.from_matrices(pattern, field, gens)
    while True:
        basis = list(span.basis_matrices())
        bigger = Subspace.from_matrices(
            pattern, field, basis + [u @ v for u in basis for v in basis])
        if bigger == span:
            return span
        span = bigger


def generated_group(generators, identity):
    """The keys of the group generated by the given elements of a finite
    group, closed under right multiplication by GroupElement products."""
    seen = {identity.key()}
    frontier = [identity]
    while frontier:
        g = frontier.pop()
        for s in generators:
            h = g * s
            if h.key() not in seen:
                seen.add(h.key())
                frontier.append(h)
    return seen


def products_vanish(nu, space):
    """nu(u v) == 0 for every pair of echelon basis matrices of space, one
    NilMatrix product per pair."""
    basis = space.basis_matrices()
    return all(nu.evaluate(u @ v) == 0 for u in basis for v in basis)


def brute_force_corner_constituents(dual, lgroup, kappa, chi):
    """The indices of the characters of dual that agree with theta_kappa,
    as cyclotomic numbers, on every element of lgroup, and whether their
    sum, taken as class functions, equals chi."""
    theta_on_l = theta_lambda(lgroup, kappa)
    cons_idx = [i for i, psi in enumerate(dual.characters)
                if all(psi(h) == theta_on_l(h) for h in lgroup.elements)]
    total = None
    for i in cons_idx:
        c = dual.characters[i]
        total = c if total is None else total + c
    return cons_idx, (total == chi if total is not None else False)


def generator_test_algebras(rng, field):
    """Algebras on which group generators and orbits are checked: u_4(q)
    up to 729 elements, its non-commutative subalgebra, random subalgebras
    of u_4(q) with 1 or 2 generators and random closed patterns of u_5(q),
    both up to 729 elements, A_n(q) for n >= 2 up to 128 elements, and
    u_5(2) over F_2."""
    q = field.q
    max_size = 729
    u4, sub = u4_and_subalgebra(field)
    out = [sub] + ([u4] if u4.size <= max_size else [])
    while len(out) < 6:
        span = random_subalgebra(rng, u4, count=rng.choice((1, 2)))
        if q ** span.dim <= max_size:
            out.append(closed_subspace_algebra(span, field))
    while len(out) < 9:
        pattern = random_closed_pattern(rng, 5)
        if q ** len(pattern) <= max_size:
            out.append(NilAlgebra.pattern_algebra(pattern, field))
    n = 2
    while q ** (n - 1) <= 128:
        out.append(constant_diagonal_algebra(n, field))
        n += 1
    if q == 2:
        out.append(NilAlgebra.pattern_algebra(Pattern.full(5), field))
    return out


def all_pairs_products(left, right):
    """(a, b, left[a] @ right[b]) for every pair, in order of a, then b."""
    return [(a, b, u @ v) for a, u in enumerate(left)
            for b, v in enumerate(right)]


def all_pairs_ideal_check(sub, ambient):
    """ideal_check with one NilMatrix product and one membership test per
    basis pair."""
    amb_basis = ambient.basis() if isinstance(ambient, NilAlgebra) \
        else ambient.basis_matrices()
    sub_basis = sub.basis_matrices()
    right = all(sub.contains(u @ v) for u in sub_basis for v in amb_basis)
    left = all(sub.contains(v @ u) for u in sub_basis for v in amb_basis)
    if right and left:
        return "two-sided-ideal"
    if right:
        return "right-ideal"
    if all(sub.contains(u @ v) for u in sub_basis for v in sub_basis):
        return "subalgebra"
    return "none"


def all_pairs_closed(algebra):
    """algebra.is_closed_under_products, one product per basis pair."""
    basis = algebra.basis()
    return all(algebra.span.contains(u @ v) for u in basis for v in basis)


def all_pairs_commutative(algebra):
    """algebra.is_commutative, both products of every basis pair."""
    basis = algebra.basis()
    return all((u @ v) == (v @ u) for u in basis for v in basis)


def coordinate_evaluate(lam, mat):
    """lam(mat) as the dot product of lam's values with mat's coordinates
    over the algebra basis; ValueError if mat lies outside the algebra."""
    field = lam.algebra.field
    acc = 0
    for v, c in zip(lam.values, lam.algebra.coordinates(mat)):
        acc = field.add(acc, field.mul(v, c))
    return acc


def all_pairs_gram(lam):
    """duals.gram_matrix with one NilMatrix product and one coordinate
    evaluation per basis pair, in order of a, then of b."""
    basis = lam.algebra.basis()
    return [{b: v for b, w in enumerate(basis)
             if (v := coordinate_evaluate(lam, u @ w))} for u in basis]


# ---------------------------------------------------------------------------
# helpers with no caller in the library: the truncated logarithm, restriction
# of class functions, the linearity and value-field tests, the chain's
# verdict against the quasi-monomial fast path, and the torus check on the
# defining functional's shape


def trunc_log(g):
    """Exact inverse of trunc_exp by fixed-point iteration."""
    y = g.body
    x = y
    for _ in range(g.body.pattern.n + 1):
        correction = trunc_exp(x).body - x  # Exp(x) - 1 - x
        x_next = y - correction
        if x_next == x:
            break
        x = x_next
    return x


def restrict(f, subgroup):
    return ClassFunction(subgroup, [f(g) for g in subgroup.elements])


def is_character_linear(f):
    """A degree-one class function on an abelian group is a character iff
    it is multiplicative."""
    if not f.group.is_abelian():
        raise ValueError("linearity test requires an abelian group")
    if f.degree != CyclotomicNumber.one():
        return False
    return homomorphism_defect(f) is None


@dataclass(frozen=True)
class FieldOfValues:
    """conductor = lcm of the multiplicative orders of the values;
    min_level = least i with all values inside Q(zeta_{p^i})."""

    p: int
    conductor: int
    min_level: int


def field_of_values(f):
    """Analyze the value field of a function whose values are roots of
    unity with prime-power conductor."""
    orders = []
    max_m = 1
    for v in f.values:
        d = root_of_unity_order(v)
        if d is None:
            raise ValueError("value is not a root of unity")
        orders.append(d)
        max_m = lcm(max_m, v.m)
    conductor = 1
    for d in orders:
        conductor = lcm(conductor, d)
    if conductor == 1:
        return FieldOfValues(p=0, conductor=1, min_level=0)
    p, k = prime_power_split(conductor)
    level = 0
    while level <= k:
        if all(_in_level(v, p, level) for v in f.values):
            break
        level += 1
    return FieldOfValues(p=p, conductor=conductor, min_level=level)


def _in_level(value, p, level):
    if value.is_rational():
        return True
    if level == 0:
        return False
    if (p**level) % value.m == 0:
        return True
    return in_subfield(value, level)


def quasimonomial_irreducible(algebra, lam):
    """Verify l_bar = s_bar for a quasi-monomial functional; returns the
    chain together with the verdict (expected True on closed patterns)."""
    # looked up on the module, so a test can monkeypatch the fast path
    fast = chain_module.quasimonomial_kernels(algebra, lam)
    chain = chain_compute(algebra, lam)
    if chain.l_list[1] != fast.l1 or chain.s_list[1] != fast.s1:
        raise VerificationFailed("fast path disagrees with the kernel chain")
    return chain.l_bar == chain.s_bar, chain


def exotic_quasimonomial(r, field):
    """The quasi-monomial part of the defining functional on u_{6r+1}(q)."""
    return exotic_functional_parts(r, field)[0]


def exotic_functional(r, field):
    """Entries +-1 on six diagonal runs; 6r+1 nonzero values in total."""
    plus, minus = exotic_functional_parts(r, field)
    return plus - minus


def torus_shape_transitivity(r, field, cap=DEFAULT_CAP):
    """Diagonal conjugations act transitively on quasi-monomial functionals
    of a fixed shape: the orbit of the defining quasi-monomial part has
    size (q-1)^(n - parts)."""
    lam = exotic_quasimonomial(r, field)
    shp = shape(lam)
    orb = torus_orbit(lam, cap)
    expected = (field.q - 1) ** (lam.algebra.pattern.n - len(shp))
    shapes_ok = all(shape(f) == shp for f in orb)
    return len(orb) == expected and shapes_ok, len(orb), expected


# ---------------------------------------------------------------------------
# the CLI bodies with every array as Python lists, one list per [i, j, c]
# entry: json.dumps of such a body is the text cli.render must write


def ser_entries(order, x):
    return [[i, j, c] for (i, j), c in zip(order, x) if c]


def ser_functional(lam):
    return ser_entries(lam.algebra.pattern.order, lam.values)


def ser_subspace(space):
    order = space.pattern.order
    return {
        "dim": space.dim,
        "pivot_positions": [list(order[k]) for k in space.pivots],
        "basis": [[[*order[k], v] for k, v in row] for row in space.rows],
    }


TABLE_FUNCTIONS = {
    "theta": lambda algebra, group, lam, cap: theta_lambda(group, lam),
    "kirillov": lambda algebra, group, lam, cap: kirillov(group, lam, cap),
    "expkirillov": lambda algebra, group, lam, cap:
        exp_kirillov(group, lam, cap),
    "superchar": lambda algebra, group, lam, cap:
        supercharacter(group, lam, cap),
    "xi": lambda algebra, group, lam, cap: xi(algebra, lam, group, cap).table,
}


def structured_body(spec):
    """The body cli.run gives for a chain, orbit or table job, with its
    lambda and its large arrays recomputed from the job and written as
    lists."""
    body, _ = cli.run(spec)
    field = cli.field_for(spec.q, spec.modulus)
    algebra = NilAlgebra.pattern_algebra(Pattern.full(spec.n), field)
    lam = Functional.from_entries(algebra,
                                  {(i, j): c for i, j, c in spec.lam})
    body = {**body, "lambda": ser_functional(lam)}
    if spec.command == "chain":
        ch = chain_compute(algebra, lam)
        body.update(l=[ser_subspace(s) for s in ch.l_list[1:]],
                    s=[ser_subspace(s) for s in ch.s_list[1:]],
                    l_bar=ser_subspace(ch.l_bar),
                    s_bar=ser_subspace(ch.s_bar))
    elif spec.command == "orbit":
        body["orbit"] = [ser_functional(f)
                         for f in orbit(lam, spec.which, spec.cap)]
    else:
        group = GroupTable.from_algebra(algebra, spec.cap)
        fn = TABLE_FUNCTIONS[spec.which](algebra, group, lam, spec.cap)
        order = algebra.pattern.order
        body["values"] = [{"g": ser_entries(order, x),
                           "value": cli.ser_cyclotomic(v)}
                          for x, v in zip(group.coords, fn.values)]
    return body


# ---------------------------------------------------------------------------
# cyclotomic numbers with one Fraction per coefficient: the representation
# that scalars.CyclotomicNumber replaced by integer numerators over one
# denominator, kept as the differential oracle


def _phi_degree(m):
    return len(cyclotomic_polynomial(m)) - 1


def _reduce_mod_phi(m, raw):
    """Reduce the coefficient list raw (powers of zeta_m) mod Phi_m."""
    phi = cyclotomic_polynomial(m)
    d = len(phi) - 1
    raw = list(raw) + [Fraction(0)] * max(0, d - len(raw))
    for k in range(len(raw) - 1, d - 1, -1):
        c = raw[k]
        if c:
            raw[k] = Fraction(0)
            for i in range(d):
                raw[k - d + i] -= c * phi[i]
    return tuple(raw[:d])


class FractionCyclotomic:
    """An exact element of Q(zeta_m), reduced mod the m-th cyclotomic
    polynomial; equality is coefficient-wise after conductor promotion."""

    __slots__ = ("m", "coeffs")

    def __init__(self, m, coeffs):
        self.m = m
        self.coeffs = tuple(Fraction(c) for c in coeffs)
        if len(self.coeffs) != _phi_degree(m):
            raise ValueError("coefficient vector has wrong length")

    @classmethod
    def rational(cls, value, m=1):
        raw = [Fraction(value)] + [Fraction(0)] * max(0, _phi_degree(m) - 1)
        return cls(m, _reduce_mod_phi(m, raw))

    @classmethod
    def zeta(cls, m, k=1):
        k %= m
        raw = [Fraction(0)] * (k + 1)
        raw[k] = Fraction(1)
        return cls(m, _reduce_mod_phi(m, raw))

    @classmethod
    def zero(cls, m=1):
        return cls.rational(0, m)

    @classmethod
    def one(cls, m=1):
        return cls.rational(1, m)

    def promote(self, big_m):
        if big_m == self.m:
            return self
        if big_m % self.m != 0:
            raise ValueError("can only promote to a multiple conductor")
        step = big_m // self.m
        raw = [Fraction(0)] * ((len(self.coeffs) - 1) * step + 1)
        for i, c in enumerate(self.coeffs):
            raw[i * step] = c
        return FractionCyclotomic(big_m, _reduce_mod_phi(big_m, raw))

    def _pair(self, other):
        if not isinstance(other, FractionCyclotomic):
            other = FractionCyclotomic.rational(other)
        m = lcm(self.m, other.m)
        return self.promote(m), other.promote(m)

    def __add__(self, other):
        a, b = self._pair(other)
        return FractionCyclotomic(a.m, [x + y for x, y in zip(a.coeffs, b.coeffs)])

    __radd__ = __add__

    def __sub__(self, other):
        a, b = self._pair(other)
        return FractionCyclotomic(a.m, [x - y for x, y in zip(a.coeffs, b.coeffs)])

    def __rsub__(self, other):
        return (-self) + other

    def __neg__(self):
        return FractionCyclotomic(self.m, [-x for x in self.coeffs])

    def __mul__(self, other):
        a, b = self._pair(other)
        raw = [Fraction(0)] * (2 * len(a.coeffs) - 1)
        for i, x in enumerate(a.coeffs):
            if x:
                for j, y in enumerate(b.coeffs):
                    if y:
                        raw[i + j] += x * y
        return FractionCyclotomic(a.m, _reduce_mod_phi(a.m, raw))

    __rmul__ = __mul__

    def scale(self, rational):
        f = Fraction(rational)
        return FractionCyclotomic(self.m, [c * f for c in self.coeffs])

    def __pow__(self, k):
        result = FractionCyclotomic.one(self.m)
        base = self
        for _ in range(int(k)):
            result = result * base
        return result

    def galois(self, t):
        """Image under zeta_m -> zeta_m**t; t must be coprime to m."""
        if gcd(t, self.m) != 1:
            raise ValueError(f"t = {t} is not coprime to m = {self.m}")
        raw = [Fraction(0)] * self.m
        for i, c in enumerate(self.coeffs):
            raw[(i * t) % self.m] += c
        return FractionCyclotomic(self.m, _reduce_mod_phi(self.m, raw))

    def conjugate(self):
        if self.m <= 2:
            return self
        return self.galois(self.m - 1)

    def is_zero(self):
        return not any(self.coeffs)

    def is_rational(self):
        return not any(self.coeffs[1:])

    def rational_value(self):
        if not self.is_rational():
            raise ValueError("not a rational number")
        return self.coeffs[0]

    def __eq__(self, other):
        try:
            a, b = self._pair(other)
        except (TypeError, ValueError):
            return NotImplemented
        return a.coeffs == b.coeffs

    __hash__ = None

    def __repr__(self):
        return f"FractionCyclotomic(m={self.m}, coeffs={list(self.coeffs)})"
