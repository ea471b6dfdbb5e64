"""Dual functionals on a nilpotent algebra, their Gram matrices, the
left/right/coadjoint group actions, orbit enumeration, quasi-monomial
structure, shapes, and the diagonal torus action."""

from __future__ import annotations

import itertools
from collections import deque

from .algebra import (DEFAULT_CAP, CapExceeded, VerificationFailed,
                      apply_columns, rref, sparse_column, transpose)


class Functional:
    """An F_q-linear map algebra -> F_q stored by its values on the
    distinguished basis; for pattern algebras the basis entries are the
    coefficients lambda_(i,j)."""

    __slots__ = ("algebra", "values")

    def __init__(self, algebra, values):
        self.algebra = algebra
        self.values = tuple(values)
        if len(self.values) != algebra.dim:
            raise ValueError("value vector has wrong length")

    @classmethod
    def zero(cls, algebra):
        return cls(algebra, [0] * algebra.dim)

    @classmethod
    def from_entries(cls, algebra, entries):
        """Build from an ambient covector {position: coefficient}; for a
        subspace algebra this restricts the covector to the basis."""
        field = algebra.field

        def norm(c):
            c = int(c)
            return c if 0 <= c < field.q else field.from_int(c)

        entries = {pos: norm(c) for pos, c in entries.items()}
        # kept: a pattern algebra rejects positions outside the pattern
        if algebra.is_pattern:
            vals = [0] * algebra.dim
            for pos, c in entries.items():
                if pos not in algebra.pattern.positions:
                    raise ValueError(f"position {pos} outside the pattern")
                vals[algebra.pattern.index[pos]] = c
            return cls(algebra, vals)
        vals = []
        for mat in algebra.basis():
            acc = 0
            for pos, v in mat.entries.items():
                c = entries.get(pos)
                if c:
                    acc = field.add(acc, field.mul(c, v))
            vals.append(acc)
        return cls(algebra, vals)

    def entries(self):
        """lam as an ambient covector Lam = {k-th pivot position: lam_k},
        so lam(M) = sum Lam[pos] M[pos]: a member's coordinates are its
        pivots.  On a pattern algebra these are lam's coefficients."""
        algebra = self.algebra
        order = algebra.pattern.order
        return {order[p]: v for p, v in zip(algebra.span.pivots, self.values)
                if v}

    def evaluate(self, mat):
        """lam(mat): the sum of lam_k times mat's entry at the k-th pivot of
        the algebra's span, since a member's coordinates are its pivot
        entries; ValueError if mat lies outside the algebra."""
        field = self.algebra.field
        # kept: a pattern algebra reads values by position, with no
        # membership check; the pivot route below takes about 4x as long
        # on the single-entry products of the chain's Gram matrix
        if self.algebra.is_pattern:
            idx, values, acc = self.algebra.pattern.index, self.values, 0
            if field.e == 1:  # added up as ints, reduced once
                for pos, c in mat.entries.items():
                    acc += values[idx[pos]] * c
                return acc % field.p
            for pos, c in mat.entries.items():
                v = values[idx[pos]]
                if v:
                    acc = field.add(acc, field.mul(v, c))
            return acc
        span = self.algebra.span
        at_pivots = span._pivot_entries(mat.vector())
        if at_pivots is None:
            raise ValueError("matrix lies outside the algebra")
        idx = span.pivot_index()
        acc = 0
        for col, c in at_pivots.items():
            v = self.values[idx[col]]
            if v:
                acc = field.add(acc, field.mul(v, c))
        return acc

    def evaluate_group(self, g):
        """lambda(g - 1)."""
        return self.evaluate(g.body)

    def __add__(self, other):
        if (other.algebra is not self.algebra
                and (other.algebra.span != self.algebra.span
                     or other.algebra.field != self.algebra.field)):
            raise ValueError("algebra mismatch")
        f = self.algebra.field
        return Functional(self.algebra,
                          [f.add(a, b) for a, b in zip(self.values, other.values)])

    def __sub__(self, other):
        return self + (-other)

    def __neg__(self):
        f = self.algebra.field
        return Functional(self.algebra, [f.neg(v) for v in self.values])

    def scale(self, c):
        c = int(c)
        f = self.algebra.field
        return Functional(self.algebra, [f.mul(c, v) for v in self.values])

    def __eq__(self, other):
        return (isinstance(other, Functional)
                and self.algebra.span == other.algebra.span
                and self.values == other.values)

    def __hash__(self):
        return hash(self.values)

    def __repr__(self):
        return f"Functional({self.entries()})"


def gram_matrix(lam):
    """B[a][b] = lam(e_a e_b) on the algebra basis, as sparse rows.

    lam(M) = sum Lam[pos] M[pos] (`Functional.entries`), so only the
    products with e_a[i, j] e_b[j, k] != 0 for some (i, k) in supp Lam are
    formed, in order of a, then of b, the e_b found by entry position
    (j, k).  The algebra is assumed closed under products, which
    NilAlgebra.from_subspace leaves to its callers to check.  Contracting
    slices without products waits for ROADMAP item 0."""
    algebra = lam.algebra
    basis = algebra.basis()
    support = {}  # row i -> the columns k with (i, k) in the support
    for i, k in lam.entries():
        support.setdefault(i, []).append(k)
    columns = {k for ks in support.values() for k in ks}
    at = {}  # (j, k) with k a support column -> the b with e_b[j, k] != 0
    for b, w in enumerate(basis):
        for pos in w.entries:
            if pos[1] in columns:
                at.setdefault(pos, []).append(b)
    gram = [{} for _ in basis]
    for a, u in enumerate(basis):
        partners = {b for (i, j) in u.entries for k in support.get(i, ())
                    for b in at.get((j, k), ())}
        for b in sorted(partners):
            v = lam.evaluate(u @ basis[b])
            if v:
                gram[a][b] = v
    return gram


# ---------------------------------------------------------------------------
# group actions on functionals


def _contract(lam, g, left):
    """lam read through X -> X + h X (left) or X + X h (right), h = g^-1 - 1:
    the covector Lam + h^T Lam or Lam + Lam h^T, one sparse contraction,
    read back on the basis (a position off a pattern meets no member).  As
    in gram_matrix, the algebra is assumed closed under products."""
    algebra, field = lam.algebra, lam.algebra.field
    cov = lam.entries()
    out = dict(cov)
    by = {}  # left: row i of Lam -> its (k, v); right: column k -> (i, v)
    for (i, k), v in cov.items():
        by.setdefault(i if left else k, []).append((k if left else i, v))
    # (h^T Lam)[j, k] = sum_i h[i, j] Lam[i, k]; (Lam h^T)[k, i] likewise
    for (i, j), a in g.inverse().body.entries.items():
        for k, v in by.get(i if left else j, ()):
            pos = (j, k) if left else (k, i)
            out[pos] = field.add(out.get(pos, 0), field.mul(a, v))
    if algebra.is_pattern:
        return Functional(algebra, [out.get(p, 0)
                                    for p in algebra.pattern.order])
    return Functional.from_entries(algebra, out)


def act_left(g, lam):
    """(g lam)(X) = lam(g^{-1} X)."""
    return _contract(lam, g, True)


def act_right(lam, g):
    """(lam g)(X) = lam(X g^{-1})."""
    return _contract(lam, g, False)


def act_coadjoint(lam, g):
    """lam^g(X) = lam(g X g^{-1}); a right action."""
    return act_right(act_left(g.inverse(), lam), g)


# ---------------------------------------------------------------------------
# orbits


def orbit(lam, which, cap=DEFAULT_CAP):
    """The left, right, two-sided, or coadjoint orbit of lam, as the sorted
    list of its points' value tuples, each of length lam.algebra.dim; more
    than cap raise CapExceeded.

    Left and right orbits are affine: (g lam)(X) = lam(X) + lam(h X) with
    h = g^{-1} - 1 running over the algebra, so G lam = lam + rowspace(B)
    and lam G = lam + colspace(B) for B = gram_matrix(lam)
    (`_affine_orbit`).  The two-sided orbit is a union of left orbits
    (`_two_sided_orbit`).  All three are built in increasing order.

    The coadjoint orbit is a BFS over `lam.algebra.group_generators()`:
    a generator moves f to f + sum_k f_k c_k, c_k = act(delta_k) - delta_k
    for the unit functional delta_k, computed by one action when a
    functional with f_k != 0 is first moved; only nonzero c_k are kept."""
    if which not in ("left", "right", "two-sided", "coadjoint"):
        raise ValueError(f"unknown orbit kind {which!r}")
    algebra, field = lam.algebra, lam.algebra.field
    if which in ("left", "right"):
        gram = gram_matrix(lam)
        points = _affine_orbit(field, lam.values, rref(
            gram if which == "left" else transpose(gram, len(gram)), field),
            cap)
    elif which == "two-sided":
        points = _two_sided_orbit(lam, cap)
    else:
        gens, dim = algebra.group_generators(), algebra.dim
        computed = [False] * dim
        moves = [[] for _ in gens]
        seen = {lam.values}
        frontier = deque(seen)
        while frontier:
            f = frontier.popleft()
            for k, c in enumerate(f):
                if c and not computed[k]:
                    computed[k] = True
                    delta = Functional(algebra, [int(i == k)
                                                 for i in range(dim)])
                    for g, cols in zip(gens, moves):
                        moved = list(act_coadjoint(delta, g).values)
                        moved[k] = field.sub(moved[k], 1)
                        if column := sparse_column(moved):
                            cols.append((k, column))
            for cols in moves:
                nxt = apply_columns(field, cols, f, f)
                if nxt not in seen:
                    if len(seen) >= cap:
                        raise CapExceeded(f"orbit exceeds cap {cap}")
                    seen.add(nxt)
                    frontier.append(nxt)
        if len(seen) not in [field.q ** k for k in range(0, dim + 1, 2)]:
            raise VerificationFailed(f"coadjoint orbit size {len(seen)} "
                                     "is not an even power of q")
        points = sorted(seen)
    return points


def _affine_orbit(field, start, rows, cap):
    """The value tuples of start + span(rows), for rows in reduced row
    echelon form, in increasing order; q^len(rows) > cap raises
    CapExceeded before any point is built.  Cleared at the pivots, start
    becomes the point whose value at the i-th pivot is t_i, and whose
    entries before that pivot depend on t_1, ..., t_(i-1) alone: so
    `_affine_points`, taking t in product order, lists them in order."""
    if field.q ** len(rows) > cap:
        raise CapExceeded(f"orbit exceeds cap {cap}")
    base = apply_columns(field, [(min(r), list(r.items())) for r in rows],
                         tuple(map(field.neg, start)), start)
    return _affine_points(field, base, rows)


def _affine_points(field, start, rows):
    """start + sum_i t_i rows[i] for each t in
    itertools.product(range(q), repeat=len(rows)), in that order, as value
    tuples; the rows are sparse {k: value}.

    The points are built a coordinate column at a time, the last row
    first, each row multiplying the point count N by q.  A column the row
    does not touch is repeated q times; one it touches gets one block per
    t, the column plus t w.  A column no earlier row touched holds one
    value, so its block is one value repeated; any other goes through the
    tables x -> x + a, whose q^2 entries are made only once N >= q."""
    q, add, mul = field.q, field.add, field.mul
    columns = [[x] for x in start]
    touched, shifts = set(), None
    for row in reversed(rows):
        for k, col in enumerate(columns):
            w = row.get(k)
            if not w:
                columns[k] = col * q
                continue
            new = []
            if k not in touched:
                for t in range(q):
                    new += [add(col[0], mul(t, w))] * len(col)
            else:
                if shifts is None:
                    shifts = [[add(x, a) for x in range(q)] for a in range(q)]
                for t in range(q):
                    new += map(shifts[mul(t, w)].__getitem__, col)
            columns[k] = new
        touched.update(row)
    # on an algebra of dimension 0 there are no columns to zip
    return list(zip(*columns)) or [start]


def _two_sided_orbit(lam, cap):
    """The value tuples of G lam G, in increasing order.

    The left orbits partition G lam G, and each meets lam G (Diaconis and
    Isaacs, Trans. AMS 360 (2008)).  For B = gram_matrix(lam) and
    W = rref(B), the pivot columns b of W index a basis B[:, b] of B's
    column space, so mu_t = lam + sum_b t_b B[:, b] runs once over lam G:
    mu_t = lam k with k^-1 = 1 + sum_b t_b e_b.  Then G mu_t = (G lam) k,
    and nu -> nu k is linear, with (w k)(e_a) = w_a + sum_b t_b w(e_a e_b);
    so G mu_t = mu_t + span{w k : w in W}, from the Gram matrices of the
    rank B rows of W and one rref per left orbit.  A mu_t that an earlier
    left orbit holds is skipped, and a left orbit that would take the
    total past cap raises CapExceeded before any of its points is built.
    Each left orbit comes out sorted, so sorting their concatenation
    merges q^rank-long runs."""
    algebra, field = lam.algebra, lam.algebra.field
    gram = gram_matrix(lam)
    rows = rref(gram, field)
    size = field.q ** len(rows)
    if size > cap:
        raise CapExceeded(f"orbit exceeds cap {cap}")
    pivots = [min(w) for w in rows]

    def pivot_columns(g):
        """Columns b of g at W's pivots, as apply_columns pairs (i, col)."""
        cols = transpose(g, len(g))
        return [(i, list(cols[b].items())) for i, b in enumerate(pivots)]

    moves = []
    for w in rows:
        values = [w.get(k, 0) for k in range(algebra.dim)]
        moves.append((values, pivot_columns(
            gram_matrix(Functional(algebra, values)))))
    mus = dict(zip(_affine_points(field, lam.values,
                                  [dict(c) for _, c in pivot_columns(gram)]),
                   itertools.product(range(field.q), repeat=len(rows))))
    covered, runs = set(), []
    for mu, t in mus.items():
        if mu in covered:
            continue
        if (len(runs) + 1) * size > cap:
            raise CapExceeded(f"orbit exceeds cap {cap}")
        run = _affine_orbit(field, mu, rref(
            [dict(enumerate(apply_columns(field, cols, t, values)))
             for values, cols in moves], field), cap)
        covered.update(filter(mus.__contains__, run))
        runs.append(run)
    points = list(itertools.chain.from_iterable(runs))
    points.sort()
    return points


# ---------------------------------------------------------------------------
# set partitions and quasi-monomial structure


class SetPartition:
    """A partition of [n] into disjoint nonempty parts."""

    __slots__ = ("n", "parts")

    def __init__(self, n, parts):
        parts = frozenset(frozenset(p) for p in parts if p)
        seen = set()
        for p in parts:
            if seen & p:
                raise ValueError("parts are not disjoint")
            seen |= p
        if seen != set(range(1, n + 1)):
            raise ValueError("parts do not cover [n]")
        self.n = n
        self.parts = parts

    @classmethod
    def singletons(cls, n):
        return cls(n, [{i} for i in range(1, n + 1)])

    def sorted_parts(self):
        return [sorted(p) for p in sorted(self.parts, key=min)]

    def __len__(self):
        return len(self.parts)

    def __eq__(self, other):
        return (isinstance(other, SetPartition)
                and self.n == other.n and self.parts == other.parts)

    def __hash__(self):
        return hash((self.n, self.parts))

    def __repr__(self):
        return f"SetPartition({self.sorted_parts()})"


def is_quasi_monomial(lam):
    """At most one nonzero coefficient in each row and column."""
    if not lam.algebra.is_pattern:
        raise ValueError("quasi-monomial needs a pattern algebra")
    rows, cols = set(), set()
    for (i, j) in lam.entries():
        if i in rows or j in cols:
            return False
        rows.add(i)
        cols.add(j)
    return True


def shape(lam):
    """The finest partition of [n] merging i, j whenever lambda_ij != 0."""
    if not is_quasi_monomial(lam):
        raise ValueError("shape is defined for quasi-monomial functionals")
    n = lam.algebra.pattern.n
    parent = list(range(n + 1))

    def find(a):
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        return a

    for (i, j) in lam.entries():
        parent[find(i)] = find(j)
    groups = {}
    for v in range(1, n + 1):
        groups.setdefault(find(v), set()).add(v)
    return SetPartition(n, groups.values())


# ---------------------------------------------------------------------------
# diagonal torus action


def torus_act(diag, lam):
    """nu_ij = (D_i / D_j) lambda_ij for an invertible diagonal D."""
    algebra = lam.algebra
    if not algebra.is_pattern:
        raise ValueError("torus action requires a pattern algebra")
    field = algebra.field
    diag = [int(d) for d in diag]
    if field.e == 1:
        diag = [d % field.q for d in diag]
    if len(diag) != algebra.pattern.n:
        raise ValueError("diagonal length must equal n")
    if any(not 0 < d < field.q for d in diag):
        raise ValueError("diagonal entries must be nonzero field elements")
    out = list(lam.values)
    for (i, j), v in lam.entries().items():
        k = algebra.pattern.index[(i, j)]
        out[k] = field.mul(v, field.div(diag[i - 1], diag[j - 1]))
    return Functional(algebra, out)


def torus_orbit(lam, cap=DEFAULT_CAP):
    """Orbit of lam under all invertible diagonal conjugations, as sorted
    value tuples like `orbit`'s; the first diagonal entry is fixed to 1
    (scalars act trivially)."""
    algebra = lam.algebra
    n = algebra.pattern.n
    q = algebra.field.q
    if (q - 1) ** (n - 1) > cap:
        raise CapExceeded("torus orbit enumeration exceeds cap")
    return sorted({torus_act((1,) + tail, lam).values
                   for tail in itertools.product(range(1, q), repeat=n - 1)})
