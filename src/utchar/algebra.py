"""Pattern algebras u_{n,P}(q), their nilpotent matrices, the algebra
groups 1 + X, canonical subspaces, and the truncated exponential.

Subspaces are kept in reduced row-echelon form over the row-major ordering
of the pattern positions, so equal subspaces compare equal structurally.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from .scalars import VerificationFailed

DEFAULT_CAP = 1 << 22


class CapExceeded(RuntimeError):
    """An enumeration would exceed the configured cap."""


class Pattern:
    """A set of strictly upper triangular positions (i, j), 1-based."""

    __slots__ = ("n", "positions", "order", "index")

    def __init__(self, n, positions):
        positions = frozenset((int(i), int(j)) for i, j in positions)
        for i, j in positions:
            if not 1 <= i < j <= n:
                raise ValueError(f"position {(i, j)} out of range for n={n}")
        self.n = n
        self.positions = positions
        self.order = tuple(sorted(positions))  # row-major
        self.index = {pos: k for k, pos in enumerate(self.order)}

    @classmethod
    def full(cls, n):
        """All positions of u_n, listed in row-major order: nothing to
        check or sort."""
        pattern = cls.__new__(cls)
        pattern.n = n
        pattern.order = tuple((i, j) for i in range(1, n)
                              for j in range(i + 1, n + 1))
        pattern.positions = frozenset(pattern.order)
        pattern.index = dict(zip(pattern.order, range(len(pattern.order))))
        return pattern

    def is_closed(self):
        """(i, j), (j, k) in P imply (i, k) in P: for each (i, j) in P, the
        columns of row j lie among those of row i.  One set inclusion per
        position, not O(|P|^2) pairs.  A pattern that holds all
        n(n - 1)/2 positions of u_n contains every (i, k), so it is closed
        with no inclusion to test."""
        if len(self.positions) == self.n * (self.n - 1) // 2:
            return True
        by_row, empty = {}, frozenset()
        for i, j in self.order:
            by_row.setdefault(i, set()).add(j)
        return all(by_row.get(j, empty) <= by_row[i] for i, j in self.order)

    def __contains__(self, pos):
        return pos in self.positions

    def __len__(self):
        return len(self.positions)

    def __eq__(self, other):
        if self is other:
            return True
        return (isinstance(other, Pattern)
                and self.n == other.n and self.positions == other.positions)

    def __hash__(self):
        return hash((self.n, self.positions))

    def __repr__(self):
        return f"Pattern(n={self.n}, {len(self.positions)} positions)"


class NilMatrix:
    """A strictly upper triangular matrix supported on a pattern; entries
    are stored as nonzero field-element encodings."""

    __slots__ = ("pattern", "field", "entries", "_rows")

    def __init__(self, pattern, field, entries):
        clean = {}
        for pos, c in entries.items():
            if pos not in pattern.positions:
                raise ValueError(f"entry at {pos} outside the pattern")
            c = int(c)
            if c:
                clean[pos] = c
        self.pattern = pattern
        self.field = field
        self.entries = clean
        self._rows = None

    @classmethod
    def _of(cls, pattern, field, entries):
        """A matrix on nonzero int entries, not cleaned again; an entry
        outside the pattern still raises."""
        if not pattern.positions.issuperset(entries):
            return cls(pattern, field, entries)
        mat = cls.__new__(cls)
        mat.pattern, mat.field, mat.entries, mat._rows = \
            pattern, field, entries, None
        return mat

    @classmethod
    def zero(cls, pattern, field):
        return cls(pattern, field, {})

    @classmethod
    def elementary(cls, pattern, field, i, j, c=1):
        return cls(pattern, field, {(i, j): c})

    def rows(self):
        if self._rows is None:
            rows = {}
            for (i, j), c in self.entries.items():
                rows.setdefault(i, []).append((j, c))
            self._rows = rows
        return self._rows

    def _same(self, other):
        if self.pattern is other.pattern and self.field is other.field:
            return
        if self.pattern != other.pattern or self.field != other.field:
            raise ValueError("pattern/field mismatch")

    def __add__(self, other):
        self._same(other)
        f = self.field
        out = dict(self.entries)
        for pos, c in other.entries.items():
            s = f.add(out.get(pos, 0), c)
            if s:
                out[pos] = s
            else:
                out.pop(pos, None)
        return NilMatrix(self.pattern, self.field, out)

    def __neg__(self):
        f = self.field
        return NilMatrix(self.pattern, self.field,
                         {pos: f.neg(c) for pos, c in self.entries.items()})

    def __sub__(self, other):
        return self + (-other)

    def scale(self, c):
        c = int(c)
        f = self.field
        return NilMatrix(self.pattern, self.field,
                         {pos: f.mul(c, v) for pos, v in self.entries.items()})

    def __matmul__(self, other):
        self._same(other)
        f = self.field
        out = {}
        rows = other.rows()
        prime, p = f.e == 1, f.p  # over F_p the arithmetic is inline
        for (i, k), a in self.entries.items():
            for j, b in rows.get(k, ()):
                pos = (i, j)
                s = ((out.get(pos, 0) + a * b) % p if prime
                     else f.add(out.get(pos, 0), f.mul(a, b)))
                if s:
                    out[pos] = s
                else:
                    out.pop(pos, None)
        return NilMatrix._of(self.pattern, f, out)

    def power(self, k):
        result = None
        for _ in range(k):
            result = self if result is None else result @ self
        if result is None:
            raise ValueError("power(0) of a nilpotent matrix is not nilpotent")
        return result

    def is_zero(self):
        return not self.entries

    def coeff(self, i, j):
        return self.entries.get((i, j), 0)

    def key(self):
        return tuple(sorted(self.entries.items()))

    def vector(self):
        """Sparse coordinates over the row-major position order."""
        idx = self.pattern.index
        return {idx[pos]: c for pos, c in self.entries.items()}

    @classmethod
    def from_vector(cls, pattern, field, vec):
        order = pattern.order
        return cls(pattern, field, {order[k]: c for k, c in vec.items() if c})

    def __eq__(self, other):
        return (isinstance(other, NilMatrix)
                and self.pattern == other.pattern
                and self.field == other.field
                and self.entries == other.entries)

    def __hash__(self):
        return hash((self.pattern.n, self.field.q, self.key()))

    def __repr__(self):
        return f"NilMatrix({dict(sorted(self.entries.items()))})"


def nonzero_products(left, right):
    """Yield (a, b, left[a] @ right[b]) for the pairs of matrices whose
    product can be nonzero: some column index of left[a] is a row index of
    right[b].  Every pair skipped has the zero matrix as its product.  The
    pairs come in order of a, then of b."""
    by_row = {}
    for b, w in enumerate(right):
        for k in w.rows():
            by_row.setdefault(k, []).append(b)
    for a, u in enumerate(left):
        for b in sorted({b for (_, k) in u.entries
                         for b in by_row.get(k, ())}):
            yield a, b, u @ right[b]


class GroupElement:
    """An element 1 + X of the algebra group attached to a pattern algebra."""

    __slots__ = ("body", "_inverse")

    def __init__(self, body):
        self.body = body
        self._inverse = None

    @classmethod
    def identity(cls, pattern, field):
        return cls(NilMatrix.zero(pattern, field))

    def __mul__(self, other):
        x, y = self.body, other.body
        return GroupElement(x + y + (x @ y))

    def inverse(self):
        # (1+X)^(-1) = 1 - X + X^2 - X^3 + ..., summed once per element;
        # the inverse links back here, so inverting it again costs nothing
        if self._inverse is None:
            x = self.body
            acc = -x
            term = -x
            while not term.is_zero():
                term = -(term @ x)
                acc = acc + term
            inv = GroupElement(acc)
            inv._inverse = self
            self._inverse = inv
        return self._inverse

    def order(self):
        k = 1
        g = self
        while not g.body.is_zero():
            g = g * self
            k += 1
        return k

    def key(self):
        return self.body.key()

    def __eq__(self, other):
        return isinstance(other, GroupElement) and self.body == other.body

    def __hash__(self):
        return hash(self.body)

    def __repr__(self):
        return f"GroupElement(1 + {dict(sorted(self.body.entries.items()))})"


# ---------------------------------------------------------------------------
# sparse linear algebra over F_q; rows are dicts {column index: encoding}


def rref(rows, field):
    """Reduced row echelon form; returns rows sorted by pivot column.

    Pivot rows are kept fully inter-reduced: each pivot row is 1 at its
    pivot and 0 at every other pivot column.  An incoming row is therefore
    cleared against all of its pivot hits in one pass: subtracting one
    pivot row leaves the row's entries at the other hits unchanged.

    users[c] is the set of pivot columns whose rows have an entry in the
    non-pivot column c (the column lists of structured Gaussian
    elimination: LaMacchia and Odlyzko, "Solving large sparse linear
    systems over finite fields", CRYPTO '90).  A new pivot c reduces only
    the rows users.pop(c), so a row costs its entries plus those of the
    pivot rows it hits, and a new pivot its entries times the number of
    earlier rows that use its column, with no scan over all pivots.

    Over a prime field (field.e == 1, checked once per call) the
    arithmetic is inline on ints, with delayed reduction (Dumas, Giorgi and
    Pernet, ACM TOMS 35(3), 2008): all of a row's hits are known up front,
    so the products v w are added up and the row is reduced mod p once.
    Back-reduction reduces entry by entry, so that users stays exact.
    """
    prime, p, sub, mul = field.e == 1, field.p, field.sub, field.mul
    pivots = {}
    users = {}
    for row in rows:
        row = {c: v for c, v in row.items() if v}
        hits = [(c, v) for c, v in row.items() if c in pivots]
        if prime:
            if hits:
                for c, v in hits:
                    for k, w in pivots[c].items():
                        row[k] = row.get(k, 0) - v * w
                row = {k: r for k, s in row.items() if (r := s % p)}
        else:
            for c, v in hits:
                for k, w in pivots[c].items():
                    s = sub(row.get(k, 0), mul(v, w))
                    if s:
                        row[k] = s
                    else:
                        del row[k]
        if not row:
            continue
        c = min(row)
        if not prime:
            inv = field.inv(row[c])
            row = {k: mul(inv, v) for k, v in row.items()}
        elif row[c] != 1:
            inv = pow(row[c], p - 2, p)
            row = {k: inv * v % p for k, v in row.items()}
        to_reduce = users.pop(c, ())
        for k in row:
            if k != c:
                users.setdefault(k, set()).add(c)
        for c2 in to_reduce:
            prow = pivots[c2]
            factor = prow[c]
            for k, v in row.items():
                s = ((prow.get(k, 0) - factor * v) % p if prime
                     else sub(prow.get(k, 0), mul(factor, v)))
                if s:
                    prow[k] = s
                    users[k].add(c2)
                else:
                    del prow[k]
                    if k != c:
                        users[k].discard(c2)
        pivots[c] = row
    return [pivots[c] for c in sorted(pivots)]


def combine_rows(coeffs, rows, field):
    """sum_a coeffs[a] * rows[a] for sparse coefficients {a: c}, sparse.
    Over a prime field (field.e == 1, checked once per call) each update is
    inline int arithmetic mod p: most calls combine a row or two, where
    reducing each sum once at the end costs more than it saves."""
    out = {}
    prime, p = field.e == 1, field.p
    for a, ca in coeffs.items():
        for c, v in rows[a].items():
            s = ((out.get(c, 0) + ca * v) % p if prime
                 else field.add(out.get(c, 0), field.mul(ca, v)))
            if s:
                out[c] = s
            else:
                out.pop(c, None)
    return out


def transpose(rows, width):
    """The columns of sparse rows with the given number of columns, as
    sparse rows."""
    cols = [{} for _ in range(width)]
    for a, row in enumerate(rows):
        for c, v in row.items():
            cols[c][a] = v
    return cols


def null_space(constraint_rows, width, field):
    """A basis of {x in F_q^width : sum_c r[c] x[c] = 0 for every row r},
    in reduced row-echelon form, one vector per free column f.

    The constraints are reduced with each pivot at its row's largest
    column (rref on the relabelled columns width - 1 - c).  A pivot row
    then reads x_pivot = -sum r[c] x_c over free columns c < pivot, so
    the vector of f is 1 at f, 0 at every other free column, and nonzero
    only at pivots greater than f: its leading 1 is at f, and the free
    columns are the kernel's pivots.  The vectors come in order of f."""
    last = width - 1
    reduced = rref([{last - c: v for c, v in r.items()}
                    for r in constraint_rows], field)
    neg = field.p.__sub__ if field.e == 1 else field.neg  # p - v for v != 0
    pivot_rows = {last - min(r): r for r in reduced}
    basis = {c: {c: 1} for c in range(width) if c not in pivot_rows}
    for pivot, r in pivot_rows.items():
        for c, v in r.items():  # reduced: other entries are free columns
            if last - c != pivot:
                basis[last - c][pivot] = neg(v)
    return list(basis.values())


def left_kernel(rows, width, field):
    """A basis of the coefficient vectors c with sum_a c[a] * rows[a] = 0,
    for rows with the given number of columns."""
    return null_space(transpose(rows, width), len(rows), field)


def sparse_column(vec):
    """The nonzero entries of a dense vector, as a sparse column
    [(k, c), ...]."""
    return [(k, c) for k, c in enumerate(vec) if c]


def apply_columns(field, columns, vec, start):
    """start + sum_b vec[b] * column over the (b, column) pairs of
    columns, as a tuple, for sparse columns; start must be reduced.  A
    column left out of the pairs is zero, and one whose coefficient vec[b]
    is zero is never read.  Over a prime field only the entries a column
    touches are reduced."""
    acc = list(start)
    if field.e == 1:
        p = field.p
        for b, column in columns:
            c = vec[b]
            if c:
                for k, v in column:
                    acc[k] = (acc[k] + c * v) % p
        return tuple(acc)
    add, mul = field.add, field.mul
    for b, column in columns:
        c = vec[b]
        if c:
            for k, v in column:
                acc[k] = add(acc[k], mul(c, v))
    return tuple(acc)


class Subspace:
    """An F_q-subspace of a pattern coordinate space in canonical reduced
    row-echelon form."""

    __slots__ = ("pattern", "field", "rows", "pivots", "_mats", "_tails",
                 "_pivot_index")

    def __init__(self, pattern, field, rows):
        self.pattern = pattern
        self.field = field
        # each row a dict, or a (column, value) tuple sorted already
        self.rows = tuple(r if type(r) is tuple else tuple(sorted(r.items()))
                          for r in rows)
        self.pivots = tuple(r[0][0] for r in self.rows)
        self._mats = None
        self._tails = None
        self._pivot_index = None

    @classmethod
    def from_vectors(cls, pattern, field, vectors):
        return cls(pattern, field, rref(list(vectors), field))

    @classmethod
    def from_matrices(cls, pattern, field, mats):
        return cls.from_vectors(pattern, field, [m.vector() for m in mats])

    @classmethod
    def zero(cls, pattern, field):
        return cls(pattern, field, [])

    @classmethod
    def full(cls, pattern, field):
        return cls(pattern, field,
                   [((k, 1),) for k in range(len(pattern.order))])

    @property
    def dim(self):
        return len(self.rows)

    def row_dicts(self):
        return [dict(r) for r in self.rows]

    def tails(self):
        """{pivot column: the row's entries off its pivot}, built once;
        callers must not mutate the dicts.  The rows are reduced, so each
        is the unit vector at its pivot plus a tail with no pivot column."""
        if self._tails is None:
            self._tails = {r[0][0]: dict(r[1:]) for r in self.rows}
        return self._tails

    def pivot_index(self):
        """{pivot column: the number of its row}, built once; callers must
        not mutate it."""
        if self._pivot_index is None:
            self._pivot_index = {c: a for a, c in enumerate(self.pivots)}
        return self._pivot_index

    def basis_matrices(self):
        if self._mats is None:
            order = self.pattern.order
            self._mats = tuple(
                NilMatrix._of(self.pattern, self.field,
                              {order[c]: v for c, v in r})
                for r in self.rows)
        return self._mats

    def _pivot_entries(self, vec):
        """vec's nonzero entries at the pivots, or None if vec lies off the
        span.  A member is the combination of the rows whose coefficients
        are its pivot entries, so its entries off the pivots are that
        combination of the tails."""
        tails = self.tails()
        at_pivots, off = {}, {}
        for c, v in vec.items():
            if v:
                (at_pivots if c in tails else off)[c] = v
        if combine_rows(at_pivots, tails, self.field) != off:
            return None
        return at_pivots

    def contains_vector(self, vec):
        return self._pivot_entries(vec) is not None

    def annihilator(self):
        """The covectors that cut the subspace out, as sparse dicts
        {column: value}, one per non-pivot column c in order of c:
        x -> x[c] - sum over the rows of x[pivot] * (row entry at c).  The
        rows are reduced, so a vector lies in the span iff it is the
        combination of the rows by its pivot entries, that is, iff every
        one of these covectors vanishes on it."""
        neg = self.field.p.__sub__ if self.field.e == 1 else self.field.neg
        pivots = set(self.pivots)
        covectors = {c: {c: 1} for c in range(len(self.pattern.order))
                     if c not in pivots}
        for row in self.rows:
            pivot = row[0][0]
            for c, v in row[1:]:
                covectors[c][pivot] = neg(v)
        return list(covectors.values())

    def contains(self, mat):
        return self.contains_vector(mat.vector())

    def coordinates(self, mat):
        """Coefficients of mat over the echelon basis, or None."""
        at_pivots = self._pivot_entries(mat.vector())
        if at_pivots is None:
            return None
        return [at_pivots.get(c, 0) for c in self.pivots]

    def matrix(self, coeffs):
        """The matrix with the given coefficients over the echelon basis;
        the inverse of coordinates."""
        at_pivots = {c: x for c, x in zip(self.pivots, coeffs) if x}
        vec = combine_rows(at_pivots, self.tails(), self.field)
        vec.update(at_pivots)
        return NilMatrix.from_vector(self.pattern, self.field, vec)

    def is_subspace_of(self, other):
        return all(other.contains_vector(dict(r)) for r in self.rows)

    def sum_with(self, other):
        return Subspace.from_vectors(
            self.pattern, self.field,
            self.row_dicts() + other.row_dicts())

    def restrict_to_zero(self, coords):
        """The subspace of vectors vanishing on the given coordinates."""
        col_pos = {c: k for k, c in enumerate(sorted(set(coords)))}
        mrows = [{col_pos[c]: v for c, v in row if c in col_pos}
                 for row in self.rows]
        return self.span_of(left_kernel(mrows, len(col_pos), self.field))

    def span_of(self, combos):
        """The span of the combinations sum_a k[a] * rows[a], for combos in
        reduced echelon form (as null_space gives them), with no
        elimination: K R is then reduced echelon too, row f being rows[a_f]
        plus later rows, 0 at the other pivots.  A unit combination {a: 1}
        is rows[a] itself, and on the full space, whose rows are the unit
        vectors, each combination is its own row."""
        rows, field = self.rows, self.field
        full = len(rows) == len(self.pattern.order)
        return Subspace(self.pattern, field, [
            rows[next(iter(k))] if len(k) == 1 else k if full
            else combine_rows(k, {a: dict(rows[a]) for a in k}, field)
            for k in combos])

    def __eq__(self, other):
        if self is other:
            return True
        return (isinstance(other, Subspace)
                and self.pattern == other.pattern
                and self.field == other.field
                and self.rows == other.rows)

    def __hash__(self):
        return hash((self.pattern.n, self.field.q, self.rows))

    def __repr__(self):
        return f"Subspace(dim={self.dim} of {len(self.pattern.order)})"


def solution_space(pattern, field, constraint_rows):
    """Kernel of the linear constraints (rows over position coordinates);
    null_space returns it in reduced echelon form."""
    return Subspace(pattern, field,
                    null_space(constraint_rows, len(pattern.order), field))


# ---------------------------------------------------------------------------
# nilpotent algebras with a distinguished basis


class NilAlgebra:
    """A nilpotent associative algebra realized inside a pattern coordinate
    space: either the pattern algebra itself or a subalgebra given by an
    echelon basis.  Basis, coordinates and group elements come from the
    echelon span for both kinds; for a pattern algebra the span is
    Subspace.full, whose basis is the e_ij in pattern order."""

    __slots__ = ("pattern", "field", "span", "is_pattern", "_generators",
                 "_products")

    def __init__(self, pattern, field, span, is_pattern):
        self.pattern = pattern
        self.field = field
        self.span = span
        self.is_pattern = is_pattern
        self._generators = None
        self._products = None

    @classmethod
    def pattern_algebra(cls, pattern, field):
        if not pattern.is_closed():
            raise ValueError("pattern is not closed")
        return cls(pattern, field, Subspace.full(pattern, field), True)

    @classmethod
    def from_subspace(cls, span, field):
        """The algebra on span, unchecked: a caller that needs closure
        calls is_closed_under_products and raises its own error."""
        return cls(span.pattern, field, span, False)

    @property
    def dim(self):
        return self.span.dim

    @property
    def size(self):
        return self.field.q**self.span.dim

    def basis(self):
        return self.span.basis_matrices()

    def is_closed_under_products(self):
        basis = self.basis()
        return all(self.span.contains(uv)
                   for _, _, uv in nonzero_products(basis, basis))

    def is_commutative(self):
        """u v = v u on every basis pair; a pair whose product is zero in
        one order is yielded in the other, if that product can be nonzero."""
        basis = self.basis()
        return all(uv == basis[b] @ basis[a]
                   for a, b, uv in nonzero_products(basis, basis))

    def basis_products(self):
        """The nonzero products of basis() as (a, b, column) triples, column
        the sparse coordinates (`sparse_column`) of u_a u_b, in the order of
        `nonzero_products`; built once.  The coordinates of X Y are
        sum x_a y_b column over the triples."""
        if self._products is None:
            basis = self.basis()
            self._products = tuple(
                (a, b, sparse_column(self.coordinates(uv)))
                for a, b, uv in nonzero_products(basis, basis)
                if not uv.is_zero())
        return self._products

    def coordinates(self, mat):
        coords = self.span.coordinates(mat)
        if coords is None:
            raise ValueError("matrix lies outside the algebra")
        return coords

    def identity(self):
        return GroupElement.identity(self.pattern, self.field)

    def enumerate_group(self, cap=DEFAULT_CAP):
        """All q^dim elements of 1 + algebra: the i-th is
        1 + span.matrix(c) for the i-th c of
        itertools.product(range(q), repeat=dim), so its coordinates over
        basis() are that c."""
        if self.size > cap:
            raise CapExceeded(f"group of size {self.size} exceeds cap {cap}")
        matrix = self.span.matrix
        for coeffs in itertools.product(range(self.field.q), repeat=self.dim):
            yield GroupElement(matrix(coeffs))

    def group_generators(self):
        """Generators of the group 1 + A, as a tuple built once: the
        elements 1 + t u for t in an F_p-basis of F_q and u in a set U of
        algebra elements.

        For a subspace algebra, U is the union of the echelon bases of the
        powers A ⊇ A^2 ⊇ A^3 ⊇ ..., where A^(k+1) = span(A^k A).  These
        generate 1 + A, by downward induction on k.  Let H be the
        subgroup they generate, and suppose 1 + A^(k+1) ⊆ H (true once
        A^(k+1) = 0).  For a, b in A^k, (1 + a)(1 + b) = 1 + a + b + ab
        with ab in A^(2k) ⊆ A^(k+1), so 1 + a -> a + A^(k+1) is a group
        homomorphism from 1 + A^k onto the additive group A^k / A^(k+1),
        with kernel 1 + A^(k+1).  Write a in A^k as sum c_(t,u) t u with
        integers c in [0, p), over the basis u of A^k; then the product of
        the (1 + t u)^c is an element of H with the same image a + A^(k+1),
        so 1 + a lies in H (1 + A^(k+1)) = H.  Hence 1 + A^k ⊆ H, and at
        k = 1, H = 1 + A.

        For a pattern algebra, U holds the e_ij whose position (i, j) is
        not the product of two positions (i, l), (l, j) of the pattern.
        The commutator of 1 + a e_il and 1 + b e_lj is 1 + ab e_ij, so by
        induction on j - i the generated group contains 1 + c e_ij for
        every position and every c in F_q.  Those elements generate 1 + A
        by the argument above, because the e_ij contain a basis of each
        power (a product of elementary matrices is elementary or zero)."""
        if self._generators is not None:
            return self._generators
        basis = self.basis()
        # kept: n - 1 units on u_n, not the n(n - 1)/2 of the echelon powers;
        # the coadjoint BFS and generator_rows cost grows with the unit count
        if self.is_pattern:
            pos = self.pattern.positions
            units = [u for (i, j), u in zip(self.pattern.order, basis)
                     if not any((i, k) in pos and (k, j) in pos
                                for k in range(i + 1, j))]
        else:
            units = list(basis)
            seen = {u.key() for u in units}
            power = self.span
            while power.dim:
                power = Subspace.from_matrices(
                    self.pattern, self.field,
                    [uv for _, _, uv in nonzero_products(
                        power.basis_matrices(), basis)])
                for u in power.basis_matrices():
                    if u.key() not in seen:
                        seen.add(u.key())
                        units.append(u)
        self._generators = tuple(GroupElement(u.scale(t)) for u in units
                                 for t in self.field.prime_basis())
        return self._generators

    def __repr__(self):
        kind = "pattern" if self.is_pattern else "subspace"
        return f"NilAlgebra({kind}, dim={self.dim}, q={self.field.q})"


# ---------------------------------------------------------------------------
# truncated exponential / logarithm


def trunc_exp(mat):
    """Exp(X) = 1 + X + X^2/2! + ... + X^(p-1)/(p-1)!."""
    field = mat.field
    p = field.p
    acc = NilMatrix.zero(mat.pattern, field)
    term = None
    fact = 1
    for k in range(1, p):
        term = mat if term is None else term @ mat
        if term.is_zero():
            break
        fact = (fact * k) % p
        acc = acc + term.scale(field.inv(field.from_int(fact)))
    return GroupElement(acc)


# ---------------------------------------------------------------------------
# ideals, subalgebras, quotients


def ideal_check(sub, ambient):
    """Classify sub inside the ambient algebra by basis products.

    Returns one of "two-sided-ideal", "right-ideal", "subalgebra", "none".
    ambient may be a NilAlgebra or a Subspace (treated as an algebra basis).
    Only the structurally nonzero products are formed (`nonzero_products`);
    the others are zero and lie in sub.
    """
    amb_basis = ambient.basis() if isinstance(ambient, NilAlgebra) \
        else ambient.basis_matrices()
    sub_basis = sub.basis_matrices()

    def absorbs(left, right):
        return all(sub.contains(uv)
                   for _, _, uv in nonzero_products(left, right))

    right = absorbs(sub_basis, amb_basis)
    left = absorbs(amb_basis, sub_basis)
    if right and left:
        return "two-sided-ideal"
    if right:
        return "right-ideal"
    if absorbs(sub_basis, sub_basis):
        return "subalgebra"
    return "none"


def products_vanish_on(left, right, covectors):
    """Whether c(u v) = 0 for every u in the basis of the subspace left,
    every v in the basis of right and every covector c, a sparse dict
    {column: value} over the pattern's position order.

    No matrix product is formed: c(u v) is the sum of
    u[i, j] * v[j, k] * c[i, k] over c's positions (i, k) and every j.
    The echelon rows of left are indexed by matrix row i, those of right
    by matrix column k and then by j, and each covector adds the terms up
    per basis pair (a, b).  Over a prime field (field.e == 1, checked once
    per call) the sums are reduced mod p once, at the end of a covector.

    With the covectors of `Subspace.annihilator`, this holds for (S, S)
    iff S is closed under products.  With the unit covectors at a set P of
    positions it says that every u v vanishes on P: for h the vectors of a
    closed S that vanish on P, h is a two-sided ideal of S iff that holds
    for (S, h) and for (h, S).  `ideal_check` and
    `NilAlgebra.is_closed_under_products` are the product-based
    oracles."""
    field, order = left.field, left.pattern.order
    by_row = {}  # i -> [(a, [(j, u_a[i, j]), ...]), ...]
    for a, row in enumerate(left.rows):
        slices = {}
        for c, x in row:
            i, j = order[c]
            slices.setdefault(i, []).append((j, x))
        for i, piece in slices.items():
            by_row.setdefault(i, []).append((a, piece))
    by_col = {}  # k -> {j: [(b, v_b[j, k]), ...]}
    for b, row in enumerate(right.rows):
        for c, y in row:
            j, k = order[c]
            by_col.setdefault(k, {}).setdefault(j, []).append((b, y))
    width = right.dim
    prime, p, add, mul = field.e == 1, field.p, field.add, field.mul
    for covector in covectors:
        sums = {}  # a * width + b -> the partial c(u_a v_b)
        for c, w in covector.items():
            i, k = order[c]
            column = by_col.get(k)
            if column is None:
                continue
            for a, piece in by_row.get(i, ()):
                base = a * width
                for j, x in piece:
                    entries = column.get(j)
                    if entries is None:
                        continue
                    if prime:
                        xw = x * w
                        for b, y in entries:
                            key = base + b
                            sums[key] = sums.get(key, 0) + xw * y
                    else:
                        xw = mul(x, w)
                        for b, y in entries:
                            key = base + b
                            sums[key] = add(sums.get(key, 0), mul(xw, y))
        if any(s % p for s in sums.values()) if prime else any(sums.values()):
            return False
    return True


@dataclass(frozen=True)
class Projection:
    """The projection maps of a vector-space splitting ambient = sub + ideal
    with sub a subalgebra and ideal a two-sided ideal."""

    sub: Subspace
    ideal: Subspace

    def project_matrix(self, mat):
        coords = _split_coordinates(self.sub, self.ideal, mat)
        return self.sub.matrix(coords[: self.sub.dim])

    def project_group(self, g):
        return GroupElement(self.project_matrix(g.body))


def _split_coordinates(sub, ideal, mat):
    """The coefficients of mat over the echelon rows of sub, then of ideal.
    The sum is direct, so the relations among those rows and mat span at
    most one dimension, and mat lies in the sum iff a relation involves
    it: c * mat + sum_a c_a row_a = 0 gives mat = sum_a (-c_a / c) row_a."""
    field = sub.field
    rows = sub.row_dicts() + ideal.row_dicts() + [mat.vector()]
    last = len(rows) - 1
    for relation in left_kernel(rows, len(sub.pattern.order), field):
        c = relation.get(last)
        if c:
            factor = field.neg(field.inv(c))
            return [field.mul(factor, relation.get(a, 0))
                    for a in range(last)]
    raise ValueError("matrix is outside the direct sum")


def quotient_project(ambient, sub, ideal):
    """Projection onto the subalgebra along the ideal; requires
    ambient = sub (+) ideal as vector spaces."""
    ambient_span = ambient.span if isinstance(ambient, NilAlgebra) else ambient
    if sub.sum_with(ideal).dim != sub.dim + ideal.dim:
        raise ValueError("decomposition is not direct")
    if sub.sum_with(ideal) != ambient_span:
        raise ValueError("sub + ideal does not span the ambient space")
    if ideal_check(ideal, ambient_span) != "two-sided-ideal":
        raise ValueError("complement is not a two-sided ideal")
    if not NilAlgebra.from_subspace(sub, sub.field).is_closed_under_products():
        raise ValueError("subspace is not closed under products")
    return Projection(sub, ideal)
