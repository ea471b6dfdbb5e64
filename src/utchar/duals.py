"""Dual functionals on a nilpotent algebra, the left/right/coadjoint group
actions, orbit enumeration, quasi-monomial structure, shapes, and the
diagonal torus action."""

from __future__ import annotations

import itertools
from collections import deque

from .algebra import (DEFAULT_CAP, CapExceeded, VerificationFailed,
                      apply_columns, sparse_column)


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
        """Sparse {position: coefficient}; pattern algebras only."""
        if not self.algebra.is_pattern:
            raise ValueError("entries() requires a pattern algebra")
        order = self.algebra.pattern.order
        return {order[k]: v for k, v in enumerate(self.values) if v}

    def coeff(self, pos):
        if not self.algebra.is_pattern:
            raise ValueError("coeff() requires a pattern algebra")
        idx = self.algebra.pattern.index.get(pos)
        return 0 if idx is None else self.values[idx]

    def evaluate(self, mat):
        """lam(mat): the sum of lam_k times mat's entry at the k-th pivot of
        the algebra's span, since a member's coordinates are its pivot
        entries; ValueError if mat lies outside the algebra."""
        field = self.algebra.field
        # kept: a pattern algebra reads values by position, with no
        # membership check; the pivot route below takes about 4x as long
        # on the single-entry products of the chain's Gram matrix
        if self.algebra.is_pattern:
            idx = self.algebra.pattern.index
            acc = 0
            for pos, c in mat.entries.items():
                v = self.values[idx[pos]]
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

    def is_zero(self):
        return not any(self.values)

    def key(self):
        return self.values

    def __eq__(self, other):
        return (isinstance(other, Functional)
                and self.algebra.span == other.algebra.span
                and self.values == other.values)

    def __hash__(self):
        return hash(self.values)

    def __repr__(self):
        if self.algebra.is_pattern:
            return f"Functional({self.entries()})"
        return f"Functional(values={self.values})"


# ---------------------------------------------------------------------------
# group actions on functionals


def act_left(g, lam):
    """(g lam)(X) = lam(g^{-1} X)."""
    h = g.inverse().body  # g^{-1} - 1
    return Functional(lam.algebra, [lam.evaluate(u + h @ u)
                                    for u in lam.algebra.basis()])


def act_right(lam, g):
    """(lam g)(X) = lam(X g^{-1})."""
    h = g.inverse().body
    return Functional(lam.algebra, [lam.evaluate(u + u @ h)
                                    for u in lam.algebra.basis()])


def act_coadjoint(lam, g):
    """lam^g(X) = lam(g X g^{-1}); a right action."""
    return act_right(act_left(g.inverse(), lam), g)


# ---------------------------------------------------------------------------
# orbits


def orbit(lam, which, cap=DEFAULT_CAP):
    """The left, right, two-sided, or coadjoint orbit of lam, as a list of
    functionals sorted by key.

    A BFS from lam applies the generators of the group,
    `lam.algebra.group_generators()` (the 1 + t u over the echelon bases of
    the algebra's powers), on each side that the kind of orbit acts on;
    orbits of a group are the closures under its generators, so no other
    group element is applied.

    Every action is F_q-linear in the functional, so the move by a
    generator is f -> f + sum_k f_k c_k, with the column
    c_k = act(delta_k) - delta_k for the unit functional delta_k.  Column k
    of a move is computed, by one action, the first time a functional with
    f_k != 0 is moved, so an orbit costs at most one action per move and
    coordinate that its functionals use.  Each move keeps only its nonzero
    columns, as (k, c_k) pairs, so moving f touches only the coordinates
    that the move changes.  The BFS runs on value tuples.  More than cap
    functionals raise CapExceeded."""
    if which not in ("left", "right", "two-sided", "coadjoint"):
        raise ValueError(f"unknown orbit kind {which!r}")
    algebra = lam.algebra
    field = algebra.field
    gens = algebra.group_generators()
    if which == "left":
        acts = [lambda f, g=g: act_left(g, f) for g in gens]
    elif which == "right":
        acts = [lambda f, g=g: act_right(f, g) for g in gens]
    elif which == "coadjoint":
        acts = [lambda f, g=g: act_coadjoint(f, g) for g in gens]
    else:
        acts = [lambda f, g=g: act_left(g, f) for g in gens] + \
               [lambda f, g=g: act_right(f, g) for g in gens]
    computed = [False] * algebra.dim
    moves = [[] for _ in acts]
    seen = {lam.values}
    frontier = deque(seen)
    while frontier:
        f = frontier.popleft()
        for k, c in enumerate(f):
            if c and not computed[k]:
                computed[k] = True
                unit = [0] * algebra.dim
                unit[k] = 1
                delta = Functional(algebra, unit)
                for act, cols in zip(acts, moves):
                    moved = list(act(delta).values)
                    moved[k] = field.sub(moved[k], 1)
                    column = sparse_column(moved)
                    if column:
                        cols.append((k, column))
        for cols in moves:
            nxt = apply_columns(field, cols, f, f)
            if nxt not in seen:
                if len(seen) >= cap:
                    raise CapExceeded(f"orbit exceeds cap {cap}")
                seen.add(nxt)
                frontier.append(nxt)
    out = [Functional(algebra, values) for values in sorted(seen)]
    if which == "coadjoint":
        size = len(out)
        q = lam.algebra.field.q
        exp = 0
        while size % q == 0:
            size //= q
            exp += 1
        if size != 1 or exp % 2 != 0:
            raise VerificationFailed(
                f"coadjoint orbit size {len(out)} is not an even power of q")
    return out


def orbit_keys(functionals):
    return {f.key() for f in functionals}


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
    """Orbit of lam under all invertible diagonal conjugations; the first
    diagonal entry is fixed to 1 (scalars act trivially)."""
    algebra = lam.algebra
    n = algebra.pattern.n
    q = algebra.field.q
    if (q - 1) ** (n - 1) > cap:
        raise CapExceeded("torus orbit enumeration exceeds cap")
    seen = {}
    for tail in itertools.product(range(1, q), repeat=n - 1):
        moved = torus_act((1,) + tail, lam)
        seen.setdefault(moved.key(), moved)
    return [seen[k] for k in sorted(seen)]
