"""Exact class-function machinery on enumerated algebra groups: the basis
functions theta_lambda, Kirillov functions, supercharacters, the induced
characters xi_lambda, Frobenius induction, inner products, and duals of
abelian groups."""

from __future__ import annotations

import itertools
import sys
from collections import Counter
from dataclasses import dataclass
from functools import cache, cached_property, partial
from fractions import Fraction
from math import factorial, isqrt, lcm, prod
from operator import add, eq, getitem, mul, sub

from .algebra import (DEFAULT_CAP, CapExceeded, GroupElement, NilAlgebra,
                      VerificationFailed, apply_columns, sparse_column,
                      trunc_exp)
from .chain import ChainResult, chain_compute
from .duals import orbit
from .scalars import AdditiveCharacter, CyclotomicNumber, root_of_unity_order


class GroupTable:
    """An enumerated algebra group, known by each element's coordinate
    tuple over algebra.basis(), in canonical order, with cached inverses;
    the elements as GroupElements are built only when read.

    Group products are computed on coordinates: for x = 1 + a, y -> x y
    is an affine map of the coordinates of y - 1, so each x costs one set
    of basis products and then one sparse mat-vec per element.  Only the
    generators x of algebra.group_generators() pay for that: their rows
    y -> x y (generator_rows) cost |gens| * |G| mat-vecs, every other row
    of the multiplication table is composed from them by list lookups,
    the inverses follow the generators' search tree at one mat-vec per
    element, and the conjugacy classes are the components of the
    generators' conjugation maps, read from their rows and the
    inverses by list lookups."""

    def __init__(self, algebra, elements, coords=None):
        """coords, if given, lists each element's coordinates over
        algebra.basis(), else they are computed; index maps them back.
        elements None, with coords given, stands for the elements of
        algebra.enumerate_group(), in the order of coords."""
        self.algebra = algebra
        if elements is not None:
            self.elements = list(elements)
        if coords is None:
            coords = [tuple(algebra.coordinates(g.body))
                      for g in self.elements]
        self.coords = list(coords)
        self.index = dict(zip(self.coords, itertools.count()))
        if len(self.index) != len(self.coords):
            raise ValueError("duplicate group elements")
        self._inverses = None
        self._generator_rows = None
        self._tree = None
        self._mul_table = None
        self._classes = None
        self.theta = AdditiveCharacter(algebra.field)

    @classmethod
    def from_algebra(cls, algebra, cap=DEFAULT_CAP):
        """The table of 1 + algebra, whose i-th element has the i-th
        coordinate tuple of itertools.product(range(q), repeat=dim), as in
        algebra.enumerate_group(); the elements are built when first read."""
        if algebra.size > cap:
            raise CapExceeded(f"group of size {algebra.size} exceeds cap {cap}")
        return cls(algebra, None,
                   itertools.product(range(algebra.field.q),
                                     repeat=algebra.dim))

    @cached_property
    def elements(self):
        """The elements as GroupElements, in table order; a table made by
        from_algebra enumerates them here, on first read."""
        return list(self.algebra.enumerate_group(self.size))

    def element(self, i):
        """The i-th element as a GroupElement, built from coords[i] alone."""
        return GroupElement(self.algebra.span.matrix(self.coords[i]))

    @classmethod
    def from_subspace(cls, algebra, subspace, cap=DEFAULT_CAP):
        """The algebra subgroup 1 + subspace.  The subspace is computed,
        not given, so a subspace that is not closed under products raises
        VerificationFailed."""
        sub = NilAlgebra.from_subspace(subspace, algebra.field)
        if not sub.is_closed_under_products():
            raise VerificationFailed("subspace is not closed under products")
        return cls.from_algebra(sub, cap)

    @property
    def size(self):
        return len(self.coords)

    def identity_index(self):
        return self.index[(0,) * self.algebra.dim]

    def inverses(self):
        """The index of each element's inverse, in element order; built
        once on demand.

        Along the search tree of generator_rows, an element y other than
        the identity is s x for a generator s and an element x reached
        before it, so y^{-1} = x^{-1} s^{-1}.  For s^{-1} = 1 + c,
        z -> z s^{-1} is affine on the coordinates of z - 1: its columns
        are the coordinates of u_b + u_b c, and its constant is the
        coordinates of c.  That costs one inverse series and one set of
        basis products per generator, then one sparse mat-vec per
        element."""
        if self._inverses is None:
            rows = self.generator_rows()
            coords, lookup = self.coords, self.index
            algebra = self.algebra
            basis = algebra.basis()
            maps = []
            for s in algebra.group_generators():
                c = s.inverse().body
                maps.append((_columns(algebra, [u + u @ c for u in basis]),
                             tuple(algebra.coordinates(c))))
            inverse = [None] * self.size
            inverse[self.identity_index()] = self.identity_index()
            for g, x in self._tree:
                columns, start = maps[g]
                inverse[rows[g][x]] = lookup[apply_columns(
                    algebra.field, columns, coords[inverse[x]], start)]
            self._inverses = inverse
        return self._inverses

    def index_of(self, g):
        """The index of the element g, read from its coordinates; KeyError
        if g is not in the table."""
        if g.body.pattern == self.algebra.pattern:
            coords = self.algebra.span.coordinates(g.body)
            if coords is not None:
                return self.index[tuple(coords)]
        raise KeyError(g)

    def contains(self, g):
        try:
            self.index_of(g)
        except KeyError:
            return False
        return True

    def coordinates_in(self, ambient):
        """Each element's coordinate tuple over ambient.basis(), for an
        algebra that contains this table's algebra.  The ambient
        coordinates of y - 1 are linear in its own coordinates, with the
        ambient coordinates of the basis matrices as columns: one sparse
        mat-vec per element, and none when the spans are equal."""
        if ambient.span == self.algebra.span:
            return self.coords
        columns = _columns(ambient, self.algebra.basis())
        zero = (0,) * ambient.dim
        return [apply_columns(ambient.field, columns, y, zero)
                for y in self.coords]

    def generator_rows(self):
        """For each s in algebra.group_generators(), the list whose entry y
        is the index of s y; built once on demand.

        For s = 1 + a, y -> s y is affine on the coordinates of y - 1:
        its columns are the coordinates of u_b + a u_b for the basis
        matrices u_b, and its constant is the coordinates of a.  A
        product that falls outside the element list, or an element that
        no product of generators reaches from the identity, means the
        list is not the group generated, and raises VerificationFailed.
        The search that checks the second also records, for each other
        element, the index of the generator and the element it was first
        reached from, in search order (the tree that mul_table and
        inverses follow)."""
        if self._generator_rows is None:
            coords, lookup = self.coords, self.index
            algebra = self.algebra
            basis = algebra.basis()
            rows = []
            for s in algebra.group_generators():
                a = s.body
                columns = _columns(algebra, [u + a @ u for u in basis])
                start = tuple(algebra.coordinates(a))
                try:
                    rows.append([lookup[apply_columns(algebra.field,
                                                      columns, y, start)]
                                 for y in coords])
                except KeyError:
                    raise VerificationFailed(
                        "group table is incomplete: a product falls "
                        "outside the element list") from None
            reached = [False] * self.size
            reached[self.identity_index()] = True
            tree = []
            frontier = [self.identity_index()]
            for x in frontier:  # grows as the search reaches elements
                for g, row in enumerate(rows):
                    y = row[x]
                    if not reached[y]:
                        reached[y] = True
                        tree.append((g, x))
                        frontier.append(y)
            if len(frontier) != self.size:
                raise VerificationFailed(
                    "group table is incomplete: the generators do not "
                    "reach every element")
            self._generator_rows, self._tree = rows, tree
        return self._generator_rows

    def mul_table(self):
        """index x index -> index of the product; built once on demand.

        Row 1 is the identity map, and since (s x) y = s (x y), the row of
        s x is the generator row of s read at the entries of the row of x:
        one list lookup per entry.  Along the search tree of
        generator_rows every row is reached, so the table costs the
        generator rows' |gens| * |G| mat-vecs and |G|^2 lookups."""
        if self._mul_table is None:
            rows = self.generator_rows()
            table = [None] * self.size
            table[self.identity_index()] = list(range(self.size))
            for g, x in self._tree:
                row = rows[g]
                table[row[x]] = [row[k] for k in table[x]]
            self._mul_table = table
        return self._mul_table

    def classes(self):
        """The conjugacy classes, as lists of element indices, in order of
        their least index; built once on demand.

        The classes are the connected components of the graph
        y -> x y x^{-1} for x in algebra.group_generators(), since those
        generate the group.  x y x^{-1} = (x (x y)^{-1})^{-1}, so each
        edge is four list lookups in the generator row of x and in
        inverses()."""
        if self._classes is None:
            rows = self.generator_rows()
            inverse = self.inverses()
            found = [False] * self.size
            classes = []
            for start in range(self.size):
                if found[start]:
                    continue
                found[start] = True
                members = [start]
                for y in members:  # grows as the search finds conjugates
                    for row in rows:
                        j = inverse[row[inverse[row[y]]]]
                        if not found[j]:
                            found[j] = True
                            members.append(j)
                classes.append(members)
            self._classes = classes
        return self._classes

    def is_abelian(self):
        return self.algebra.is_commutative()

    def __repr__(self):
        return f"GroupTable(size={self.size})"


def _columns(algebra, mats):
    """The (b, column) pairs, for apply_columns, of the nonzero sparse
    columns algebra.coordinates(mats[b])."""
    columns = [(b, sparse_column(algebra.coordinates(m)))
               for b, m in enumerate(mats)]
    return [(b, column) for b, column in columns if column]


class ClassFunction:
    """An exact complex-valued function on an enumerated group, stored as a
    full value table of cyclotomic numbers."""

    __slots__ = ("group", "values")

    def __init__(self, group, values):
        self.group = group
        self.values = tuple(values)
        if len(self.values) != group.size:
            raise ValueError("value table has wrong length")

    def __call__(self, g):
        return self.values[self.group.index_of(g)]

    @property
    def degree(self):
        return self.values[self.group.identity_index()]

    def _pointwise(self, op, other):
        self._same(other)
        return ClassFunction(self.group, map(op, self.values, other.values))

    def __add__(self, other):
        return self._pointwise(add, other)

    def __sub__(self, other):
        return self._pointwise(sub, other)

    def __mul__(self, other):
        return self._pointwise(mul, other)

    def scale(self, rational):
        return ClassFunction(self.group, [v.scale(rational) for v in self.values])

    def conjugate(self):
        return ClassFunction(self.group,
                             map(CyclotomicNumber.conjugate, self.values))

    def _same(self, other):
        if other.group is not self.group:
            raise ValueError("class functions live on different group tables")

    def inner(self, other):
        """<f, g> = (1/|G|) sum f(x) conj(g(x)); exact."""
        products = (self * other.conjugate()).values
        return sum(products, CyclotomicNumber.zero()).scale(
            Fraction(1, self.group.size))

    def __eq__(self, other):
        return (isinstance(other, ClassFunction)
                and self.group is other.group and self.values == other.values)

    __hash__ = None


# ---------------------------------------------------------------------------
# the basic families of functions


def theta_lambda(group, lam):
    """theta_lambda(g) = theta(lambda(g - 1)); a degree-one function.
    lambda(X) = sum_k lambda_k x_k over the coordinates x of X in lam's
    algebra, read from group.coordinates_in."""
    add, mul = lam.algebra.field.add, lam.algebra.field.mul
    support = [(k, v) for k, v in enumerate(lam.values) if v]
    th = group.theta
    values = []
    for x in group.coordinates_in(lam.algebra):
        acc = 0
        for k, v in support:
            if x[k]:
                acc = add(acc, mul(v, x[k]))
        values.append(th(acc))
    return ClassFunction(group, values)


def _character_sums(points, vectors, pairing, period, scale):
    """scale * sum over the vectors v of zeta_period^(sum_k
    pairing[k][v_k][x_k]) at each point x, as a list of cyclotomic numbers.

    The counts c_t(x) of the v with exponent t at x are a transform of the
    vectors' counts on a grid, taken one axis at a time (Yates).  Axis k
    has max(#distinct v_k, len(pairing[k][0])) slots, the v_k relabelled
    0, 1, ..., and the last axis varies fastest, as in itertools.product;
    step k rotates the counts in slot v_k by pairing[k][v_k][a] and adds
    them into slot a.  Each c_t is one integer with a digit of 8, 16, 32
    or 64 bits per position, wide enough for len(vectors), so a step is a
    batch of whole-grid shifts and masks and the cost is the grid's, for
    any subset of it as points.  The digits are read in place when the
    points are the grid in product order, and each distinct count vector
    becomes one CyclotomicNumber.from_powers."""
    counts = Counter(vectors)
    labels, slots = [], []
    for axis, table in zip(zip(*counts), pairing):
        # each distinct value of v_k -> 0, 1, ... in order
        labels.append(dict(zip(sorted(set(axis)), itertools.count())))
        slots.append(max(len(labels[-1]), len(table[0])))
    strides = [prod(slots[k + 1:]) for k in range(len(slots))]
    size, width = prod(slots), 1
    while len(vectors) >> (8 * width):
        width *= 2
    start = bytearray(size * width)
    grid = _cells(start, width)
    for v, c in counts.items():
        grid[sum(map(mul, map(getitem, labels, v), strides))] = c
    planes = [int.from_bytes(start, sys.byteorder)] + [0] * (period - 1)
    for table, lab, slot, stride in zip(pairing, labels, slots, strides):
        block, step = stride * width, stride * width * 8
        mask = int.from_bytes((b"\xff" * block + bytes(block * (slot - 1)))
                              * (size // (stride * slot)), "little")
        parts = [([(plane >> (i * step)) & mask for plane in planes],
                  table[value]) for value, i in lab.items()]
        planes = [0] * period
        for a in range(len(table[0])):
            out = [0] * period
            for part, row in parts:
                r = period - row[a]
                out = list(map(add, out, part[r:] + part[:r]))
            planes = [n + (o << (a * step)) for n, o in zip(planes, out)]
    digits = [_cells(plane.to_bytes(size * width, sys.byteorder), width)
              for plane in planes]
    if len(points) != size or not all(
            map(eq, points, itertools.product(*map(range, slots)))):
        positions = [sum(map(mul, x, strides)) for x in points]
        digits = [map(d.__getitem__, positions) for d in digits]
    value = cache(partial(CyclotomicNumber.from_powers, period, scale=scale))
    return list(map(value, zip(*digits)))


def _cells(data, width):
    """The bytes of a number as native unsigned integers of width bytes,
    its lowest digit first: a big-endian host reads a big-endian number
    from its last item back."""
    cells = memoryview(data).cast({1: "B", 2: "H", 4: "I", 8: "Q"}[width])
    return cells if sys.byteorder == "little" else cells[::-1]


def _orbit_sum(group, functionals, scale):
    """scale * sum of theta_mu over the functionals, as a table on the
    group: theta_mu(1 + Y) = zeta_p^(sum_b Tr(mu(u_b) y_b)) for the
    coordinates y of Y over group.algebra.basis(), a _character_sums
    transform on the group's own coordinate grid.  Functionals on an
    ambient algebra are first read on that basis, since theta_mu on
    1 + S is theta of mu restricted to S, so a subgroup costs its own
    size."""
    algebra = group.algebra
    field = algebra.field
    if functionals[0].algebra.span == algebra.span:
        vectors = [mu.values for mu in functionals]
    else:
        basis = algebra.basis()
        vectors = [tuple(map(mu.evaluate, basis)) for mu in functionals]
    trace = [[field.trace(field.mul(a, b)) for b in range(field.q)]
             for a in range(field.q)]
    return ClassFunction(group, _character_sums(
        group.coords, vectors, [trace] * algebra.dim, field.p, scale))


def kirillov(group, lam, cap=DEFAULT_CAP):
    """psi_lambda = |orbit|^(-1/2) * sum of theta_mu over the coadjoint
    orbit of lambda; table mode."""
    orb = orbit(lam, "coadjoint", cap)
    size = len(orb)
    root = isqrt(size)
    if root * root != size:
        raise VerificationFailed(
            f"coadjoint orbit size {size} is not a perfect square")
    return _orbit_sum(group, orb, Fraction(1, root))


def exp_kirillov(group, lam, cap=DEFAULT_CAP):
    """psi^Exp_lambda(Exp X) = psi_lambda(1 + X).  Exp X is computed on
    each element's coordinate tuple (_coordinate_exp) and looked up in
    group.index."""
    psi = kirillov(group, lam, cap)
    exp = _coordinate_exp(group.algebra)
    values = [None] * group.size
    try:
        for x, value in zip(group.coords, psi.values):
            values[group.index[exp(x)]] = value
    except KeyError:
        raise VerificationFailed("Exp maps an element outside the group") \
            from None
    if any(v is None for v in values):
        raise VerificationFailed("Exp does not map the group onto itself")
    return ClassFunction(group, values)


def _coordinate_exp(algebra):
    """The map x -> the coordinates of Exp(X) - 1, for X with coordinates x
    over algebra.basis(): X + X^2/2! + ... + X^(p-1)/(p-1)!, with
    X^k = X^(k-1) X read off the basis products u_a u_b
    (NilAlgebra.basis_products).

    trunc_exp is the definition: the map is compared with it at each
    element of algebra.group_generators() and at u_a + u_b for each basis
    product, so every product column is read, and a mismatch raises
    VerificationFailed."""
    field, dim = algebra.field, algebra.dim
    add, mul = field.add, field.mul
    # over p = 2, Exp X = 1 + X reads no products
    products = algebra.basis_products() if field.p > 2 else ()
    scales = [field.inv(factorial(k) % field.p) for k in range(2, field.p)]

    def exp(x):
        acc, term = list(x), x
        for scale in scales:  # 1/k! for k = 2, ..., p - 1
            power = [0] * dim
            for a, b, column in products:
                c = mul(term[a], x[b])
                if c:
                    for k, v in column:
                        power[k] = add(power[k], mul(c, v))
            if not any(power):
                break
            term = power
            for k, v in enumerate(power):
                if v:
                    acc[k] = add(acc[k], mul(scale, v))
        return tuple(acc)

    basis = algebra.basis()
    for mat in [s.body for s in algebra.group_generators()] + [
            basis[a] + basis[b] for a, b, _ in products]:
        want = algebra.span.coordinates(trunc_exp(mat).body)
        if want is None or tuple(want) != exp(tuple(
                algebra.coordinates(mat))):
            raise VerificationFailed(
                f"Exp on coordinates disagrees with trunc_exp at {mat}")
    return exp


def supercharacter(group, lam, cap=DEFAULT_CAP):
    """chi_lambda = (|G lam| / |G lam G|) * sum of theta_mu over the
    two-sided orbit."""
    left_size = len(orbit(lam, "left", cap))
    two = orbit(lam, "two-sided", cap)
    return _orbit_sum(group, two, Fraction(left_size, len(two)))


@dataclass
class XiData:
    """Structural data for the induced character attached to lam, plus a
    value table when the group is small enough to enumerate."""

    chain: ChainResult
    degree_exponent: int
    norm_exponent: int
    table: object = None  # ClassFunction | None


def xi(algebra, lam, group=None, cap=DEFAULT_CAP):
    """Structural report (always) and exact table (when group is given and
    the subgroup fits the cap) for the character induced from the linear
    character theta_lambda of the terminal subgroup 1 + l_bar."""
    ch = chain_compute(algebra, lam)
    data = XiData(chain=ch,
                  degree_exponent=ch.degree_exponent,
                  norm_exponent=ch.norm_exponent)
    if group is not None:
        try:
            lgroup = GroupTable.from_subspace(algebra, ch.l_bar, cap)
        except CapExceeded:
            return data
        theta_on_l = theta_lambda(lgroup, lam)
        data.table = induce(theta_on_l, group)
    return data


# ---------------------------------------------------------------------------
# induction and restriction


def induce(f, group):
    """Ind_H^G f(g) = |G| / (|H| |C|) * sum of f(h) over h in C ∩ H, where
    C is the conjugacy class of g: each h in C is x g x^{-1} for |G| / |C|
    elements x of G.

    Each class of group.classes() is summed once, and an element of C is
    found in H through the map from the ambient coordinates of H's
    elements to H's indices.  A class that misses H gets the conductor-1
    zero."""
    sub = f.group
    in_sub = dict(zip(sub.coordinates_in(group.algebra), itertools.count()))
    coords = group.coords
    values = [None] * group.size
    for members in group.classes():
        acc = CyclotomicNumber.zero()
        for i in members:
            h = in_sub.get(coords[i])
            if h is not None:
                acc = acc + f.values[h]
        value = acc.scale(Fraction(group.size, sub.size * len(members)))
        for i in members:
            values[i] = value
    return ClassFunction(group, values)


# ---------------------------------------------------------------------------
# duals of abelian algebra groups


@dataclass
class AbelianDual:
    """The complete character group of an abelian algebra group.  A
    character is its assignment t, the exponents of zeta_M at the
    generators of the normal form: it takes the value
    zeta_M^(sum_k t_k d_k) at an element with normal-form digits d."""

    group: GroupTable
    assignments: list  # per character: tuple of exponents of zeta_M, sorted
    modulus: int       # M = group exponent
    structure: list    # invariant factors, largest first
    digits: list       # per element index: its normal-form exponents

    def exponent_table(self, t):
        """The exponent of zeta_M of the character t at each element."""
        return tuple(sum(map(mul, t, d)) % self.modulus for d in self.digits)

    @cached_property
    def characters(self):
        """The characters as ClassFunctions in order of their exponent
        tables, built on first read; the corner analysis reads only the
        assignments."""
        zeta_powers = [CyclotomicNumber.zeta(self.modulus, t)
                       for t in range(self.modulus)]
        return [ClassFunction(self.group, map(zeta_powers.__getitem__, exps))
                for exps in sorted(map(self.exponent_table, self.assignments))]

    def __len__(self):
        return len(self.assignments)


def _digits(n, radices):
    """The mixed-radix digits of n, least significant first."""
    digits = []
    for m in radices:
        n, d = divmod(n, m)
        digits.append(d)
    return tuple(digits)


def abelian_dual(group):
    """Characters of an abelian group via a power-normal form over the
    generators of algebra.group_generators().

    Generators are taken greedily by maximal relative order: with H the
    subgroup of the ones taken so far, the relative order m of s is the
    order of s H in G / H, and the element s^m of H is recorded as its
    word in the earlier generators.  Every algebra group is a p-group,
    and in an abelian p-group the exponent of G / H is the largest order
    among the images of the generators, which span G / H.  An element of
    maximal order spans a direct summand, so the relative orders are the
    invariant factors, largest first, whichever generators are given.
    The characters and the modulus M (the group exponent) do not depend
    on the generators at all.

    The normal form lists the elements s_1^k_1 ... s_j^k_j, k_1 varying
    fastest, and each layer s^k H is the generator row of s read at the
    layer s^(k-1) H before it; an element's digits (k_1, ..., k_j) are the
    mixed-radix digits of its place in that list.  A character is chosen
    by solving z^m = chi(s^m) at each generator, and stored as the
    exponents t_s of its values there; no table of its values is built
    until AbelianDual.characters is first read."""
    if not group.is_abelian():
        raise VerificationFailed("group is not abelian")
    rows = group.generator_rows()
    identity = group.identity_index()
    gens = [row[identity] for row in rows]
    position = [None] * group.size  # element index -> place in normal form
    position[identity] = 0
    normal = [identity]
    rel_orders, rel_words = [], []
    modulus = 1
    while len(normal) < group.size:
        best = None
        for row, g in zip(rows, gens):
            if position[g] is not None:
                continue
            m, h = 1, g
            while position[h] is None:
                h = row[h]
                m += 1
            if best is None or m > best[0]:
                best = (m, row, h)
        if best is None:
            raise VerificationFailed("dual is incomplete")
        m, row, h = best
        word = _digits(position[h], rel_orders)
        below, layer = len(normal), normal
        for _ in range(1, m):
            layer = [row[x] for x in layer]
            normal.extend(layer)
        for i in range(below, len(normal)):
            position[normal[i]] = i
        order = m  # h = s^m
        while h != identity:
            h = row[h]
            order += 1
        rel_orders.append(m)
        rel_words.append(word)
        modulus = lcm(modulus, order)
    # assignments of exponents t_i of zeta_M to generators
    assignments = [()]
    for m, word in zip(rel_orders, rel_words):
        new_assignments = []
        for partial in assignments:
            c = sum(map(mul, word, partial)) % modulus
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
    return AbelianDual(group=group, assignments=sorted(assignments),
                       modulus=modulus, structure=rel_orders,
                       digits=[_digits(k, rel_orders) for k in position])


def constituents_of_induced_linear(dual, subgroup, f_on_subgroup):
    """The linear characters of the ambient abelian group restricting to the
    given linear character of the subgroup; these are exactly the
    constituents of its induction."""
    out = []
    for psi in dual.characters:
        if all(psi(h) == f_on_subgroup(h) for h in subgroup.elements):
            out.append(psi)
    return out


# ---------------------------------------------------------------------------
# linearity tests


def _value_exponents(f):
    """Express every table value as zeta_M^t for a common M, or None.  Each
    distinct value is analysed once, keyed by its canonical form, and its
    exponent is looked up among the zeta_M powers, both at the conductor
    lcm(M, m) for a value of conductor m."""
    orders = {}
    for v in f.values:
        key = (v.m, v.nums, v.den)
        if key not in orders:
            d = root_of_unity_order(v)
            if d is None:
                return None, None
            orders[key] = (v, d)
    modulus = lcm(*(d for _, d in orders.values()))
    tables = {}  # conductor -> {numerators of zeta_M^t there: t}
    exponent = {}
    for key, (v, _) in orders.items():
        big = lcm(modulus, v.m)
        powers = tables.get(big)
        if powers is None:
            step = big // modulus
            powers = tables[big] = {
                CyclotomicNumber.zeta(big, t * step).nums: t
                for t in range(modulus)}
        w = v.promote(big)
        t = powers.get(w.nums) if w.den == 1 else None
        if t is None:
            return None, None
        exponent[key] = t
    return [exponent[(v.m, v.nums, v.den)] for v in f.values], modulus


def homomorphism_defect(f):
    """The first pair (g, h), in the order of the group's elements, with
    f(gh) != f(g) f(h), or None.  Root-of-unity valued tables are checked
    in exponent arithmetic.

    If f(1) = 1 and f(s h) = f(s) f(h) for every generator s of
    group.generator_rows() and every h, f is a homomorphism, and None is
    returned after |gens| * |G| checks.  Proof, for any group: write
    g = s_1 ... s_k, a word in the generators (positive words suffice in a
    finite group).  By induction on k, f(g h) = f(s_1) f(s_2 ... s_k h) =
    f(s_1) ... f(s_k) f(h); at h = 1 this reads f(g) = f(s_1) ... f(s_k),
    so f(g h) = f(g) f(h).  A table with a value that is not a root of
    unity skips this test: a homomorphism with f(1) = 1 has
    f(g)^|G| = f(1) = 1 at every g, so the test could not pass.  Otherwise
    every pair of the multiplication table is scanned in order, so the
    first witness is the one an exhaustive scan finds (the zero table is
    the one homomorphism left to that scan)."""
    group = f.group
    size = group.size
    exps, modulus = _value_exponents(f)
    if exps is not None:
        identity = group.identity_index()
        if exps[identity] == 0 and not any(
                (exps[row[identity]] + e - exps[k]) % modulus
                for row in group.generator_rows()
                for e, k in zip(exps, row)):
            return None
    mul = group.mul_table()
    if exps is not None:
        for i in range(size):
            ei = exps[i]
            row = mul[i]
            for j in range(size):
                if (ei + exps[j] - exps[row[j]]) % modulus:
                    return group.element(i), group.element(j)
        return None
    values = f.values
    for i in range(size):
        fg = values[i]
        row = mul[i]
        for j in range(size):
            if values[row[j]] != fg * values[j]:
                return group.element(i), group.element(j)
    return None
