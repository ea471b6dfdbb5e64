"""The large-field character construction on UT_{6r+1}(q): the defining
functional with 6r+1 entries, the block atlas of positions with its mirror
map, closed-form chain verification, the constant-diagonal abelian quotient
A_{r+1}(q), and the assembled report on degrees, norms, constituent counts,
and value fields."""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd
from operator import mul

from .algebra import (DEFAULT_CAP, NilAlgebra, NilMatrix, Pattern,
                      Subspace, VerificationFailed, ideal_check,
                      products_vanish_at, solution_space)
from .chain import chain_compute, gram_block, quasimonomial_kernels
from .characters import (ClassFunction, GroupTable, _character_sums,
                         abelian_dual, exp_kirillov, homomorphism_defect,
                         induce, kirillov, theta_lambda)
from .duals import Functional, SetPartition, gram_matrix, shape
from .scalars import CyclotomicNumber


# ---------------------------------------------------------------------------
# the defining functional


def _diagonal_run(entries, count, i0, j0, value):
    """Add value at (i0+k, j0+k) for k = 1..count."""
    for k in range(1, count + 1):
        entries[(i0 + k, j0 + k)] = value


def exotic_functional_parts(r, field):
    """The quasi-monomial part and the correction part whose difference is
    the defining functional on u_{6r+1}(q)."""
    if r < 2:
        raise ValueError("r must be >= 2")
    n = 6 * r + 1
    algebra = NilAlgebra.pattern_algebra(Pattern.full(n), field)
    plus, minus = {}, {}
    _diagonal_run(plus, r, 0, 2 * r, 1)
    _diagonal_run(plus, r, r, 4 * r + 1, 1)
    _diagonal_run(plus, r, 3 * r + 1, 5 * r + 1, 1)
    _diagonal_run(plus, r + 1, 2 * r, 3 * r, 1)
    _diagonal_run(minus, r, 0, r, 1)
    _diagonal_run(minus, r, r, 3 * r + 1, 1)
    return (Functional.from_entries(algebra, plus),
            Functional.from_entries(algebra, minus))


def exotic_shape(r, n=None):
    """Shape of the quasi-monomial part, padded with singletons above
    6r+1; it has n - 4r - 1 parts."""
    if n is None:
        n = 6 * r + 1
    if n <= 6 * r:
        raise ValueError("need n > 6r")
    parts = [{1, 2 * r + 1, 3 * r + 1, 4 * r + 1, 6 * r + 1}]
    for i in range(2, r + 1):
        parts.append({i, 2 * r + i, 3 * r + i, 5 * r + i})
    for i in range(r + 1, 2 * r + 1):
        parts.append({i, 3 * r + 1 + i})
    for i in range(6 * r + 2, n + 1):
        parts.append({i})
    return SetPartition(n, parts)


# ---------------------------------------------------------------------------
# the region atlas


def _square(n, x, y):
    return {(x + i, y + j) for i in range(1, n + 1) for j in range(1, n + 1)}


def _lower_triangle(n, x, y):
    return {(x + j, y + i) for i in range(1, n + 1) for j in range(i + 1, n + 1)}


def _upper_triangle(n, x, y):
    return {(x + i, y + j) for i in range(1, n + 1) for j in range(i + 1, n + 1)}


@dataclass(frozen=True)
class RegionAtlas:
    """Named blocks of matrix positions used by the closed-form chain: the
    lettered blocks A, B, C, D with mirror images Ap, Bp, Cp (and D itself),
    the obstruction blocks Z1..Z4 with union Z, and the fringe blocks
    Z5..Z7 with union Zp."""

    r: int
    n: int
    A: frozenset
    B: frozenset
    C: frozenset
    D: frozenset
    Ap: frozenset
    Bp: frozenset
    Cp: frozenset
    Z1: frozenset
    Z2: frozenset
    Z3: frozenset
    Z4: frozenset
    Z5: frozenset
    Z6: frozenset
    Z7: frozenset
    mirror: dict  # position -> position, defined on A | B | C | D

    @property
    def Z(self):
        return self.Z1 | self.Z2 | self.Z3 | self.Z4

    @property
    def Zp(self):
        return self.Z5 | self.Z6 | self.Z7

    @property
    def lettered(self):
        return (self.A | self.B | self.C | self.D
                | self.Ap | self.Bp | self.Cp)

    def named(self):
        return {"A": self.A, "B": self.B, "C": self.C, "D": self.D,
                "A'": self.Ap, "B'": self.Bp, "C'": self.Cp,
                "Z1": self.Z1, "Z2": self.Z2, "Z3": self.Z3, "Z4": self.Z4,
                "Z5": self.Z5, "Z6": self.Z6, "Z7": self.Z7}

    def mirror_orbits_on_d(self):
        """Cycles of the mirror map restricted to D; there are r - 1."""
        remaining = set(self.D)
        orbits = []
        while remaining:
            start = min(remaining)
            cyc = [start]
            nxt = self.mirror[start]
            while nxt != start:
                cyc.append(nxt)
                nxt = self.mirror[nxt]
            orbits.append(cyc)
            remaining -= set(cyc)
        return orbits

    def validate(self):
        """Check the block sizes and the mirror map; raises
        VerificationFailed at the first check that fails."""
        r = self.r
        named = self.named()
        flat = []
        for s in named.values():
            flat.extend(s)
        _require(len(flat) == len(set(flat)), "regions are not disjoint")
        half = (r * r - r) // 2
        _require(len(self.A) == len(self.B) == len(self.C) == half,
                 "|A|, |B|, |C| are not (r^2 - r)/2")
        _require(len(self.D) == (r * r + r) // 2 - 1,
                 "|D| is not (r^2 + r)/2 - 1")
        _require(len(self.Z) == 3 * r * r, "|Z| is not 3r^2")
        _require(len(self.Z1) == r * r + r, "|Z1| is not r^2 + r")
        _require(len(self.Z2) == len(self.Z4) == half,
                 "|Z2|, |Z4| are not (r^2 - r)/2")
        _require(len(self.Z3) == r * r, "|Z3| is not r^2")
        mir = self.mirror
        _require(set(mir) == set(self.A | self.B | self.C | self.D),
                 "mirror is not defined exactly on A, B, C, D")
        _require(len(set(mir.values())) == len(mir),
                 "mirror is not injective")
        _require({mir[a] for a in self.A} == set(self.Ap),
                 "mirror does not map A onto A'")
        _require({mir[b] for b in self.B} == set(self.Bp),
                 "mirror does not map B onto B'")
        _require({mir[c] for c in self.C} == set(self.Cp),
                 "mirror does not map C onto C'")
        _require({mir[d] for d in self.D} == set(self.D),
                 "mirror does not map D onto itself")
        _require(len(self.mirror_orbits_on_d()) == r - 1,
                 "mirror does not have r - 1 cycles on D")
        return True


def _require(ok, what):
    if not ok:
        raise VerificationFailed(f"exotic check failed: {what}")


def build_regions(r):
    if r < 2:
        raise ValueError("r must be >= 2")
    n = 6 * r + 1
    A = _lower_triangle(r, r, 3 * r + 1)
    B = _upper_triangle(r, r, r)
    C = _lower_triangle(r, 0, r)
    Ap = _lower_triangle(r, 2 * r + 1, 3 * r + 1)
    Bp = _upper_triangle(r, 2 * r + 1, 2 * r + 1)
    Cp = _lower_triangle(r - 1, 1, 2 * r + 1) | {
        (2 * r + 1, 2 * r + i) for i in range(2, r + 1)}
    D = _upper_triangle(r, 0, 0) | {(i, 2 * r + 1) for i in range(2, r + 1)}
    # the column-(3r+1) cells of the first obstruction block sit in rows
    # r+1 .. 2r, matching the first-step kernels of the quasi-monomial part
    Z1 = _square(r, r, 2 * r) | {(r + i, 3 * r + 1) for i in range(1, r + 1)}
    Z2 = _lower_triangle(r, r, 4 * r + 1)
    Z3 = _square(r, 3 * r + 1, 4 * r + 1)
    Z4 = _lower_triangle(r, 3 * r + 1, 5 * r + 1)
    Z5 = _square(r, 0, r) - C
    Z6 = _square(r, r, 3 * r + 1) - A
    Z7 = _upper_triangle(r, 3 * r + 1, 3 * r + 1)
    mirror = {}
    for (i, j) in A:
        mirror[(i, j)] = (i + r + 1, j)
    for (i, j) in B:
        mirror[(i, j)] = (i + r + 1, j + r + 1)
    for (i, j) in C:
        mirror[(i, j)] = (i + 1, j + r + 1) if i < r else (2 * r + 1, j + r + 1)
    for (i, j) in D:
        if j < r:
            mirror[(i, j)] = (i + 1, j + 1)
        elif j == r:
            mirror[(i, j)] = (i + 1, 2 * r + 1)
        else:  # j == 2r + 1
            mirror[(i, j)] = (1, r + 2 - i)
    atlas = RegionAtlas(r=r, n=n, A=frozenset(A), B=frozenset(B),
                        C=frozenset(C), D=frozenset(D), Ap=frozenset(Ap),
                        Bp=frozenset(Bp), Cp=frozenset(Cp),
                        Z1=frozenset(Z1), Z2=frozenset(Z2), Z3=frozenset(Z3),
                        Z4=frozenset(Z4), Z5=frozenset(Z5), Z6=frozenset(Z6),
                        Z7=frozenset(Z7), mirror=mirror)
    atlas.validate()
    return atlas


def _constrained_subspace(algebra, zero_positions, mirrored_positions, atlas):
    """{X : X_pos = 0 on zero_positions, X_pos = X_mirror(pos) on
    mirrored_positions} as a canonical subspace."""
    field = algebra.field
    index = algebra.pattern.index
    rows = [{index[p]: 1} for p in zero_positions]
    for p in mirrored_positions:
        q_pos = atlas.mirror[p]
        rows.append({index[p]: 1, index[q_pos]: field.neg(1)})
    return solution_space(algebra.pattern, field, rows)


def closed_form_chain(atlas, algebra):
    """The six chain subspaces in closed form, keyed l1, l2, l3, s1, s2, s3."""
    a = atlas
    return {
        "l1": _constrained_subspace(
            algebra, a.lettered | a.Z | a.Zp, (), a),
        "l2": _constrained_subspace(
            algebra, a.B | a.Bp | a.C | a.Cp | a.D | a.Z, a.A, a),
        "l3": _constrained_subspace(
            algebra, a.D | a.Z, a.A | a.B | a.C, a),
        "s1": _constrained_subspace(algebra, a.Z, (), a),
        "s2": _constrained_subspace(algebra, a.Z, a.A | a.B, a),
        "s3": _constrained_subspace(algebra, a.Z, a.A | a.B | a.C | a.D, a),
    }


@dataclass
class TechnicalReport:
    """The checks of verify_chain_closed_forms on UT_{6r+1}(q)."""

    r: int
    q: int
    matches: dict
    dim_ambient: int
    dim_l_bar: int
    dim_s_bar: int
    stabilization: int
    final_bilinear_ok: bool
    perp_l_matches: bool
    perp_s_matches: bool

    @property
    def ok(self):
        return (all(self.matches.values()) and self.final_bilinear_ok
                and self.perp_l_matches and self.perp_s_matches)


def verify_chain_closed_forms(r, field):
    """Compare the computed kernel chain of the defining functional with
    the closed-form subspaces from the atlas, check the first-step kernels
    and the shape of the quasi-monomial part, and check that the
    corner-corrected functional nu = lam - kappa kills all products in
    s_bar: the Gram block of nu(XY) on the echelon basis of s_bar must
    vanish.  The Gram is linear in the functional, so that block vanishes
    iff lam's, the form the chain stopped on, equals kappa's."""
    atlas = build_regions(r)
    plus, minus = exotic_functional_parts(r, field)
    lam = plus - minus
    # one algebra (and one Pattern object) for the whole pipeline, so that
    # NilMatrix products take the identity fast path of _same
    algebra = lam.algebra
    closed = closed_form_chain(atlas, algebra)
    ch = chain_compute(algebra, lam)
    matches = {}
    for i in (1, 2, 3):
        matches[f"l{i}"] = (len(ch.l_list) > i
                            and ch.l_list[i] == closed[f"l{i}"])
        matches[f"s{i}"] = (len(ch.s_list) > i
                            and ch.s_list[i] == closed[f"s{i}"])
    # first step of the quasi-monomial part, combinatorially
    qk = quasimonomial_kernels(algebra, plus)
    perp_l_ok = qk.perp_l == (atlas.lettered | atlas.Z | atlas.Zp)
    perp_s_ok = qk.perp_s == atlas.Z
    _require(shape(plus) == exotic_shape(r),
             "closed-form shape differs from the computed shape")
    corner = Functional.from_entries(algebra, {(1, 2 * r + 1): 1})
    return TechnicalReport(
        r=r, q=field.q, matches=matches,
        dim_ambient=algebra.dim,
        dim_l_bar=ch.l_bar.dim, dim_s_bar=ch.s_bar.dim,
        stabilization=ch.d,
        final_bilinear_ok=ch.form == gram_block(
            algebra, gram_matrix(corner), ch.s_bar),
        perp_l_matches=perp_l_ok, perp_s_matches=perp_s_ok,
    ), ch, atlas


# ---------------------------------------------------------------------------
# the constant-diagonal algebra a_n(q) and its corner functional


def constant_diagonal_algebra(n, field):
    """a_n(q): upper triangular matrices constant along each diagonal,
    realized inside u_n(q); its algebra group is abelian."""
    pattern = Pattern.full(n)
    basis = []
    for d in range(1, n):
        basis.append(NilMatrix(
            pattern, field,
            {(i, i + d): 1 for i in range(1, n - d + 1)}))
    algebra = NilAlgebra.from_subspace(
        Subspace.from_matrices(pattern, field, basis), field)
    _require(algebra.is_closed_under_products(),
             f"a_{n}(q) is not closed under products")
    return algebra


def corner_functional(algebra):
    """kappa(X) = X_{1,n} on a constant-diagonal algebra."""
    n = algebra.pattern.n
    return Functional.from_entries(algebra, {(1, n): 1})


@dataclass
class AbelianQuotientSplit:
    """The splitting s_bar = a (+) h with a isomorphic to a_{r+1}(q), the
    isomorphism data, and the verified checks."""

    a_span: Subspace
    h_span: Subspace
    target: NilAlgebra          # a_{r+1}(q) inside u_{r+1}(q)
    checks: dict

    @property
    def ok(self):
        return all(self.checks.values())


def abelian_quotient_split(atlas, field, chain):
    """Split s_bar as a (+) h, with h a two-sided ideal and a a subalgebra
    isomorphic (as an algebra) to a_{r+1}(q), matching the corner
    functional through the isomorphism.  The atlas is the one the chain
    was verified against.  s_bar must be closed under products
    (exotic_report checks it first): the ideal test of h reads only the
    positions that cut h out of s_bar."""
    algebra = chain.algebra
    pattern = algebra.pattern
    r = atlas.r
    corner_pos = (1, 2 * r + 1)
    index = pattern.index
    # a: supported on D with mirror identifications, plus the corner
    a_span = _constrained_subspace(
        algebra, [p for p in pattern.order
                  if p not in atlas.D and p != corner_pos], atlas.D, atlas)
    # h: the part of s_bar vanishing on D and the corner
    zero_on = list(atlas.D) + [corner_pos]
    h_span = chain.s_bar.restrict_to_zero([index[p] for p in zero_on])
    checks = {}
    checks["direct_sum"] = (
        a_span.sum_with(h_span) == chain.s_bar
        and a_span.dim + h_span.dim == chain.s_bar.dim)
    # s_bar is closed, so h is a two-sided ideal iff the products of s_bar
    # and h vanish where h is cut out
    checks["h_two_sided_ideal"] = (
        products_vanish_at(chain.s_bar, h_span, zero_on)
        and products_vanish_at(h_span, chain.s_bar, zero_on))
    # a's one closure check: a subalgebra is closed under products
    checks["a_subalgebra"] = ideal_check(a_span, chain.s_bar) in (
        "subalgebra", "right-ideal", "two-sided-ideal")
    corner = Functional.from_entries(algebra, {corner_pos: 1})
    checks["corner_kills_h"] = all(
        corner.evaluate(m) == 0 for m in h_span.basis_matrices())
    # isomorphism onto a_{r+1}(q): Y_ij = X_ij for j <= r, Y_{i,r+1} = X_{i,2r+1}
    target = constant_diagonal_algebra(r + 1, field)
    tgt_pattern = target.pattern

    def iso_image(mat):
        entries = {}
        for (i, j), c in mat.entries.items():
            if j <= r:
                entries[(i, j)] = c
            elif j == 2 * r + 1 and i <= r + 1:
                entries[(i, r + 1)] = c
        return NilMatrix(tgt_pattern, field, entries)

    a_basis = a_span.basis_matrices()
    images = [iso_image(m) for m in a_basis]
    img_span = Subspace.from_matrices(tgt_pattern, field, images)
    checks["iso_linear_bijective"] = (
        img_span.dim == len(images) == target.dim
        and img_span == target.span)
    checks["iso_multiplicative"] = all(
        iso_image(u @ v) == images[iu] @ images[iv]
        for iu, u in enumerate(a_basis) for iv, v in enumerate(a_basis))
    kappa = corner_functional(target)
    checks["corner_matches_kappa"] = all(
        kappa.evaluate(images[iu]) == corner.evaluate(u)
        for iu, u in enumerate(a_basis))
    return AbelianQuotientSplit(
        a_span=a_span, h_span=h_span, target=target,
        checks=checks)


# ---------------------------------------------------------------------------
# analysis of the corner supercharacter on A_n(q)


@dataclass
class CornerReport:
    """The corner supercharacter of A_n(q) and its constituents."""

    n: int
    q: int
    p: int
    group_size: int
    chi_degree: int
    constituent_count: int
    constituents_distinct: bool
    constituents_sum_matches: bool
    max_constituent_conductor: int
    max_min_level: int
    max_element_order: int
    kirillov_is_character: bool
    kirillov_witness: object
    exp_kirillov_is_character: bool
    exp_kirillov_witness: object
    chi_formula_matches: bool

    @property
    def ok(self):
        return (self.chi_formula_matches and self.constituents_distinct
                and self.constituents_sum_matches)


def corner_character_analysis(algebra, cap=DEFAULT_CAP):
    """Decompose the corner supercharacter of the abelian group A_n(q), for
    algebra = constant_diagonal_algebra(n, field), into linear constituents
    and test the Kirillov functions for being characters."""
    n, field = algebra.pattern.n, algebra.field
    group = GroupTable.from_algebra(algebra, cap)
    kappa = corner_functional(algebra)
    ch = chain_compute(algebra, kappa)
    lgroup = GroupTable.from_subspace(algebra, ch.l_bar, cap)
    theta_on_l = theta_lambda(lgroup, kappa)
    chi = induce(theta_on_l, group)
    # closed form: q^{n-2} * theta(corner entry) on the subgroup, else 0;
    # the corner entry X_{1,n} is kappa(X), read off each coordinate tuple
    qq = field.q
    in_l = set(lgroup.coordinates_in(algebra))
    corner = theta_lambda(group, kappa).values
    formula_ok = all(
        value == (t.scale(qq ** (n - 2)) if c in in_l
                  else CyclotomicNumber.zero())
        for c, t, value in zip(group.coords, corner, chi.values))
    dual = abelian_dual(group)
    cons, sum_ok = _corner_constituents(dual, lgroup, kappa, chi)
    # the image of the character t is cyclic of order M / gcd(M, t)
    orders = {dual.modulus // gcd(dual.modulus, *t) for t in cons}
    psi = kirillov(group, kappa, cap)
    psi_defect = homomorphism_defect(psi)
    psi_exp = exp_kirillov(group, kappa, cap)
    psi_exp_defect = homomorphism_defect(psi_exp)
    return CornerReport(
        n=n, q=qq, p=field.p,
        group_size=group.size,
        chi_degree=int(chi.degree.rational_value()),
        constituent_count=len(cons),
        constituents_distinct=len(set(cons)) == len(cons),
        constituents_sum_matches=sum_ok,
        max_constituent_conductor=max(orders, default=1),
        max_min_level=max((_cyclic_value_level(order, field.p)
                           for order in orders), default=0),
        # in an abelian p-group the exponent, the largest element order,
        # is the largest order of a generator
        max_element_order=max(s.order() for s in algebra.group_generators()),
        kirillov_is_character=psi_defect is None,
        kirillov_witness=_witness_keys(psi_defect),
        exp_kirillov_is_character=psi_exp_defect is None,
        exp_kirillov_witness=_witness_keys(psi_exp_defect),
        chi_formula_matches=formula_ok,
    )


def _corner_constituents(dual, lgroup, kappa, chi):
    """The assignments of the characters of dual that restrict to
    theta_kappa on the subgroup lgroup (the constituents of
    chi = Ind theta_kappa), and whether their sum equals chi.

    Both sides are read as exponents of zeta_M, M = dual.modulus:
    theta_kappa(h) = zeta_p^t = zeta_M^(t M / p) for t = Tr kappa(h - 1),
    and the character t is zeta_M^(sum_k t_k d_k) at an element with
    normal-form digits d.  So the constituents are read off the elements
    of lgroup, and their sum is one _character_sums transform of their
    assignments over the digits of every element."""
    group = dual.group
    field = group.algebra.field
    modulus = dual.modulus
    _require(modulus % field.p == 0,
             "the group exponent is not a multiple of p")
    step = modulus // field.p
    on_l = [(dual.digits[group.index[c]],
             field.trace(kappa.evaluate_group(h)) * step)
            for h, c in zip(lgroup.elements,
                            lgroup.coordinates_in(group.algebra))]
    cons = [t for t in dual.assignments
            if all(sum(map(mul, t, d)) % modulus == e for d, e in on_l)]
    if not cons:
        return cons, False
    pairing = {m: [[t * d % modulus for d in range(m)]
                   for t in range(modulus)] for m in set(dual.structure)}
    sums = _character_sums(dual.digits, cons,
                           [pairing[m] for m in dual.structure], modulus, 1)
    return cons, ClassFunction(group, sums) == chi


def _cyclic_value_level(order, p):
    """Least i with a cyclic group of roots of unity of the given order
    inside Q(zeta_{p^i}); the order must be a power of p."""
    if order <= 2:
        return 0
    level = 0
    while order > 1:
        _require(order % p == 0, "value group order is not a p-power")
        order //= p
        level += 1
    return level


def _witness_keys(defect):
    if defect is None:
        return None
    g, h = defect
    return (g.key(), h.key())


# ---------------------------------------------------------------------------
# the assembled report


@dataclass
class ExoticReport:
    """The whole pipeline's findings at (r, q) and size n."""

    r: int
    q: int
    p: int
    n: int
    dim_ambient: int
    dim_l_bar: int
    dim_s_bar: int
    xi_degree_exponent: int
    xi_norm_exponent: int
    constituent_count: int
    constituent_degree_exponent: int
    kirillov_degree_exponent: int
    xi_set_size_exponent: int
    value_field_conductor: int
    value_field_min_level: int
    kirillov_is_character: bool
    exp_kirillov_is_character: bool
    shape: SetPartition
    technical: TechnicalReport
    split_checks: dict
    nu_central: bool
    corner: CornerReport
    provenance: dict
    notes: list

    @property
    def ok(self):
        return (self.technical.ok and all(self.split_checks.values())
                and self.nu_central and self.corner.ok)


def exotic_report(r, field, n=None, cap=DEFAULT_CAP):
    """Run the whole pipeline at size 6r+1 (reports for larger n follow by
    padding with singleton columns, which leaves every number below
    unchanged)."""
    if n is None:
        n = 6 * r + 1
    if n < 6 * r + 1:
        raise ValueError("need n > 6r")
    tech, ch, atlas = verify_chain_closed_forms(r, field)
    if not tech.ok:
        raise VerificationFailed("closed-form chain verification failed")
    # abelian_quotient_split's ideal test assumes that s_bar is closed
    _require(NilAlgebra.from_subspace(ch.s_bar, field)
             .is_closed_under_products(),
             "s_bar is not closed under products")
    split = abelian_quotient_split(atlas, field, ch)
    if not split.ok:
        raise VerificationFailed(f"quotient split failed: {split.checks}")
    algebra = ch.algebra
    # (g nu)(X) = nu(X) + nu(h X) and (nu g)(X) = nu(X) + nu(X h) with
    # h = g^-1 - 1, which runs over all of s_bar as g runs over 1 + s_bar;
    # so 1 + s_bar fixes nu on s_bar from either side iff
    # nu(s_bar s_bar) = 0: the vanishing Gram block of the final check
    nu_central = tech.final_bilinear_ok
    corner = corner_character_analysis(split.target, cap)
    dim_n = algebra.dim
    xi_deg = dim_n - ch.l_bar.dim
    xi_norm = ch.s_bar.dim - ch.l_bar.dim
    cons_deg = dim_n - ch.s_bar.dim
    q = field.q
    p = field.p
    notes = []
    expected_parts = n - 4 * r - 1
    shp = exotic_shape(r, n)
    _require(len(shp) == expected_parts,
             "shape does not have n - 4r - 1 parts")
    notes.append(
        "the two-element shape parts pair i with 3r+1+i for r < i <= 2r; "
        "pairing with 4r+1+i instead would collide with the other parts "
        "and is rejected")
    notes.append(
        "value-field conclusions for the full unitriangular group are "
        "lifted from the abelian quotient A_{r+1}(q) through a Galois "
        "argument; the quotient side is computed exactly")
    provenance = {
        "dims_and_exponents": "computed",
        "region_chain": "computed",
        "quotient_split": "computed",
        "nu_centrality": "computed",
        "corner_constituents": "computed",
        "constituent_degree": "structural identity from chain dimensions",
        "value_field_on_full_group": "lifted from the abelian quotient",
        "kirillov_character_test": "reduction chain ending in an exact "
                                   "abelian homomorphism test",
    }
    # closed-form consistency of all exponents with the chain dimensions
    _require(xi_deg == 5 * r * r - r - 1,
             "xi degree exponent is not 5r^2 - r - 1")
    _require(xi_norm == r - 1, "xi norm exponent is not r - 1")
    _require(cons_deg == 5 * r * r - 2 * r,
             "constituent degree exponent is not 5r^2 - 2r")
    # |Xi| = |G|^2 / (|L||S|) matches 2*cons_deg + (r-1)
    xi_set_exp = 2 * dim_n - ch.l_bar.dim - ch.s_bar.dim
    _require(xi_set_exp == 2 * cons_deg + (r - 1),
             "|Xi| exponent is not 2 * constituent degree + r - 1")
    return ExoticReport(
        r=r, q=q, p=p, n=n,
        dim_ambient=dim_n,
        dim_l_bar=ch.l_bar.dim,
        dim_s_bar=ch.s_bar.dim,
        xi_degree_exponent=xi_deg,
        xi_norm_exponent=xi_norm,
        constituent_count=q ** (r - 1),
        constituent_degree_exponent=cons_deg,
        kirillov_degree_exponent=cons_deg,
        xi_set_size_exponent=xi_set_exp,
        value_field_conductor=corner.max_constituent_conductor,
        value_field_min_level=corner.max_min_level,
        kirillov_is_character=corner.kirillov_is_character,
        exp_kirillov_is_character=corner.exp_kirillov_is_character,
        shape=shp,
        technical=tech,
        split_checks=split.checks,
        nu_central=nu_central,
        corner=corner,
        provenance=provenance,
        notes=notes,
    )
