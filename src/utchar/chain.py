"""The alternating left-kernel chain of subspaces attached to a functional,
its stabilization, and the combinatorial fast path for quasi-monomial
functionals on pattern algebras.

Every step of the chain reads the form lam(XY) on the current s^i, in
the coordinates of its echelon basis.  On s^0, the algebra itself, that
is the Gram matrix B[a][b] = lam(e_a e_b), built once per chain from the
basis products that meet lam's support (`gram_matrix`); each step
restricts the last form to the next s^i, so the chain runs sparse F_q
linear algebra with no further matrix products, and each subspace costs
one elimination."""

from __future__ import annotations

from dataclasses import dataclass

from .algebra import (Subspace, VerificationFailed, combine_rows,
                      echelon_combinations, ideal_check, left_kernel,
                      null_space, transpose)
from .duals import Functional, gram_matrix, is_quasi_monomial


@dataclass
class ChainResult:
    """The ascending/descending chain 0 = l^0 <= l^1 <= ... <= s^1 <= s^0
    with its stabilization data and derived exponents; form is lam(XY) on
    the echelon basis of s_bar, as sparse rows."""

    algebra: object
    functional: Functional
    l_list: list
    s_list: list
    d: int
    form: list

    @property
    def l_bar(self):
        return self.l_list[-1]

    @property
    def s_bar(self):
        return self.s_list[-1]

    @property
    def degree_exponent(self):
        """dim n - dim l_bar; the degree of the induced character is
        q to this exponent."""
        return self.algebra.dim - self.l_bar.dim

    @property
    def norm_exponent(self):
        """dim s_bar - dim l_bar; the norm of the induced character is
        q to this exponent."""
        return self.s_bar.dim - self.l_bar.dim

    @property
    def chi_degree_exponent(self):
        return self.algebra.dim - self.l_list[1].dim

    @property
    def chi_norm_exponent(self):
        return self.s_list[1].dim - self.l_list[1].dim

    def validate(self):
        """Check the chain containments and the subalgebra/ideal laws;
        raises VerificationFailed at the first one that fails."""
        def require(ok, what):
            if not ok:
                raise VerificationFailed(f"chain check failed: {what}")

        for i in range(len(self.l_list) - 1):
            require(self.l_list[i].is_subspace_of(self.l_list[i + 1]),
                    f"l^{i} <= l^{i + 1}")
        for i in range(len(self.s_list) - 1):
            require(self.s_list[i + 1].is_subspace_of(self.s_list[i]),
                    f"s^{i + 1} <= s^{i}")
        require(self.l_bar.is_subspace_of(self.s_bar), "l_bar <= s_bar")
        for i in range(1, len(self.s_list)):
            require(ideal_check(self.s_list[i], self.s_list[i - 1]) in (
                "subalgebra", "right-ideal", "two-sided-ideal"),
                f"s^{i} is a subalgebra of s^{i - 1}")
            require(ideal_check(self.l_list[i], self.s_list[i - 1]) in (
                "right-ideal", "two-sided-ideal"),
                f"l^{i} is a right ideal of s^{i - 1}")
            require(ideal_check(self.l_list[i], self.s_list[i]) ==
                    "two-sided-ideal",
                    f"l^{i} is a two-sided ideal of s^{i}")
        return True


def gram_block(algebra, gram, space):
    """C B C^T, as sparse rows, for the Gram matrix B = gram of a form on
    the algebra basis and C the echelon basis of a subspace of the algebra
    in algebra coordinates (its rows read at the pivots of the algebra's
    span).  Entry [a][b] is the form on the a-th and b-th echelon rows."""
    field = algebra.field
    pivot_pos = algebra.span.pivot_index()
    coords = [{pivot_pos[c]: v for c, v in row if c in pivot_pos}
              for row in space.rows]
    return restrict_form(gram, coords, algebra.dim, field)


def restrict_form(form, combos, width, field):
    """K M K^T as sparse rows: the form M, on width coordinates, read on
    the vectors whose coefficients over those coordinates are the rows
    of K."""
    cols = transpose(combos, width)
    return [combine_rows(combine_rows(k, form, field), cols, field)
            for k in combos]


def chain_compute(algebra, lam):
    """Run the inductive kernel chain for lam on the algebra until the
    descending side stabilizes.

    M is the form lam(XY) on s^{i-1} over its echelon basis; on s^0 it is
    the Gram matrix B.  l^i comes from the left kernel K_l of M, and s^i
    from the K_s with K_s M K_l^T = 0 (the form against the spanning set
    K_l of l^i): the null space of the rows K_l M^T, read off one
    transpose of M.  Both kernels are reduced echelon combinations of the
    echelon rows of s^{i-1}, so their spans need no elimination
    (`echelon_combinations`), and the rows of s^i are the rows of K_s
    times those of s^{i-1}, in order; the next form is K_s M K_s^T.  The
    chain stops on s^i = s^{i-1}, so its last M is the form on s_bar."""
    if lam.algebra.span != algebra.span:
        raise ValueError("the functional lives on another algebra")
    pattern, field = algebra.pattern, algebra.field
    form = gram_matrix(lam)
    s_list = [algebra.span]
    l_list = [Subspace.zero(pattern, field)]
    for _ in range(algebra.dim + 1):
        s_prev = s_list[-1]
        rows = s_prev.row_dicts()
        l_combos = left_kernel(form, len(rows), field)
        form_t = transpose(form, len(rows))
        s_combos = null_space([combine_rows(k, form_t, field)
                               for k in l_combos], len(rows), field)
        l_list.append(echelon_combinations(pattern, field, l_combos, rows))
        s_list.append(echelon_combinations(pattern, field, s_combos, rows))
        if s_list[-1] == s_prev:
            break
        form = restrict_form(form, s_combos, len(rows), field)
    else:
        raise VerificationFailed("chain failed to stabilize")
    return ChainResult(algebra, lam, l_list, s_list, len(s_list) - 1, form)


# ---------------------------------------------------------------------------
# quasi-monomial fast path


@dataclass(frozen=True)
class QuasimonomialKernels:
    """First chain step computed combinatorially: the obstructed position
    sets and the cut-out subspaces.  perp_l also describes the right
    orbit: lam G = lam + span{e*_pos : pos in perp_l}."""

    perp_l: frozenset
    perp_s: frozenset
    l1: Subspace
    s1: Subspace


def quasimonomial_kernels(algebra, lam):
    """Combinatorial kernels for a quasi-monomial functional on a pattern
    algebra: perp_l collects positions (i, j) such that some lambda_ik != 0
    with (j, k) in the pattern; perp_s additionally requires (j, k) outside
    perp_l."""
    if not algebra.is_pattern:
        raise ValueError("fast path requires a pattern algebra")
    if not is_quasi_monomial(lam):
        raise ValueError("functional is not quasi-monomial")
    pattern, field = algebra.pattern, algebra.field
    pos = pattern.positions
    row_entry = {i: k for (i, k) in lam.entries()}
    perp_l = frozenset(
        (i, j) for (i, j) in pos
        if i in row_entry and (j, row_entry[i]) in pos)
    perp_s = frozenset(
        (i, j) for (i, j) in perp_l
        if (j, row_entry[i]) not in perp_l)

    def cut(excluded):
        # unit rows in pattern order are already in reduced echelon form
        return Subspace(pattern, field,
                        [{k: 1} for k, p in enumerate(pattern.order)
                         if p not in excluded])

    return QuasimonomialKernels(
        perp_l=perp_l,
        perp_s=perp_s,
        l1=cut(perp_l),
        s1=cut(perp_s),
    )
