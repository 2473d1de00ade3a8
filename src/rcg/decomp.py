"""Iwasawa (KAU/UAK), Cartan (KAK) and Bruhat (BWB) decompositions of SL_n.

All three work over the tower field and over the Puiseux field.  Each
result is a product of its factors in field order, and res.certify(g) is
its one complete check over both fields: the product against g (exact over
the tower; over the Puiseux field every known term of k*a*u - g etc. must
vanish), then each factor against its subgroup predicate.  That check
costs more than a tower decomposition, so the caller that prints a result
(the CLI) pays for it.  A decomposition checks only det = 1, once per
factor, in the field where that factor was computed: a factor whose shape
or construction fixes it is built unchecked, the others by the cheapest
identity that fixes it.
- KAU and UAK: a = diag(r_j) by prod(r_j^2) = 1, the squared column norms
  of Gram-Schmidt in g's own tower; k by det(qhat) * prod(1/r_j) = 1;
  u is unitriangular.  a_component forms and certifies only a.
- KAK: a = diag(sqrt(lam_j)) by prod(lam_j) = 1 over the eigenvalues of
  g^T g; det k2 = +1 by the eigenvector frame, and det k1 follows.
- Bruhat: one row pass; b1 holds its multipliers (unitriangular), and w
  and b2 are read off its reduced rows.  det b2 = prod |pivot| > 0 and
  det w = +-1, so det g = 1 makes both 1.  certify's member_N reads
  det w = +1 off the signed permutation's shape, not a determinant.
None takes the determinant of a K or A factor, whose columns each carry
their own radical, or checks itself by a second algorithm.

The Weyl chamber A+ is realised as non-increasing diagonal (equivalently
chi_delta(a) >= 1 for the simple roots); Cartan middle factors are sorted
into it and Bruhat representatives are normalised to a positive diagonal
scale with signs absorbed into the +-1 entries of w.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from functools import reduce
from operator import mul

from .errors import DomainError, IndeterminateSign, InternalError, NoRelatingElement
from .linalg import (
    Matrix,
    PuiseuxDomain,
    TOWER,
    _all_vanish,
    _dot,
    det,
    rank,
    sym_eigen_lift,
    sym_eigen_tower,
)
from .slgroup import (
    GroupElement,
    _signed_permutation,
    _signed_permutation_det,
    member_A,
    member_B,
    member_K,
    member_N,
    member_U,
)


class _Factorisation:
    """A factorisation g = f1 f2 f3, its factors the dataclass fields and
    `subgroups` their membership predicates, in the same order."""

    def factors(self) -> dict:
        """The factors by field name, in declaration (= product) order."""
        return {f.name: getattr(self, f.name) for f in fields(self)}

    def reconstruct(self) -> GroupElement:
        return reduce(mul, self.factors().values())

    def certify(self, g: GroupElement) -> None:
        """InternalError unless every known entry of reconstruct() - g
        vanishes (exactly zero over the tower) and each factor is in its
        subgroup."""
        if not _all_vanish(self.reconstruct().mat - g.mat):
            raise InternalError("reconstruction failed")
        for (name, factor), member in zip(self.factors().items(), self.subgroups):
            if not member(factor):
                raise InternalError(f"{name} is not in its subgroup")


@dataclass
class KAUResult(_Factorisation):
    k: GroupElement
    a: GroupElement
    u: GroupElement
    subgroups = (member_K, member_A, member_U)


@dataclass
class UAKResult(_Factorisation):
    u: GroupElement
    a: GroupElement
    k: GroupElement
    subgroups = (member_U, member_A, member_K)


@dataclass
class KAKResult(_Factorisation):
    k1: GroupElement
    a: GroupElement
    k2: GroupElement
    subgroups = (member_K, member_A, member_K)


@dataclass
class BruhatResult(_Factorisation):
    b1: GroupElement
    w: GroupElement
    b2: GroupElement
    subgroups = (member_B, member_N, member_B)


# ---------------------------------------------------------------------------
# Iwasawa

def _gram_schmidt(m: Matrix):
    """Gram-Schmidt on the columns of m, division-only (no radicals): the
    orthogonal columns qhat_j, their squared norms and the rows of the
    unitriangular u with m = qhat u.  Everything stays in m's own tower."""
    dom = m.domain
    n = m.nrows
    cols = [m.col(j) for j in range(n)]
    qhat = []
    norm2 = []
    inv_norm2 = []
    u_rows = [list(row) for row in Matrix.identity(n, dom).data]
    for j in range(n):
        v = list(cols[j])
        for i in range(j):
            c = _dot(qhat[i], cols[j], dom) * inv_norm2[i]
            u_rows[i][j] = c
            v = [a - c * b for a, b in zip(v, qhat[i])]
        qhat.append(tuple(v))
        n2 = _dot(v, v, dom)
        norm2.append(n2)
        inv_norm2.append(dom.invert(n2))
    return qhat, norm2, u_rows


def _check_unit_product(squares, dom):
    """DomainError unless prod(squares) = 1 in the squares' own field: then
    det diag(sqrt(squares_j)) = 1 as every root is positive, so no product
    of the radicals is formed."""
    total = reduce(mul, squares)
    if not dom.vanishes(total - dom.one):
        raise DomainError(f"determinant is {dom.sqrt_positive(total)}, not 1")


def _a_factor(squares, dom):
    """The roots r_j = sqrt(squares_j) and a = diag(r), certified by
    prod(squares) = 1 (_check_unit_product)."""
    _check_unit_product(squares, dom)
    roots = [dom.sqrt_positive(x) for x in squares]
    return roots, GroupElement._unchecked(Matrix.diagonal(roots, dom))


def iwasawa_kau(g: GroupElement) -> KAUResult:
    """g = k a u by Gram-Schmidt on the columns of g.

    The orthogonalisation itself is division-only (no radicals), so u is
    exact over the base field; the radicals enter only through the column
    norms r_j = sqrt(norm2_j), which populate a and k.

    Each factor is certified once:
    - a = diag(r) by prod(norm2_j) = 1 in g's own tower (a refuses an input
      with |det g| != 1);
    - k column by column: det(k) = det(qhat) * prod(1/r_j) must be 1 (every
      known term of the difference vanishes), qhat the Gram-Schmidt matrix,
      whose determinant is cheap;
    - u is unitriangular, det 1 by shape.
    """
    dom = g.mat.domain
    n = g.n
    qhat, norm2, u_rows = _gram_schmidt(g.mat)
    r_diag, a = _a_factor(norm2, dom)
    inv_r = [dom.invert(r) for r in r_diag]
    k_mat = Matrix(
        dom,
        [[qhat[j][i] * inv_r[j] for j in range(n)] for i in range(n)],
    )
    u = GroupElement._unchecked(Matrix(dom, u_rows))
    d = det(Matrix(dom, list(zip(*qhat))))
    for x in inv_r:
        d = d * x
    if not dom.vanishes(d - dom.one):
        raise DomainError(f"determinant of k is {d}, not 1")
    return KAUResult(GroupElement._unchecked(k_mat), a, u)


def _flip(m: Matrix) -> Matrix:
    """Conjugation by the antidiagonal permutation J: reverse rows and columns."""
    n = m.nrows
    return Matrix(
        m.domain,
        [[m.data[n - 1 - i][n - 1 - j] for j in range(n)] for i in range(n)],
    )


def iwasawa_uak(g: GroupElement) -> UAKResult:
    """g = u a k, reduced to iwasawa_kau of the flip-conjugate J g^T J.

    Bridge: if J g^T J = k0 a0 u0 then g = (J u0^T J)(J a0 J)(J k0^T J),
    and the three factors are again upper unitriangular, positive diagonal
    and special orthogonal respectively.  Transposing and flipping keep the
    determinant, so none of the four is checked again.
    """
    same_det = GroupElement._unchecked
    kau = iwasawa_kau(same_det(_flip(g.mat.transpose())))
    u = same_det(_flip(kau.u.mat.transpose()))
    a = same_det(_flip(kau.a.mat))
    k = same_det(_flip(kau.k.mat.transpose()))
    return UAKResult(u, a, k)


def a_component(g: GroupElement) -> GroupElement:
    """The A-part of the UAK Iwasawa decomposition, iwasawa_uak(g).a: the
    column norms of the flip-conjugate J g^T J, in reverse order.  Only a is
    formed and certified (prod(norm2_j) = 1); no k, no u, no determinant."""
    _, norm2, _ = _gram_schmidt(_flip(g.mat.transpose()))
    _, a = _a_factor(norm2[::-1], g.mat.domain)
    return a


# ---------------------------------------------------------------------------
# Cartan

def cartan_kak(g: GroupElement, order=None) -> KAKResult:
    """g = k1 a k2 with a the descending singular-value diagonal.

    Tower inputs need a tower-solvable simple spectrum of g^T g, and the
    result is exact.

    Puiseux inputs need a simple leading spectrum.  The eigen data of g^T g
    are lifted to the relative order `order` (default: the order of g's
    domain), and every known term of every residual vanishes.  The
    residuals are known less deep than `order`: k1 = g v / a divides by the
    small singular values, so k1^T k1 = 1 and k1 a k2 = g are known at best
    to `order` less the exponent spread of a (its largest less its smallest
    leading exponent), below the scale of each residual.  On some inputs
    they fall short even of that, for want of working order.  A given order
    must be positive over both fields (DomainError).

    Over the Puiseux field the work stays in g's own field, and the
    radicals enter as one positive tower constant per column, multiplied
    in last: sqrt(lam_j) = c_j r_j (each root taken once), the
    eigenvectors are rho_j w_j (sym_eigen_lift), and column j of k1 is
    (g w_j / r_j) (rho_j / c_j).  For rational g, r_j, w_j and the dot
    products of k1 are rational series.

    Each factor is certified once, and none by a determinant:
    - a = diag(sqrt(lam_j)) by prod(lam_j) = det(g^T g) = 1, in the field
      of the eigenvalues (the tower, or the series);
    - det k2 = det V = +1, as _special_orthogonal fixes its sign and its
      columns are unit vectors;
    - det k1 = det g * det V / det a = 1, det g checked when g entered."""
    dom = g.mat.domain
    working = dom if order is None else PuiseuxDomain(order)  # checks order > 0
    s = g.mat.transpose() * g.mat
    if dom is not TOWER:
        dom = working
        lift = sym_eigen_lift(s, dom.order)
        _check_unit_product(lift.eigenvalues, dom)
        parts = [lam._root_parts(dom.order) for lam in lift.eigenvalues]
        a = GroupElement._unchecked(Matrix.diagonal([r * c for c, r in parts], dom))
        w, rhos = lift._frame
        cols = []
        for j, (c, r) in enumerate(parts):
            inv_r = r.invert(dom.order)
            scale = rhos[j] * c.inv()
            cols.append([_dot(row, w.col(j), dom) * inv_r * scale for row in g.mat.data])
        k2 = GroupElement._unchecked(lift.eigenvectors.transpose())
        return KAKResult(GroupElement._unchecked(Matrix(dom, list(zip(*cols)))), a, k2)
    lams, vmat = sym_eigen_tower(s)
    a_diag, a = _a_factor(lams, dom)
    inv_a = [dom.invert(x) for x in a_diag]
    n = g.n
    k2 = GroupElement._unchecked(vmat.transpose())
    k1 = Matrix(
        dom,
        [
            [_dot(g.mat.row(i), vmat.col(j), dom) * inv_a[j] for j in range(n)]
            for i in range(n)
        ],
    )
    return KAKResult(GroupElement._unchecked(k1), a, k2)


def kak_uniqueness_check(g: GroupElement, res1: KAKResult, res2: KAKResult) -> GroupElement:
    """The Weyl element relating two Cartan middle factors of the same g:
    an n in N with a2 = n a1 n^{-1}.  Identity when both are already in the
    closed chamber.  Conjugation by a signed permutation permutes a
    diagonal and ignores the signs, so n sends each diagonal entry of a1 to
    an equal one of a2, with one sign flipped when that permutation is odd
    (det n = 1).  Failure to find one signals an implementation bug."""
    a1, a2 = res1.a, res2.a
    n = g.n
    free = list(range(n))
    perm = []  # perm[j]: the diagonal place in a2 of a1's j-th entry
    for j in range(n):
        i = next((i for i in free if a2[i, i] == a1[j, j]), None)
        if i is None:
            raise NoRelatingElement("no signed permutation relates the two A-parts")
        free.remove(i)
        perm.append(i)
    signs = [_signed_permutation_det(perm, [1] * n)] + [1] * (n - 1)
    w = GroupElement._unchecked(_signed_permutation(perm, signs, a1.mat.domain))
    if w * a1 * w.transpose() != a2:
        raise NoRelatingElement("no signed permutation relates the two A-parts")
    return w


# ---------------------------------------------------------------------------
# Bruhat

def bruhat(g: GroupElement) -> BruhatResult:
    """g = b1 w b2 with b1, b2 upper triangular in SL_n and w the signed
    permutation singled out by positive pivot scales.

    One row pass: per column c, pivot on the lowest provably nonzero unused
    row p(c) and clear upward among the unused rows.  Later operations add
    only multiples of later pivot rows, which are zero in column c, so row
    p(c) of the reduced matrix is zero left of column c, and the three
    factors are read off the pass:
    - b1 is I with each multiplier written at (row, pivot row);
    - w has the sign s of each pivot at (p(c), c);
    - row c of b2 is s times row p(c), with exact zeros left of column c.
    Bruhat uniqueness fixes the cell.  All three are built unchecked: b1 is
    unitriangular, det b2 = prod |pivot| > 0 and det w = +-1, so
    det b1 w b2 = det g = 1 makes det w = det b2 = 1."""
    dom = g.mat.domain
    n = g.n
    m = [list(row) for row in g.mat.data]
    b1 = [list(row) for row in Matrix.identity(n, dom).data]
    pivot_rows = []
    for col in range(n):
        unused = [i for i in range(n) if i not in pivot_rows]
        pivot = next((i for i in reversed(unused) if not dom.is_zero(m[i][col])), None)
        if pivot is None:
            raise IndeterminateSign("singular column during Bruhat elimination")
        pivot_rows.append(pivot)
        inv_p = dom.invert(m[pivot][col])
        for i in unused:
            if i < pivot and not dom.is_zero(m[i][col]):
                b1[i][pivot] = c = m[i][col] * inv_p
                m[i] = [x - c * y for x, y in zip(m[i], m[pivot])]
    signs = [dom.sign(m[p][col]) for col, p in enumerate(pivot_rows)]
    b2 = [
        [dom.zero] * col + [x if s > 0 else -x for x in m[p][col:]]
        for col, (p, s) in enumerate(zip(pivot_rows, signs))
    ]
    return BruhatResult(
        GroupElement._unchecked(Matrix(dom, b1)),
        GroupElement._unchecked(_signed_permutation(pivot_rows, signs, dom)),
        GroupElement._unchecked(Matrix(dom, b2)),
    )


def bruhat_permutation(g: GroupElement) -> dict:
    """The Bruhat cell of g as a map column -> pivot row, from the rank
    matrix r(i, j) = rank of the lower-left submatrix g[i:, :j+1]: position
    (i, j) carries a pivot iff the double difference of r equals one."""
    n = g.n
    cache = {}

    def r(i, j):
        # rank of rows i..n-1, columns 0..j; empty ranges have rank 0
        if i >= n or j < 0:
            return 0
        if (i, j) not in cache:
            sub = Matrix(
                g.mat.domain, [row[: j + 1] for row in g.mat.data[i:]]
            )
            cache[(i, j)] = rank(sub)
        return cache[(i, j)]

    out = {}
    for j in range(n):
        for i in range(n):
            if r(i, j) - r(i + 1, j) - r(i, j - 1) + r(i + 1, j - 1) == 1:
                out[j] = i
    return out
