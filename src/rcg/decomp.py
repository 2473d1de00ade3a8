"""Iwasawa (KAU/UAK), Cartan (KAK) and Bruhat (BWB) decompositions of SL_n.

All three work over the tower field and over the Puiseux field.  Each
result is a product of its factors in field order, and res.certify(g) is
its one complete check over both fields: the product against g (exact over
the tower; over the Puiseux field every known term of k*a*u - g etc. must
vanish), then each factor against its subgroup predicate.  The caller that
prints a result (the CLI) runs it.

A K factor's columns each carry their own radical, so k^T k or k a u
merges n one-radical towers.  Every K factor built here but the tower
Cartan k1 and k2 therefore keeps the scaled form B diag(s) it was built
from (linalg._Scaled), B over g's own field: qhat diag(1/r_j) for the
Iwasawa k (UAK's k keeps the form of the KAU k it is flipped from), and
B1 diag(rho_j / c_j) and the lift's V = W diag(rho_j) for the Puiseux
Cartan k1 and k2 = V^T.  certify checks the product and K membership from
the forms over g's own field, once each printed entry equals its
base_ij s_j; a factor without a form (built by a caller, swapped in with
dataclasses.replace, or a tower Cartan factor) is checked on its matrix.

A decomposition checks only det = 1, once per factor, in the field where
that factor was computed: a factor whose shape or construction fixes it is
built unchecked, the others by the cheapest identity that fixes it.
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
    _depth0,
    _dot,
    _lift,
    _lift_scalar,
    _over_q,
    _rearranged,
    _Scaled,
    _x0_det_sign,
    det,
    sym_eigen_lift,
    sym_eigen_tower,
)
from .puiseux import PuiseuxScalar
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
        subgroup.  The product and the K factors are checked from the
        factors' scaled forms when they carry them (_certify_forms)."""
        formed = self._certify_forms(g)
        if not formed and not _all_vanish(self.reconstruct().mat - g.mat):
            raise InternalError("reconstruction failed")
        for (name, factor), member in zip(self.factors().items(), self.subgroups):
            if name not in formed and not member(factor):
                raise InternalError(f"{name} is not in its subgroup")

    def _certify_forms(self, g: GroupElement) -> tuple:
        """Check the product and the K factors from the factors' forms and
        return the names of the factors so checked; () when a form this
        check reads is missing."""
        return ()


def _form(factor: GroupElement):
    return getattr(factor, "_form", None)


def _formed(mat: Matrix, form: _Scaled) -> GroupElement:
    """The factor mat, unchecked, keeping the form it was built from."""
    factor = GroupElement._unchecked(mat)
    factor._form = form
    return factor


def _described(name: str, factor: GroupElement, mat: Matrix) -> _Scaled:
    """The factor's form, once every entry of mat (the factor, or the
    matrix its result relates to the form) equals its base_ij s_j: this
    keeps the certificate about the matrix that is printed."""
    form = _form(factor)
    if not form.describes(mat):
        raise InternalError(f"{name} is not the matrix of its form")
    return form


def _iwasawa_certificate(factor: GroupElement, k: Matrix, a: Matrix, u: Matrix, g: Matrix):
    """k a u = g and k in K from k's form B diag(s), over g's own field:
    - the product: a_jj s_j = 1 and B u = g, once a is diagonal with
      a_jj > 0, which certify's member_A checks;
    - k^T k = I: B^T B = diag(d) with d_j s_j^2 = 1 (_Scaled.column_norms);
    - det a = 1 (member_A reads no determinant): prod(d_j) = 1.  Then
      det u = 1 makes det k = det g = 1.
    Each a_jj s_j and s_j^2 lies in its column's one tower, and for
    rational g no tower is merged."""
    form = _described("k", factor, k)
    dom = form.base.domain
    if not (
        all(dom.vanishes(a.data[j][j] * s - dom.one) for j, s in enumerate(form.scales))
        and _all_vanish(form.base * u - g)
    ):
        raise InternalError("reconstruction failed")
    norms = form.column_norms()
    if norms is None:
        raise InternalError("k is not in its subgroup")
    if not dom.vanishes(reduce(mul, norms) - dom.one):
        raise InternalError("a is not in its subgroup")


def _rational_coefficients(x: PuiseuxScalar) -> PuiseuxScalar:
    """x over depth-0 coefficients when all of x's are rational, else x."""
    if all(c.is_rational() for _, c in x.terms):
        return PuiseuxScalar(((e, _depth0(c)) for e, c in x.terms), x.tail)
    return x


def _positive_x0_det(form: _Scaled) -> bool:
    """det(base) prod(scales) > 0, the sign of det(base) read at X^0 and
    taken as positive when unknown, as member_K does."""
    if not all(s.sign() > 0 for s in form.scales):
        return False
    try:
        return _x0_det_sign(form.base.data) > 0
    except IndeterminateSign:
        return True


def _cartan_certificate(res: "KAKResult", g: Matrix) -> None:
    """k1 a k2 = g and k1, k2 in K from the Puiseux Cartan forms k1 =
    B1 diag(t) and k2^T = W diag(rho), over g's own field:
    - k1 and k2 orthogonal (_Scaled.column_norms) with det +1: B1's and
      W's columns are unit vectors times positive constants, so
      _x0_det_sign reads det's sign;
    - the product: as k2 k2^T = I, k1 a k2 = g iff k1 a = g k2^T, that is
      B1 diag(a_jj t_j / rho_j) = g W once a is diagonal (member_A);
      a_jj t_j / rho_j = r_j, lowered to g's field
      (_rational_coefficients)."""
    k1 = _described("k1", res.k1, res.k1.mat)
    k2 = _described("k2", res.k2, res.k2.mat.transpose())
    for name, form in (("k1", k1), ("k2", k2)):
        if form.column_norms() is None or not _positive_x0_det(form):
            raise InternalError(f"{name} is not in its subgroup")
    roots = [
        _rational_coefficients(res.a.mat.data[j][j] * (t * rho.inv()))
        for j, (t, rho) in enumerate(zip(k1.scales, k2.scales))
    ]
    if not _all_vanish(_Scaled(k1.base, roots).matrix() - g * k2.base):
        raise InternalError("reconstruction failed")


@dataclass
class KAUResult(_Factorisation):
    k: GroupElement
    a: GroupElement
    u: GroupElement
    subgroups = (member_K, member_A, member_U)

    def _certify_forms(self, g):
        if _form(self.k) is None:
            return ()
        _iwasawa_certificate(self.k, self.k.mat, self.a.mat, self.u.mat, g.mat)
        return ("k",)


@dataclass
class UAKResult(_Factorisation):
    u: GroupElement
    a: GroupElement
    k: GroupElement
    subgroups = (member_U, member_A, member_K)

    def _certify_forms(self, g):
        """k keeps the form of k0 = J k^T J, and g = u a k iff
        J g^T J = k0 (J a^T J)(J u^T J) (iwasawa_uak)."""
        if _form(self.k) is None:
            return ()
        _iwasawa_certificate(
            self.k, *(_flip(f.mat.transpose()) for f in (self.k, self.a, self.u, g))
        )
        return ("k",)


@dataclass
class KAKResult(_Factorisation):
    k1: GroupElement
    a: GroupElement
    k2: GroupElement
    subgroups = (member_K, member_A, member_K)

    def _certify_forms(self, g):
        if _form(self.k1) is None or _form(self.k2) is None:
            return ()
        _cartan_certificate(self, g.mat)
        return ("k1", "k2")


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
    matrix qhat of the orthogonal columns, their squared norms and the
    unitriangular u with m = qhat u.  Everything stays in m's own tower: a
    rational m runs over _Q (linalg._over_q), and qhat and u are lifted to
    integer forms and the norms to depth-0 tower scalars once, at the
    end."""
    dom, rows = _over_q(m)
    n = m.nrows
    cols = list(zip(*rows))
    qhat = []
    norm2 = []
    inv_norm2 = []
    u_rows = [[dom.one if i == j else dom.zero for j in range(n)] for i in range(n)]
    for j in range(n):
        v = cols[j]
        for i in range(j):
            c = _dot(qhat[i], cols[j], dom) * inv_norm2[i]
            u_rows[i][j] = c
            v = [a - c * b for a, b in zip(v, qhat[i])]
        qhat.append(v)
        n2 = _dot(v, v, dom)
        norm2.append(n2)
        inv_norm2.append(dom.invert(n2))
    return (
        _lift(dom, list(zip(*qhat))),
        [_lift_scalar(x) for x in norm2],
        _lift(dom, u_rows),
    )


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
    k keeps its scaled form qhat diag(1/r_j) for certify.
    """
    dom = g.mat.domain
    qhat, norm2, u = _gram_schmidt(g.mat)
    r_diag, a = _a_factor(norm2, dom)
    k = _Scaled(qhat, [dom.invert(r) for r in r_diag])
    d = det(k.base)
    for x in k.scales:
        d = d * x
    if not dom.vanishes(d - dom.one):
        raise DomainError(f"determinant of k is {d}, not 1")
    return KAUResult(_formed(k.matrix(), k), a, GroupElement._unchecked(u))


def _flip(m: Matrix) -> Matrix:
    """Conjugation by the antidiagonal permutation J: reverse rows and columns."""
    return _rearranged(m, lambda rows: [row[::-1] for row in reversed(rows)])


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
    k = _formed(_flip(kau.k.mat.transpose()), kau.k._form)
    return UAKResult(u, a, k)


def a_component(g: GroupElement) -> GroupElement:
    """The A-part of the UAK Iwasawa decomposition, iwasawa_uak(g).a: the
    column norms of the flip-conjugate J g^T J, in reverse order.  Only a is
    formed and certified (prod(norm2_j) = 1, _a_squares); no k, no u, no
    determinant."""
    dom = g.mat.domain
    roots = [dom.sqrt_positive(x) for x in _a_squares(g)]
    return GroupElement._unchecked(Matrix.diagonal(roots, dom))


def _a_squares(g: GroupElement) -> list:
    """The squares of a_component(g)'s diagonal, the squared column norms
    of J g^T J in reverse order, certified by their product being 1
    (_check_unit_product); no root is taken."""
    _, norm2, _ = _gram_schmidt(_flip(g.mat.transpose()))
    squares = norm2[::-1]
    _check_unit_product(squares, g.mat.domain)
    return squares


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
    products of k1 are rational series.  k1 and k2 keep these scaled
    forms for certify.

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
        w, rhos = lift._frame.base, lift._frame.scales
        cols, scales = [], []
        for j, (c, r) in enumerate(parts):
            inv_r = r.invert(dom.order)
            scales.append(rhos[j] * c.inv())
            cols.append([_dot(row, w.col(j), dom) * inv_r for row in g.mat.data])
        k1 = _Scaled(Matrix(dom, list(zip(*cols))), scales)
        k2 = _formed(lift.eigenvectors.transpose(), lift._frame)
        return KAKResult(_formed(k1.matrix(), k1), a, k2)
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
