"""SL_n over an ordered scalar field: subgroup predicates, the Cartan
involution, restricted root spaces, the Killing form and torus characters.

Membership in SL_n is checked once, where a matrix enters: GroupElement's
constructor computes the determinant and rejects anything but 1.  Ring
operations on elements (products, transposes) cannot change a determinant
and build their results unchecked; so do decompositions, for a factor
whose construction fixes det = 1, and a result's certify(g) applies the
predicates below (see decomp).

The split torus is always the diagonal one.  Subgroups follow the concrete
descriptions for SL_n: K = SO_n, A = positive diagonal, U = upper
unitriangular, M = diagonal with +-1 entries, N = signed permutation
matrices, B = upper triangular (all inside SL_n, so determinants are 1).

Restricted roots are indexed by ordered pairs: RootIndex(i, j) stands for
the functional e_i - e_j on the diagonal (indices 0-based here), with root
space the line through E_ij.  For SL_n no doubled root exists (g_{2a} = 0),
so all doubled-root formulas degenerate to the reduced case.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .errors import DomainError, IndeterminateSign, InternalError
from .linalg import Matrix, TOWER, _dot, _orthogonal_det_sign, det, inverse

F = Fraction


class GroupElement:
    """An element of SL_n: a square matrix with determinant exactly 1.

    The constructor checks det = 1 (over the Puiseux field: every known term
    of det - 1 vanishes), so every matrix that enters SL_n from outside is
    checked once.  The elements built unchecked, with the identity that
    certifies each:
    - products and transposes: ring operations cannot move a determinant
      off 1 (inverse() divides and stays checked);
    - the identity, by its shape;
    - decomposition factors, each by one identity in the field where it was
      computed (see decomp): prod(r_j^2) = 1 for an Iwasawa a, prod(lam_j)
      = 1 for a Cartan a, det(qhat) * prod(1/r_j) = 1 for an Iwasawa k, the
      eigenvector frame and det g for the Cartan k's, a unit diagonal for u
      and b1, and det g = det w det b2 with det w = +-1 and det b2 > 0 for
      the Bruhat w and b2.  A K factor whose columns each carry their own
      radical (the Iwasawa k, the Puiseux Cartan k1 and k2) also keeps the
      scaled form it was built from in the private slot _form
      (linalg._Scaled), which only decomp sets and only its certify reads;
      products, transposes and every other element have none;
    - the rotations of the Kostant orbit sampler, by c^2 + s^2 = 1;
    - the elements of N and M listed by n_elements and m_elements, by
      _signed_permutation_det, which reads det off their shape;
    - exp of a nilpotent x (see nilpotent), by det exp(x) = e^(tr x) = 1
      once x^n = 0 has been checked, and the products of root-group
      elements I + t E_ij, i < j, that factor U_Theta, by their unit
      diagonal."""

    __slots__ = ("mat", "n", "_form")

    def __init__(self, mat: Matrix):
        if not mat.is_square():
            raise DomainError("group elements are square matrices")
        d = det(mat)
        # over the Puiseux field every known term of det - 1 must cancel,
        # which is all a certified-order decomposition can promise
        if not mat.domain.vanishes(d - mat.domain.one):
            raise DomainError(f"determinant is {d}, not 1")
        self.mat = mat
        self.n = mat.nrows

    @classmethod
    def _unchecked(cls, mat: Matrix) -> "GroupElement":
        """An element whose determinant is 1 by construction.  Callers must
        derive mat from elements by operations that keep the determinant
        (products, transposes, conjugation by a permutation) or certify
        det = 1 themselves; the determinant is not computed."""
        g = object.__new__(cls)
        g.mat = mat
        g.n = mat.nrows
        return g

    @staticmethod
    def tower(rows) -> "GroupElement":
        return GroupElement(Matrix.tower(rows))

    @staticmethod
    def puiseux(rows) -> "GroupElement":
        return GroupElement(Matrix.puiseux(rows))

    @staticmethod
    def identity(n: int, domain=TOWER) -> "GroupElement":
        return GroupElement._unchecked(Matrix.identity(n, domain))

    def __mul__(self, other: "GroupElement") -> "GroupElement":
        return GroupElement._unchecked(self.mat * other.mat)

    def inverse(self) -> "GroupElement":
        return GroupElement(inverse(self.mat))

    def transpose(self) -> "GroupElement":
        return GroupElement._unchecked(self.mat.transpose())

    def __getitem__(self, ij):
        return self.mat[ij]

    def __eq__(self, other):
        if isinstance(other, GroupElement):
            return self.mat == other.mat
        return NotImplemented

    __hash__ = None

    def __str__(self):
        return str(self.mat)

    def __repr__(self):
        return f"GroupElement({self.mat})"


@dataclass(frozen=True)
class RootIndex:
    """The restricted root e_i - e_j of sl_n (0-based indices, i != j)."""

    i: int
    j: int

    def __post_init__(self):
        if self.i == self.j:
            raise DomainError("root index needs distinct entries")

    @property
    def is_positive(self) -> bool:
        return self.i < self.j

    def __neg__(self) -> "RootIndex":
        return RootIndex(self.j, self.i)

    def __add__(self, other: "RootIndex"):
        """Sum as a root, when it is one (else None)."""
        if self.j == other.i and self.i != other.j:
            return RootIndex(self.i, other.j)
        if other.j == self.i and other.i != self.j:
            return RootIndex(other.i, self.j)
        return None

    def __repr__(self):
        return f"e{self.i + 1}-e{self.j + 1}"


def positive_roots(n: int):
    return [RootIndex(i, j) for i in range(n) for j in range(i + 1, n)]


# ---------------------------------------------------------------------------
# membership predicates: zero and one tests pass when every known term
# vanishes (exact over the tower); only A's sign test can raise

def _is_zero(mat: Matrix, i, j) -> bool:
    return mat.domain.vanishes(mat.data[i][j])


def member_K(g: GroupElement) -> bool:
    """k k^T = I, from its entries i <= j (the product is symmetric), and
    det k = +1.  Once k k^T = I holds, det k = +-1, and only its sign is
    read (_orthogonal_det_sign): from rational enclosures over the tower,
    at X^0 over the Puiseux field.  When an X^0 coefficient of k is unknown,
    so is that of det k, and det k - 1 has no known term to refute it."""
    rows, dom, n = g.mat.data, g.mat.domain, g.n
    if not all(
        dom.vanishes(_dot(rows[i], rows[j], dom) - (dom.one if i == j else dom.zero))
        for i in range(n)
        for j in range(i, n)
    ):
        return False
    try:
        return _orthogonal_det_sign(g.mat) > 0
    except IndeterminateSign:
        return True


def _is_diagonal(mat: Matrix) -> bool:
    n = mat.nrows
    return all(_is_zero(mat, i, j) for i in range(n) for j in range(n) if i != j)


def member_A(g: GroupElement) -> bool:
    dom, d = g.mat.domain, g.mat.data
    return _is_diagonal(g.mat) and all(dom.sign(d[i][i]) == 1 for i in range(g.n))


def member_U(g: GroupElement) -> bool:
    dom, d = g.mat.domain, g.mat.data
    return member_B(g) and all(dom.vanishes(d[i][i] - dom.one) for i in range(g.n))


def member_M(g: GroupElement) -> bool:
    dom, d = g.mat.domain, g.mat.data
    return _is_diagonal(g.mat) and all(
        dom.vanishes(d[i][i] * d[i][i] - dom.one) for i in range(g.n)
    )


def member_N(g: GroupElement) -> bool:
    """One nonzero entry in each row and each column, it is +-1, and
    det g = +1, read from the permutation and the signs of those entries
    (_signed_permutation_det), so no determinant is formed.  Each such
    entry has a known term, so its sign is known."""
    dom, d, n = g.mat.domain, g.mat.data, g.n
    support = [(i, j) for i in range(n) for j in range(n) if not _is_zero(g.mat, i, j)]
    cols = [j for _, j in support]
    if not (
        [i for i, _ in support] == list(range(n))
        and sorted(cols) == list(range(n))
        and all(dom.vanishes(d[i][j] * d[i][j] - dom.one) for i, j in support)
    ):
        return False
    return _signed_permutation_det(cols, [dom.sign(d[i][j]) for i, j in support]) == 1


def member_B(g: GroupElement) -> bool:
    n = g.n
    return all(_is_zero(g.mat, i, j) for i in range(n) for j in range(i))


# ---------------------------------------------------------------------------
# Cartan involution and the restricted root-space decomposition

def theta(x: Matrix) -> Matrix:
    """The Cartan involution X -> -X^T."""
    return -x.transpose()


@dataclass
class RootDecomposition:
    zero_part: Matrix
    components: dict

    def reconstruct(self) -> Matrix:
        total = self.zero_part
        for part in self.components.values():
            total = total + part
        return total


def root_space_decompose(x: Matrix) -> RootDecomposition:
    """Split a traceless matrix into its diagonal (g_0) part and its root
    components X_ij E_ij."""
    dom = x.domain
    if not dom.is_zero(x.trace()):
        raise DomainError("root space decomposition needs a traceless matrix")
    n = x.nrows
    zero_part = Matrix.diagonal([x.data[i][i] for i in range(n)], dom)
    comps = {}
    for i in range(n):
        for j in range(n):
            if i != j and not dom.is_zero(x.data[i][j]):
                comps[RootIndex(i, j)] = Matrix.unit(n, i, j, x.data[i][j], dom)
    return RootDecomposition(zero_part, comps)


def _coroot_basis(n: int, dom):
    """The coroots H_k = E_kk - E_{k+1,k+1}, k = 0 .. n-2."""
    return [
        Matrix.diagonal([1 if t == k else -1 if t == k + 1 else 0 for t in range(n)], dom)
        for k in range(n - 1)
    ]


def _sl_basis(n: int, dom):
    """Basis of sl_n: the E_ij (i != j) then H_k = E_kk - E_{k+1,k+1}."""
    units = [Matrix.unit(n, i, j, domain=dom) for i in range(n) for j in range(n) if i != j]
    return units + _coroot_basis(n, dom)


def _sl_coords(m: Matrix):
    """Coordinates of a traceless matrix over the _sl_basis ordering."""
    n = m.nrows
    coords = []
    for i in range(n):
        for j in range(n):
            if i != j:
                coords.append(m.data[i][j])
    partial = m.domain.zero
    for k in range(n - 1):
        partial = partial + m.data[k][k]
        coords.append(partial)
    return coords


def _ad_matrix(x: Matrix):
    basis = _sl_basis(x.nrows, x.domain)
    cols = [_sl_coords(x * b - b * x) for b in basis]
    return list(zip(*cols))


def killing_form(x: Matrix, y: Matrix):
    """B(X, Y) = tr(ad X o ad Y), computed literally on the sl_n basis.
    (The 2n tr(XY) shortcut is reserved for cross-checks in tests.)"""
    dom = x.domain
    if not dom.is_zero(x.trace()) or not dom.is_zero(y.trace()):
        raise DomainError("Killing form needs traceless arguments")
    ax = _ad_matrix(x)
    ay = _ad_matrix(y)
    dim = len(ax)
    total = dom.zero
    for a in range(dim):
        for b in range(dim):
            total = total + ax[a][b] * ay[b][a]
    return total


def b_theta(x: Matrix, y: Matrix):
    """The inner product B_theta(X, Y) = -B(X, theta(Y))."""
    return -killing_form(x, theta(y))


# ---------------------------------------------------------------------------
# torus characters

def chi(alpha: RootIndex, a: GroupElement):
    """The multiplicative character of the diagonal torus at the root
    e_i - e_j: a_i / a_j."""
    if not member_A(a):
        raise DomainError("character arguments must lie in A")
    return a.mat.data[alpha.i][alpha.i] * a.mat.domain.invert(a.mat.data[alpha.j][alpha.j])


def _require_root_vector(x: Matrix, alpha: RootIndex) -> None:
    """DomainError unless x is zero off the (alpha.i, alpha.j) entry."""
    for p in range(x.nrows):
        for q in range(x.ncols):
            if (p, q) != (alpha.i, alpha.j) and not x.domain.is_zero(x.data[p][q]):
                raise DomainError("X is not a single-root-space vector")


def conj_root_vector(a: GroupElement, alpha: RootIndex, x: Matrix) -> Matrix:
    """a exp(X) a^{-1} for X in the root space of alpha; checks the closed
    form exp(chi_alpha(a) X) predicted for torus conjugation (InternalError
    if it fails)."""
    _require_root_vector(x, alpha)
    one = Matrix.identity(x.nrows, x.domain)
    conj = a.mat * (one + x) * inverse(a.mat)
    expected = one + x * chi(alpha, a)
    if conj != expected:
        raise InternalError("torus conjugation disagrees with exp(chi_alpha(a) X)")
    return conj


# ---------------------------------------------------------------------------
# N and M: signed permutations

def _signed_permutation(rows_of, signs, domain) -> Matrix:
    """The signed permutation matrix with signs[c] at (rows_of[c], c) and
    zero elsewhere: the shape of N (an element of N when
    _signed_permutation_det is +1)."""
    n = len(rows_of)
    rows = [[0] * n for _ in range(n)]
    for col, (row, s) in enumerate(zip(rows_of, signs)):
        rows[row][col] = s
    return Matrix(domain, rows)


def _signed_permutation_det(rows_of, signs) -> int:
    """det of _signed_permutation(rows_of, signs, ...), read off its shape:
    (-1)^(inversions of rows_of + number of negative signs).  A matrix and
    its transpose share it, so a map row -> column serves as well."""
    n = len(rows_of)
    inversions = sum(rows_of[a] > rows_of[b] for a in range(n) for b in range(a + 1, n))
    negatives = sum(s < 0 for s in signs)
    return -1 if (inversions + negatives) % 2 else 1


def n_elements(n: int):
    """All of N for SL_n: signed permutation matrices with determinant 1."""
    from itertools import permutations, product

    return [
        GroupElement._unchecked(_signed_permutation(perm, signs, TOWER))
        for perm in permutations(range(n))
        for signs in product((1, -1), repeat=n)
        if _signed_permutation_det(perm, signs) == 1
    ]


def m_elements(n: int):
    """All of M for SL_n: diagonal matrices with +-1 entries and determinant 1."""
    from itertools import product

    return [
        GroupElement._unchecked(_signed_permutation(range(n), signs, TOWER))
        for signs in product((1, -1), repeat=n)
        if _signed_permutation_det(range(n), signs) == 1
    ]
