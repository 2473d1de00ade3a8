"""Nilpotent/unipotent calculus for SL_n: exact exp and log, the
Baker-Campbell-Hausdorff and Zassenhaus expansions, factorisation of the
root-ordered unipotent groups U_Theta, Jacobson-Morozov sl2-triples, root
SL2-embeddings and their Weyl representatives m(u).

Everything here is finite and exact: exponentials of nilpotents are
polynomial, and the commutator series terminate at the nilpotency grade.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import factorial

from .errors import (
    DomainError,
    InternalError,
    NotInImage,
    NotInUTheta,
    NotNilpotent,
    NotUnipotent,
    ZeroInput,
    ZeroParameter,
)
from .linalg import TOWER, Matrix, commutator, inverse, solve
from .linalg import _all_vanish, _dot, _eliminate, _elimination_rows, _kernel, _lift, _over_q
from .slgroup import (
    GroupElement,
    RootIndex,
    _coroot_basis,
    _require_root_vector,
    b_theta,
    positive_roots,
    theta,
)

F = Fraction


def _is_zero_matrix(m: Matrix) -> bool:
    """Exact zero test of every entry: over the tower _all_vanish, which
    reads the integer form when m holds one; IndeterminateSign over the
    Puiseux field when an entry cannot be classified."""
    if m.domain is TOWER:
        return _all_vanish(m)
    return all(m.domain.is_zero(x) for row in m.data for x in row)


def _nilpotent_powers(x: Matrix) -> list:
    """The nonzero powers [x, x^2, ..., x^(q-1)] of x, q its nilpotency
    index; DomainError unless x is square, NotNilpotent if x^n != 0."""
    if not x.is_square():
        raise DomainError("nilpotent calculus needs a square matrix")
    powers = []
    cur = x
    for _ in range(x.nrows):
        if _is_zero_matrix(cur):
            return powers
        powers.append(cur)
        cur = cur * x
    raise NotNilpotent("matrix power x^n is nonzero")


def _series(powers, start: Matrix, coeff) -> Matrix:
    """start + coeff(1) x + ... + coeff(q-1) x^(q-1) over the powers of x."""
    total = start
    for k, power in enumerate(powers, 1):
        total = total + power * coeff(k)
    return total


def exp_nilpotent(x: Matrix) -> GroupElement:
    """Finite-sum exponential of a verified nilpotent matrix, built
    unchecked: det exp(x) = e^(tr x) = 1 once x is nilpotent."""
    one = Matrix.identity(x.nrows, x.domain)
    return GroupElement._unchecked(
        _series(_nilpotent_powers(x), one, lambda k: F(1, factorial(k)))
    )


def log_unipotent(u) -> Matrix:
    """Finite-sum logarithm of a verified unipotent element; inverse of
    exp_nilpotent."""
    mat = u.mat if isinstance(u, GroupElement) else u
    n = mat.nrows
    try:
        powers = _nilpotent_powers(mat - Matrix.identity(n, mat.domain))
    except NotNilpotent:
        raise NotUnipotent("u - 1 is not nilpotent") from None
    return _series(powers, Matrix.zeros(n, n, mat.domain), lambda k: F((-1) ** (k + 1), k))


def _require_strictly_upper(x: Matrix, name: str):
    if x.nrows != x.ncols:
        raise DomainError(f"{name} must be a square matrix")
    dom, rows = _over_q(x)
    for i in range(x.nrows):
        for j in range(i + 1):
            if not dom.is_zero(rows[i][j]):
                raise NotNilpotent(f"{name} must be strictly upper triangular")


# ---------------------------------------------------------------------------
# Baker-Campbell-Hausdorff

def bch(x: Matrix, y: Matrix) -> Matrix:
    """The exact Z with exp(Z) = exp(X) exp(Y), for strictly upper
    triangular X, Y.  Anchored to log of the product; the Dynkin series is
    available separately for coefficient cross-checks."""
    _require_strictly_upper(x, "X")
    _require_strictly_upper(y, "Y")
    return log_unipotent(exp_nilpotent(x) * exp_nilpotent(y))


def _pair_sequences(n_pairs, budget):
    """All sequences of n_pairs pairs (r, s) != (0, 0) with total letter
    count <= budget."""
    if n_pairs == 0:
        yield ()
        return
    for r in range(budget + 1):
        for s in range(budget - r + 1):
            if r == 0 and s == 0:
                continue
            head = (r, s)
            for rest in _pair_sequences(n_pairs - 1, budget - r - s):
                yield (head,) + rest


def bch_series_terms(x: Matrix, y: Matrix, max_degree: int) -> dict:
    """Dynkin-series homogeneous components of log(exp X exp Y) up to the
    given total degree, as a map degree -> matrix.

    Each word w1 ... wk in the letters x, y stands for the nested bracket
    [w1, [w2, ..., [w(k-1), wk]]].  The Dynkin coefficients are summed per
    word first; a word whose last two letters agree is skipped, since
    [a, a] = 0, and the brackets are memoised by suffix, so each nonzero
    nested bracket costs one commutator (after Casas and Murua (2009), "An
    efficient algorithm for computing the BCH series").  Through degree 3
    that is 6 commutators."""
    coeffs = {}
    for n_pairs in range(1, max_degree + 1):
        for seq in _pair_sequences(n_pairs, max_degree):
            word = "".join("x" * r + "y" * s for r, s in seq)
            if len(word) > 1 and word[-1] == word[-2]:
                continue
            denom = len(word)
            for r, s in seq:
                denom *= factorial(r) * factorial(s)
            coeff = F((-1) ** (n_pairs - 1), n_pairs * denom)
            coeffs[word] = coeffs.get(word, 0) + coeff
    brackets = {"x": x, "y": y}

    def bracket(word):
        if word not in brackets:
            brackets[word] = commutator(brackets[word[0]], bracket(word[1:]))
        return brackets[word]

    n = x.nrows
    out = {d: Matrix.zeros(n, n, x.domain) for d in range(1, max_degree + 1)}
    for word, coeff in coeffs.items():
        if coeff:
            out[len(word)] = out[len(word)] + bracket(word) * coeff
    return out


def bch_partial_sum(x: Matrix, y: Matrix, max_degree: int) -> Matrix:
    terms = bch_series_terms(x, y, max_degree)
    total = Matrix.zeros(x.nrows, x.nrows, x.domain)
    for d in sorted(terms):
        total = total + terms[d]
    return total


def zassenhaus(x: Matrix, y: Matrix) -> list:
    """Ordered exponents [X, Y, c2, c3] or [X, Y, c2, c3, R] with
    exp(X + Y) = exp(X) exp(Y) exp(c2) exp(c3) exp(R) exactly.

    c2 and c3 are the closed-form factors -(1/2)[X,Y] and
    (1/3)[Y,[X,Y]] + (1/6)[X,[X,Y]].  R = log(residual) is one lumped
    remainder, present when the residual after c3 is not the identity:
    it gathers every degree from 4 on, so it is not the homogeneous
    Zassenhaus term c4, and no c5, c6, ... follow it.
    """
    _require_strictly_upper(x, "X")
    _require_strictly_upper(y, "Y")
    xy = commutator(x, y)
    factors = [
        x,
        y,
        xy * F(-1, 2),
        commutator(y, xy) * F(1, 3) + commutator(x, xy) * F(1, 6),
    ]
    # exp(-f_k) ... exp(-f_1) exp(X + Y), one factor multiplied in at a time
    residual = exp_nilpotent(x + y)
    for f in factors:
        residual = exp_nilpotent(-f) * residual
    while not _is_zero_matrix(residual.mat - Matrix.identity(x.nrows, x.domain)):
        factors.append(log_unipotent(residual))
        residual = exp_nilpotent(-factors[-1]) * residual
    return factors


# ---------------------------------------------------------------------------
# the groups U_Theta and their root-ordered factorisation

def root_order_key(alpha: RootIndex, n: int):
    """Lexicographic total order on roots induced by the ordered basis: the
    coordinates of e_i - e_j over the simple roots d_k = e_k - e_{k+1}."""
    lo, hi, sgn = (alpha.i, alpha.j, 1) if alpha.i < alpha.j else (alpha.j, alpha.i, -1)
    return tuple(sgn if lo <= k < hi else 0 for k in range(n - 1))


@dataclass(frozen=True)
class ThetaSet:
    """A set of positive roots closed under addition."""

    n: int
    roots: frozenset

    def __init__(self, n: int, roots):
        roots = frozenset(roots)
        for alpha in roots:
            if not alpha.is_positive:
                raise DomainError(f"{alpha} is not positive")
            if alpha.j >= n:
                raise DomainError(f"{alpha} does not fit in sl_{n}")
        for a in roots:
            for b in roots:
                s = a + b
                if s is not None and s not in roots:
                    raise DomainError(f"not closed under addition: {a} + {b}")
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "roots", roots)

    @staticmethod
    def all_positive(n: int) -> "ThetaSet":
        return ThetaSet(n, positive_roots(n))

    def descending(self):
        return sorted(self.roots, key=lambda a: root_order_key(a, self.n), reverse=True)


def _root_sweep(u: GroupElement, theta_set: ThetaSet, left) -> tuple:
    """([(alpha, t)] in ascending root order, L, R) with u = L R, L and R
    the descending products of x_alpha(t) = I + t E_ij over the roots of
    Theta in `left` and over the rest.

    Roots are taken in ascending order, L and R kept as rows from I (over
    Q for rational u, and lifted to integer forms).  Root alpha = e_i - e_j gets
    t = u_ij - (L R)_ij, one dot product, and x_alpha(t) enters its product
    on the left as the row operation row_i += t row_j.  L and R are
    unitriangular, so that moves (L R)_ij by exactly t, and any other entry
    it moves, (a, b) with a <= i and b >= j, is a larger root's.  The
    parameters are unique, so L R = u certifies membership: NotInUTheta
    unless every known term of L R - u vanishes, as in certify."""
    n = theta_set.n
    if u.n != n:
        raise DomainError("dimension mismatch")
    dom, u_rows = _over_q(u.mat)
    l_rows = [[dom.one if a == b else dom.zero for b in range(n)] for a in range(n)]
    r_rows = [list(row) for row in l_rows]
    params = []
    for alpha in reversed(theta_set.descending()):
        i, j = alpha.i, alpha.j
        t = u_rows[i][j] - _dot(l_rows[i], [row[j] for row in r_rows], dom)
        params.append((alpha, t))
        rows = l_rows if alpha in left else r_rows
        rows[i] = [a + t * b for a, b in zip(rows[i], rows[j])]
    l, r = _lift(dom, l_rows), _lift(dom, r_rows)
    if not _all_vanish(l * r - u.mat):
        raise NotInUTheta("u is not a product of root-group elements over Theta")
    return params, l, r


def u_theta_factorize(u: GroupElement, theta_set: ThetaSet) -> list:
    """Factor u in U_Theta as [(alpha_i, X_i)], u = prod_i exp(X_i) with
    X_i in the root space of alpha_i and alpha_1 > ... > alpha_k: one root
    sweep with every root on one side (_root_sweep), no logarithm.
    DomainError for a size mismatch; NotInUTheta if u is not in U_Theta,
    also when it is not unipotent.  A Puiseux u is accepted to its known
    terms."""
    params, _, _ = _root_sweep(u, theta_set, theta_set.roots)
    n, dom = theta_set.n, u.mat.domain
    return [(alpha, Matrix.unit(n, alpha.i, alpha.j, t, dom)) for alpha, t in reversed(params)]


def psi_split(u: GroupElement, theta_set: ThetaSet, psi) -> tuple:
    """Split u in U_Theta as u = u' u'' with u' a descending product over
    Theta intersect Psi and u'' one over Theta minus Psi: one root sweep
    with Psi on the left (_root_sweep), no logarithm.  Errors and Puiseux
    input as for u_theta_factorize."""
    _, l, r = _root_sweep(u, theta_set, set(psi))
    return GroupElement._unchecked(l), GroupElement._unchecked(r)


# ---------------------------------------------------------------------------
# Jacobson-Morozov

@dataclass
class Sl2Triple:
    """(X, H, Y) with [H,X] = 2X, [H,Y] = -2Y, [X,Y] = H, all exact."""

    x: Matrix
    h: Matrix
    y: Matrix

    def verify(self):
        """True, or InternalError naming the first bracket relation that
        fails (the triples this module builds must satisfy all three)."""
        if commutator(self.h, self.x) != self.x * F(2):
            raise InternalError("sl2-triple relation [H, X] = 2X fails")
        if commutator(self.h, self.y) != -(self.y * F(2)):
            raise InternalError("sl2-triple relation [H, Y] = -2Y fails")
        if commutator(self.x, self.y) != self.h:
            raise InternalError("sl2-triple relation [X, Y] = H fails")
        return True


def jacobson_morozov(x: Matrix) -> Sl2Triple:
    """Complete a nonzero nilpotent to an sl2-triple via a Jordan-chain
    basis: on each chain the triple is the standard one for a single Jordan
    block (H = diag(m-1, m-3, ...), Y with entries i(m-i) below the
    diagonal), conjugated back along the chain basis.

    Chains are found level by level, k from q down to 1: the w of a basis
    of ker x^k that are independent of ker x^(k-1), of x ker x^(k+1) and of
    the w before them head the chains of length k.  They are the pivot
    columns of one elimination of the columns [those spaces | ker x^k]."""
    domain = x.domain
    n = x.nrows
    powers = _nilpotent_powers(x)
    if not powers:
        raise ZeroInput("Jacobson-Morozov needs a nonzero nilpotent")
    q = len(powers) + 1
    _, whole = _over_q(Matrix.identity(n, domain))
    # kernels[k] is a basis of ker x^k, k = 0 .. q + 1
    kernels = [[]] + [_kernel(p) for p in powers] + [whole, whole]
    cols = []
    h_rows = [[0] * n for _ in range(n)]
    y_rows = [[F(0)] * n for _ in range(n)]
    for k in range(q, 0, -1):
        spanned = kernels[k - 1] + _column_vectors(x * _columns(kernels[k + 1], domain))
        stack = spanned + kernels[k]
        _, pivots, _, _ = _eliminate(*_elimination_rows(_columns(stack, domain)))
        heads = [stack[pc] for _, pc in pivots if pc >= len(spanned)]
        if heads:
            chain = [_columns(heads, domain)]
            for _ in range(k - 1):
                chain.append(x * chain[-1])
            steps = [_column_vectors(step) for step in reversed(chain)]
            for c in range(len(heads)):
                o = len(cols)
                cols.extend(step[c] for step in steps)
                for t in range(k):
                    h_rows[o + t][o + t] = k - 1 - 2 * t
                for t in range(1, k):
                    y_rows[o + t][o + t - 1] = F(t * (k - t))
    p = _columns(cols, domain)
    p_inv = inverse(p)
    h = p * _lift(domain, h_rows) * p_inv
    y = p * _lift(domain, y_rows) * p_inv
    triple = Sl2Triple(x, h, y)
    triple.verify()
    return triple


def _columns(vectors, domain) -> Matrix:
    """The matrix with these vectors as its columns: held as its integer
    form when they are vectors of Fractions (linalg._lift)."""
    return _lift(domain, list(zip(*vectors)))


def _column_vectors(m: Matrix) -> list:
    """The columns of m, of Fractions when m is rational (linalg._over_q)."""
    return list(zip(*_over_q(m)[1]))


def jm_basic_triple(alpha: RootIndex, x: Matrix) -> Sl2Triple:
    """The sl2-triple attached to a single-root-space vector by the explicit
    rescaling Y = (-2 / (B_theta(X,X) alpha(H_alpha))) theta(X), H = [X,Y]."""
    n = x.nrows
    domain = x.domain
    _require_root_vector(x, alpha)
    if domain.is_zero(x.data[alpha.i][alpha.j]):
        raise ZeroInput("zero root vector")
    h_alpha = _h_alpha(alpha, n, domain)
    alpha_of_h = h_alpha.data[alpha.i][alpha.i] - h_alpha.data[alpha.j][alpha.j]
    scale = F(-2) * domain.invert(b_theta(x, x) * alpha_of_h)
    y = theta(x) * scale
    h = commutator(x, y)
    triple = Sl2Triple(x, h, y)
    triple.verify()
    return triple


def _h_alpha(alpha: RootIndex, n: int, domain) -> Matrix:
    """The element H_alpha of the diagonal Cartan defined by
    alpha(H) = B_theta(H_alpha, H) for every traceless diagonal H."""
    basis = _coroot_basis(n, domain)
    gram = [[b_theta(u, v) for v in basis] for u in basis]
    target = [
        [b.data[alpha.i][alpha.i] - b.data[alpha.j][alpha.j]] for b in basis
    ]
    coeffs = solve(Matrix(domain, gram), Matrix(domain, target))
    h = Matrix.zeros(n, n, domain)
    for k in range(n - 1):
        h = h + basis[k] * coeffs.data[k][0]
    return h


# ---------------------------------------------------------------------------
# root SL2-embeddings

class RootSL2:
    """The (i, j)-block embedding of SL_2 attached to the root e_i - e_j.
    It intertwines transposition, identifies the diagonal with the alpha
    coroot one-parameter group, and carries the Weyl representative
    construction m(u)."""

    def __init__(self, alpha: RootIndex, n: int):
        if alpha.j >= n or alpha.i >= n:
            raise DomainError("root does not fit the matrix size")
        self.alpha = alpha
        self.n = n

    def _embed(self, m: Matrix, rest: Matrix) -> Matrix:
        """rest with the 2x2 matrix m written into rows and columns (i, j)."""
        i, j = self.alpha.i, self.alpha.j
        rows = [list(row) for row in rest.data]
        rows[i][i], rows[i][j] = m.data[0]
        rows[j][i], rows[j][j] = m.data[1]
        return Matrix(m.domain, rows)

    def group(self, h) -> GroupElement:
        m = h.mat if isinstance(h, GroupElement) else h
        return GroupElement(self._embed(m, Matrix.identity(self.n, m.domain)))

    def lie(self, m: Matrix) -> Matrix:
        return self._embed(m, Matrix.zeros(self.n, self.n, m.domain))

    def extract(self, g: GroupElement) -> Matrix:
        """The 2x2 matrix h with group(h) = g; NotInImage if g is not in
        the embedded copy."""
        i, j = self.alpha.i, self.alpha.j
        dom = g.mat.domain
        for a in range(self.n):
            for b in range(self.n):
                if (a, b) in ((i, i), (i, j), (j, i), (j, j)):
                    continue
                expected = dom.one if a == b else dom.zero
                if not dom.is_zero(g.mat.data[a][b] - expected):
                    raise NotInImage("element is not in the embedded SL_2")
        return Matrix(
            dom,
            [
                [g.mat.data[i][i], g.mat.data[i][j]],
                [g.mat.data[j][i], g.mat.data[j][j]],
            ],
        )


def sl2_embed(alpha: RootIndex, n: int) -> RootSL2:
    return RootSL2(alpha, n)


def m_element(u: GroupElement, alpha: RootIndex) -> GroupElement:
    """The Weyl representative m(u) attached to u = exp(t X_alpha), t != 0:
    the image of [[0, t], [-1/t, 0]] under the root embedding.  It
    normalises A and inverts the alpha-character; at t = 1 it lies in N and
    swaps the root groups of alpha and -alpha."""
    n = u.n
    emb = RootSL2(alpha, n)
    h = emb.extract(u)
    dom = u.mat.domain
    if not dom.is_zero(h.data[0][0] - dom.one) or not dom.is_zero(
        h.data[1][1] - dom.one
    ) or not dom.is_zero(h.data[1][0]):
        raise NotInImage("u is not a one-parameter element of U_alpha")
    t = h.data[0][1]
    if dom.is_zero(t):
        raise ZeroParameter("m(u) needs t != 0")
    inv_t = dom.invert(t)
    return emb.group(Matrix(dom, [[0, t], [-inv_t, 0]]))


@dataclass
class Rank1Cell:
    tag: str  # "B" or "BmB"
    b1: GroupElement
    m: GroupElement
    b2: GroupElement

    def reconstruct(self) -> GroupElement:
        return self.b1 * self.m * self.b2


def rank1_bruhat_certify(g: GroupElement, alpha: RootIndex) -> Rank1Cell:
    """Place an element of the embedded rank-1 group into its Bruhat cell:
    either the upper-triangular cell B_alpha or the open cell B_alpha m
    B_alpha, with explicit witnesses that multiply back to g."""
    n = g.n
    emb = RootSL2(alpha, n)
    h = emb.extract(g)
    dom = g.mat.domain
    ident = GroupElement.identity(n, dom)
    c = h.data[1][0]
    if dom.is_zero(c):
        return Rank1Cell("B", g, ident, ident)
    a, b, d = h.data[0][0], h.data[0][1], h.data[1][1]
    inv_c = dom.invert(c)
    m2 = Matrix(dom, [[0, 1], [-1, 0]])
    b1 = Matrix(dom, [[1, a * inv_c], [0, 1]])
    b2 = Matrix(dom, [[-c, -d], [0, -inv_c]])
    cell = Rank1Cell(
        "BmB", emb.group(b1), emb.group(m2), emb.group(b2)
    )
    if cell.reconstruct() != g:
        raise InternalError("rank-1 Bruhat witnesses do not multiply back to g")
    return cell
