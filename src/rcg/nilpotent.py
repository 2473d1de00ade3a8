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
from .linalg import Matrix, _eliminate, _lower, commutator, inverse, kernel, solve
from .slgroup import (
    GroupElement,
    RootIndex,
    _coroot_basis,
    _require_root_vector,
    b_theta,
    root_space_decompose,
    theta,
)

F = Fraction


def _is_zero_matrix(m: Matrix) -> bool:
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


def _root_group_element(n: int, alpha: RootIndex, t, domain) -> GroupElement:
    """exp(t E_ij) = I + t E_ij for alpha = e_i - e_j, built unchecked: it
    is triangular with unit diagonal."""
    ij = (alpha.i, alpha.j)
    rows = [[1 if a == b else t if (a, b) == ij else 0 for b in range(n)] for a in range(n)]
    return GroupElement._unchecked(Matrix(domain, rows))


def _require_strictly_upper(x: Matrix, name: str):
    if x.nrows != x.ncols:
        raise DomainError(f"{name} must be a square matrix")
    for i in range(x.nrows):
        for j in range(i + 1):
            if not x.domain.is_zero(x.data[i][j]):
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
        return ThetaSet(
            n, [RootIndex(i, j) for i in range(n) for j in range(i + 1, n)]
        )

    def descending(self):
        return sorted(self.roots, key=lambda a: root_order_key(a, self.n), reverse=True)


def u_theta_factorize(u: GroupElement, theta_set: ThetaSet) -> list:
    """Factor u in U_Theta as a product of single-root-group elements in
    descending root order: u = prod_i exp(X_i) with X_i in the root space of
    alpha_i and alpha_1 > ... > alpha_k.

    Peeling runs in ascending order (the minimal root of a closed set can
    always be split off from the right, and removing it keeps the set
    closed); the emitted factors are then read in reverse.  The parameter
    of the smallest root alpha = e_i - e_j left is the residual's (i, j)
    entry, which its log shares: the residual lies in U_Theta' for the
    closed set Theta' of roots left, and a product of root vectors of Theta'
    reaches (i, j) only if alpha = beta + gamma in Theta', where beta and
    gamma would sort below alpha."""
    n = theta_set.n
    if u.n != n:
        raise DomainError("dimension mismatch")
    logu = log_unipotent(u)
    dec = root_space_decompose(logu)
    if not _is_zero_matrix(dec.zero_part) or any(
        alpha not in theta_set.roots for alpha in dec.components
    ):
        raise NotInUTheta("log(u) is not supported on Theta")
    domain = u.mat.domain
    factors = []
    residual = u
    for alpha in reversed(theta_set.descending()):
        t = residual[alpha.i, alpha.j]
        factors.append((alpha, Matrix.unit(n, alpha.i, alpha.j, t, domain)))
        residual = residual * _root_group_element(n, alpha, -t, domain)
    if not _is_zero_matrix(residual.mat - Matrix.identity(n, domain)):
        raise InternalError("U_Theta factors do not multiply back to u")
    return list(reversed(factors))


def psi_split(u: GroupElement, theta_set: ThetaSet, psi) -> tuple:
    """Split u in U_Theta as u = u' u'' with u' a descending product over
    Theta intersect Psi and u'' one over Theta minus Psi.

    The root parameters are solved in ascending root order: a parameter
    change at a root only moves log components at strictly larger roots, so
    one pass settles every coordinate."""
    n = theta_set.n
    psi = {a for a in psi}
    desc = theta_set.descending()
    left_roots = [a for a in desc if a in psi]
    right_roots = [a for a in desc if a not in psi]
    params = {a: u.mat.domain.zero for a in desc}

    def build(roots):
        prod = GroupElement.identity(n, u.mat.domain)
        for a in roots:
            prod = prod * _root_group_element(n, a, params[a], u.mat.domain)
        return prod

    target_log = log_unipotent(u)
    for alpha in reversed(desc):  # ascending
        current = log_unipotent(build(left_roots) * build(right_roots))
        diff = target_log - current
        params[alpha] = params[alpha] + diff.data[alpha.i][alpha.j]
    u1 = build(left_roots)
    u2 = build(right_roots)
    if u1 * u2 != u:
        raise InternalError("psi_split factors do not multiply back to u")
    return u1, u2


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
    whole = list(Matrix.identity(n, domain).data)
    # kernels[k] is a basis of ker x^k, k = 0 .. q + 1
    kernels = [[]] + [kernel(p) for p in powers] + [whole, whole]
    cols = []
    h_rows = [[0] * n for _ in range(n)]
    y_rows = [[F(0)] * n for _ in range(n)]
    for k in range(q, 0, -1):
        spanned = kernels[k - 1] + list(zip(*(x * _columns(kernels[k + 1], domain)).data))
        stack = spanned + kernels[k]
        _, pivots, _, _ = _eliminate(*_lower(_columns(stack, domain)))
        heads = [stack[pc] for _, pc in pivots if pc >= len(spanned)]
        if heads:
            chain = [_columns(heads, domain)]
            for _ in range(k - 1):
                chain.append(x * chain[-1])
            for c in range(len(heads)):
                o = len(cols)
                cols.extend(step.col(c) for step in reversed(chain))
                for t in range(k):
                    h_rows[o + t][o + t] = k - 1 - 2 * t
                for t in range(1, k):
                    y_rows[o + t][o + t - 1] = F(t * (k - t))
    p = _columns(cols, domain)
    p_inv = inverse(p)
    h = p * Matrix(domain, h_rows) * p_inv
    y = p * Matrix(domain, y_rows) * p_inv
    triple = Sl2Triple(x, h, y)
    triple.verify()
    return triple


def _columns(vectors, domain) -> Matrix:
    """The matrix with these vectors as its columns."""
    return Matrix(domain, list(zip(*vectors)))


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

    def _embed(self, m: Matrix, base) -> Matrix:
        """The 2x2 matrix m in rows and columns (i, j), base on the rest of
        the diagonal and zero elsewhere."""
        i, j = self.alpha.i, self.alpha.j
        rows = [[base if a == b else 0 for b in range(self.n)] for a in range(self.n)]
        rows[i][i], rows[i][j] = m.data[0]
        rows[j][i], rows[j][j] = m.data[1]
        return Matrix(m.domain, rows)

    def group(self, h) -> GroupElement:
        return GroupElement(self._embed(h.mat if isinstance(h, GroupElement) else h, 1))

    def lie(self, m: Matrix) -> Matrix:
        return self._embed(m, 0)

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
