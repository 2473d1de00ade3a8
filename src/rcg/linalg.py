"""Dense exact linear algebra over the tower and Puiseux scalar fields.

Matrices are immutable and homogeneous in scalar kind: each carries a
ScalarDomain, TOWER or a PuiseuxDomain, and a PuiseuxDomain fixes the
relative truncation order of every inverse and square root taken through
it (PUISEUX is the one at puiseux.DEFAULT_REL_ORDER).  Elimination pivots
are chosen by exact zero tests; when a truncated Puiseux entry cannot be
classified the operation aborts with IndeterminateSign instead of guessing.
Two constructors build the shapes the group modules work with:
Matrix.diagonal(entries) (torus elements; Matrix.identity is built on it)
and Matrix.unit(n, i, j, x), the root vector x E_ij.

The symmetric eigen solvers back the Cartan decomposition: sym_eigen_tower
factors the characteristic polynomial over the tower (rational roots plus
quadratic splitting, so 2x2 always works), sym_eigen_lift solves the
leading-order problem of a Puiseux matrix and refines the branches by
Newton iteration to a requested relative order (default: the matrix's
domain order).  Both return eigenvectors with det(V) = +1.

The rational kernel.  A tower scalar of depth 0 is a Fraction, and the
nilpotent calculus on rational input meets no others.  The Matrix
operations (products, sums, differences, scalings, trace, char_poly, and
through _eliminate rank, kernel, solve, inverse and det from 4x4 on) lower
their operands once with _lower: when every entry of every operand has
depth 0, the operation runs its one generic body over _Q, a private domain
of plain Fractions, and _lift wraps the results back into depth-0
TowerScalars without coercing them again.  The choice depends only on the
input: an operand with a radical, and every Puiseux matrix, runs the same
body over its own domain and scalars.  A product over _Q scales each row of
the left factor and each column of the right one to integers by the lcm of
its denominators, so each result entry is one integer inner product and one
Fraction.  Every Fraction sum and product normalises by a gcd, so an inner
product over Fractions pays two per term; on dense 5x5 matrices of small
rationals it took about eight times as long.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cmp_to_key
from math import lcm
from operator import mul

from .errors import (
    DegenerateLeadingSpectrum,
    DomainError,
    IndeterminateSign,
    RepeatedEigenvalue,
    SingularMatrix,
    UnsolvableSpectrum,
)
from .puiseux import DEFAULT_REL_ORDER, PuiseuxScalar, _positive_order
from .tower import _QQ, TowerScalar
from .tower import sqrt_positive as tower_sqrt

F = Fraction


class ScalarDomain:
    """Field operations a Matrix needs beyond the scalar dunders."""

    def coerce(self, x):
        raise NotImplementedError

    def is_zero(self, s) -> bool:
        raise NotImplementedError

    def vanishes(self, s) -> bool:
        """True iff every known term of s is zero: exact zero over the
        tower; over the Puiseux field, whatever is unknown lies in the tail.
        Never raises IndeterminateSign."""
        raise NotImplementedError

    def sign(self, s) -> int:
        raise NotImplementedError

    def invert(self, s):
        raise NotImplementedError

    def sqrt_positive(self, s):
        raise NotImplementedError

    @property
    def zero(self):
        return self.coerce(0)

    @property
    def one(self):
        return self.coerce(1)


class _TowerDomain(ScalarDomain):
    name = "tower"

    def coerce(self, x):
        return TowerScalar.coerce(x)

    def is_zero(self, s):
        return s.is_zero()

    vanishes = is_zero

    def sign(self, s):
        return s.sign()

    def invert(self, s):
        return s.inv()

    def sqrt_positive(self, s):
        return tower_sqrt(s)


class PuiseuxDomain(ScalarDomain):
    """The Puiseux field at one relative truncation order: invert and
    sqrt_positive work to `order` exponent units below the leading term.
    The order must be positive (DomainError otherwise)."""

    name = "puiseux"

    def __init__(self, order=DEFAULT_REL_ORDER):
        self.order = _positive_order(order)

    def coerce(self, x):
        return PuiseuxScalar.coerce(x)

    def is_zero(self, s):
        return s.is_zero()

    def vanishes(self, s):
        return not s.terms

    def sign(self, s):
        return s.sign()

    def invert(self, s):
        return s.invert(self.order)

    def sqrt_positive(self, s):
        return s.sqrt_positive(self.order)


class _RationalDomain(ScalarDomain):
    """Q as plain Fractions: the domain that a tower matrix of depth-0
    entries is lowered to.  No Matrix carries it, and it has only the
    operations that elimination needs."""

    def coerce(self, x):
        return Fraction(x)

    def is_zero(self, q):
        return not q

    def invert(self, q):
        return 1 / q


TOWER = _TowerDomain()
PUISEUX = PuiseuxDomain()
_Q = _RationalDomain()


class Matrix:
    """Immutable dense matrix over one scalar domain."""

    __slots__ = ("domain", "data", "nrows", "ncols")

    def __init__(self, domain: ScalarDomain, rows):
        data = tuple(tuple(domain.coerce(x) for x in row) for row in rows)
        if not data or not data[0]:
            raise DomainError("matrix needs at least one row and column")
        if any(len(r) != len(data[0]) for r in data):
            raise DomainError("ragged rows")
        self.domain = domain
        self.data = data
        self.nrows = len(data)
        self.ncols = len(data[0])

    # -- constructors --------------------------------------------------------

    @staticmethod
    def tower(rows) -> "Matrix":
        return Matrix(TOWER, rows)

    @staticmethod
    def puiseux(rows) -> "Matrix":
        return Matrix(PUISEUX, rows)

    @staticmethod
    def diagonal(entries, domain: ScalarDomain = TOWER) -> "Matrix":
        """The square matrix with these diagonal entries, zero elsewhere."""
        n = len(entries)
        return Matrix(
            domain, [[entries[i] if i == j else 0 for j in range(n)] for i in range(n)]
        )

    @staticmethod
    def identity(n: int, domain: ScalarDomain = TOWER) -> "Matrix":
        return Matrix.diagonal([1] * n, domain)

    @staticmethod
    def unit(n: int, i: int, j: int, x=1, domain: ScalarDomain = TOWER) -> "Matrix":
        """x E_ij: the n x n matrix with x at (i, j), zero elsewhere."""
        return Matrix(
            domain, [[x if (a, b) == (i, j) else 0 for b in range(n)] for a in range(n)]
        )

    @staticmethod
    def zeros(n: int, m: int, domain: ScalarDomain = TOWER) -> "Matrix":
        return Matrix(domain, [[0] * m for _ in range(n)])

    def to_puiseux(self) -> "Matrix":
        """Constant embedding of a tower matrix into the Puiseux field."""
        if self.domain is not TOWER:
            return self
        return Matrix(PUISEUX, [[PuiseuxScalar.constant(x) for x in r] for r in self.data])

    # -- structure -----------------------------------------------------------

    def __getitem__(self, ij):
        i, j = ij
        return self.data[i][j]

    def row(self, i):
        return self.data[i]

    def col(self, j):
        return tuple(r[j] for r in self.data)

    def is_square(self) -> bool:
        return self.nrows == self.ncols

    def transpose(self) -> "Matrix":
        return Matrix(self.domain, list(zip(*self.data)))

    def trace(self):
        domain, rows = _lower(self)
        return _lift_scalar(domain, _sum(domain, [r[i] for i, r in enumerate(rows)]))

    # -- arithmetic ------------------------------------------------------------

    def _same_shape(self, other):
        """Both operands lowered together; DomainError unless same shape."""
        if (self.nrows, self.ncols) != (other.nrows, other.ncols):
            raise DomainError(
                f"shape mismatch: {self.nrows}x{self.ncols} and {other.nrows}x{other.ncols}"
            )
        domain, a, b = _lower_pair(self, other)
        return domain, zip(a, b)

    def __add__(self, other):
        domain, pairs = self._same_shape(other)
        return _lift(domain, [[a + b for a, b in zip(r1, r2)] for r1, r2 in pairs])

    def __sub__(self, other):
        domain, pairs = self._same_shape(other)
        return _lift(domain, [[a - b for a, b in zip(r1, r2)] for r1, r2 in pairs])

    def __neg__(self):
        return Matrix(self.domain, [[-a for a in r] for r in self.data])

    def __mul__(self, other):
        if isinstance(other, Matrix):
            if self.ncols != other.nrows:
                raise DomainError("dimension mismatch")
            domain, a, b = _lower_pair(self, other)
            return _lift(domain, _product(domain, a, b))
        domain, rows, s = _lower_scalar(self, other)
        return _lift(domain, [[a * s for a in r] for r in rows])

    def __rmul__(self, other):
        domain, rows, s = _lower_scalar(self, other)
        return _lift(domain, [[s * a for a in r] for r in rows])

    def __eq__(self, other):
        if not isinstance(other, Matrix):
            return NotImplemented
        if self.nrows != other.nrows or self.ncols != other.ncols:
            return False
        return all(
            a == b for r1, r2 in zip(self.data, other.data) for a, b in zip(r1, r2)
        )

    __hash__ = None

    def __str__(self):
        return "; ".join(", ".join(str(x) for x in row) for row in self.data)

    def __repr__(self):
        return f"Matrix[{self.nrows}x{self.ncols}]({self})"


def _dot(u, v, domain):
    """sum(u_i v_i), begun from the first product: over the Puiseux field a
    sum that starts from zero costs one more lattice merge.  An empty sum is
    domain.zero, and a sum of plain numbers is coerced into the domain."""
    products = map(mul, u, v)
    acc = next(products, None)
    if acc is None:
        return domain.zero
    for p in products:
        acc = acc + p
    return domain.coerce(acc)


def _all_vanish(m: Matrix) -> bool:
    """True iff every known entry of m vanishes (domain.vanishes): exactly
    zero over the tower; never raises IndeterminateSign."""
    return all(m.domain.vanishes(x) for row in m.data for x in row)


class _Scaled:
    """The scaled form base diag(scales) of a matrix whose columns each
    carry their own radical: base over the input's own field, each scale
    positive with its square in that field (a tower constant, or a series
    such as Iwasawa's 1/r_j).  Entry (i, j) is one product in the tower of
    its one scale, so the matrix's identities can be checked on base, with
    no tower merge (decomp's certify)."""

    __slots__ = ("base", "scales")

    def __init__(self, base: Matrix, scales):
        self.base = base
        self.scales = scales

    def matrix(self) -> Matrix:
        """base diag(scales)."""
        return Matrix(
            self.base.domain,
            [[x * s for x, s in zip(row, self.scales)] for row in self.base.data],
        )

    def describes(self, m: Matrix) -> bool:
        """Every entry of m equals its product base_ij scales_j."""
        return all(
            x == b * s
            for row, brow in zip(m.data, self.base.data)
            for x, b, s in zip(row, brow, self.scales)
        )

    def column_norms(self):
        """The squared column norms d_j of base when base^T base is diagonal
        and every d_j scales_j^2 = 1 (so the matrix is orthogonal; every
        known term counts), else None.  Rational dot products run over
        _Q."""
        dom = self.base.domain
        lowered, rows = _lower(self.base)
        cols = list(zip(*rows))

        def dot(i, j):
            return _lift_scalar(lowered, _dot(cols[i], cols[j], lowered))

        n = len(cols)
        if not all(dom.vanishes(dot(i, j)) for i in range(n) for j in range(i + 1, n)):
            return None
        norms = [dot(j, j) for j in range(n)]
        if not all(dom.vanishes(d * (s * s) - dom.one) for d, s in zip(norms, self.scales)):
            return None
        return norms


# ---------------------------------------------------------------------------
# the lowering seam

def _lower(m: Matrix):
    """(_Q, rows of Fractions) when m is a tower matrix whose entries all
    have depth 0 (a single coordinate), else (m.domain, m.data)."""
    if m.domain is TOWER and all(len(x.coeffs) == 1 for row in m.data for x in row):
        return _Q, [[x.coeffs[0] for x in row] for row in m.data]
    return m.domain, m.data


def _lower_pair(a: Matrix, b: Matrix):
    """(domain, rows of a, rows of b): over _Q only when both lower."""
    domain, ra = _lower(a)
    if domain is _Q:
        db, rb = _lower(b)
        if db is _Q:
            return _Q, ra, rb
    return a.domain, a.data, b.data


def _lower_scalar(m: Matrix, s):
    """(domain, rows of m, s): over _Q when m lowers and s is an int, a
    Fraction or a depth-0 tower scalar."""
    domain, rows = _lower(m)
    if domain is _Q:
        if isinstance(s, TowerScalar) and len(s.coeffs) == 1:
            return _Q, rows, s.coeffs[0]
        if isinstance(s, (int, Fraction)):
            return _Q, rows, Fraction(s)
    return m.domain, m.data, m.domain.coerce(s)


def _lift(domain, rows) -> Matrix:
    """The Matrix of rows computed in `domain`; rows over _Q become depth-0
    TowerScalars directly."""
    if domain is not _Q:
        return Matrix(domain, rows)
    m = object.__new__(Matrix)
    m.domain = TOWER
    m.data = tuple(tuple(TowerScalar(_QQ, (q,)) for q in row) for row in rows)
    m.nrows = len(m.data)
    m.ncols = len(m.data[0])
    return m


def _lift_scalar(domain, x):
    return TowerScalar(_QQ, (x,)) if domain is _Q else x


def _depth0(x):
    """x as a depth-0 tower scalar when it is a rational tower scalar of any
    depth (TowerScalar.as_fraction), else x: rational values of different
    towers then meet with no tower merge."""
    q = x.as_fraction() if isinstance(x, TowerScalar) else None
    return x if q is None else TowerScalar(_QQ, (q,))


def _sum(domain, xs):
    t = domain.zero
    for x in xs:
        t = t + x
    return t


def _product(domain, a, b):
    """Rows of the matrix product a b over `domain`.  Over _Q each row of a
    and each column of b is scaled to integers by the lcm of its
    denominators; each entry is then one integer inner product and one
    Fraction."""
    if domain is not _Q:
        cols = list(zip(*b))
        return [[_dot(row, col, domain) for col in cols] for row in a]
    rows = [_integer_scaled(r) for r in a]
    cols = [_integer_scaled(c) for c in zip(*b)]
    return [
        [Fraction(sum(map(mul, r, c)), dr * dc) for c, dc in cols]
        for r, dr in rows
    ]


def _integer_scaled(fracs):
    """(integers, d) with integers = d * fracs and d the lcm of the
    denominators."""
    d = lcm(*[q.denominator for q in fracs])
    return [q.numerator * (d // q.denominator) for q in fracs], d


#: sort key for exact scalars of one field: compares by the sign of a - b
_exact_key = cmp_to_key(lambda a, b: (a - b).sign())


def commutator(a: Matrix, b: Matrix) -> Matrix:
    return a * b - b * a


# ---------------------------------------------------------------------------
# elimination

def _find_pivot(column, start, domain):
    """Index of the first provably nonzero entry from `start`, or None if the
    whole tail is provably zero.  IndeterminateSign if neither can be shown."""
    indeterminate = False
    for i in range(start, len(column)):
        try:
            if not domain.is_zero(column[i]):
                return i
        except IndeterminateSign:
            indeterminate = True
    if indeterminate:
        raise IndeterminateSign("pivot choice blocked by truncated entries")
    return None


def _eliminate(domain, m_rows, rhs_rows=None):
    """Row echelon form by exact division over `domain`.  Returns (rows,
    pivots, det_sign, rhs_rows); rhs_rows, when given, are transformed
    alongside."""
    rows = [list(r) for r in m_rows]
    rrows = [list(r) for r in rhs_rows] if rhs_rows is not None else None
    nrows, ncols = len(rows), len(rows[0])
    pivots = []
    det_sign = 1
    pr = 0
    for pc in range(ncols):
        if pr >= nrows:
            break
        col = [rows[i][pc] for i in range(nrows)]
        idx = _find_pivot(col, pr, domain)
        if idx is None:
            continue
        if idx != pr:
            rows[pr], rows[idx] = rows[idx], rows[pr]
            if rrows is not None:
                rrows[pr], rrows[idx] = rrows[idx], rrows[pr]
            det_sign = -det_sign
        inv = domain.invert(rows[pr][pc])
        for i in range(pr + 1, nrows):
            factor = rows[i][pc] * inv
            try:
                skip = domain.is_zero(factor)
            except IndeterminateSign:
                skip = False
            if skip:
                continue
            rows[i] = [a - factor * b for a, b in zip(rows[i], rows[pr])]
            if rrows is not None:
                rrows[i] = [a - factor * b for a, b in zip(rrows[i], rrows[pr])]
        pivots.append((pr, pc))
        pr += 1
    return rows, pivots, det_sign, rrows


def rank(m: Matrix) -> int:
    _, pivots, _, _ = _eliminate(*_lower(m))
    return len(pivots)


def det(m: Matrix):
    """Determinant, exact, with one strategy per field.

    Up to 3x3 the cofactor closed forms run over both fields: they are
    division-free and beat elimination on small matrices whose entries lie
    in different towers.  From 4x4 on, a tower matrix is reduced by
    Gaussian elimination (_eliminate), polynomial in n.  A Puiseux matrix
    always takes the cofactor expansion, at any size: it never divides and
    never tests a truncated entry for zero, so tails propagate into the
    result instead of blocking a pivot.

    From 4x4 on, a tower matrix whose entries all have depth 0 is
    eliminated on plain Fractions (the rational kernel of this module), and
    the result is a depth-0 TowerScalar.  The closed forms keep the scalars
    as given: they cost at most a dozen products, so lowering saves them
    little."""
    if not m.is_square():
        raise DomainError("determinant of a non-square matrix")
    if m.domain is not TOWER or m.nrows <= 3:
        return _det_rows(m.data, m.domain)
    domain, rows = _lower(m)
    rows, pivots, det_sign, _ = _eliminate(domain, rows)
    if len(pivots) < m.nrows:
        return _lift_scalar(domain, domain.zero)
    out = rows[0][0]
    for i in range(1, m.nrows):
        out = out * rows[i][i]
    return _lift_scalar(domain, out if det_sign > 0 else -out)


def _det_rows(rows, domain):
    """Determinant by cofactor expansion along the first row."""
    n = len(rows)
    if n == 1:
        return rows[0][0]
    if n == 2:
        return rows[0][0] * rows[1][1] - rows[0][1] * rows[1][0]
    total = domain.zero
    rest = rows[1:]
    sign = 1
    for j in range(n):
        minor = [
            [row[k] for k in range(n) if k != j]
            for row in rest
        ]
        term = rows[0][j] * _det_rows(minor, domain)
        total = total + term if sign > 0 else total - term
        sign = -sign
    return total


def solve(m: Matrix, rhs: Matrix) -> Matrix:
    """Solve m x = rhs exactly.  SingularMatrix on rank deficiency."""
    if not m.is_square() or rhs.nrows != m.nrows:
        raise DomainError("dimension mismatch")
    domain, rows, rrows = _lower_pair(m, rhs)
    rows, pivots, _, rrows = _eliminate(domain, rows, rrows)
    if len(pivots) < m.nrows:
        raise SingularMatrix("rank-deficient system")
    n = m.nrows
    k = rhs.ncols
    sol = [[domain.zero] * k for _ in range(n)]
    for pr, pc in reversed(pivots):
        inv = domain.invert(rows[pr][pc])
        for c in range(k):
            acc = rrows[pr][c]
            for j in range(pc + 1, n):
                acc = acc - rows[pr][j] * sol[j][c]
            sol[pc][c] = acc * inv
    return _lift(domain, sol)


def inverse(m: Matrix) -> Matrix:
    return solve(m, Matrix.identity(m.nrows, m.domain))


def kernel(m: Matrix) -> list:
    """Basis of the right kernel, as a list of column tuples."""
    domain, rows = _lower(m)
    rows, pivots, _, _ = _eliminate(domain, rows)
    pivot_cols = [pc for _, pc in pivots]
    free_cols = [c for c in range(m.ncols) if c not in pivot_cols]
    basis = []
    for fc in free_cols:
        v = [domain.zero] * m.ncols
        v[fc] = domain.one
        for pr, pc in reversed(pivots):
            acc = rows[pr][fc]
            for j in pivot_cols:
                if j > pc:
                    acc = acc + rows[pr][j] * v[j]
            v[pc] = -acc * domain.invert(rows[pr][pc])
        basis.append(tuple(_lift_scalar(domain, x) for x in v))
    return basis


def char_poly(m: Matrix) -> list:
    """Monic characteristic polynomial coefficients [1, c1, ..., cn] with
    p(t) = t^n + c1 t^(n-1) + ... + cn, by the Faddeev-LeVerrier recursion
    (valid in characteristic zero; only integer divisions appear).  The
    last product is read only through its trace, so only its diagonal is
    formed."""
    if not m.is_square():
        raise DomainError("char_poly of a non-square matrix")
    n = m.nrows
    domain, rows = _lower(m)
    coeffs = [domain.one]
    mk = rows
    diagonal = [r[i] for i, r in enumerate(rows)]
    for k in range(1, n + 1):
        ck = _sum(domain, diagonal) * F(-1, k)
        coeffs.append(ck)
        if k < n:
            shifted = _shift_diagonal(mk, ck)
            if k < n - 1:
                mk = _product(domain, rows, shifted)
                diagonal = [r[i] for i, r in enumerate(mk)]
            else:
                diagonal = [_dot(r, [x[i] for x in shifted], domain) for i, r in enumerate(rows)]
    return [_lift_scalar(domain, c) for c in coeffs]


def _shift_diagonal(rows, c):
    """The rows of m + c I: c is added to the diagonal entries only."""
    return [[x + c if i == j else x for j, x in enumerate(r)] for i, r in enumerate(rows)]


# ---------------------------------------------------------------------------
# root finding over the tower

#: largest constant coefficient whose divisors the rational-root search tries
_DIVISOR_LIMIT = 10**12


def _divisors(n: int):
    n = abs(n)
    if n == 0:
        return []
    if n > _DIVISOR_LIMIT:
        raise UnsolvableSpectrum("constant coefficient too large for root search")
    out = []
    d = 1
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            out.append(n // d)
        d += 1
    return sorted(set(out))


def _eval_poly(coeffs, x):
    acc = coeffs[0]
    for c in coeffs[1:]:
        acc = acc * x + c
    return acc


def tower_roots(coeffs: list) -> list:
    """All roots of a monic polynomial with TowerScalar coefficients, found
    by rational-root extraction plus quadratic-formula splitting.  Degree <= 2
    always succeeds over the tower when the roots are real; higher degrees
    succeed only when rational roots reduce them to that case."""
    coeffs = [TowerScalar.coerce(c) for c in coeffs]
    deg = len(coeffs) - 1
    if deg == 0:
        return []
    if deg == 1:
        return [-coeffs[1]]
    if deg == 2:
        b, c = coeffs[1], coeffs[2]
        disc = b * b - 4 * c
        s = disc.sign()
        if s < 0:
            raise UnsolvableSpectrum("negative discriminant: no real roots")
        root = tower_sqrt(disc) if s > 0 else TowerScalar.coerce(0)
        half = F(1, 2)
        return [(-b + root) * half, (-b - root) * half]
    fracs = [c.as_fraction() for c in coeffs]
    if any(f is None for f in fracs):
        raise UnsolvableSpectrum(
            f"degree-{deg} factorisation over the tower needs rational coefficients"
        )
    ints, _ = _integer_scaled(fracs)
    if ints[-1] == 0:
        root = F(0)
    else:
        lead_divisors = _divisors(ints[0])
        candidates = (
            F(s * p, q) for p in _divisors(ints[-1]) for q in lead_divisors for s in (1, -1)
        )
        root = next((c for c in candidates if _eval_poly(fracs, c) == 0), None)
    if root is None:
        raise UnsolvableSpectrum(f"no rational root for degree-{deg} factor")
    # synthetic division by (x - root)
    quotient = [fracs[0]]
    for c in fracs[1:-1]:
        quotient.append(c + quotient[-1] * root)
    rest = tower_roots([TowerScalar.coerce(q) for q in quotient])
    return [TowerScalar.coerce(root)] + rest


# ---------------------------------------------------------------------------
# symmetric eigen decomposition over the tower

def _check_symmetric(s: Matrix):
    if not s.is_square():
        raise DomainError("symmetric eigenproblem needs a square matrix")
    for i in range(s.nrows):
        for j in range(i + 1, s.ncols):
            if not s.domain.vanishes(s.data[i][j] - s.data[j][i]):
                raise DomainError("matrix is not symmetric")


def sym_eigen_tower(s: Matrix):
    """Exact eigen decomposition of a symmetric tower matrix with distinct
    eigenvalues.  Returns (eigenvalues descending, V) with V orthonormal,
    det(V) = +1 and s V = V diag(eigenvalues)."""
    _check_symmetric(s)
    n = s.nrows
    lams = tower_roots(char_poly(s))
    for i in range(n):
        for j in range(i + 1, n):
            if (lams[i] - lams[j]).is_zero():
                raise RepeatedEigenvalue("spectrum is not simple")
    lams.sort(key=_exact_key, reverse=True)
    cols = []
    for lam in lams:
        basis = kernel(Matrix(TOWER, _shift_diagonal(s.data, -lam)))
        if len(basis) != 1:
            raise RepeatedEigenvalue("eigenspace dimension exceeds one")
        cols.append(_orient(basis[0]))
    # the frame's sign is read before normalising: each column is scaled
    # by a positive 1/norm, which carries a radical of its own
    frame = _special_orthogonal(cols, TOWER)
    inv_norms = [tower_sqrt(_dot(v, v, TOWER)).inv() for v in cols]
    return lams, Matrix(
        TOWER, [[x * inv_norms[j] for j, x in enumerate(r)] for r in frame.data]
    )


def _orient(v):
    """v or -v, whichever has its first entry of known nonzero sign positive."""
    for x in v:
        try:
            sgn = x.sign()
        except IndeterminateSign:
            continue
        if sgn:
            return v if sgn > 0 else [-y for y in v]
    return v


def _special_orthogonal(cols, domain) -> Matrix:
    """The matrix V with these orthogonal columns, the last one negated
    when that is what gives it det(V) > 0.  Scaling a column by a positive
    number keeps that sign, so both callers pass their columns before the
    radical of each column's norm enters: the tower caller its
    unnormalised eigenvectors, in their eigenvalues' towers, and the
    Puiseux caller its directions (unit vectors times one positive
    constant per column, in s's own field), whose sign is read at X^0
    (_x0_det_sign)."""
    rows = list(zip(*cols))
    if domain is TOWER:
        sign = det(Matrix(TOWER, rows)).sign()
    else:
        sign = _x0_det_sign(rows)
    if sign < 0:
        cols[-1] = [-x for x in cols[-1]]
    return Matrix(domain, list(zip(*cols)))


def _x0_det_sign(rows) -> int:
    """The sign of det(V) for a Puiseux matrix V whose columns are unit
    vectors times positive constants (det(V) = +-1 for unit columns).

    Such a column has no entry with a term above X^0, so the X^0
    coefficient of det(V) is det(V0), where V0 is the tower matrix of the
    entries' X^0 coefficients.  IndeterminateSign when an X^0 coefficient
    is unknown or det(V0) is 0."""
    sign = det(Matrix(TOWER, [[x.coefficient(0) for x in r] for r in rows])).sign()
    if sign == 0:
        raise IndeterminateSign("det(V) has no known term at X^0")
    return sign


def _orthogonal_det_sign(m: Matrix) -> int:
    """det(m), +1 or -1, for an m with m m^T = I, which the caller has
    checked (over the Puiseux field: to every known term).

    Over the tower no product of the entries' radicals is formed.  Each
    entry is enclosed in a rational interval of width 1/(2 n^2), and M is
    the matrix of midpoints, so every column of E = M - m has length at
    most sqrt(n)/(4 n^2).  Replacing m's unit columns by M's one at a time,
    |det M - det m| <= n * |E_j| * (1 + |E_j|)^(n-1) < e^(1/4)/4 < 1/2
    (Hadamard's bound on each step), so det M lies within 1/2 of det m =
    +-1 and its sign is det m.  Over the Puiseux field the sign is read at
    X^0 (_x0_det_sign)."""
    if m.domain is not TOWER:
        return _x0_det_sign(m.data)
    width = F(1, 2 * m.nrows * m.nrows)
    mid = [[sum(x.approx(width)) / 2 for x in r] for r in m.data]
    return det(Matrix.tower(mid)).sign()


# ---------------------------------------------------------------------------
# symmetric eigen lifting over the Puiseux field

class SymEigenLift:
    """Eigen data of a symmetric Puiseux matrix s, lifted to the relative
    order certified_order.  Every known term of s v - lam v and of
    V^T V - I vanishes.  Each eigenvalue is known to certified_order below
    its own leading term.  The residuals are known less deep: s v - lam v
    at best to certified_order below the scale of s (its largest
    eigenvalue), which for an eigenvalue of smaller scale is certified_order
    less the exponent spread of the eigenvalues; V^T V = I at best to
    certified_order below X^0, and on some inputs less.

    Column j of V is rho_j w_j: the radicals enter through one positive
    tower constant rho_j per column, and the direction w_j lies in s's own
    field.  The private _frame is V's scaled form _Scaled(W, [rho_j]), W
    the directions, which the Cartan k2 = V^T carries."""

    __slots__ = ("eigenvalues", "eigenvectors", "certified_order", "_frame")

    def __init__(self, eigenvalues, eigenvectors, certified_order):
        self.eigenvalues = eigenvalues
        self.eigenvectors = eigenvectors
        self.certified_order = certified_order
        self._frame = None


def _newton_polygon_branches(coeffs):
    """Leading terms (mu, c) of the char-poly roots via the upper Newton
    polygon.  coeffs[k] multiplies lambda^(n-k)."""
    n = len(coeffs) - 1
    pts = []
    for k, c in enumerate(coeffs):
        power = n - k
        if isinstance(c, PuiseuxScalar):
            if not c.terms:
                if c.tail is not None:
                    raise IndeterminateSign(
                        "characteristic coefficient has unknown leading term"
                    )
                continue
            pts.append((power, c.terms[0][0], c.terms[0][1]))
        else:
            if TowerScalar.coerce(c).is_zero():
                continue
            pts.append((power, F(0), TowerScalar.coerce(c)))
    pts.sort(reverse=True)
    if pts[-1][0] != 0:
        raise DegenerateLeadingSpectrum("zero eigenvalue at leading order")
    # upper convex hull from (n, E_n) to (0, E_0)
    hull = [pts[0]]
    for p in pts[1:]:
        while len(hull) >= 2:
            (x1, y1, _), (x2, y2, _) = hull[-2], hull[-1]
            if (y2 - y1) * (p[0] - x1) >= (p[1] - y1) * (x2 - x1):
                hull.pop()
            else:
                break
        hull.append(p)
    by_power = {p[0]: (p[1], p[2]) for p in pts}
    branches = []
    for (x_hi, y_hi, _), (x_lo, y_lo, _) in zip(hull, hull[1:]):
        mu = (y_lo - y_hi) / (x_hi - x_lo)
        edge = []
        for power in range(x_lo, x_hi + 1):
            expected = y_hi + mu * (x_hi - power)
            if power in by_power and by_power[power][0] == expected:
                edge.append((power, by_power[power][1]))
            else:
                edge.append((power, TowerScalar.coerce(0)))
        # edge polynomial in z, degree x_hi - x_lo, leading coeff at power x_hi
        poly = [c for _, c in sorted(edge, reverse=True)]
        lead_inv = poly[0].inv()
        monic = [c * lead_inv for c in poly]
        roots = tower_roots(monic)
        for z in roots:
            if z.is_zero():
                raise DegenerateLeadingSpectrum("edge polynomial has a zero root")
            branches.append((mu, z))
    if len(branches) != n:
        raise DegenerateLeadingSpectrum("leading problem does not split")
    for i in range(n):
        for j in range(i + 1, n):
            if branches[i][0] == branches[j][0] and (
                branches[i][1] - branches[j][1]
            ).is_zero():
                raise DegenerateLeadingSpectrum("repeated leading eigenvalue")
    return branches


def _adjugate_column(rows, j, domain) -> list:
    """Column j of adj(m) for the square matrix m with these rows: entry i
    is (-1)^(i+j) times the minor of m without row j and column i."""
    n = len(rows)
    if n == 1:
        return [domain.one]
    others = [r for k, r in enumerate(rows) if k != j]
    col = []
    for i in range(n):
        minor = _det_rows([[x for c, x in enumerate(r) if c != i] for r in others], domain)
        col.append(minor if (i + j) % 2 == 0 else -minor)
    return col


def sym_eigen_lift(s: Matrix, order=None) -> SymEigenLift:
    """Eigen series of a symmetric Puiseux matrix whose leading spectrum is
    simple, refined to the given relative order (default: the order of
    s.domain); see SymEigenLift for what the result certifies.  The
    eigenvectors are the columns of V, det(V) = +1.

    Each eigenvalue lam is refined by Newton's method on the characteristic
    polynomial.  Its eigenvector is a column v of adj(s - lam I), formed
    only when the columns before it have no norm of known positive sign,
    and normalised in two parts: |v|^2 has the root c r (the root parts of
    puiseux), the direction w = v / r stays in s's field, and the
    eigenvector is rho w with rho = 1/c.  Orientation and det(V) = +1 are
    fixed on the directions, as rho > 0 keeps both signs."""
    if s.domain is TOWER:
        raise DomainError("sym_eigen_lift needs a Puiseux matrix; use sym_eigen_tower")
    _check_symmetric(s)
    order = s.domain.order if order is None else _positive_order(order)
    n = s.nrows
    coeffs = char_poly(s)
    branches = _newton_polygon_branches(coeffs)
    slack = order + 4
    lams = []
    deriv = [c * (n - k) for k, c in enumerate(coeffs[:-1])]
    for mu, z in branches:
        lam = PuiseuxScalar.monomial(z, mu)
        cutoff = mu - slack
        for _ in range(100):
            # no explicit working cutoff: the per-value tails already bound what
            # is reliable, and mid-sum cancellations make scale estimates unsafe
            f = _eval_poly(coeffs, lam)
            fp = _eval_poly(deriv, lam)
            update = (f * fp.invert(slack)).truncate_below(cutoff)
            lam = (lam - update).truncate_below(cutoff)
            if not update.truncate_below(mu - order).terms:
                break
        else:
            raise UnsolvableSpectrum("Newton refinement did not converge")
        lams.append(lam.truncate_below(mu - order))
    lams.sort(key=_exact_key, reverse=True)
    cols, rhos = [], []
    for lam in lams:
        shifted = _shift_diagonal(s.data, -lam)
        chosen = None
        for j in range(n):
            v = _adjugate_column(shifted, j, s.domain)
            norm2 = _dot(v, v, s.domain)
            try:
                if norm2.sign() == 1:
                    chosen = (v, norm2)
                    break
            except IndeterminateSign:
                continue
        if chosen is None:
            raise IndeterminateSign("eigenvector not determined at this order")
        v, norm2 = chosen
        c, r = norm2._root_parts(order)
        inv_r = r.invert(order)
        cols.append(_orient([x * inv_r for x in v]))
        rhos.append(c.inv())
    form = _Scaled(_special_orthogonal(cols, s.domain), rhos)
    lift = SymEigenLift(lams, form.matrix(), order)
    lift._frame = form
    return lift
