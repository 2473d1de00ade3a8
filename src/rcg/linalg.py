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

The rational kernel.  A tower scalar of depth 0 is a rational number, one
canonical integer pair nums[0] / den, and the nilpotent calculus on
rational input meets no others.  A tower matrix whose entries all have
depth 0 has one integer form (rows, d): integer rows over one common
denominator d > 0, divided by the gcd of d and every entry, so two such
matrices are equal iff their forms are.  _lower computes it once, from the
entries' pairs, and keeps it on the matrix.  Products (integer inner
products over d_a d_b), sums and differences (over lcm(d_a, d_b)), rational
scalings, negation, transposes, == and the zero tests read and write only
forms, and so do the constructors given ints and Fractions (identity,
diagonal, unit, zeros, _lift).  Such a result builds its data, depth-0
TowerScalars, only when they are first read.  _eliminate, the one
elimination, runs Bareiss's fraction-free Gauss-Jordan step on the integer
rows (Bareiss (1968), "Sylvester's identity and multistep
integer-preserving Gaussian elimination"): row <- (p row - f pivot_row) /
prev, an exact integer division, so every pivot ends equal to the last one;
rank, kernel, solve, inverse and det read their results off those rows.
Trace, char_poly, Gram-Schmidt and the root sweep work on Fractions
(_over_q), read off the data when they are built, with no form computed.
An operand with a radical, and every Puiseux matrix, runs the same bodies
on its own domain and scalars.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cmp_to_key
from itertools import chain
from math import gcd, lcm
from operator import add, mul, sub

from .errors import (
    DegenerateLeadingSpectrum,
    DomainError,
    IndeterminateSign,
    RepeatedEigenvalue,
    SingularMatrix,
    UnsolvableSpectrum,
)
from .puiseux import DEFAULT_REL_ORDER, PuiseuxScalar, _positive_order
from .tower import _QQ, TowerScalar, _scalar
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
    """Q as plain Fractions: the domain of the rows that _over_q reads off
    a tower matrix of depth-0 entries (Gram-Schmidt and the root sweep work
    on them).  No Matrix carries it, and it has only the operations those
    need."""

    def coerce(self, x):
        return Fraction(x)

    def is_zero(self, q):
        return not q

    def invert(self, q):
        return 1 / q


class _IntegerRows(ScalarDomain):
    """The integer rows of a form: _eliminate runs Bareiss's step on them,
    and det's closed forms multiply them.  No Matrix carries it."""

    def coerce(self, x):
        return x

    def is_zero(self, x):
        return not x


TOWER = _TowerDomain()
PUISEUX = PuiseuxDomain()
_Q = _RationalDomain()
_Z = _IntegerRows()


class Matrix:
    """Immutable dense matrix over one scalar domain.

    A tower matrix may hold its integer form in _form (the rational kernel
    of this module): None until _lower computes it, False when it has none.
    A matrix built from its form alone makes its data on first read."""

    __slots__ = ("domain", "data", "nrows", "ncols", "_form")

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
        self._form = None if domain is TOWER else False

    def __getattr__(self, name):
        """The data of a matrix built from its integer form: depth-0
        TowerScalars, made and kept on first read."""
        if name != "data":
            raise AttributeError(name)
        rows, d = self._form
        self.data = data = tuple(tuple(_scalar(_QQ, (x,), d) for x in row) for row in rows)
        return data

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
        return _lift(domain, [[entries[i] if i == j else 0 for j in range(n)] for i in range(n)])

    @staticmethod
    def identity(n: int, domain: ScalarDomain = TOWER) -> "Matrix":
        return Matrix.diagonal([1] * n, domain)

    @staticmethod
    def unit(n: int, i: int, j: int, x=1, domain: ScalarDomain = TOWER) -> "Matrix":
        """x E_ij: the n x n matrix with x at (i, j), zero elsewhere."""
        return _lift(
            domain, [[x if (a, b) == (i, j) else 0 for b in range(n)] for a in range(n)]
        )

    @staticmethod
    def zeros(n: int, m: int, domain: ScalarDomain = TOWER) -> "Matrix":
        return _lift(domain, [[0] * m for _ in range(n)])

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
        return _rearranged(self, lambda rows: zip(*rows))

    def trace(self):
        domain, rows = _over_q(self)
        return _lift_scalar(_sum([r[i] for i, r in enumerate(rows)], domain))

    # -- arithmetic ------------------------------------------------------------

    def _combine(self, other, op):
        """self op other entry by entry, op add or sub; DomainError unless
        both have the same shape."""
        if (self.nrows, self.ncols) != (other.nrows, other.ncols):
            raise DomainError(
                f"shape mismatch: {self.nrows}x{self.ncols} and {other.nrows}x{other.ncols}"
            )
        forms = _lower_pair(self, other)
        if forms:
            return _from_form(*_form_sum(*forms, op))
        return Matrix(self.domain, [list(map(op, r1, r2)) for r1, r2 in zip(self.data, other.data)])

    def __add__(self, other):
        return self._combine(other, add)

    def __sub__(self, other):
        return self._combine(other, sub)

    def __neg__(self):
        form = self._form
        if form:
            rows, d = form
            return _from_form([[-a for a in r] for r in rows], d)
        return Matrix(self.domain, [[-a for a in r] for r in self.data])

    def _scaled(self, s, op):
        """Each entry a as op(a, s): over the integer form when the matrix
        has one and s is an int, a Fraction or a depth-0 tower scalar."""
        q = _rational(s)
        form = q is not None and _lower(self)
        if form:
            rows, d = form
            p, e = q
            return _from_form(*_reduced([[a * p for a in r] for r in rows], d * e))
        s = self.domain.coerce(s)
        return Matrix(self.domain, [[op(a, s) for a in r] for r in self.data])

    def __mul__(self, other):
        if isinstance(other, Matrix):
            if self.ncols != other.nrows:
                raise DomainError("dimension mismatch")
            forms = _lower_pair(self, other)
            if forms:
                return _from_form(*_form_product(*forms))
            return Matrix(self.domain, _product(self.domain, self.data, other.data))
        return self._scaled(other, mul)

    def __rmul__(self, other):
        return self._scaled(other, lambda a, s: s * a)

    def __eq__(self, other):
        if not isinstance(other, Matrix):
            return NotImplemented
        if self.nrows != other.nrows or self.ncols != other.ncols:
            return False
        forms = _lower_pair(self, other)
        if forms:
            return forms[0] == forms[1]
        return all(
            a == b for r1, r2 in zip(self.data, other.data) for a, b in zip(r1, r2)
        )

    __hash__ = None

    def __str__(self):
        return "; ".join(", ".join(str(x) for x in row) for row in self.data)

    def __repr__(self):
        return f"Matrix[{self.nrows}x{self.ncols}]({self})"


#: the slot that holds a matrix's data; reading it builds nothing
_DATA_SLOT = Matrix.data


def _held_data(m: Matrix):
    """m.data when it has been built, else None."""
    try:
        return _DATA_SLOT.__get__(m)
    except AttributeError:
        return None


def _sum(xs, domain):
    """sum(xs), begun from the first term: over the Puiseux field a sum that
    starts from zero costs one more lattice merge.  An empty sum is
    domain.zero, and a sum of plain numbers is coerced into the domain."""
    terms = iter(xs)
    acc = next(terms, None)
    if acc is None:
        return domain.zero
    for x in terms:
        acc = acc + x
    return domain.coerce(acc)


def _dot(u, v, domain):
    """sum(u_i v_i), by _sum."""
    return _sum(map(mul, u, v), domain)


def _all_vanish(m: Matrix) -> bool:
    """True iff every known entry of m vanishes (domain.vanishes): exactly
    zero over the tower, read off the integer form when m holds one; never
    raises IndeterminateSign."""
    form = m._form
    if form:
        return not any(map(any, form[0]))
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
        lowered, rows = _over_q(self.base)
        cols = list(zip(*rows))

        def dot(i, j):
            return _lift_scalar(_dot(cols[i], cols[j], lowered))

        n = len(cols)
        if not all(dom.vanishes(dot(i, j)) for i in range(n) for j in range(i + 1, n)):
            return None
        norms = [dot(j, j) for j in range(n)]
        if not all(dom.vanishes(d * (s * s) - dom.one) for d, s in zip(norms, self.scales)):
            return None
        return norms


# ---------------------------------------------------------------------------
# the lowering seam: integer forms

def _integer_form(rows):
    """The integer form (integer rows, d) of rows of ints and Fractions, d
    the lcm of their denominators.  Each Fraction is in lowest terms, so no
    prime divides both d and every entry: the form is reduced."""
    d = lcm(*[q.denominator for row in rows for q in row])
    return [[q.numerator * (d // q.denominator) for q in row] for row in rows], d


def _reduced(rows, d):
    """The form of the matrix rows / d (d nonzero): rows and d divided by
    the gcd of d and every entry, d made positive."""
    g = gcd(d, *chain.from_iterable(rows))
    if d < 0:
        g = -g
    if g != 1:
        rows = [[x // g for x in row] for row in rows]
        d //= g
    return rows, d


def _from_form(rows, d) -> Matrix:
    """The tower matrix of the reduced form (rows, d); its data are made
    on first read."""
    if not rows or not rows[0]:
        raise DomainError("matrix needs at least one row and column")
    m = object.__new__(Matrix)
    m.domain = TOWER
    m.nrows = len(rows)
    m.ncols = len(rows[0])
    m._form = (rows, d)
    return m


def _lower(m: Matrix):
    """m's integer form (rows, d), computed from its data once and kept, or
    None when m is a Puiseux matrix or an entry has depth above 0."""
    form = m._form
    if form is None:
        data = m.data
        form = False
        if all(len(x.nums) == 1 for row in data for x in row):
            # canonical pairs over the lcm of their denominators, reduced
            # as in _integer_form
            d = lcm(*[x.den for row in data for x in row])
            form = ([[x.nums[0] * (d // x.den) for x in row] for row in data], d)
        m._form = form
    return form or None


def _lower_pair(a: Matrix, b: Matrix):
    """(form of a, form of b) when both have one, else None."""
    fa = _lower(a)
    fb = fa and _lower(b)
    return (fa, fb) if fb else None


def _over_q(m: Matrix):
    """(_Q, rows of Fractions) when m is a tower matrix whose entries all
    have depth 0, else (m.domain, m.data).  The Fractions are read off the
    data when they have been built, else off the form; no form is
    computed."""
    data = _held_data(m)
    if data is None:
        rows, d = m._form
        return _Q, [[Fraction(x, d) for x in row] for row in rows]
    form = m._form
    if form or (form is None and all(len(x.nums) == 1 for row in data for x in row)):
        return _Q, [[Fraction(x.nums[0], x.den) for x in row] for row in data]
    return m.domain, data


def _lift(domain, rows) -> Matrix:
    """The Matrix of rows computed in `domain`.  Rows over _Q, and tower
    rows of ints and Fractions, give a matrix that holds only its integer
    form: no TowerScalar is made until its data are read."""
    if domain is _Q or (
        domain is TOWER and all(isinstance(x, (int, Fraction)) for row in rows for x in row)
    ):
        return _from_form(*_integer_form(rows))
    return Matrix(domain, rows)


def _lift_scalar(x):
    """A scalar of the rational kernel (a Fraction) as a depth-0
    TowerScalar; any other scalar as it is."""
    return TowerScalar(_QQ, (x.numerator,), x.denominator) if isinstance(x, Fraction) else x


def _rational(s):
    """s as a pair (numerator, denominator > 0) when it is an int, a
    Fraction or a depth-0 tower scalar, else None."""
    if isinstance(s, TowerScalar):
        return (s.nums[0], s.den) if len(s.nums) == 1 else None
    if isinstance(s, int):
        return s, 1
    return (s.numerator, s.denominator) if isinstance(s, Fraction) else None


def _depth0(x):
    """x as a depth-0 tower scalar when it is a rational tower scalar of any
    depth, else x: rational values of different towers then meet with no
    tower merge."""
    if isinstance(x, TowerScalar) and len(x.nums) > 1 and not any(x.nums[1:]):
        return TowerScalar(_QQ, x.nums[:1], x.den)
    return x


def _rearranged(m: Matrix, arrange) -> Matrix:
    """The matrix whose rows are arrange(rows of m), for an arrange that
    only moves entries: applied to each of m's data and form it holds."""
    out = object.__new__(Matrix)
    out.domain = m.domain
    form = m._form
    if form:
        form = ([list(r) for r in arrange(form[0])], form[1])
    out._form = form
    data = _held_data(m)
    if data is not None:
        out.data = data = tuple(map(tuple, arrange(data)))
    rows = form[0] if form else data
    out.nrows = len(rows)
    out.ncols = len(rows[0])
    return out


def _form_product(fa, fb):
    """The form of the product of two forms: integer inner products over
    d_a d_b, reduced."""
    (ra, da), (rb, db) = fa, fb
    cols = list(zip(*rb))
    return _reduced([[sum(map(mul, row, col)) for col in cols] for row in ra], da * db)


def _form_sum(fa, fb, op):
    """The form of op(a, b), op add or sub, over lcm(d_a, d_b)."""
    (ra, da), (rb, db) = fa, fb
    d = lcm(da, db)
    sa, sb = d // da, d // db
    if sa == sb == 1:
        rows = [list(map(op, r1, r2)) for r1, r2 in zip(ra, rb)]
    else:
        rows = [[op(x * sa, y * sb) for x, y in zip(r1, r2)] for r1, r2 in zip(ra, rb)]
    return _reduced(rows, d)


def _product(domain, a, b):
    """Rows of the matrix product a b over `domain`, one _dot per entry."""
    cols = list(zip(*b))
    return [[_dot(row, col, domain) for col in cols] for row in a]


def _shift_diagonal(rows, c):
    """The rows of m + c I: c is added to the diagonal entries only."""
    return [[x + c if i == j else x for j, x in enumerate(r)] for i, r in enumerate(rows)]


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


def _elimination_rows(m: Matrix):
    """(_Z, the integer rows of m's form) when m has one, else (m.domain,
    m.data): the arguments _eliminate takes."""
    form = _lower(m)
    return (_Z, form[0]) if form else (m.domain, m.data)


def _eliminate(domain, m_rows, rhs_rows=None):
    """Row echelon form by exact division over `domain`; over _Z (the
    integer rows of a form) Gauss-Jordan form by Bareiss's step
    (_bareiss).  Returns (rows, pivots, det_sign, rhs_rows); rhs_rows, when
    given, are transformed alongside."""
    rows = [list(r) for r in m_rows]
    rrows = [list(r) for r in rhs_rows] if rhs_rows is not None else None
    if domain is _Z:
        return _bareiss(rows, rrows)
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


def _bareiss(rows, rrows):
    """Gauss-Jordan elimination of integer rows, in place, by Bareiss's
    fraction-free step.  For the pivot p at (pr, pc), and prev the pivot
    before it (1 at first), every other row becomes (p row - f pivot_row) /
    prev, f its entry in column pc; the division is exact, as every entry
    is then a minor of the input (Sylvester's identity).  So each pivot row
    is zero in the other pivot columns, every pivot ends equal to the last
    one, and for a square matrix of full rank that last pivot is det_sign
    times its determinant."""
    nrows, ncols = len(rows), len(rows[0])
    pivots = []
    det_sign = 1
    prev = 1
    pr = 0
    for pc in range(ncols):
        if pr >= nrows:
            break
        idx = next((i for i in range(pr, nrows) if rows[i][pc]), None)
        if idx is None:
            continue
        if idx != pr:
            rows[pr], rows[idx] = rows[idx], rows[pr]
            if rrows is not None:
                rrows[pr], rrows[idx] = rrows[idx], rrows[pr]
            det_sign = -det_sign
        p = rows[pr][pc]
        for i in range(nrows):
            if i != pr:
                f = rows[i][pc]
                rows[i] = _bareiss_step(rows[i], rows[pr], p, f, prev)
                if rrows is not None:
                    rrows[i] = _bareiss_step(rrows[i], rrows[pr], p, f, prev)
        prev = p
        pivots.append((pr, pc))
        pr += 1
    return rows, pivots, det_sign, rrows


def _bareiss_step(row, pivot_row, p, f, prev):
    """(p row - f pivot_row) / prev, an exact integer division."""
    if f:
        return [(p * a - f * b) // prev for a, b in zip(row, pivot_row)]
    if p == prev:
        return row
    return [p * a // prev for a in row]


def rank(m: Matrix) -> int:
    _, pivots, _, _ = _eliminate(*_elimination_rows(m))
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

    A tower matrix that holds its integer form (rows, d) takes det(rows) /
    d^n, a depth-0 TowerScalar: up to 3x3 det(rows) is the closed form on
    integers; from 4x4 on, where every tower matrix whose entries all have
    depth 0 is lowered to its form, it is the last pivot of Bareiss's
    fraction-free elimination times its row-swap sign.  The closed forms
    keep a matrix held as TowerScalars as it is: they cost at most a dozen
    products, so lowering saves them little."""
    if not m.is_square():
        raise DomainError("determinant of a non-square matrix")
    n = m.nrows
    form = m._form if n <= 3 else _lower(m)
    if not form:
        if m.domain is not TOWER or n <= 3:
            return _det_rows(m.data, m.domain)
        rows, pivots, det_sign, _ = _eliminate(TOWER, m.data)
        if len(pivots) < n:
            return TOWER.zero
        out = rows[0][0]
        for i in range(1, n):
            out = out * rows[i][i]
        return out if det_sign > 0 else -out
    rows, d = form
    if n <= 3:
        value = _det_rows(rows, _Z)
    else:
        rows, pivots, det_sign, _ = _eliminate(_Z, rows)
        value = det_sign * rows[-1][-1] if len(pivots) == n else 0
    return _scalar(_QQ, (value,), d ** n)


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
    """Solve m x = rhs exactly.  SingularMatrix on rank deficiency.

    For m = A / d_a and rhs = B / d_b in integer form, Bareiss's
    Gauss-Jordan elimination of [A | B] turns A into last I and B into B',
    so x = B' d_a / (d_b last)."""
    if not m.is_square() or rhs.nrows != m.nrows:
        raise DomainError("dimension mismatch")
    n = m.nrows
    forms = _lower_pair(m, rhs)
    if forms:
        (ra, da), (rb, db) = forms
        rows, pivots, _, rrows = _eliminate(_Z, ra, rb)
        if len(pivots) < n:
            raise SingularMatrix("rank-deficient system")
        return _from_form(*_reduced([[x * da for x in r] for r in rrows], db * rows[-1][-1]))
    domain = m.domain
    rows, pivots, _, rrows = _eliminate(domain, m.data, rhs.data)
    if len(pivots) < n:
        raise SingularMatrix("rank-deficient system")
    k = rhs.ncols
    sol = [[domain.zero] * k for _ in range(n)]
    for pr, pc in reversed(pivots):
        inv = domain.invert(rows[pr][pc])
        for c in range(k):
            acc = rrows[pr][c]
            for j in range(pc + 1, n):
                acc = acc - rows[pr][j] * sol[j][c]
            sol[pc][c] = acc * inv
    return Matrix(domain, sol)


def inverse(m: Matrix) -> Matrix:
    return solve(m, Matrix.identity(m.nrows, m.domain))


def kernel(m: Matrix) -> list:
    """Basis of the right kernel, as a list of column tuples."""
    return [tuple(map(_lift_scalar, v)) for v in _kernel(m)]


def _kernel(m: Matrix) -> list:
    """Basis of the right kernel of m, one vector per free column: of
    Fractions when m has an integer form (each of Bareiss's pivot rows is
    zero in the other pivot columns, so no back substitution), else of m's
    scalars."""
    domain, rows = _elimination_rows(m)
    rows, pivots, _, _ = _eliminate(domain, rows)
    pivot_cols = [pc for _, pc in pivots]
    entries = _Q if domain is _Z else domain
    basis = []
    for fc in (c for c in range(m.ncols) if c not in pivot_cols):
        v = [entries.zero] * m.ncols
        v[fc] = entries.one
        for pr, pc in reversed(pivots):
            if domain is _Z:
                v[pc] = Fraction(-rows[pr][fc], rows[pr][pc])
                continue
            acc = rows[pr][fc]
            for j in pivot_cols:
                if j > pc:
                    acc = acc + rows[pr][j] * v[j]
            v[pc] = -acc * domain.invert(rows[pr][pc])
        basis.append(v)
    return basis


def char_poly(m: Matrix) -> list:
    """Monic characteristic polynomial coefficients [1, c1, ..., cn] with
    p(t) = t^n + c1 t^(n-1) + ... + cn, by the Faddeev-LeVerrier recursion
    (valid in characteristic zero; only integer divisions appear).  The
    last product is read only through its trace, so only its diagonal is
    formed.  A rational matrix runs on Fractions (_over_q)."""
    if not m.is_square():
        raise DomainError("char_poly of a non-square matrix")
    n = m.nrows
    domain, rows = _over_q(m)
    coeffs = [domain.one]
    mk = rows
    diagonal = [r[i] for i, r in enumerate(rows)]
    for k in range(1, n + 1):
        ck = _sum(diagonal, domain) * F(-1, k)
        coeffs.append(ck)
        if k < n:
            shifted = _shift_diagonal(mk, ck)
            if k < n - 1:
                mk = _product(domain, rows, shifted)
                diagonal = [r[i] for i, r in enumerate(mk)]
            else:
                diagonal = [_dot(r, [x[i] for x in shifted], domain) for i, r in enumerate(rows)]
    return [_lift_scalar(c) for c in coeffs]


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
    [ints], _ = _integer_form([fracs])
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
    return det(_lift(TOWER, mid)).sign()


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
