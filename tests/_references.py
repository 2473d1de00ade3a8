"""Reference routines that the tests check the library against and that
the library itself does not use: the rank-matrix Bruhat cell, the six SL_3
Weyl representatives and the quotient N/M, which moved here from
rcg.decomp and rcg.slgroup unchanged, and the orbit sampler's Kostant test
decided on the characters themselves, radicals and all, which
rcg.kostant's sampler decides on their squares; and the rational kernel
as rcg.linalg had it before integer forms, on plain Fractions: the field
elimination and the product over rows and columns scaled to integers, with
the rank, kernel, solve and determinant read off them; and the tower
scalar kernel as rcg.tower had it before integer coordinates, on tuples of
Fractions: product, inverse, square root by denesting, the interval
enclosure that decides signs and approximations, and printing."""

import random
from fractions import Fraction
from math import isqrt, lcm
from operator import mul

from rcg.errors import DivisionByZero, DomainError, InternalError
from rcg.kostant import _char_gaps, _slack, chamber_projection
from rcg.linalg import TOWER, Matrix, inverse, rank
from rcg.slgroup import GroupElement, _signed_permutation, member_M


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


def weyl_reps_sl3():
    """The six SL_3 Weyl representatives, one per chamber: signed
    permutations (rows_of, signs) of determinant +1."""
    shapes = [
        ((0, 1, 2), (1, 1, 1)),
        ((1, 0, 2), (1, -1, 1)),
        ((0, 2, 1), (1, 1, -1)),
        ((2, 1, 0), (1, 1, -1)),
        ((1, 2, 0), (1, 1, 1)),
        ((2, 0, 1), (1, 1, 1)),
    ]
    return [GroupElement._unchecked(_signed_permutation(p, s, TOWER)) for p, s in shapes]


def n_mod_m_classes(n_list):
    """Partition a list of N-elements into M-cosets and build the quotient
    multiplication table.  Returns (representatives, table) where
    table[a][b] is the class index of reps[a] * reps[b]."""
    reps = []

    def class_of(g: GroupElement):
        for idx, r in enumerate(reps):
            if member_M(GroupElement(inverse(r.mat) * g.mat)):
                return idx
        return None

    for g in n_list:
        if class_of(g) is None:
            reps.append(g)
    table = []
    for a in reps:
        row = []
        for b in reps:
            idx = class_of(a * b)
            if idx is None:
                raise DomainError("quotient is not closed under multiplication")
            row.append(idx)
        table.append(row)
    return reps, table


def radical_orbit_point(a: GroupElement, b):
    """One orbit sample on the characters themselves: the A-element a
    sorted into the chamber (chamber_projection), then the gaps to b.
    InternalError on a violation, else the smallest gap's _slack."""
    gaps = list(_char_gaps(chamber_projection(a), b))
    if any(gap.sign() < 0 for gap in gaps):
        raise InternalError("convexity violation")
    return min(_slack(gap) for gap in gaps)


def _rotation(n, i, j, t: Fraction) -> GroupElement:
    c = (1 - t * t) / (1 + t * t)
    s = 2 * t / (1 + t * t)
    rows = [list(row) for row in Matrix.identity(n).data]
    rows[i][i] = c
    rows[j][j] = c
    rows[i][j] = -s
    rows[j][i] = s
    return GroupElement._unchecked(Matrix.tower(rows))


def radical_orbit_sample_check(b, trials: int, seed: int, a_component):
    """orbit_sample_check's rotations, each orbit point's A-component
    a_component(k b) taken through radical_orbit_point: (trials,
    violations, min_slack, max_slack)."""
    rng = random.Random(seed)
    n = b.n
    slacks = []
    for _ in range(trials):
        k = GroupElement.identity(n)
        for _ in range(rng.randint(1, 3)):
            i, j = sorted(rng.sample(range(n), 2))
            t = Fraction(rng.randint(-9, 9), rng.randint(1, 9))
            k = k * _rotation(n, i, j, t)
        slacks.append(radical_orbit_point(a_component(k * b.element), b))
    return trials, 0, min(slacks), max(slacks)


# ---------------------------------------------------------------------------
# the rational kernel on Fractions

def _integer_scaled(fracs):
    """(integers, d) with integers = d * fracs and d the lcm of the
    denominators."""
    d = lcm(*[q.denominator for q in fracs])
    return [q.numerator * (d // q.denominator) for q in fracs], d


def fraction_product(a, b):
    """Rows of a b: each row of a and each column of b scaled to integers,
    so each entry is one integer inner product and one Fraction."""
    rows = [_integer_scaled(r) for r in a]
    cols = [_integer_scaled(c) for c in zip(*b)]
    return [[Fraction(sum(map(mul, r, c)), dr * dc) for c, dc in cols] for r, dr in rows]


def fraction_eliminate(m_rows, rhs_rows=None):
    """Row echelon form of Fraction rows by exact division: (rows, pivots,
    det_sign, rhs_rows), rhs_rows transformed alongside when given."""
    rows = [[Fraction(x) for x in r] for r in m_rows]
    rrows = [[Fraction(x) for x in r] for r in rhs_rows] if rhs_rows is not None else None
    nrows, ncols = len(rows), len(rows[0])
    pivots = []
    det_sign = 1
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
        inv = 1 / rows[pr][pc]
        for i in range(pr + 1, nrows):
            factor = rows[i][pc] * inv
            if not factor:
                continue
            rows[i] = [a - factor * b for a, b in zip(rows[i], rows[pr])]
            if rrows is not None:
                rrows[i] = [a - factor * b for a, b in zip(rrows[i], rrows[pr])]
        pivots.append((pr, pc))
        pr += 1
    return rows, pivots, det_sign, rrows


def fraction_rank(rows) -> int:
    return len(fraction_eliminate(rows)[1])


def fraction_det(rows):
    rows, pivots, det_sign, _ = fraction_eliminate(rows)
    if len(pivots) < len(rows):
        return Fraction(0)
    out = Fraction(det_sign)
    for i in range(len(rows)):
        out *= rows[i][i]
    return out


def fraction_solve(rows, rhs):
    """x with rows x = rhs by back substitution, or None when rows is
    singular."""
    rows, pivots, _, rrows = fraction_eliminate(rows, rhs)
    n, k = len(rows), len(rhs[0])
    if len(pivots) < n:
        return None
    sol = [[Fraction(0)] * k for _ in range(n)]
    for pr, pc in reversed(pivots):
        for c in range(k):
            acc = rrows[pr][c]
            for j in range(pc + 1, n):
                acc -= rows[pr][j] * sol[j][c]
            sol[pc][c] = acc / rows[pr][pc]
    return sol


def fraction_kernel(rows):
    """Basis of the right kernel, one vector per free column (1 there, 0 at
    the other free columns), by back substitution."""
    ncols = len(rows[0])
    rows, pivots, _, _ = fraction_eliminate(rows)
    pivot_cols = [pc for _, pc in pivots]
    basis = []
    for fc in (c for c in range(ncols) if c not in pivot_cols):
        v = [Fraction(0)] * ncols
        v[fc] = Fraction(1)
        for pr, pc in reversed(pivots):
            acc = rows[pr][fc]
            for j in pivot_cols:
                if j > pc:
                    acc += rows[pr][j] * v[j]
            v[pc] = -acc / rows[pr][pc]
        basis.append(v)
    return basis


# ---------------------------------------------------------------------------
# the tower scalar kernel on Fractions: coefficient-vector arithmetic
# (tuples of Fractions, length 2**depth) over radicands given as such tuples

Interval = tuple[Fraction, Fraction]

_F0 = Fraction(0)
_F1 = Fraction(1)


def _vzero(depth: int) -> tuple:
    return (_F0,) * (1 << depth)


def _vone(depth: int) -> tuple:
    return (_F1,) + (_F0,) * ((1 << depth) - 1)


def _vadd(u: tuple, v: tuple) -> tuple:
    return tuple(a + b for a, b in zip(u, v))


def _vsub(u: tuple, v: tuple) -> tuple:
    return tuple(a - b for a, b in zip(u, v))


def _vneg(u: tuple) -> tuple:
    return tuple(-a for a in u)


def _vscale(u: tuple, q: Fraction) -> tuple:
    if not q:
        return (_F0,) * len(u)
    return tuple(a * q for a in u)


def _vmul(rads: tuple, depth: int, u: tuple, v: tuple) -> tuple:
    if depth == 0:
        return (u[0] * v[0],)
    if not any(u) or not any(v):
        return _vzero(depth)
    h = 1 << (depth - 1)
    a, b = u[:h], u[h:]
    c, e = v[:h], v[h:]
    r = rads[depth - 1]
    b_zero = not any(b)
    e_zero = not any(e)
    if b_zero and e_zero:
        return _vmul(rads, depth - 1, a, c) + _vzero(depth - 1)
    ac = _vmul(rads, depth - 1, a, c)
    if b_zero:
        return ac + _vmul(rads, depth - 1, a, e)
    if e_zero:
        return ac + _vmul(rads, depth - 1, b, c)
    be = _vmul(rads, depth - 1, b, e)
    lo = _vadd(ac, _vmul(rads, depth - 1, be, r))
    hi = _vadd(_vmul(rads, depth - 1, a, e), _vmul(rads, depth - 1, b, c))
    return lo + hi


def _vinv(rads: tuple, depth: int, u: tuple) -> tuple:
    if depth == 0:
        if not u[0]:
            raise DivisionByZero("inverse of zero")
        return (1 / u[0],)
    h = 1 << (depth - 1)
    a, b = u[:h], u[h:]
    if not any(b):
        return _vinv(rads, depth - 1, a) + _vzero(depth - 1)
    r = rads[depth - 1]
    bb = _vmul(rads, depth - 1, b, b)
    norm = _vsub(_vmul(rads, depth - 1, a, a), _vmul(rads, depth - 1, bb, r))
    w = _vinv(rads, depth - 1, norm)
    return _vmul(rads, depth - 1, a, w) + _vneg(_vmul(rads, depth - 1, b, w))


def _frac_sqrt(q: Fraction):
    """Exact rational square root, or None."""
    if q < 0:
        return None
    pn, pd = q.numerator, q.denominator
    rn, rd = isqrt(pn), isqrt(pd)
    if rn * rn == pn and rd * rd == pd:
        return Fraction(rn, rd)
    return None


def _vsqrt(rads: tuple, depth: int, u: tuple):
    """Square root of u inside its own tower, or None.

    Classical denesting: sqrt(a + b*sqrt(r)) = x + y*sqrt(r) exists in the
    field iff the norm a^2 - b^2*r is a square s^2 one level down and
    (a +- s)/2 is a square x^2 there too (y = b/(2x)).
    """
    if depth == 0:
        s = _frac_sqrt(u[0])
        return None if s is None else (s,)
    h = 1 << (depth - 1)
    a, b = u[:h], u[h:]
    r = rads[depth - 1]
    if not any(b):
        s = _vsqrt(rads, depth - 1, a)
        if s is not None:
            return s + _vzero(depth - 1)
        q = _vmul(rads, depth - 1, a, _vinv(rads, depth - 1, r))
        s = _vsqrt(rads, depth - 1, q)
        if s is not None:
            return _vzero(depth - 1) + s
        return None
    bb = _vmul(rads, depth - 1, b, b)
    norm = _vsub(_vmul(rads, depth - 1, a, a), _vmul(rads, depth - 1, bb, r))
    s = _vsqrt(rads, depth - 1, norm)
    if s is None:
        return None
    half = Fraction(1, 2)
    for sgn in (s, _vneg(s)):
        xsq = _vscale(_vadd(a, sgn), half)
        x = _vsqrt(rads, depth - 1, xsq)
        if x is None or not any(x):
            continue
        y = _vscale(_vmul(rads, depth - 1, b, _vinv(rads, depth - 1, x)), half)
        cand = x + y
        if _vmul(rads, depth, cand, cand) == u:
            return cand
    return None


# ---------------------------------------------------------------------------
# rational interval arithmetic for approximation and sign refinement

def _isqrt_lower(q: Fraction, prec_bits: int) -> Fraction:
    n = q.numerator * q.denominator << (2 * prec_bits)
    return Fraction(isqrt(n), q.denominator << prec_bits)


def _isqrt_upper(q: Fraction, prec_bits: int) -> Fraction:
    n = q.numerator * q.denominator << (2 * prec_bits)
    return Fraction(isqrt(n) + 1, q.denominator << prec_bits)


def _iadd(p: Interval, q: Interval) -> Interval:
    return (p[0] + q[0], p[1] + q[1])


def _imul(p: Interval, q: Interval) -> Interval:
    cands = (p[0] * q[0], p[0] * q[1], p[1] * q[0], p[1] * q[1])
    return (min(cands), max(cands))


def _isqrt_iv(p: Interval, prec_bits: int) -> Interval:
    lo = max(p[0], _F0)
    return (_isqrt_lower(lo, prec_bits), _isqrt_upper(p[1], prec_bits))


def _enclose(rads: tuple, depth: int, u: tuple, prec_bits: int) -> Interval:
    if depth == 0:
        return (u[0], u[0])
    h = 1 << (depth - 1)
    a, b = u[:h], u[h:]
    ia = _enclose(rads, depth - 1, a, prec_bits)
    if not any(b):
        return ia
    ib = _enclose(rads, depth - 1, b, prec_bits)
    ir = _enclose(rads, depth - 1, rads[depth - 1], prec_bits)
    return _iadd(ia, _imul(ib, _isqrt_iv(ir, prec_bits)))


# ---------------------------------------------------------------------------
# printing in the shared scalar grammar

def _fmt_fraction(q: Fraction) -> str:
    return str(q.numerator) if q.denominator == 1 else f"{q.numerator}/{q.denominator}"


def _format(rads: tuple, depth: int, coeffs: tuple) -> str:
    terms = []
    for mask in range(1 << depth):
        q = coeffs[mask]
        if not q:
            continue
        radicals = []
        for j in range(depth):
            if mask >> j & 1:
                inner = _format(rads[: j], j, rads[j])
                radicals.append(f"sqrt({inner})")
        if not radicals:
            body = _fmt_fraction(abs(q))
        elif abs(q) == 1:
            body = "*".join(radicals)
        else:
            body = "*".join([_fmt_fraction(abs(q))] + radicals)
        terms.append(("-" if q < 0 else "+", body))
    return _join_signed(terms)


def _join_signed(terms) -> str:
    """(sign, body) pairs as one sum: "a - b + c", "-a + b"; "0" if empty."""
    if not terms:
        return "0"
    first_sign, first_body = terms[0]
    out = ("-" if first_sign == "-" else "") + first_body
    for sgn, body in terms[1:]:
        out += f" {sgn} {body}"
    return out
