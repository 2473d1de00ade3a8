"""Reference routines that the tests check the library against and that
the library itself does not use: the rank-matrix Bruhat cell, the six SL_3
Weyl representatives and the quotient N/M, which moved here from
rcg.decomp and rcg.slgroup unchanged, and the orbit sampler's Kostant test
decided on the characters themselves, radicals and all, which
rcg.kostant's sampler decides on their squares; and the rational kernel
as rcg.linalg had it before integer forms, on plain Fractions: the field
elimination and the product over rows and columns scaled to integers, with
the rank, kernel, solve and determinant read off them."""

import random
from fractions import Fraction
from math import lcm
from operator import mul

from rcg.errors import DomainError, InternalError
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
