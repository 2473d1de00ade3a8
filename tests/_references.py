"""Reference routines that the tests check the library against and that
the library itself does not use: the rank-matrix Bruhat cell, the six SL_3
Weyl representatives and the quotient N/M, which moved here from
rcg.decomp and rcg.slgroup unchanged, and the orbit sampler's Kostant test
decided on the characters themselves, radicals and all, which
rcg.kostant's sampler decides on their squares."""

import random
from fractions import Fraction

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
