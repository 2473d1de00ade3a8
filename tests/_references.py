"""Reference routines that the tests check the library against and that
the library itself does not use: the rank-matrix Bruhat cell, the six SL_3
Weyl representatives and the quotient N/M.  They moved here from
rcg.decomp and rcg.slgroup unchanged."""

from rcg.errors import DomainError
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
