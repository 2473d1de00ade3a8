"""The multiplicative Kostant convexity test for SL_n.

a lies in the A-component image of the K-orbit of b iff chi_j(a) <=
chi_j(b) for the partial-product characters chi_j(a) = a_1 ... a_j.  Those
characters are derived (not hardcoded) from the cone data of the A_{n-1}
root system; the derivation is checked once per n.  The test suite checks
this test against an independent convex-hull oracle over certified rational
logarithms (Kostant's hull characterisation).

kostant_member and the CLI's kostant-check decide and report the gaps
chi_j(b) - chi_j(a) themselves (_char_gaps).  Both sides of each
inequality are positive, so the orbit sampler decides it on squares,
chi_j(a)^2 = chi_j(a^2) <= chi_j(b)^2: the A-component a of a rational
orbit point has entries sqrt(norm2_j), one radical each, and rational
squares norm2_j.  The sampler reads those squares straight from
decomp._a_squares, with no root taken, sorts them into the chamber and
compares them as rationals, with no product of radicals and no tower
merge; only the reported slack chi_j(b) - sqrt(chi_j(a)^2) takes one
square root.

The orbit sampler checks nothing twice: its rotations are built unchecked
over Q (c^2 + s^2 = 1 fixes each determinant), and _a_squares certifies
the squares by prod(norm2_j) = 1 in decomp, as a_component does; they are
not tested again.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from functools import cache, reduce
from operator import mul

from .decomp import _a_squares
from .errors import DomainError, InternalError
from .linalg import _Q, TOWER, Matrix, _depth0, _exact_key, _lift
from .rootsys import _primitive, build, cone_data
from .slgroup import GroupElement, member_A

F = Fraction


class ChamberPoint:
    """An element of the closed multiplicative Weyl chamber A+: positive
    diagonal, determinant 1, entries non-increasing."""

    __slots__ = ("element", "n")

    def __init__(self, element: GroupElement):
        if not member_A(element):
            raise DomainError("chamber points must lie in A")
        dom = element.mat.domain
        for i in range(element.n - 1):
            step = element.mat.data[i][i] - element.mat.data[i + 1][i + 1]
            if dom.sign(step) < 0:
                raise DomainError("diagonal is not non-increasing")
        self.element = element
        self.n = element.n

    @classmethod
    def _unchecked(cls, element: GroupElement) -> "ChamberPoint":
        """A point the caller has already placed in A+; nothing is tested."""
        point = object.__new__(cls)
        point.element = element
        point.n = element.n
        return point

    @staticmethod
    def from_diagonal(entries, domain=None) -> "ChamberPoint":
        return ChamberPoint(GroupElement(Matrix.diagonal(entries, domain or TOWER)))

    def diagonal(self):
        return [self.element.mat.data[i][i] for i in range(self.n)]

    def __eq__(self, other):
        return isinstance(other, ChamberPoint) and self.element == other.element

    __hash__ = None


def chamber_projection(a: GroupElement) -> ChamberPoint:
    """The A+ representative of an A-element: diagonal sorted descending
    (the spherical Weyl group acts by permuting diagonal entries).  A
    permuted diagonal keeps a's determinant and positive entries, and the
    exact sort key has decided every step's sign, so none is tested again."""
    if not member_A(a):
        raise DomainError("chamber projection needs an A-element")
    diag = sorted((a[i, i] for i in range(a.n)), key=_exact_key, reverse=True)
    return ChamberPoint._unchecked(GroupElement._unchecked(Matrix.diagonal(diag, a.mat.domain)))


# ---------------------------------------------------------------------------
# the characters

def kostant_chars(n: int) -> list:
    """Exponent vectors of the convexity characters of SL_n, derived from
    the A_{n-1} cone data: gamma_j converted to diagonal coordinates,
    shifted modulo the determinant-one relation and made primitive.  The
    expected partial-product shape is checked, never assumed.  Each call
    returns a new list; the derivation runs once per n."""
    if n < 2:
        raise DomainError("kostant_chars needs n >= 2")
    return list(_derive_chars(n))


@cache
def _derive_chars(n: int) -> tuple:
    rs = build(f"A{n - 1}")
    cd = cone_data(rs)
    chars = []
    for j, gamma in enumerate(cd.gamma):
        e_vec = [0] * n
        for k, c in enumerate(gamma):
            e_vec[k] += c
            e_vec[k + 1] -= c
        shift = e_vec[-1]
        vec = _primitive([x - shift for x in e_vec])
        if vec != (1,) * (j + 1) + (0,) * (n - j - 1):
            raise InternalError("cone data does not reduce to partial products")
        chars.append(vec)
    return tuple(chars)


def char_value(vec, a: ChamberPoint):
    return _char(vec, a.diagonal(), a.element.mat.domain)


def _char(vec, diag, dom):
    """prod(diag_k ** vec_k), the character vec on a diagonal, begun from
    its first factor."""
    factors = [x for x, power in zip(diag, vec) for _ in range(power)]
    return reduce(mul, factors) if factors else dom.one


def _chars(diag, dom):
    """chi_j on a diagonal, one per convexity character."""
    return [_char(vec, diag, dom) for vec in kostant_chars(len(diag))]


def _char_gaps(a: ChamberPoint, b: ChamberPoint):
    """The gaps chi_j(b) - chi_j(a), one per convexity character, formed
    lazily in character order."""
    if a.n != b.n:
        raise DomainError("dimension mismatch")
    return (char_value(vec, b) - char_value(vec, a) for vec in kostant_chars(a.n))


def _slack(gap) -> float:
    """A tower gap as a float: the midpoint of a rational enclosure of
    width 10^-12."""
    lo, hi = gap.approx(F(1, 10**12))
    return float((lo + hi) / 2)


def kostant_member(a: ChamberPoint, b: ChamberPoint) -> bool:
    """True iff chi_j(a) <= chi_j(b) for every convexity character (exact
    sign tests; works over both scalar fields)."""
    return all(gap.sign() >= 0 for gap in _char_gaps(a, b))


# ---------------------------------------------------------------------------
# orbit sampling

def _rotation(n, i, j, t: Fraction) -> list:
    """The rows, over Q, of the rotation by the rational point (c, s) of
    the unit circle with tan-half parameter t; c^2 + s^2 = 1 makes its
    determinant 1."""
    c = (1 - t * t) / (1 + t * t)
    s = 2 * t / (1 + t * t)
    rows = [[F(int(p == q)) for q in range(n)] for p in range(n)]
    rows[i][i] = c
    rows[j][j] = c
    rows[i][j] = -s
    rows[j][i] = s
    return rows


@dataclass
class OrbitSampleReport:
    trials: int
    violations: int
    min_slack: float
    max_slack: float


def orbit_sample_check(b: ChamberPoint, trials: int, seed: int = 0) -> OrbitSampleReport:
    """Sample K-orbit points k*b with exact rational rotations, take their
    Iwasawa A-components and check the character inequalities every time.
    A single violation raises InternalError (this is the falsifiable face
    of the convexity statement).

    The inequalities are decided on squared characters: the squares of the
    A-component's entries are rational for rational b, are sorted into the
    chamber and give chi_j(a)^2, which is compared with chi_j(b)^2.  Each
    reported slack is chi_j(b) - sqrt(chi_j(a)^2), one radical."""
    rng = random.Random(seed)
    n = b.n
    dom = b.element.mat.domain
    b_chars = _chars(b.diagonal(), dom)
    b_squares = [_depth0(c * c) for c in b_chars]
    min_slack = None
    max_slack = None
    for _ in range(trials):
        k = None
        for _ in range(rng.randint(1, 3)):
            i, j = sorted(rng.sample(range(n), 2))
            t = F(rng.randint(-9, 9), rng.randint(1, 9))
            rotation = _lift(_Q, _rotation(n, i, j, t))
            k = rotation if k is None else k * rotation
        k = GroupElement._unchecked(k)
        squares = sorted(map(_depth0, _a_squares(k * b.element)), key=_exact_key, reverse=True)
        a_squares = _chars(squares, dom)  # chi_j(a^2) = chi_j(a)^2
        if any((cb - ca).sign() < 0 for ca, cb in zip(a_squares, b_squares)):
            raise InternalError("convexity violation")
        slack = min(_slack(cb - dom.sqrt_positive(ca)) for ca, cb in zip(a_squares, b_chars))
        min_slack = slack if min_slack is None else min(min_slack, slack)
        max_slack = slack if max_slack is None else max(max_slack, slack)
    return OrbitSampleReport(trials, 0, min_slack, max_slack)
