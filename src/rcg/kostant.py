"""The multiplicative Kostant convexity test for SL_n.

a lies in the A-component image of the K-orbit of b iff chi_j(a) <=
chi_j(b) for the partial-product characters chi_j(a) = a_1 ... a_j.  Those
characters are derived (not hardcoded) from the cone data of the A_{n-1}
root system; the derivation is checked once per n.  The test suite checks
this test against an independent convex-hull oracle over certified rational
logarithms (Kostant's hull characterisation).

The orbit sampler checks nothing twice: its rotations are built unchecked
(c^2 + s^2 = 1 fixes each determinant), a_component certifies the
A-component by prod(r_j^2) = 1 in decomp, chamber_projection sorts it into
A+ without testing it again, and each character gap is formed once.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from functools import cache

from .decomp import a_component
from .errors import DomainError, InternalError
from .linalg import TOWER, Matrix, _exact_key
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
    dom = a.element.mat.domain
    total = dom.one
    for k, power in enumerate(vec):
        for _ in range(power):
            total = total * a.element.mat.data[k][k]
    return total


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

def _rotation(n, i, j, t: Fraction) -> GroupElement:
    """The rotation by the rational point (c, s) of the unit circle with
    tan-half parameter t; c^2 + s^2 = 1 makes its determinant 1."""
    c = (1 - t * t) / (1 + t * t)
    s = 2 * t / (1 + t * t)
    rows = [list(row) for row in Matrix.identity(n).data]
    rows[i][i] = c
    rows[j][j] = c
    rows[i][j] = -s
    rows[j][i] = s
    return GroupElement._unchecked(Matrix.tower(rows))


@dataclass
class OrbitSampleReport:
    trials: int
    violations: int
    min_slack: float
    max_slack: float


def orbit_sample_check(b: ChamberPoint, trials: int, seed: int = 0) -> OrbitSampleReport:
    """Sample K-orbit points k*b with exact rational rotations, project
    their Iwasawa A-components to the chamber and check the character
    inequalities every time.  A single violation raises InternalError
    (this is the falsifiable face of the convexity statement).  Each gap
    chi_j(b) - chi_j(a) is formed once and serves both the exact sign test
    and the reported slack."""
    rng = random.Random(seed)
    n = b.n
    min_slack = None
    max_slack = None
    for _ in range(trials):
        k = GroupElement.identity(n)
        for _ in range(rng.randint(1, 3)):
            i, j = sorted(rng.sample(range(n), 2))
            t = F(rng.randint(-9, 9), rng.randint(1, 9))
            k = k * _rotation(n, i, j, t)
        proj = chamber_projection(a_component(k * b.element))
        gaps = list(_char_gaps(proj, b))
        if any(gap.sign() < 0 for gap in gaps):
            raise InternalError("convexity violation")
        slack = min(_slack(gap) for gap in gaps)
        min_slack = slack if min_slack is None else min(min_slack, slack)
        max_slack = slack if max_slack is None else max(max_slack, slack)
    return OrbitSampleReport(trials, 0, min_slack, max_slack)
