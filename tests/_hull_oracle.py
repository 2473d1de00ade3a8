"""The convex-hull oracle for kostant_member: Kostant's (1973) hull
characterisation over certified rational logarithms.

log a must lie in the convex hull of the Weyl orbit of log b.  The hull
decision runs exact rational geometry on interval midpoints and only
accepts an answer whose margin dominates the interval error; hull_oracle
returns None (undecided) when the point sits within slack 10^-20 of the
hull boundary.  A reference implementation for the tests, independent of
the character inequalities it checks.
"""

from fractions import Fraction
from itertools import permutations

from rcg.errors import DomainError
from rcg.kostant import ChamberPoint

F = Fraction

#: geometric margin below which the hull oracle refuses to decide
BOUNDARY_SLACK = F(1, 10**20)


# ---------------------------------------------------------------------------
# certified rational logarithms

def _atanh_interval(z: Fraction, prec_bits: int):
    """Enclosure of atanh(z) for 0 <= z < 1/2 by the odd power series with
    an explicit geometric tail bound."""
    target = F(1, 2) ** prec_bits
    total = F(0)
    k = 0
    power = z
    z2 = z * z
    while True:
        total += power / (2 * k + 1)
        k += 1
        power *= z2
        tail = power / ((2 * k + 1) * (1 - z2))
        if tail <= target:
            return (total, total + tail)


def ln_interval(x: Fraction, prec_bits: int):
    """An interval containing ln(x) for rational x > 0."""
    x = F(x)
    if x <= 0:
        raise DomainError("ln of a non-positive rational")
    if x == 1:
        return (F(0), F(0))
    if x < 1:
        lo, hi = ln_interval(1 / x, prec_bits)
        return (-hi, -lo)
    e = x.numerator.bit_length() - x.denominator.bit_length()
    m = x / F(2) ** e
    if m < 1:
        m, e = m * 2, e - 1
    # m in [1, 2): atanh argument (m-1)/(m+1) in [0, 1/3]
    z = (m - 1) / (m + 1)
    s_lo, s_hi = _atanh_interval(z, prec_bits + 4)
    ln2_lo, ln2_hi = _atanh_interval(F(1, 3), prec_bits + 4)
    lo = 2 * s_lo + e * 2 * ln2_lo
    hi = 2 * s_hi + e * 2 * ln2_hi
    if e < 0:
        lo, hi = 2 * s_lo + e * 2 * ln2_hi, 2 * s_hi + e * 2 * ln2_lo
    return (lo, hi)


# ---------------------------------------------------------------------------
# the convex-hull oracle

def _decide_1d(y, pts, margin):
    lo, hi = min(pts), max(pts)
    if y - hi > margin or lo - y > margin:
        return False
    if y - lo > margin and hi - y > margin:
        return True
    return None


def _decide_2d(y, pts, margin2):
    """Exact midpoint geometry with a squared margin: inside means deeper
    than the margin behind every supporting pair-line, outside means
    separated by more than the margin from one of them."""
    decided_inside = True
    for a in range(len(pts)):
        for b in range(len(pts)):
            if a == b:
                continue
            p, q = pts[a], pts[b]
            c = (q[1] - p[1], p[0] - q[0])
            if c == (0, 0):
                continue
            h = c[0] * p[0] + c[1] * p[1]
            norm2 = c[0] * c[0] + c[1] * c[1]
            if all(c[0] * r[0] + c[1] * r[1] <= h for r in pts):
                gap = c[0] * y[0] + c[1] * y[1] - h
                if gap > 0 and gap * gap > margin2 * norm2:
                    return False
                if not (gap < 0 and gap * gap > margin2 * norm2):
                    decided_inside = False
    if decided_inside and len({p for p in pts}) >= 3:
        return True
    return None


def hull_oracle(a: ChamberPoint, b: ChamberPoint):
    """Decide log(a) in conv(W_s log(b)) for rational chamber points of
    SL_n, n <= 3, by enumerating the Weyl orbit and running the exact
    midpoint geometry on certified logarithm intervals.  True or False,
    or None when the point is within BOUNDARY_SLACK of the hull boundary."""
    n = a.n
    if n > 3:
        raise DomainError("hull oracle supports n <= 3")
    diag_a = [x.as_fraction() for x in a.diagonal()]
    diag_b = [x.as_fraction() for x in b.diagonal()]
    if any(x is None for x in diag_a + diag_b):
        raise DomainError("hull oracle needs rational chamber points")
    if diag_a == diag_b:
        return True  # a vertex of the orbit polytope
    prec = 64
    while True:
        enclosures_a = [ln_interval(x, prec) for x in diag_a]
        orbit = []
        for perm in set(permutations(range(n))):
            orbit.append([ln_interval(diag_b[p], prec) for p in perm])
        eps = F(0)
        for lo, hi in enclosures_a:
            eps = max(eps, (hi - lo) / 2)
        for pt in orbit:
            for lo, hi in pt:
                eps = max(eps, (hi - lo) / 2)
        # drop the last (dependent) coordinate; errors stay bounded by eps
        y = tuple((lo + hi) / 2 for lo, hi in enclosures_a[: n - 1])
        pts = [tuple((lo + hi) / 2 for lo, hi in pt[: n - 1]) for pt in orbit]
        delta = 2 * eps  # covers the l2 inflation from two coordinates
        if n == 2:
            verdict = _decide_1d(y[0], [p[0] for p in pts], 2 * delta)
        else:
            verdict = _decide_2d(y, pts, (2 * delta) * (2 * delta))
        if verdict is not None:
            return verdict
        if 2 * delta < BOUNDARY_SLACK:
            return None
        prec *= 2
