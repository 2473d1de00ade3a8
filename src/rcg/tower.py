"""Exact arithmetic in towers of real quadratic extensions of Q.

A tower is a chain Q = T_0 < T_1 < ... < T_d where T_i = T_{i-1}(sqrt(r_i))
for a radicand r_i in T_{i-1} that is strictly positive and not a square in
T_{i-1} (both facts are established before adjoining, so every level is a
genuine quadratic extension and coordinates are canonical).

Representation.  An element of T_d is one integer vector `nums` of 2^d
coordinates over one positive integer `den`: the value is the sum of
nums[m] / den times the basis monomial m, the product of the sqrt(r_{j+1})
over the bits j set in m.  The pair is canonical: gcd(den, *nums) == 1,
and zero is all zeros over 1, so equal values of one tower hold equal
pairs and == compares coordinates.  Each radicand r_i is stored the same
way, as a pair over T_{i-1}.

Integer kernels.  The product of two integer vectors of T_d is an integer
vector over a denominator D_d that the tower alone fixes.  With
r_d = n / e, D_0 = 1 and m = D_{d-1} e, the product of a + b sqrt(r_d) and
c + f sqrt(r_d) is (A m + C) + (E + G) m sqrt(r_d) over D_d = D_{d-1} m,
where A, E, G are the products a c, a f, b c one level down and C is
(b f) n; _vmul computes it.  Inverses (_vinv), square roots (_sqrt) and the
enclosures that decide signs and approximations (_enclose) run on integer
vectors too, and each public operation reduces its result once (_scalar).
Fractions are built only at the boundary: as_fraction, the interval that
approx returns, printing, and the read-only `coeffs`, made on each read.

Equality and the zero test are purely symbolic (coordinate comparison after
lifting to a common tower).  Signs of provably nonzero elements are decided
by adaptive-precision rational interval refinement, which terminates because
a nonzero element has nonzero magnitude.

Merge memo: an operation on scalars of two towers neither of which extends
the other lifts both into a common tower.  The first such merge of an
ordered pair of towers builds a merge map: the common tower and the images
there of the right tower's 2^d basis monomials, as sparse integer vectors
over one denominator.  The map is kept on the left Tower object, keyed by
the right tower's id and confirmed with `is` (it holds the right tower, so
the id cannot be reused while the entry lives).  Every later merge of that
pair pads the left coordinates and maps the right ones by one linear
combination, and returns the same tower object, so the next operation on
the result takes the equal-tower path.  The memo lives and dies with its
tower: no module-level cache, no size limit.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, isqrt, lcm
from operator import add, neg, sub

from .errors import DivisionByZero, DomainError, NotPositive

Interval = tuple[Fraction, Fraction]


# ---------------------------------------------------------------------------
# integer kernels: levels[k] = (n, e, m) for r_{k+1} = n / e and its product
# scale m = D_k e; a pair (w, e) is the value w / e, e nonzero

def _scaled(v: tuple, m: int) -> tuple:
    return v if m == 1 else tuple([x * m for x in v])


def _vmul(levels: tuple, depth: int, u: tuple, v: tuple) -> tuple:
    """w with u * v = w / D_depth, for integer vectors u and v."""
    if depth == 1:
        (r,), _, m = levels[0]
        a, b = u
        c, f = v
        return (a * c * m + b * f * r, (a * f + b * c) * m)
    if depth == 0:
        return (u[0] * v[0],)
    if not any(u) or not any(v):
        return (0,) * len(u)
    k = depth - 1
    h = 1 << k
    a, b = u[:h], u[h:]
    c, f = v[:h], v[h:]
    r, _, m = levels[k]
    b_zero = not any(b)
    f_zero = not any(f)
    ac = _vmul(levels, k, a, c)
    if b_zero and f_zero:
        return _scaled(ac, m) + (0,) * h
    if b_zero or f_zero:
        lo = _scaled(ac, m)
        hi = _vmul(levels, k, a, f) if b_zero else _vmul(levels, k, b, c)
    else:
        bfr = _vmul(levels, k, _vmul(levels, k, b, f), r)
        lo = tuple(x * m + y for x, y in zip(ac, bfr))
        hi = tuple(map(add, _vmul(levels, k, a, f), _vmul(levels, k, b, c)))
    return lo + _scaled(hi, m)


def _vinv(levels: tuple, depth: int, u: tuple):
    """The pair of 1 / u, for a nonzero integer vector u:
    1/(a + b sqrt(r)) = (a - b sqrt(r)) / (a^2 - b^2 r)."""
    if depth == 0:
        if not u[0]:
            raise DivisionByZero("inverse of zero")
        return (1,), u[0]
    k = depth - 1
    h = 1 << k
    a, b = u[:h], u[h:]
    if not any(b):
        w, e = _vinv(levels, k, a)
        return w + (0,) * h, e
    r, _, m = levels[k]
    # the norm is (a a m - (b b) r) / D_depth
    norm = _vmul(levels, k, _vmul(levels, k, b, b), r)
    norm = tuple(x * m - y for x, y in zip(_vmul(levels, k, a, a), norm))
    w, e = _vinv(levels, k, norm)
    return _scaled(_vmul(levels, k, a, w), m) + _scaled(_vmul(levels, k, b, w), -m), e


def _reduced(nums, den: int):
    """The canonical pair of nums / den: den > 0, gcd(den, *nums) == 1."""
    if den != 1:
        g = gcd(den, *nums)
        if den < 0:
            g = -g
        if g != 1:
            return tuple([x // g for x in nums]), den // g
    return tuple(nums), den


def _pmul(t: "Tower", depth: int, p, q):
    return _vmul(t._levels, depth, p[0], q[0]), p[1] * q[1] * t._dens[depth]


def _pinv(t: "Tower", depth: int, p):
    w, e = _vinv(t._levels, depth, p[0])
    return _scaled(w, p[1]), e


def _padd(p, q, sign: int = 1):
    return tuple(x * q[1] + sign * y * p[1] for x, y in zip(p[0], q[0])), p[1] * q[1]


def _sqrt(t: "Tower", depth: int, p):
    """A pair whose square is the pair p of T_depth, or None when p is no
    square there.

    Classical denesting: sqrt(a + b*sqrt(r)) = x + y*sqrt(r) exists in the
    field iff the norm a^2 - b^2*r is a square s^2 one level down and
    (a +- s)/2 is a square x^2 there too (y = b/(2x)).  The root of w / e
    is the root of the integer vector u = w e over e.
    """
    w, e = _reduced(*p)
    u = _scaled(w, e)
    if depth == 0:
        s = isqrt(u[0]) if u[0] >= 0 else -1
        return ((s,), e) if s >= 0 and s * s == u[0] else None
    k = depth - 1
    h = 1 << k
    a, b = (u[:h], 1), (u[h:], 1)
    r = t._levels[k][:2]
    if not any(b[0]):
        s = _sqrt(t, k, a)
        if s is not None:
            return s[0] + (0,) * h, s[1] * e
        s = _sqrt(t, k, _pmul(t, k, a, _pinv(t, k, r)))
        return None if s is None else ((0,) * h + s[0], s[1] * e)
    s = _sqrt(t, k, _padd(_pmul(t, k, a, a), _pmul(t, k, _pmul(t, k, b, b), r), -1))
    if s is None:
        return None
    for sgn in (s, (tuple(map(neg, s[0])), s[1])):
        xsq = _padd(a, sgn)
        x = _sqrt(t, k, (xsq[0], 2 * xsq[1]))
        if x is None or not any(x[0]):
            continue
        y, yd = _pmul(t, k, b, _pinv(t, k, x))
        cand, cd = _scaled(x[0], 2 * yd) + _scaled(y, x[1]), 2 * x[1] * yd
        if _vmul(t._levels, depth, cand, cand) == _scaled(u, cd * cd * t._dens[depth]):
            return cand, cd * e
    return None


# ---------------------------------------------------------------------------
# rational interval arithmetic for approximation and sign refinement, on
# integer endpoints over one positive denominator

def _enclose(levels: tuple, depth: int, u: tuple, prec: int):
    """(lo, hi, d): lo / d <= u <= hi / d for an integer vector u, d > 0.
    sqrt(r) is enclosed by isqrt bounds at `prec` bits on the endpoints of
    r's enclosure, each in lowest terms (_root_enclosure), and a + b sqrt(r)
    by interval sums and products."""
    if depth == 0:
        return u[0], u[0], 1
    k = depth - 1
    h = 1 << k
    lo, hi, d = _enclose(levels, k, u[:h], prec)
    b = u[h:]
    if not any(b):
        return lo, hi, d
    blo, bhi, bd = _enclose(levels, k, b, prec)
    slo, shi, sd = _root_enclosure(levels, k, prec)
    cands = (blo * slo, blo * shi, bhi * slo, bhi * shi)
    pd = bd * sd
    return lo * pd + min(cands) * d, hi * pd + max(cands) * d, d * pd


def _root_enclosure(levels: tuple, k: int, prec: int):
    r, e, _ = levels[k]
    lo, hi, d = _enclose(levels, k, r, prec)
    d *= e
    bounds = []
    for x, up in ((max(lo, 0), 0), (hi, 1)):
        g = gcd(x, d)
        n, q = x // g, d // g
        bounds.append((isqrt(n * q << 2 * prec) + up, q))
    (low, low_d), (high, high_d) = bounds
    return low * high_d, high * low_d, low_d * high_d << prec


# ---------------------------------------------------------------------------
# public types

class Tower:
    """Immutable context: the chain of adjoined radicands.

    radicands[i] is the canonical pair (nums, den) of r_{i+1} over the
    prefix tower of depth i.  The kernels read _levels and _dens, D_0 to
    D_depth (see the module docstring).  _merges is the merge memo: id(right
    tower) -> (right tower, common tower, basis images, their denominator).
    """

    __slots__ = ("radicands", "depth", "_levels", "_dens", "_merges")

    def __init__(self, radicands: tuple = ()):
        self.radicands = radicands
        self.depth = len(radicands)
        levels, dens = [], [1]
        for n, e in radicands:
            m = dens[-1] * e
            levels.append((n, e, m))
            dens.append(dens[-1] * m)
        self._levels = tuple(levels)
        self._dens = tuple(dens)
        self._merges = {}

    def extend(self, radicand: tuple) -> "Tower":
        return Tower(self.radicands + (radicand,))

    def is_prefix_of(self, other: "Tower") -> bool:
        return self.radicands == other.radicands[: self.depth]

    def __eq__(self, other):
        return isinstance(other, Tower) and self.radicands == other.radicands

    def __repr__(self):
        return f"Tower(depth={self.depth})"


_QQ = Tower()


class TowerScalar:
    """An exact element of a quadratic-extension tower over Q: the
    canonical pair nums / den of its tower (see the module docstring).

    Values are immutable; all operations are pure and return fresh values.
    Mixed-tower operands are lifted to a common tower automatically.
    """

    __slots__ = ("tower", "nums", "den")

    def __init__(self, tower: Tower, nums: tuple, den: int = 1):
        """The value nums / den of `tower`, a pair already canonical
        (_scalar reduces one that may not be)."""
        self.tower = tower
        self.nums = nums
        self.den = den

    # -- constructors ------------------------------------------------------

    @staticmethod
    def from_fraction(q) -> "TowerScalar":
        return _operand(q if isinstance(q, (int, Fraction)) else Fraction(q))

    @staticmethod
    def coerce(x) -> "TowerScalar":
        s = _operand(x)
        if s is None:
            raise TypeError(f"cannot coerce {type(x).__name__} to TowerScalar")
        return s

    # -- structure ---------------------------------------------------------

    @property
    def coeffs(self) -> tuple:
        """The coordinates as Fractions, made on each read."""
        return tuple(Fraction(n, self.den) for n in self.nums)

    def is_zero(self) -> bool:
        return not any(self.nums)

    def is_rational(self) -> bool:
        return not any(self.nums[1:])

    def as_fraction(self):
        """The value as a Fraction if it is rational, else None."""
        return Fraction(self.nums[0], self.den) if self.is_rational() else None

    def lift_to(self, tower: Tower) -> "TowerScalar":
        if not self.tower.is_prefix_of(tower):
            raise DomainError("lift target is not an extension")
        return TowerScalar(tower, _padded(self.nums, tower), self.den)

    # -- arithmetic --------------------------------------------------------

    def __add__(self, other):
        other = _operand(other)
        if other is None:
            return NotImplemented
        t, u, du, v, dv = _common(self, other)
        if du == dv:
            return _scalar(t, tuple(map(add, u, v)), du)
        return _scalar(t, tuple(x * dv + y * du for x, y in zip(u, v)), du * dv)

    __radd__ = __add__

    def __sub__(self, other):
        other = _operand(other)
        if other is None:
            return NotImplemented
        t, u, du, v, dv = _common(self, other)
        if du == dv:
            return _scalar(t, tuple(map(sub, u, v)), du)
        return _scalar(t, tuple(x * dv - y * du for x, y in zip(u, v)), du * dv)

    def __rsub__(self, other):
        other = _operand(other)
        if other is None:
            return NotImplemented
        return other - self

    def __neg__(self):
        return TowerScalar(self.tower, tuple(map(neg, self.nums)), self.den)

    def __mul__(self, other):
        other = _operand(other)
        if other is None:
            return NotImplemented
        t, u, du, v, dv = _common(self, other)
        return _scalar(t, _vmul(t._levels, t.depth, u, v), du * dv * t._dens[-1])

    __rmul__ = __mul__

    def inv(self) -> "TowerScalar":
        t = self.tower
        w, e = _vinv(t._levels, t.depth, self.nums)
        return _scalar(t, _scaled(w, self.den), e)

    def __truediv__(self, other):
        other = _operand(other)
        if other is None:
            return NotImplemented
        return self * other.inv()

    def __rtruediv__(self, other):
        other = _operand(other)
        if other is None:
            return NotImplemented
        return other * self.inv()

    def __pow__(self, n: int):
        if n < 0:
            return self.inv() ** (-n)
        out = TowerScalar.from_fraction(1)
        base = self
        while n:
            if n & 1:
                out = out * base
            base = base * base
            n >>= 1
        return out

    def __eq__(self, other):
        other = _operand(other)
        if other is None:
            return NotImplemented
        _, u, du, v, dv = _common(self, other)
        return du == dv and u == v

    __hash__ = None

    # -- order and approximation -------------------------------------------

    def sign(self) -> int:
        """-1, 0 or +1.  Zero iff the canonical coordinates all vanish."""
        nums = self.nums
        if not any(nums[1:]):
            return (nums[0] > 0) - (nums[0] < 0)
        t = self.tower
        prec = 8
        while True:
            lo, hi, _ = _enclose(t._levels, t.depth, nums, prec)
            if lo > 0:
                return 1
            if hi < 0:
                return -1
            prec *= 2

    def approx(self, precision) -> Interval:
        """A rational interval of width <= precision containing the value.
        DomainError unless the precision is positive."""
        precision = Fraction(precision)
        if precision <= 0:
            raise DomainError(f"approx needs a positive precision, not {precision}")
        if self.is_rational():
            q = Fraction(self.nums[0], self.den)
            return (q, q)
        t = self.tower
        prec = 16
        while True:
            lo, hi, d = _enclose(t._levels, t.depth, self.nums, prec)
            d *= self.den
            if (hi - lo) * precision.denominator <= precision.numerator * d:
                return (Fraction(lo, d), Fraction(hi, d))
            prec *= 2

    def __float__(self):
        lo, hi = self.approx(Fraction(1, 10**17))
        return float((lo + hi) / 2)

    # -- printing ----------------------------------------------------------

    def __str__(self):
        return _format(self.tower.radicands, self.nums, self.den)

    def __repr__(self):
        return f"TowerScalar({self})"


def _scalar(t: Tower, nums, den: int) -> TowerScalar:
    """The scalar nums / den of t (den nonzero), reduced to its canonical
    pair."""
    if den == 1:
        return TowerScalar(t, nums)
    return TowerScalar(t, *_reduced(nums, den))


def _operand(x):
    """x as a TowerScalar, or None when it is no scalar of the field."""
    if isinstance(x, TowerScalar):
        return x
    if isinstance(x, int):
        return TowerScalar(_QQ, (x,))
    if isinstance(x, Fraction):
        return TowerScalar(_QQ, (x.numerator,), x.denominator)
    return None


def _padded(nums: tuple, t: Tower) -> tuple:
    return nums + (0,) * ((1 << t.depth) - len(nums))


def _common(a: TowerScalar, b: TowerScalar):
    """Lift two scalars to a common tower; returns (tower, nums_a, den_a,
    nums_b, den_b), each pair canonical."""
    ta, tb = a.tower, b.tower
    if ta is tb or ta == tb:
        return ta, a.nums, a.den, b.nums, b.den
    if ta.is_prefix_of(tb):
        return tb, _padded(a.nums, tb), a.den, b.nums, b.den
    if tb.is_prefix_of(ta):
        return ta, a.nums, a.den, _padded(b.nums, ta), b.den
    return _merge(a, b)


def _merge(a: TowerScalar, b: TowerScalar):
    """General merge through the memoised map of the pair (a.tower,
    b.tower): a's coordinates padded, b's mapped by the basis images."""
    memo = a.tower._merges
    hit = memo.get(id(b.tower))
    if hit is None or hit[0] is not b.tower:
        hit = memo[id(b.tower)] = (b.tower,) + _merge_map(a.tower, b.tower)
    _, t, basis, den = hit
    eb = [0] * (1 << t.depth)
    for q, image in zip(b.nums, basis):
        if q:
            for k, x in image:
                eb[k] += q * x
    return (t, _padded(a.nums, t), a.den) + _reduced(eb, b.den * den)


def _merge_map(ta: Tower, tb: Tower):
    """The common tower of ta and tb, the images there of tb's basis
    monomials as sparse integer vectors ((index, coordinate), ...), and
    the one denominator of them all.  Adjoins tb's radicands onto ta one
    level at a time, reusing an existing square root whenever one already
    exists there (so dependent radicands never create spurious levels)."""
    t = ta
    # images[i]: sqrt of tb's i-th radicand, as a TowerScalar in the current t
    images: list = []
    for i, (n, e) in enumerate(tb.radicands):
        rad = _fold(i, n, t, images)
        rad = _scalar(t, rad.nums, rad.den * e)
        root = _root(rad)
        if root is not None:
            if root.sign() < 0:
                root = -root
        else:
            t = t.extend((rad.nums, rad.den))
            root = _top_root(t)
            images = [im.lift_to(t) for im in images]
        images.append(root)
    # the monomial of mask m is the one of m without its top bit times a root
    basis = [((1,) + (0,) * ((1 << t.depth) - 1), 1)]
    for j, root in enumerate(images):
        basis += [_reduced(*_pmul(t, t.depth, v, (root.nums, root.den))) for v in basis[: 1 << j]]
    den = lcm(*(d for _, d in basis))
    return t, tuple(tuple((k, x * (den // d)) for k, x in enumerate(v) if x) for v, d in basis), den


def _fold(depth: int, vec: tuple, dst: Tower, images: list) -> TowerScalar:
    """Map an integer vector of a source tower of this depth into the
    destination tower, substituting the provided square-root images for the
    source radicals."""
    if depth == 0:
        return TowerScalar(dst, _padded(vec[:1], dst))
    h = 1 << (depth - 1)
    lo = _fold(depth - 1, vec[:h], dst, images)
    hi = _fold(depth - 1, vec[h:], dst, images)
    return lo + hi * images[depth - 1]


def _top_root(t: Tower) -> TowerScalar:
    """sqrt of t's last radicand, the basis monomial of t's top bit."""
    h = 1 << (t.depth - 1)
    return TowerScalar(t, (0,) * h + (1,) + (0,) * (h - 1))


def _root(x: TowerScalar):
    """A square root of x in x's own tower, of either sign, or None."""
    t = x.tower
    s = _sqrt(t, t.depth, (x.nums, x.den))
    return None if s is None else _scalar(t, *s)


# ---------------------------------------------------------------------------
# field operations beyond the dunders

def sqrt_positive(a) -> TowerScalar:
    """The positive square root.

    If the root already lies in the current tower (detected by denesting) no
    adjunction happens; otherwise the tower is extended by the radicand.
    Raises NotPositive unless sign(a) = +1.
    """
    a = TowerScalar.coerce(a)
    if a.sign() != 1:
        raise NotPositive(f"sqrt_positive of non-positive value {a}")
    root = _root(a)
    if root is not None:
        return -root if root.sign() < 0 else root
    return _top_root(a.tower.extend((a.nums, a.den)))


# ---------------------------------------------------------------------------
# printing in the shared scalar grammar

def _fmt_fraction(q: Fraction) -> str:
    return str(q.numerator) if q.denominator == 1 else f"{q.numerator}/{q.denominator}"


def _format(rads: tuple, nums: tuple, den: int) -> str:
    terms = []
    for mask, n in enumerate(nums):
        if not n:
            continue
        q = Fraction(n, den)
        radicals = [f"sqrt({_format(rads[:j], *rads[j])})"
                    for j in range(len(rads)) if mask >> j & 1]
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
