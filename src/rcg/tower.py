"""Exact arithmetic in towers of real quadratic extensions of Q.

A tower is a chain Q = T_0 < T_1 < ... < T_d where T_i = T_{i-1}(sqrt(r_i))
for a radicand r_i in T_{i-1} that is strictly positive and not a square in
T_{i-1} (both facts are established before adjoining, so every level is a
genuine quadratic extension and coordinates are canonical).  An element of
T_d is stored as a flat tuple of 2^d Fractions over the multiplicative basis
of radical products; index bit j set means the basis element contains
sqrt(r_{j+1}).

Equality and the zero test are purely symbolic (coordinate comparison after
lifting to a common tower).  Signs of provably nonzero elements are decided
by adaptive-precision rational interval refinement, which terminates because
a nonzero element has nonzero magnitude.

Merge memo: an operation on scalars of two towers neither of which extends
the other lifts both into a common tower.  The first such merge of an
ordered pair of towers builds a merge map: the common tower and the images
there of the right tower's 2^d basis monomials, as sparse coefficient
vectors.  The map is kept on the left Tower object, keyed by the right
tower's id and confirmed with `is` (it holds the right tower, so the id
cannot be reused while the entry lives).  Every later merge of that pair
pads the left coefficients and maps the right ones by one linear
combination, and returns the same tower object, so the next operation on
the result takes the equal-tower path.  The memo lives and dies with its
tower: no module-level cache, no size limit.
"""

from __future__ import annotations

from fractions import Fraction
from math import isqrt

from .errors import DivisionByZero, DomainError, NotPositive

Interval = tuple[Fraction, Fraction]

_F0 = Fraction(0)
_F1 = Fraction(1)


# ---------------------------------------------------------------------------
# coefficient-vector arithmetic (tuples of Fractions, length 2**depth)

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
# public types

class Tower:
    """Immutable context: the chain of adjoined radicands.

    radicands[i] is a coefficient vector of length 2**i over the prefix
    tower of depth i.  _merges is the merge memo (see the module docstring):
    id(right tower) -> (right tower, common tower, basis images).
    """

    __slots__ = ("radicands", "_merges")

    def __init__(self, radicands: tuple = ()):
        self.radicands = radicands
        self._merges = {}

    @property
    def depth(self) -> int:
        return len(self.radicands)

    def extend(self, radicand_vec: tuple) -> "Tower":
        return Tower(self.radicands + (radicand_vec,))

    def is_prefix_of(self, other: "Tower") -> bool:
        return self.radicands == other.radicands[: self.depth]

    def __eq__(self, other):
        return isinstance(other, Tower) and self.radicands == other.radicands

    def __repr__(self):
        return f"Tower(depth={self.depth})"


_QQ = Tower()


class TowerScalar:
    """An exact element of a quadratic-extension tower over Q.

    Values are immutable; all operations are pure and return fresh values.
    Mixed-tower operands are lifted to a common tower automatically.
    """

    __slots__ = ("tower", "coeffs")

    def __init__(self, tower: Tower, coeffs: tuple):
        self.tower = tower
        self.coeffs = coeffs

    # -- constructors ------------------------------------------------------

    @staticmethod
    def from_fraction(q) -> "TowerScalar":
        return TowerScalar(_QQ, (Fraction(q),))

    @staticmethod
    def coerce(x) -> "TowerScalar":
        s = _operand(x)
        if s is None:
            raise TypeError(f"cannot coerce {type(x).__name__} to TowerScalar")
        return s

    # -- structure ---------------------------------------------------------

    def is_zero(self) -> bool:
        return not any(self.coeffs)

    def is_rational(self) -> bool:
        return not any(self.coeffs[1:])

    def as_fraction(self):
        """The value as a Fraction if it is rational, else None."""
        return self.coeffs[0] if self.is_rational() else None

    def lift_to(self, tower: Tower) -> "TowerScalar":
        if not self.tower.is_prefix_of(tower):
            raise DomainError("lift target is not an extension")
        pad = (1 << tower.depth) - len(self.coeffs)
        return TowerScalar(tower, self.coeffs + (_F0,) * pad)

    # -- arithmetic --------------------------------------------------------

    def __add__(self, other):
        other = _operand(other)
        if other is None:
            return NotImplemented
        t, u, v = _common(self, other)
        return TowerScalar(t, _vadd(u, v))

    __radd__ = __add__

    def __sub__(self, other):
        other = _operand(other)
        if other is None:
            return NotImplemented
        t, u, v = _common(self, other)
        return TowerScalar(t, _vsub(u, v))

    def __rsub__(self, other):
        other = _operand(other)
        if other is None:
            return NotImplemented
        return other - self

    def __neg__(self):
        return TowerScalar(self.tower, _vneg(self.coeffs))

    def __mul__(self, other):
        other = _operand(other)
        if other is None:
            return NotImplemented
        t, u, v = _common(self, other)
        return TowerScalar(t, _vmul(t.radicands, t.depth, u, v))

    __rmul__ = __mul__

    def inv(self) -> "TowerScalar":
        return TowerScalar(
            self.tower, _vinv(self.tower.radicands, self.tower.depth, self.coeffs)
        )

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
        t, u, v = _common(self, other)
        return u == v

    __hash__ = None

    # -- order and approximation -------------------------------------------

    def sign(self) -> int:
        """-1, 0 or +1.  Zero iff the canonical coordinates all vanish."""
        if self.is_zero():
            return 0
        if self.is_rational():
            q = self.coeffs[0]
            return -1 if q < 0 else 1
        prec = 8
        while True:
            lo, hi = _enclose(self.tower.radicands, self.tower.depth, self.coeffs, prec)
            if lo > 0:
                return 1
            if hi < 0:
                return -1
            prec *= 2

    def approx(self, precision) -> Interval:
        """A rational interval of width <= precision containing the value."""
        precision = Fraction(precision)
        if self.is_rational():
            q = self.coeffs[0]
            return (q, q)
        prec = 16
        while True:
            lo, hi = _enclose(self.tower.radicands, self.tower.depth, self.coeffs, prec)
            if hi - lo <= precision:
                return (lo, hi)
            prec *= 2

    def __float__(self):
        lo, hi = self.approx(Fraction(1, 10**17))
        return float((lo + hi) / 2)

    # -- printing ----------------------------------------------------------

    def __str__(self):
        return _format(self.tower.radicands, self.tower.depth, self.coeffs)

    def __repr__(self):
        return f"TowerScalar({self})"


def _operand(x):
    """x as a TowerScalar, or None when it is no scalar of the field."""
    if isinstance(x, TowerScalar):
        return x
    if isinstance(x, (int, Fraction)):
        return TowerScalar.from_fraction(x)
    return None


def _common(a: TowerScalar, b: TowerScalar):
    """Lift two scalars to a common tower; returns (tower, coeffs_a, coeffs_b)."""
    if a.tower is b.tower or a.tower == b.tower:
        return a.tower, a.coeffs, b.coeffs
    if a.tower.is_prefix_of(b.tower):
        return b.tower, a.lift_to(b.tower).coeffs, b.coeffs
    if b.tower.is_prefix_of(a.tower):
        return a.tower, a.coeffs, b.lift_to(a.tower).coeffs
    return _merge(a, b)


def _merge(a: TowerScalar, b: TowerScalar):
    """General merge through the memoised map of the pair (a.tower,
    b.tower): a's coefficients padded, b's mapped by the basis images."""
    memo = a.tower._merges
    hit = memo.get(id(b.tower))
    if hit is None or hit[0] is not b.tower:
        hit = memo[id(b.tower)] = (b.tower,) + _merge_map(a.tower, b.tower)
    _, t, basis = hit
    size = 1 << t.depth
    ea = a.coeffs + (_F0,) * (size - len(a.coeffs))
    eb = [_F0] * size
    for q, image in zip(b.coeffs, basis):
        if q:
            for k, x in image:
                eb[k] += q * x
    return t, ea, tuple(eb)


def _merge_map(ta: Tower, tb: Tower):
    """The common tower of ta and tb, and the images there of tb's basis
    monomials as sparse vectors ((index, coefficient), ...).  Adjoins tb's
    radicands onto ta one level at a time, reusing an existing square root
    whenever one already exists there (so dependent radicands never create
    spurious levels)."""
    t = ta
    # images[i]: sqrt of tb's i-th radicand, as a TowerScalar in the current t
    images: list = []
    for i, rad in enumerate(tb.radicands):
        rad_img = _fold(tb, i, rad, t, images)
        s = _vsqrt(t.radicands, t.depth, rad_img.coeffs)
        if s is not None:
            root = TowerScalar(t, s)
            if root.sign() < 0:
                root = -root
        else:
            t = t.extend(rad_img.coeffs)
            root = TowerScalar(t, _vzero(t.depth - 1) + _vone(t.depth - 1))
            images = [im.lift_to(t) for im in images]
        images.append(root)
    # the monomial of mask m is the one of m without its top bit times a root
    basis = [_vone(t.depth)]
    for j, root in enumerate(images):
        basis += [_vmul(t.radicands, t.depth, v, root.coeffs) for v in basis[: 1 << j]]
    return t, tuple(tuple((k, x) for k, x in enumerate(v) if x) for v in basis)


def _fold(src: Tower, depth: int, vec: tuple, dst: Tower, images: list) -> TowerScalar:
    """Map a source-tower coefficient vector into the destination tower,
    substituting the provided square-root images for the source radicals."""
    if depth == 0:
        return TowerScalar(dst, (vec[0],) + (_F0,) * ((1 << dst.depth) - 1))
    h = 1 << (depth - 1)
    lo = _fold(src, depth - 1, vec[:h], dst, images)
    hi = _fold(src, depth - 1, vec[h:], dst, images)
    return lo + hi * images[depth - 1]


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
    t = a.tower
    s = _vsqrt(t.radicands, t.depth, a.coeffs)
    if s is not None:
        root = TowerScalar(t, s)
        return -root if root.sign() < 0 else root
    ext = t.extend(a.coeffs)
    return TowerScalar(ext, _vzero(t.depth) + _vone(t.depth))


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

