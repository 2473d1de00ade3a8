"""Truncated Puiseux series over the quadratic tower, with X infinite.

A value is a finite sum of terms c * X^e (e rational, c a nonzero
TowerScalar) sorted by strictly decreasing exponent, plus a tail marker:
either Exact (tail None, nothing omitted) or TruncatedBelow(e) meaning every
omitted term has exponent < e.  The order extends the tower order by X > r
for every constant r, so the sign of a series is the sign of its leading
(largest-exponent) coefficient.

Convention note: many references take the series variable infinitesimal.
This module fixes X infinite; negating every exponent (X -> 1/eps) is the
bridge to the infinitesimal convention when cross-checking against such
sources.

Truncation is tracked per value.  Operations that must choose a working
order (invert, sqrt_positive, eigen-lifting downstream) take a relative
order parameter, in exponent units below the leading term; it must be
positive (DomainError otherwise, from the one check _positive_order).
Matrices carry theirs in their scalar domain (linalg.PuiseuxDomain(order));
the default, DEFAULT_REL_ORDER = 8, is a constant that nothing in rcg
writes.

invert and sqrt_positive write a = c0 X^e0 (1 + t), t the normalised
remainder (every exponent below 0), and fill the coefficients of 1/(1 + t)
or sqrt(1 + t) by one coefficient recurrence (Knuth, TAOCP vol. 2, 4.7):
b = 1 - t b, or r^2 = 1 + t, solved for one exponent at a time on the
integer lattice of t's exponents, from X^0 down to the floor max(-order,
tail of t).  That floor is the result's tail (shifted back by -e0, or by
e0/2).  Nothing below the tail of t is known, and the power sums of t
reach no lower either: tail(t^k) = tail(t) + (k - 1) lead(t) is largest at
k = 1.  No series product is formed; N lattice points cost O(N^2)
coefficient operations.  The root is formed in two parts (_root_parts):
c = sqrt(c0), the one tower radical, and r = X^(e0/2) sqrt(1 + t), in a's
own field; sqrt_positive multiplies c into r's coefficients last, and a
caller that keeps the two apart (the Puiseux Cartan decomposition) does
its series work on r and multiplies c in once.

Below-tail rule: a term below a value's tail is unknown, so no operation
forms one.  A product works out its tail first, max(tail_a + lead_b,
tail_b + lead_a), and multiplies only the coefficient pairs whose exponent
sum is at or above it; terms are sorted by decreasing exponent, so the inner
loop stops at the first pair below the tail.  A product by an exact
constant (one term, at X^0) scales the other operand's coefficients term by
term, with no exponent lattice.  Sums and products build their
results through a trusted constructor that skips the normalisation the
public PuiseuxScalar(terms, tail) does for the parser and for callers.

The rational kernel.  A value whose coefficients all have tower depth 0
has one lattice form (den, ks, ns, d): its terms are ns[i]/d * X^(ks[i]/den),
ks strictly decreasing integers, ns nonzero integers, d > 0, with den
coprime to the ks taken together and d to the ns.  The form is canonical,
so two rational values are equal iff their tails and forms are.  It is
computed once from the terms and kept on the value.  Products, sums,
negation, truncate_below, sign and is_zero of rational values read only
forms: a product convolves integers with the below-tail cut, a sum merges
numerators over lcm(d_a, d_b), and every result is reduced by its gcds, so
d does not grow from product to product.  invert and sqrt_positive run
their recurrences on integers when t is rational: coefficient j of the
result, scaled by m^j (for the square root by (4m)^j, which keeps every
halving exact), m the denominator of t, is an integer.  A result of the
kernel carries only its form; the public terms tuple is built from it, and
cached, on first read, so printing and every outside reader see the same
Fraction exponents and depth-0 TowerScalars as the generic code builds.
An operand with a radical coefficient takes the generic code on
TowerScalars: the kernel never lifts radicals into one common tower, whose
radicand order decides how a value prints.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm

from .errors import (
    DivisionByZero,
    DomainError,
    IndeterminateSign,
    NotPositive,
    UnsupportedExponent,
)
from .tower import _QQ, TowerScalar, _fmt_fraction, _join_signed, _scalar
from .tower import sqrt_positive as tower_sqrt

F = Fraction

#: default relative truncation width used when an operation must choose one
DEFAULT_REL_ORDER = F(8)

_ZERO = TowerScalar.coerce(0)
_ONE = TowerScalar.coerce(1)
_HALF = F(1, 2)

#: the lattice form of zero
_ZERO_FORM = (1, (), (), 1)


class PuiseuxScalar:
    """A truncated Puiseux series over TowerScalar.  Immutable."""

    __slots__ = ("_terms", "_form", "tail")

    def __init__(self, terms, tail=None):
        """terms: iterable of (exponent, coefficient); tail: None for an
        exact value, else the rational cutoff below which terms are unknown.
        Terms are normalised: zero coefficients dropped, exponents sorted
        strictly decreasing, stored terms below the cutoff absorbed into it.
        """
        tail = None if tail is None else F(tail)
        norm = {}
        for e, c in terms:
            e = F(e)
            c = TowerScalar.coerce(c)
            if e in norm:
                norm[e] = norm[e] + c
            else:
                norm[e] = c
        items = []
        for e in sorted(norm, reverse=True):
            if tail is not None and e < tail:
                continue
            if not norm[e].is_zero():
                items.append((e, norm[e]))
        self._terms = tuple(items)
        self._form = None
        self.tail = tail

    @classmethod
    def _trusted(cls, terms: tuple, tail) -> "PuiseuxScalar":
        """A value from terms that are already normal: Fraction exponents
        strictly decreasing, nonzero TowerScalar coefficients, none below
        the tail (a Fraction or None).  Nothing is checked or converted."""
        s = object.__new__(cls)
        s._terms = terms
        s._form = None
        s.tail = tail
        return s

    @classmethod
    def _lattice_value(cls, form: tuple, tail) -> "PuiseuxScalar":
        """A rational value from its canonical lattice form, none of whose
        terms lies below the tail; the terms are built on first read."""
        s = object.__new__(cls)
        s._terms = None
        s._form = form
        s.tail = tail
        return s

    @property
    def terms(self) -> tuple:
        """The (exponent, coefficient) pairs by strictly decreasing
        exponent: Fraction exponents, nonzero TowerScalar coefficients."""
        terms = self._terms
        if terms is None:
            terms = self._terms = _terms_of(self._form)
        return terms

    def _rational(self):
        """The lattice form when every coefficient has depth 0, else False."""
        form = self._form
        if form is None:
            form = self._form = _form_of(self._terms)
        return form

    # -- constructors ------------------------------------------------------

    @staticmethod
    def monomial(coeff, exponent=F(0)) -> "PuiseuxScalar":
        c = TowerScalar.coerce(coeff)
        if c.is_zero():
            return PuiseuxScalar._lattice_value(_ZERO_FORM, None)
        e = F(exponent)
        s = PuiseuxScalar._trusted(((e, c),), None)
        if len(c.nums) == 1:
            s._form = (e.denominator, (e.numerator,), c.nums, c.den)
        return s

    @staticmethod
    def constant(c) -> "PuiseuxScalar":
        return PuiseuxScalar.monomial(c, 0)

    @staticmethod
    def coerce(x) -> "PuiseuxScalar":
        s = _operand(x)
        if s is None:
            raise TypeError(f"cannot coerce {type(x).__name__} to PuiseuxScalar")
        return s

    # -- structure ---------------------------------------------------------

    @property
    def ramification(self) -> int:
        m = 1
        for e, _ in self.terms:
            m = lcm(m, e.denominator)
        if self.tail is not None:
            m = lcm(m, self.tail.denominator)
        return m

    def is_exact(self) -> bool:
        return self.tail is None

    def _has_terms(self) -> bool:
        terms = self._terms
        return bool(terms) if terms is not None else bool(self._form[1])

    def is_zero(self) -> bool:
        """True iff provably zero.  Raises IndeterminateSign when all known
        terms cancelled but the value is truncated."""
        if self._has_terms():
            return False
        if self.tail is None:
            return True
        raise IndeterminateSign(f"all known terms cancelled below O(X^({self.tail}))")

    def lead(self):
        """(exponent, coefficient) of the leading term."""
        if not self._has_terms():
            self.is_zero()  # raises if truncated
            raise DomainError("zero series has no leading term")
        return self.terms[0]

    def sign(self) -> int:
        form = self._rational()
        if form:
            ns = form[2]
            if ns:
                return 1 if ns[0] > 0 else -1
        elif self._terms:
            return self._terms[0][1].sign()
        return 0 if self.tail is None else self._raise_indeterminate()

    def _raise_indeterminate(self):
        raise IndeterminateSign(f"sign unknown below O(X^({self.tail}))")

    def truncate_below(self, cutoff) -> "PuiseuxScalar":
        """Weaken the value to TruncatedBelow(cutoff) (no-op if already weaker)."""
        cutoff = F(cutoff)
        if self.tail is not None and self.tail >= cutoff:
            return self
        form = self._rational()
        if not form:
            return PuiseuxScalar._trusted(_above(self.terms, cutoff), cutoff)
        den, ks, ns, d = form
        n = _count_above(ks, _ceil(cutoff * den))
        if n < len(ks):
            form = _reduced(den, ks[:n], ns[:n], d)
        return PuiseuxScalar._lattice_value(form, cutoff)

    def coefficient(self, exponent) -> TowerScalar:
        """The coefficient of X^exponent, 0 where no term is stored.
        IndeterminateSign below the tail, where the coefficient is unknown."""
        exponent = F(exponent)
        if self.tail is not None and exponent < self.tail:
            raise IndeterminateSign(
                f"coefficient of X^({exponent}) unknown below O(X^({self.tail}))"
            )
        for e, c in self.terms:
            if e == exponent:
                return c
        return TowerScalar.coerce(0)

    # -- ring arithmetic ----------------------------------------------------

    def _known_exp_bound(self):
        """An upper bound for the exponent of any term of this value."""
        form = self._form
        if form:
            return F(form[1][0], form[0]) if form[1] else self.tail
        if self._terms:
            return self._terms[0][0]
        return self.tail  # may be None (exact zero)

    def __add__(self, other):
        other = _operand(other)
        if other is None:
            return NotImplemented
        if self.tail is None:
            tail = other.tail
        elif other.tail is None:
            tail = self.tail
        else:
            tail = max(self.tail, other.tail)
        fa = self._rational()
        fb = fa and other._rational()
        if fb:
            return PuiseuxScalar._lattice_value(_form_sum(fa, fb, tail), tail)
        # one pass over both decreasing term lists
        a, b = self.terms, other.terms
        na, nb = len(a), len(b)
        i = j = 0
        out = []
        while i < na and j < nb:
            ea, eb = a[i][0], b[j][0]
            if ea == eb:
                c = a[i][1] + b[j][1]
                if not c.is_zero():
                    out.append((ea, c))
                i += 1
                j += 1
            elif ea > eb:
                out.append(a[i])
                i += 1
            else:
                out.append(b[j])
                j += 1
        out.extend(a[i:])
        out.extend(b[j:])
        terms = tuple(out)
        return PuiseuxScalar._trusted(terms if tail is None else _above(terms, tail), tail)

    __radd__ = __add__

    def __neg__(self):
        form = self._rational()
        if form:
            den, ks, ns, d = form
            return PuiseuxScalar._lattice_value((den, ks, tuple(-n for n in ns), d), self.tail)
        return PuiseuxScalar._trusted(tuple((e, -c) for e, c in self.terms), self.tail)

    def __sub__(self, other):
        other = _operand(other)
        if other is None:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        other = _operand(other)
        if other is None:
            return NotImplemented
        return other + (-self)

    def __mul__(self, other):
        other = _operand(other)
        if other is None:
            return NotImplemented
        if (self.tail is None and not self._has_terms()) or (
                other.tail is None and not other._has_terms()):
            return PuiseuxScalar._lattice_value(_ZERO_FORM, None)
        cands = []
        if self.tail is not None:
            ub = other._known_exp_bound()
            if ub is not None:
                cands.append(self.tail + ub)
        if other.tail is not None:
            ub = self._known_exp_bound()
            if ub is not None:
                cands.append(other.tail + ub)
        tail = max(cands) if cands else None
        if _is_constant(other):
            return _scaled(self, other, tail, False)
        if _is_constant(self):
            return _scaled(other, self, tail, True)
        fa = self._rational()
        fb = fa and other._rational()
        if fb:
            return PuiseuxScalar._lattice_value(_form_product(fa, fb, tail), tail)
        a, b = self.terms, other.terms
        if not a or not b:
            return PuiseuxScalar._trusted((), tail)
        den, (ka, kb), low = _lattice(tail, a, b)
        if low is None:
            low = ka[-1][0] + kb[-1][0]  # the lowest sum: nothing is cut
        top = kb[0][0]
        sums = {}
        for k1, c1 in ka:
            if k1 + top < low:
                break  # every later row starts lower still
            for k2, c2 in kb:
                k = k1 + k2
                if k < low:
                    break  # every later pair of this row is lower still
                c = c1 * c2
                sums[k] = sums[k] + c if k in sums else c
        terms = tuple(
            (F(k, den), c) for k, c in sorted(sums.items(), reverse=True) if not c.is_zero()
        )
        return PuiseuxScalar._trusted(terms, tail)

    __rmul__ = __mul__

    def __pow__(self, n: int):
        if n < 0:
            return self.invert() ** (-n)
        out = PuiseuxScalar.constant(1)
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
        if self.tail != other.tail:
            return False
        fa = self._rational()
        fb = fa and other._rational()
        if fb:
            return fa == fb
        a, b = self.terms, other.terms
        return len(a) == len(b) and all(
            e1 == e2 and c1 == c2 for (e1, c1), (e2, c2) in zip(a, b)
        )

    __hash__ = None

    # -- field operations ---------------------------------------------------

    def invert(self, target_order=None) -> "PuiseuxScalar":
        """Multiplicative inverse, carried so that a * invert(a) = 1 +
        O(X^(lead - target_order)).  Exact for monomials.

        With a = c0 X^e0 (1 + t), b = 1/(1 + t) satisfies b = 1 - t b: its
        coefficients are filled from X^0 down to the floor max(-target_order,
        tail of t), one lattice point at a time."""
        order = _positive_order(target_order)
        if self.sign() == 0:
            raise DivisionByZero("inverse of zero")
        form = self._rational()
        if form:
            return _rational_invert(form, self.tail, order)
        e0, c0 = self.lead()
        c0inv = c0.inv()
        if len(self.terms) == 1 and self.tail is None:
            return PuiseuxScalar.monomial(c0inv, -e0)
        den, t, low = self._rest(c0inv, order)
        b = [_ONE]  # b[j]: the coefficient of X^(-j/den)
        for j in range(1, 1 - low):
            acc = _ZERO
            for k, c in reversed(t):  # k < 0 increasing: b_0 t_(-j) first
                if j + k >= 0 and not b[j + k].is_zero():
                    acc = acc + b[j + k] * c
            b.append(-acc)
        return _from_lattice(b, den, low, -e0, c0inv)

    def __truediv__(self, other):
        other = _operand(other)
        if other is None:
            return NotImplemented
        return self * other.invert()

    def __rtruediv__(self, other):
        other = _operand(other)
        if other is None:
            return NotImplemented
        return other * self.invert()

    def sqrt_positive(self, target_order=None) -> "PuiseuxScalar":
        """Positive square root, carried to the relative order target_order.
        The leading coefficient's root is taken in the tower (which may
        extend it) and the ramification may double.  When the input is
        exact and the computed finite sum squares back exactly, the result
        is returned Exact.

        The root is c r, the two parts of _root_parts: c multiplies every
        coefficient of r, once, at the end."""
        c, r = self._root_parts(target_order)
        result = r * c
        if self.tail is None and result.tail is not None:
            exact = PuiseuxScalar._trusted(result._terms, None)
            exact._form = result._form  # the same terms, known exactly
            if exact * exact == self:
                return exact
        return result

    def _root_parts(self, target_order):
        """(c, r) with sqrt_positive(self) = c r, before its exactness test:
        c the tower root of the leading coefficient, r of leading
        coefficient 1 in self's own field (a lattice series when self is
        rational), exact only for an exact monomial.

        With a = c0 X^e0 (1 + t), r = X^(e0/2) sqrt(1 + t) satisfies
        (r X^(-e0/2))^2 = 1 + t; its coefficients are filled from X^0 down
        to the floor max(-target_order, tail of t), one lattice point at a
        time."""
        order = _positive_order(target_order)
        if self.sign() != 1:
            raise NotPositive("sqrt_positive needs a positive series")
        form = self._rational()
        if form:
            return _rational_root_parts(form, self.tail, order)
        e0, c0 = self.lead()
        root0 = tower_sqrt(c0)
        if len(self.terms) == 1 and self.tail is None:
            return root0, PuiseuxScalar.monomial(1, e0 / 2)
        den, t, low = self._rest(c0.inv(), order)
        t = dict(t)
        r = [_ONE]  # r[j]: the coefficient of X^(-j/den)
        for j in range(1, 1 - low):
            # r_j = (t_j - sum of r_i r_(j-i) over 0 < i < j) / 2, each
            # pair i < j - i formed once and doubled
            cross = _ZERO
            for i in range(1, (j + 1) // 2):
                if not (r[i].is_zero() or r[j - i].is_zero()):
                    cross = cross + r[i] * r[j - i]
            cross = cross + cross
            if j % 2 == 0 and not r[j // 2].is_zero():
                cross = cross + r[j // 2] * r[j // 2]
            r.append((t.get(-j, _ZERO) - cross) * _HALF)
        return root0, _from_lattice(r, den, low, e0 / 2, _ONE)

    def _rest(self, c0inv, order):
        """(den, t, low) for self = c0 X^e0 (1 + t): t's terms at or above
        the floor max(-order, tail of t), the lowest exponent known of a
        series in t, as (k, coefficient) at the exponents k/den (k < 0,
        decreasing), and low = floor * den."""
        e0 = self.terms[0][0]
        rest = tuple((e - e0, c * c0inv) for e, c in self.terms[1:])
        floor = -order if self.tail is None else max(-order, self.tail - e0)
        den, (t,), low = _lattice(floor, rest)
        return den, [(k, c) for k, c in t if k >= low], low

    def specialize(self, value) -> TowerScalar:
        """Evaluate the stored terms exactly at X = value (a positive
        rational).  Exponent denominators must be powers of two so the roots
        exist by iterated square roots; otherwise UnsupportedExponent."""
        value = F(value)
        if value <= 0:
            raise NotPositive("specialisation point must be positive")
        total = TowerScalar.coerce(0)
        for e, c in self.terms:
            q = e.denominator
            if q & (q - 1):
                raise UnsupportedExponent(
                    f"exponent {e} needs a {q}-th root; only powers of 2 supported"
                )
            base = TowerScalar.coerce(value)
            k = q.bit_length() - 1
            for _ in range(k):
                base = tower_sqrt(base)
            total = total + c * base ** e.numerator
        return total

    # -- printing ------------------------------------------------------------

    def __str__(self):
        def fmt_exp(e: Fraction) -> str:
            return "X" if e == 1 else f"X^({_fmt_fraction(e)})"

        parts = []
        for e, c in self.terms:
            cs = str(c)
            if e == 0:
                body = f"({cs})" if " " in cs else cs
                sign_prefix = ""
                if body.startswith("-") and not body.startswith("(-"):
                    sign_prefix = "-"
                    body = body[1:]
                parts.append((sign_prefix or "+", body))
                continue
            if cs == "1":
                parts.append(("+", fmt_exp(e)))
            elif cs == "-1":
                parts.append(("-", fmt_exp(e)))
            elif " " in cs:
                parts.append(("+", f"({cs})*{fmt_exp(e)}"))
            elif cs.startswith("-"):
                parts.append(("-", f"{cs[1:]}*{fmt_exp(e)}"))
            else:
                parts.append(("+", f"{cs}*{fmt_exp(e)}"))
        out = _join_signed(parts)
        if self.tail is not None:
            out += f" + O(X^({_fmt_fraction(self.tail)}))"
        return out

    def __repr__(self):
        return f"PuiseuxScalar({self})"


def _operand(x):
    """x as a PuiseuxScalar, or None when it is no scalar of the field."""
    if isinstance(x, PuiseuxScalar):
        return x
    if isinstance(x, (int, Fraction, TowerScalar)):
        return PuiseuxScalar.constant(x)
    return None


def _is_constant(s: PuiseuxScalar) -> bool:
    """True iff s is an exact nonzero constant: one term, at X^0, no tail."""
    if s.tail is not None:
        return False
    form = s._form
    if form:
        return form[1] == (0,)
    terms = s._terms
    return terms is not None and len(terms) == 1 and not terms[0][0]


def _scaled(s: PuiseuxScalar, k: PuiseuxScalar, tail, k_left: bool) -> PuiseuxScalar:
    """s times the exact constant k, coefficient by coefficient, with k on
    the left of each coefficient product when k_left (the operand order
    fixes the radicand order of a merged tower); the tail is a product's,
    tail(s) + 0.  Over the lattice forms when both are rational."""
    fs = s._rational()
    fk = fs and k._rational()
    if fk:
        den, ks, ns, d = fs
        _, _, (p,), q = fk
        return PuiseuxScalar._lattice_value(_reduced(den, ks, [n * p for n in ns], d * q), tail)
    c = k.terms[0][1]
    if k_left:
        terms = tuple((e, c * x) for e, x in s.terms)
    else:
        terms = tuple((e, x * c) for e, x in s.terms)
    return PuiseuxScalar._trusted(terms, tail)


def _positive_order(order) -> Fraction:
    """A relative truncation order as a Fraction (None: DEFAULT_REL_ORDER);
    DomainError unless it is a positive rational number (an int, a Fraction
    or a string that parses as one; a bool is no order)."""
    if order is None:
        return DEFAULT_REL_ORDER
    try:
        value = None if isinstance(order, bool) else F(order)
    except (TypeError, ValueError, OverflowError):
        value = None
    if value is None:
        raise DomainError(f"truncation order {order!r} is not a rational number")
    if value <= 0:
        raise DomainError("truncation order must be positive")
    return value


def _lattice(tail, *term_lists):
    """(den, lists, low): every exponent of the term lists written as an
    integer k = e * den over one common denominator den, the lcm of their
    exponent denominators and the tail's, so that sums and comparisons of
    exponents cost an int operation each; lists holds each list as (k, c)
    pairs, and low is tail * den (None for no tail)."""
    den = 1
    for terms in term_lists:
        for e, _ in terms:
            den = lcm(den, e.denominator)
    if tail is not None:
        den = lcm(den, tail.denominator)
    lists = [[(e.numerator * (den // e.denominator), c) for e, c in terms]
             for terms in term_lists]
    low = None if tail is None else tail.numerator * (den // tail.denominator)
    return den, lists, low


def _from_lattice(coeffs, den, low, shift, scale) -> PuiseuxScalar:
    """The series sum of coeffs[j] * scale * X^(shift - j/den) over the j
    with -j >= low, plus O(X^(shift + low/den))."""
    terms = tuple((shift - F(j, den), c * scale)
                  for j, c in enumerate(coeffs) if -j >= low and not c.is_zero())
    return PuiseuxScalar._trusted(terms, shift + F(low, den))


def _above(terms: tuple, cutoff) -> tuple:
    """The decreasing terms at or above the cutoff exponent."""
    k = len(terms)
    while k and terms[k - 1][0] < cutoff:
        k -= 1
    return terms if k == len(terms) else terms[:k]


# ---------------------------------------------------------------------------
# the rational kernel: lattice forms (den, ks, ns, d), see the module docstring

def _form_of(terms: tuple):
    """The lattice form of normal terms, or False if a coefficient has a
    radical (tower depth above 0)."""
    den = d = 1
    for e, c in terms:
        if len(c.nums) != 1:
            return False
        den = lcm(den, e.denominator)
        d = lcm(d, c.den)
    # reduced pairs over the lcms of their denominators share no factor
    return (den,
            tuple(e.numerator * (den // e.denominator) for e, _ in terms),
            tuple(c.nums[0] * (d // c.den) for _, c in terms),
            d)


def _terms_of(form: tuple) -> tuple:
    """The public terms of a lattice form."""
    den, ks, ns, d = form
    return tuple((F(k, den), _scalar(_QQ, (n,), d)) for k, n in zip(ks, ns))


def _reduced(den, ks, ns, d) -> tuple:
    """The canonical form of ns[i]/d X^(ks[i]/den): den and d divided by
    their common factors with the ks and the ns."""
    g = gcd(den, *ks)
    if g > 1:
        den //= g
        ks = [k // g for k in ks]
    g = gcd(d, *ns)
    if g > 1:
        d //= g
        ns = [n // g for n in ns]
    return den, tuple(ks), tuple(ns), d


def _ceil(q: Fraction) -> int:
    return -(-q.numerator // q.denominator)


def _count_above(ks, low) -> int:
    """How many of the decreasing ks are at or above low."""
    n = len(ks)
    while n and ks[n - 1] < low:
        n -= 1
    return n


def _rescaled(ks, den, common):
    """The exponents ks/den as numerators over the multiple common of den."""
    s = common // den
    return ks if s == 1 else [k * s for k in ks]


def _form_sum(fa: tuple, fb: tuple, tail) -> tuple:
    """The form of the sum of two lattice forms, cut below the tail."""
    da, ka, na, ca = fa
    db, kb, nb, cb = fb
    den = lcm(da, db)
    d = lcm(ca, cb)
    sa, sb = d // ca, d // cb
    acc = dict(zip(_rescaled(ka, da, den), na if sa == 1 else [n * sa for n in na]))
    for k, n in zip(_rescaled(kb, db, den), nb):
        acc[k] = acc.get(k, 0) + n * sb
    ks = sorted((k for k, n in acc.items() if n), reverse=True)
    if tail is not None:
        ks = ks[:_count_above(ks, _ceil(tail * den))]
    return _reduced(den, ks, [acc[k] for k in ks], d)


def _form_product(fa: tuple, fb: tuple, tail) -> tuple:
    """The form of the product of two lattice forms: only the pairs whose
    exponent sum is at or above the tail are formed."""
    da, ka, na, ca = fa
    db, kb, nb, cb = fb
    if not ka or not kb:
        return _ZERO_FORM
    den = lcm(da, db)
    ka, kb = _rescaled(ka, da, den), _rescaled(kb, db, den)
    low = ka[-1] + kb[-1] if tail is None else _ceil(tail * den)
    top = kb[0]
    sums = {}
    for k1, n1 in zip(ka, na):
        if k1 + top < low:
            break  # every later row starts lower still
        for k2, n2 in zip(kb, nb):
            k = k1 + k2
            if k < low:
                break  # every later pair of this row is lower still
            sums[k] = sums.get(k, 0) + n1 * n2
    ks = sorted((k for k, n in sums.items() if n), reverse=True)
    return _reduced(den, ks, [sums[k] for k in ks], ca * cb)


def _rational_rest(form: tuple, tail, order):
    """(den, t, low, m) for the rational value of this form and tail,
    written c0 X^e0 (1 + t): t's terms at or above the floor max(-order,
    tail of t) as (k, n), the coefficient n/m at the exponent k/den (k < 0,
    decreasing; m > 0), and low = floor * den."""
    den, ks, ns, _ = form
    k0, n0 = ks[0], ns[0]
    rel = [k - k0 for k in ks[1:]]
    g = gcd(den, *rel)
    floor = -order if tail is None else max(-order, tail - F(k0, den))
    lat = lcm(den // g, floor.denominator)
    s = lat * g // den
    low = floor.numerator * (lat // floor.denominator)
    sgn = 1 if n0 > 0 else -1
    t = [(k // g * s, sgn * n) for k, n in zip(rel, ns[1:]) if k // g * s >= low]
    return lat, t, low, sgn * n0


def _rational_invert(form: tuple, tail, order) -> PuiseuxScalar:
    """1/a for the rational a of this form and tail, nonzero."""
    den, ks, ns, d = form
    k0, n0 = ks[0], ns[0]
    if len(ks) == 1 and tail is None:
        return PuiseuxScalar._lattice_value(
            (den, (-k0,), (d if n0 > 0 else -d,), abs(n0)), None)
    lat, t, low, m = _rational_rest(form, tail, order)
    # B[j] = b_j m^j: b_j = -sum t_k b_(j+k), so B_j = -sum n_k m^(-k-1) B_(j+k)
    steps = [(-k, n * m ** (-k - 1)) for k, n in t]
    scaled = [1]
    for j in range(1, 1 - low):
        acc = 0
        for i, f in steps:
            if i > j:
                break
            b = scaled[j - i]
            if b:
                acc += f * b
        scaled.append(-acc)
    # b_j / c0 = B_j d sgn(n0) / m^(j+1), over the common denominator m^(N+1)
    return _lattice_result(scaled, m, d if n0 > 0 else -d, m, lat, low, F(-k0, den))


def _rational_root_parts(form: tuple, tail, order):
    """_root_parts of the positive rational a of this form and tail: r is
    a lattice series."""
    den, ks, ns, d = form
    k0, n0 = ks[0], ns[0]
    root0 = tower_sqrt(_scalar(_QQ, (n0,), d))
    shift = F(k0, 2 * den)
    if len(ks) == 1 and tail is None:
        return root0, PuiseuxScalar.monomial(1, shift)
    lat, t, low, m = _rational_rest(form, tail, order)
    t = dict(t)
    # R[j] = r_j (4m)^j is an even integer for j > 0:
    # R_j = (n_j 4^j m^(j-1) - sum of R_i R_(j-i) over 0 < i < j) / 2
    scale = 4 * m
    scaled = [1]
    lift = 4  # 4^j m^(j-1)
    for j in range(1, 1 - low):
        cross = 0
        for i in range(1, (j + 1) // 2):
            a = scaled[i]
            if a:
                b = scaled[j - i]
                if b:
                    cross += a * b
        cross += cross
        if j % 2 == 0:
            h = scaled[j // 2]
            cross += h * h
        scaled.append((t.get(-j, 0) * lift - cross) // 2)
        lift *= scale
    return root0, _lattice_result(scaled, scale, 1, 1, lat, low, shift)


def _lattice_result(scaled, m, p, q, lat, low, shift) -> PuiseuxScalar:
    """The rational series sum of scaled[j] / m^j * p/q * X^(shift - j/lat),
    plus O(X^(shift + low/lat))."""
    den = lcm(shift.denominator, lat)
    top = shift.numerator * (den // shift.denominator)
    step = den // lat
    last = len(scaled) - 1
    ks, ns = [], []
    power = m ** last  # m^(last - j)
    for j, b in enumerate(scaled):
        if b:
            ks.append(top - j * step)
            ns.append(b * p * power)
        power //= m
    tail = F(top + low * step, den)
    return PuiseuxScalar._lattice_value(_reduced(den, ks, ns, q * m ** last), tail)


#: the series variable itself (an infinite element of the field)
X = PuiseuxScalar.monomial(1, 1)

