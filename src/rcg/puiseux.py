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
order parameter, in exponent units below the leading term.  Matrices carry
theirs in their scalar domain (linalg.PuiseuxDomain(order)); the default,
DEFAULT_REL_ORDER = 8, is a constant that nothing in rcg writes.  The
series of invert and sqrt_positive keep an input's tail: a power of the
normalised remainder that is only a tail ends the sum and bounds it.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm

from .errors import IndeterminateSign, NotPositive, UnsupportedExponent
from .tower import TowerScalar, sqrt_positive as tower_sqrt

F = Fraction

#: default relative truncation width used when an operation must choose one
DEFAULT_REL_ORDER = F(8)


def _coerce_coeff(c) -> TowerScalar:
    return TowerScalar.coerce(c)


class PuiseuxScalar:
    """A truncated Puiseux series over TowerScalar.  Immutable."""

    __slots__ = ("terms", "tail")

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
            c = _coerce_coeff(c)
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
        self.terms = tuple(items)
        self.tail = tail

    # -- constructors ------------------------------------------------------

    @staticmethod
    def monomial(coeff, exponent=F(0)) -> "PuiseuxScalar":
        return PuiseuxScalar(((F(exponent), _coerce_coeff(coeff)),))

    @staticmethod
    def constant(c) -> "PuiseuxScalar":
        return PuiseuxScalar.monomial(c, 0)

    @staticmethod
    def coerce(x) -> "PuiseuxScalar":
        if isinstance(x, PuiseuxScalar):
            return x
        if isinstance(x, (int, Fraction, TowerScalar)):
            return PuiseuxScalar.constant(x)
        raise TypeError(f"cannot coerce {type(x).__name__} to PuiseuxScalar")

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

    def is_zero(self) -> bool:
        """True iff provably zero.  Raises IndeterminateSign when all known
        terms cancelled but the value is truncated."""
        if self.terms:
            return False
        if self.tail is None:
            return True
        raise IndeterminateSign(f"all known terms cancelled below O(X^({self.tail}))")

    def lead(self):
        """(exponent, coefficient) of the leading term."""
        if not self.terms:
            self.is_zero()  # raises if truncated
            raise ValueError("zero series has no leading term")
        return self.terms[0]

    def sign(self) -> int:
        if not self.terms:
            return 0 if self.tail is None else self._raise_indeterminate()
        return self.terms[0][1].sign()

    def _raise_indeterminate(self):
        raise IndeterminateSign(f"sign unknown below O(X^({self.tail}))")

    def truncate_below(self, cutoff) -> "PuiseuxScalar":
        """Weaken the value to TruncatedBelow(cutoff) (no-op if already weaker)."""
        cutoff = F(cutoff)
        if self.tail is not None and self.tail >= cutoff:
            return self
        return PuiseuxScalar(self.terms, cutoff)

    def coefficient(self, exponent) -> TowerScalar:
        exponent = F(exponent)
        for e, c in self.terms:
            if e == exponent:
                return c
        return TowerScalar.coerce(0)

    # -- ring arithmetic ----------------------------------------------------

    def _known_exp_bound(self):
        """An upper bound for the exponent of any term of this value."""
        if self.terms:
            return self.terms[0][0]
        return self.tail  # may be None (exact zero)

    def __add__(self, other):
        other = PuiseuxScalar.coerce(other)
        if self.tail is None:
            tail = other.tail
        elif other.tail is None:
            tail = self.tail
        else:
            tail = max(self.tail, other.tail)
        return PuiseuxScalar(self.terms + other.terms, tail)

    __radd__ = __add__

    def __neg__(self):
        return PuiseuxScalar(tuple((e, -c) for e, c in self.terms), self.tail)

    def __sub__(self, other):
        return self + (-PuiseuxScalar.coerce(other))

    def __rsub__(self, other):
        return PuiseuxScalar.coerce(other) + (-self)

    def __mul__(self, other):
        other = PuiseuxScalar.coerce(other)
        if (self.tail is None and not self.terms) or (
            other.tail is None and not other.terms
        ):
            return PuiseuxScalar(())
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
        prods = [
            (e1 + e2, c1 * c2) for e1, c1 in self.terms for e2, c2 in other.terms
        ]
        return PuiseuxScalar(prods, tail)

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
        try:
            other = PuiseuxScalar.coerce(other)
        except TypeError:
            return NotImplemented
        if self.tail != other.tail or len(self.terms) != len(other.terms):
            return False
        return all(
            e1 == e2 and c1 == c2
            for (e1, c1), (e2, c2) in zip(self.terms, other.terms)
        )

    __hash__ = None

    # -- field operations ---------------------------------------------------

    def invert(self, target_order=None) -> "PuiseuxScalar":
        """Multiplicative inverse by geometric expansion around the leading
        term, carried so that a * invert(a) = 1 + O(X^(lead - target_order)).
        Exact for monomials."""
        if self.sign() == 0:
            raise IndeterminateSign("inverse of exact zero")  # pragma: no cover
        order = F(target_order) if target_order is not None else DEFAULT_REL_ORDER
        e0, c0 = self.lead()
        c0inv = c0.inv()
        if len(self.terms) == 1 and self.tail is None:
            return PuiseuxScalar.monomial(c0inv, -e0)
        u = self * PuiseuxScalar.monomial(c0inv, -e0)
        t = PuiseuxScalar.constant(1) - u  # all exponents < 0
        cutoff = -order
        total = PuiseuxScalar.constant(1)
        power = PuiseuxScalar.constant(1)
        while True:
            power = (power * t).truncate_below(cutoff)
            total = total + power
            if not power.terms:
                break  # a tail-only power: every later one lies below it
        total = total.truncate_below(cutoff)
        return total * PuiseuxScalar.monomial(c0inv, -e0)

    def __truediv__(self, other):
        return self * PuiseuxScalar.coerce(other).invert()

    def __rtruediv__(self, other):
        return PuiseuxScalar.coerce(other) * self.invert()

    def sqrt_positive(self, target_order=None) -> "PuiseuxScalar":
        """Positive square root via the binomial series on the normalised
        tail.  The leading coefficient's root is taken in the tower (which
        may extend it) and the ramification may double.  When the input is
        exact and the computed finite sum squares back exactly, the result
        is returned Exact."""
        s = self.sign()
        if s != 1:
            raise NotPositive("sqrt_positive needs a positive series")
        order = F(target_order) if target_order is not None else DEFAULT_REL_ORDER
        e0, c0 = self.lead()
        root0 = tower_sqrt(c0)
        if len(self.terms) == 1 and self.tail is None:
            return PuiseuxScalar.monomial(root0, e0 / 2)
        u = self * PuiseuxScalar.monomial(c0.inv(), -e0)
        t = u - PuiseuxScalar.constant(1)
        cutoff = -order
        total = PuiseuxScalar.constant(1)
        power = PuiseuxScalar.constant(1)
        binom = F(1)
        k = 0
        while True:
            k += 1
            binom = binom * (F(1, 2) - (k - 1)) / k
            power = (power * t).truncate_below(cutoff)
            total = total + PuiseuxScalar.constant(binom) * power
            if not power.terms:
                break  # a tail-only power: every later one lies below it
        total = total.truncate_below(cutoff)
        result = total * PuiseuxScalar.monomial(root0, e0 / 2)
        if self.tail is None:
            exact = PuiseuxScalar(result.terms, None)
            if exact * exact == self:
                return exact
        return result

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
            if e == 1:
                return "X"
            return f"X^({e.numerator}/{e.denominator})" if e.denominator != 1 \
                else f"X^({e.numerator})"

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
        if not parts:
            out = "0"
        else:
            sgn, body = parts[0]
            out = ("-" if sgn == "-" else "") + body
            for sgn, body in parts[1:]:
                out += f" {sgn} {body}"
        if self.tail is not None:
            e = self.tail
            es = f"{e.numerator}/{e.denominator}" if e.denominator != 1 else str(e.numerator)
            out += f" + O(X^({es}))"
        return out

    def __repr__(self):
        return f"PuiseuxScalar({self})"


#: the series variable itself (an infinite element of the field)
X = PuiseuxScalar.monomial(1, 1)


def sign(a: PuiseuxScalar) -> int:
    return PuiseuxScalar.coerce(a).sign()


def invert(a: PuiseuxScalar, target_order=None) -> PuiseuxScalar:
    return PuiseuxScalar.coerce(a).invert(target_order)


def sqrt_positive(a: PuiseuxScalar, target_order=None) -> PuiseuxScalar:
    return PuiseuxScalar.coerce(a).sqrt_positive(target_order)


def specialize(a: PuiseuxScalar, value) -> TowerScalar:
    return PuiseuxScalar.coerce(a).specialize(value)
