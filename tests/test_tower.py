import random
from fractions import Fraction
from math import gcd
from operator import add, mul, sub

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import rcg.tower
from rcg.errors import DivisionByZero, DomainError, NotPositive
from rcg.tower import TowerScalar, sqrt_positive

from _references import _enclose, _format, _vadd, _vinv, _vmul, _vneg, _vone, _vsqrt, _vsub, _vzero

F = Fraction
ts = TowerScalar.coerce


def rand_scalar(rng, depth):
    """Random tower element of the given radical depth."""
    v = ts(F(rng.randint(-9, 9), rng.randint(1, 9)))
    for _ in range(depth):
        base = F(rng.randint(1, 12), rng.randint(1, 4))
        v = v + F(rng.randint(-6, 6), rng.randint(1, 4)) * sqrt_positive(v * v + base)
    return v


def test_rational_arithmetic():
    assert ts(F(1, 2)) + ts(F(1, 3)) == F(5, 6)
    assert ts(2) * ts(F(1, 4)) == F(1, 2)


def test_defining_relation():
    r2 = sqrt_positive(2)
    assert r2 * r2 == 2
    assert (1 + r2) * (1 - r2) == -1


def test_invert_rational_and_radical():
    assert ts(2).inv() == F(1, 2)
    r2 = sqrt_positive(2)
    assert r2.inv() == r2 / 2
    # derived: product check is the oracle
    v = 1 + r2
    assert v * v.inv() == 1
    assert v.inv() == r2 - 1


def test_invert_zero_raises():
    with pytest.raises(DivisionByZero):
        ts(0).inv()


def test_lift_onto_a_tower_that_does_not_extend_is_a_domain_error():
    r2, r3 = sqrt_positive(2), sqrt_positive(3)
    assert r2.lift_to((r2 + r3).tower) == r2
    with pytest.raises(DomainError, match="not an extension"):
        r2.lift_to(r3.tower)


def test_sign_basics():
    assert ts(0).sign() == 0
    assert (sqrt_positive(2) - 1).sign() == 1
    assert (1 - sqrt_positive(2)).sign() == -1


def test_sign_nested_cancellation():
    # sqrt(5 + 2*sqrt(6)) denests to sqrt(2) + sqrt(3)
    r2, r3 = sqrt_positive(2), sqrt_positive(3)
    nested = sqrt_positive(5 + 2 * sqrt_positive(6))
    assert (r2 + r3 - nested).sign() == 0


def test_sqrt_positive_basic():
    assert sqrt_positive(4) == 2
    r2 = sqrt_positive(2)
    assert r2 * r2 == 2
    assert not r2.is_rational()


def test_sqrt_denesting():
    r2 = sqrt_positive(2)
    s = sqrt_positive(3 + 2 * r2)
    assert s == 1 + r2
    # no new tower level was created
    assert s.tower.depth == (1 + r2).tower.depth


def test_sqrt_negative_raises():
    with pytest.raises(NotPositive):
        sqrt_positive(-1)
    with pytest.raises(NotPositive):
        sqrt_positive(0)


def test_sqrt_squares_roundtrip():
    rng = random.Random(7)
    for _ in range(200):
        a = rand_scalar(rng, rng.randint(0, 3))
        a2 = a * a + 1  # strictly positive
        r = sqrt_positive(a2)
        assert r * r == a2
        assert r.sign() == 1


def test_approx_basic():
    lo, hi = ts(F(1, 3)).approx(F(1, 100))
    assert lo <= F(1, 3) <= hi and hi - lo <= F(1, 100)
    lo, hi = sqrt_positive(2).approx(F(1, 1000))
    assert F(1414, 1000) <= lo and hi <= F(14143, 10000)
    assert ts(0).approx(F(1)) == (0, 0)


def test_approx_nested_and_soundness():
    rng = random.Random(3)
    for _ in range(30):
        a = rand_scalar(rng, 2)
        b = a * a  # b is a known square: sqrt_positive(b) == |a|
        root = sqrt_positive(b) if b.sign() == 1 else ts(0)
        target = a if a.sign() >= 0 else -a
        prev_width = None
        for prec in (F(1, 10), F(1, 10**3), F(1, 10**6)):
            lo, hi = (root - target).approx(prec)
            assert lo <= 0 <= hi
            if prev_width is not None:
                assert hi - lo <= prev_width
            prev_width = hi - lo


def test_field_axioms_random():
    rng = random.Random(11)
    for _ in range(60):
        a = rand_scalar(rng, rng.randint(0, 2))
        b = rand_scalar(rng, rng.randint(0, 2))
        c = rand_scalar(rng, rng.randint(0, 2))
        assert (a + b) + c == a + (b + c)
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c
        assert a + (-a) == 0
        if not a.is_zero():
            assert a * a.inv() == 1


def test_order_compatibility_random():
    rng = random.Random(13)
    for _ in range(60):
        a = rand_scalar(rng, rng.randint(0, 2))
        b = rand_scalar(rng, rng.randint(0, 2))
        assert (a * b).sign() == a.sign() * b.sign()
        if a.sign() == 1 and b.sign() == 1:
            assert (a + b).sign() == 1


def test_cross_tower_merge():
    r2 = sqrt_positive(2)
    r3 = sqrt_positive(3)
    r6 = sqrt_positive(6)
    assert r2 * r3 == r6  # dependent radical recognised under merge
    v = r2 + r3
    assert v * v == 5 + 2 * r6


def test_deep_nested_merge_consistency():
    r2, r3 = sqrt_positive(2), sqrt_positive(3)
    nested = sqrt_positive(1 + r2)
    assert nested * nested == 1 + r2
    assert sqrt_positive(3 + 2 * r2) == 1 + r2
    # same value assembled through different tower orders
    assert nested * r3 + (1 + r2) == r3 * nested + 1 + r2
    assert sqrt_positive(8) == 2 * r2
    assert sqrt_positive(F(9, 2)) == 3 / r2


def test_printing_roundtrip_structure():
    r2 = sqrt_positive(2)
    v = F(1, 2) + 3 * r2
    assert str(v) == "1/2 + 3*sqrt(2)"
    assert str(ts(0)) == "0"
    assert str(-r2) == "-sqrt(2)"


# ---------------------------------------------------------------------------
# the merge memo: one map per ordered pair of towers

def test_second_merge_of_a_pair_reuses_the_common_tower():
    a = 1 + 2 * sqrt_positive(2)
    b = F(1, 3) - sqrt_positive(3)
    first, second = a * b, (a + 1) + (b - 2)
    assert second.tower is first.tower
    # the same values in fresh copies of both towers, merged from scratch
    a2 = 1 + 2 * sqrt_positive(2)
    b2 = F(1, 3) - sqrt_positive(3)
    assert a2.tower is not a.tower and b2.tower is not b.tower
    for x, y in ((a * b, a2 * b2), (a + b, a2 + b2), (a - b, a2 - b2)):
        assert x.tower.radicands == y.tower.radicands
        assert x.coeffs == y.coeffs


def test_memoised_merges_commute_and_keep_signs():
    r2, r3, r5 = sqrt_positive(2), sqrt_positive(3), sqrt_positive(5)
    values = [r2 - 1, 1 - r3, r5 - 2, r2 + r3, r3 - r5, F(1, 2) - r2 * r5]
    for _ in range(2):  # the second pass runs on the memoised maps
        for a in values:
            for b in values:
                assert a + b == b + a
                assert a * b == b * a
                assert (a * b).sign() == a.sign() * b.sign()
    assert (r2 * r3 * r5) * (r2 * r3 * r5) == 30


def test_memoised_merge_of_a_denesting_radical_adds_no_level():
    r2, r3 = sqrt_positive(2), sqrt_positive(3)
    a = r2 + r3  # Q(sqrt 2)(sqrt 3)
    b = sqrt_positive(2 + r3)  # Q(sqrt 3)(sqrt(2 + sqrt 3))
    assert a.tower.depth == b.tower.depth == 2
    for _ in range(2):  # the second pass runs on the memoised maps
        # sqrt(2 + sqrt 3) = (sqrt 2 sqrt 3 + sqrt 2) / 2 lies in a's tower,
        # and sqrt 2 = 2 sqrt(2 + sqrt 3) / (sqrt 3 + 1) in b's
        for s in (a + b, b + a):
            assert s.tower.depth == 2
            assert s == r2 + r3 + (r2 * r3 + r2) / 2


def test_operands_of_another_type_are_left_to_them():
    from rcg.linalg import Matrix

    two = ts(2)
    m = Matrix.tower([[1, F(1, 2)], [0, sqrt_positive(2)]])
    assert two * m == Matrix.tower([[2, 1], [0, 2 * sqrt_positive(2)]])  # Matrix.__rmul__
    assert two.__mul__(m) is NotImplemented
    assert two.__eq__("a") is NotImplemented
    for op in (lambda x: x + "a", lambda x: "a" - x, lambda x: x * "a", lambda x: x / "a"):
        with pytest.raises(TypeError):
            op(two)


@pytest.mark.parametrize("precision", [0, -1, F(-1, 2)])
def test_approx_needs_a_positive_precision(precision):
    """At depth 0 and on irrational values of depths 1 and 2 alike, where
    the refinement would never reach a width <= 0."""
    for x in (ts(F(1, 3)), sqrt_positive(2), sqrt_positive(1 + sqrt_positive(2))):
        with pytest.raises(DomainError, match="positive precision"):
            x.approx(precision)


# ---------------------------------------------------------------------------
# integer coordinates against the Fraction kernel (_references)

def _rads(t):
    """The radicands of tower t as tuples of Fractions, the reference's
    form."""
    return tuple(tuple(F(n, d) for n in nums) for nums, d in t.radicands)


def _ref_sign(rads, u):
    if not any(u):
        return 0
    if not any(u[1:]):
        return 1 if u[0] > 0 else -1
    prec = 8
    while True:
        lo, hi = _enclose(rads, len(rads), u, prec)
        if lo > 0:
            return 1
        if hi < 0:
            return -1
        prec *= 2


def _ref_approx(rads, u, precision):
    if not any(u[1:]):
        return (u[0], u[0])
    prec = 16
    while True:
        lo, hi = _enclose(rads, len(rads), u, prec)
        if hi - lo <= precision:
            return (lo, hi)
        prec *= 2


def _ref_lift(x, t):
    """x's coordinates in tower t, which holds x's tower, by the reference
    alone: each radical of x's tower is found in t by denesting and made
    positive by the enclosure, and x's coordinates are folded onto them."""
    dst = _rads(t)
    depth = len(dst)

    def fold(vec, d, images):
        if d == 0:
            return (vec[0],) + _vzero(depth)[1:]
        h = 1 << (d - 1)
        hi = _vmul(dst, depth, fold(vec[h:], d - 1, images), images[d - 1])
        return _vadd(fold(vec[:h], d - 1, images), hi)

    images = []
    for i, rad in enumerate(_rads(x.tower)):
        root = _vsqrt(dst, depth, fold(rad, i, images))
        assert root is not None, "the target tower does not hold the radical"
        images.append(_vneg(root) if _ref_sign(dst, root) < 0 else root)
    return fold(x.coeffs, x.tower.depth, images)


def _assert_canonical(x):
    """One integer vector over one positive denominator, in lowest terms,
    and the radicands likewise."""
    for nums, den in ((x.nums, x.den),) + x.tower.radicands:
        assert type(den) is int and den > 0 and gcd(den, *nums) == 1
        assert all(type(n) is int for n in nums)
    assert len(x.nums) == 1 << x.tower.depth


def _check_unary(x):
    """inv, sign, approx, str and sqrt_positive of x against the
    reference on x's own coordinates."""
    rads, u = _rads(x.tower), x.coeffs
    _assert_canonical(x)
    assert str(x) == _format(rads, len(rads), u)
    assert x.sign() == _ref_sign(rads, u)
    assert x.approx(F(1, 10**6)) == _ref_approx(rads, u, F(1, 10**6))
    if not x.is_zero():
        inv = x.inv()
        _assert_canonical(inv)
        assert inv.tower is x.tower and inv.coeffs == _vinv(rads, len(rads), u)
    if x.sign() > 0:
        root = sqrt_positive(x)
        _assert_canonical(root)
        s = _vsqrt(rads, len(rads), u)
        if s is None:
            assert _rads(root.tower) == rads + (u,)
            assert root.coeffs == _vzero(len(rads)) + _vone(len(rads))
        else:
            assert root.tower is x.tower
            assert root.coeffs == (_vneg(s) if _ref_sign(rads, s) < 0 else s)


def _check_binary(x, y):
    """x + y, x - y and x * y against the reference on both operands'
    coordinates in the result's tower, which a merge may have built."""
    for op, ref in ((add, _vadd), (sub, _vsub), (mul, None)):
        r = op(x, y)
        _assert_canonical(r)
        t = r.tower
        u, v = _ref_lift(x, t), _ref_lift(y, t)
        assert r.coeffs == (ref(u, v) if ref else _vmul(_rads(t), t.depth, u, v))
        _check_unary(r)


#: radicals of two kinds: sqrt of a rational, and sqrt(a + b sqrt(p)),
#: nested (two levels) or denesting to one
_radicals = st.one_of(
    st.sampled_from([2, 3, 5, 6, 12, F(1, 2), F(3, 5)]),
    st.tuples(st.sampled_from([1, 3, 4]), st.sampled_from([-2, -1, 1, 2]),
              st.sampled_from([2, 3, 5])).map(lambda abp: abp[0] + abp[1] * sqrt_positive(abp[2])),
).map(lambda r: sqrt_positive(r if ts(r).sign() > 0 else -r))

_rationals = st.builds(F, st.integers(-9, 9), st.integers(1, 6))

#: q0 + q1 R1 + ... over towers of up to three radicals
_scalars = st.builds(
    lambda q0, terms: sum((q * r for q, r in terms), ts(q0)),
    _rationals, st.lists(st.tuples(_rationals, _radicals), max_size=3),
).filter(lambda x: x.tower.depth <= 3)


@settings(max_examples=60, deadline=None)
@given(_scalars, _scalars)
def test_integer_coordinates_agree_with_the_fraction_kernel(x, y):
    _check_unary(x)
    _check_binary(x, y)


def test_merges_of_towers_neither_of_which_extends_the_other_agree_with_the_fraction_kernel():
    r2, r3, r5 = sqrt_positive(2), sqrt_positive(3), sqrt_positive(5)
    nested = sqrt_positive(3 + r5)  # Q(sqrt 5)(sqrt(3 + sqrt 5))
    denesting = sqrt_positive(2 + r3)  # (sqrt 6 + sqrt 2) / 2
    pairs = [
        (F(1, 2) - r2, r3 + F(2, 3)),
        (r2 + r3, F(1, 3) * r5 - 1),
        (r2 + r3, denesting),
        (nested - r2, F(3, 4) * r3 + nested),
        (r2 * nested, denesting - F(1, 2)),
    ]
    for x, y in pairs:
        assert not x.tower.is_prefix_of(y.tower) and not y.tower.is_prefix_of(x.tower)
        for _ in range(2):  # the second pass runs on the memoised maps
            _check_binary(x, y)
            _check_binary(y, x)


class _RefusedFraction(type):
    """Stands for Fraction in rcg.tower: isinstance tests still work, and
    building one fails."""

    def __instancecheck__(cls, x):
        return isinstance(x, Fraction)

    def __call__(cls, *args, **kwargs):
        raise AssertionError("rcg.tower built a Fraction")


def test_arithmetic_signs_roots_and_merges_build_no_fraction(monkeypatch):
    r2, r3 = sqrt_positive(2), sqrt_positive(3)
    nested = sqrt_positive(3 + 2 * r2)  # denests to 1 + sqrt 2
    deep = sqrt_positive(1 + r2)
    monkeypatch.setattr(rcg.tower, "Fraction", _RefusedFraction("Fraction", (), {}))
    a = (r2 + F(1, 3)) * r3 - 2  # a merge
    b = a.inv() / (deep + F(2, 5))  # a merge with a nested tower
    assert a * b * (deep + F(2, 5)) == 1
    assert (a - b).sign() == 1 and (b - a).sign() == -1 and (a - a).sign() == 0
    assert nested == 1 + r2 and sqrt_positive(a * a) == a and a.sign() == 1
    assert sqrt_positive(5 + 2 * sqrt_positive(6)) * sqrt_positive(5 - 2 * sqrt_positive(6)) == 1
    assert (a ** 3 / a ** 2 - a).is_zero() and -(-b) == b
