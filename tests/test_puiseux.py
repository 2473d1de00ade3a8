import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rcg.errors import (
    DivisionByZero,
    DomainError,
    IndeterminateSign,
    NotPositive,
    UnsupportedExponent,
)
from rcg.puiseux import X, PuiseuxScalar
from rcg.tower import TowerScalar
from rcg.tower import sqrt_positive as tower_sqrt

F = Fraction
P = PuiseuxScalar
const = PuiseuxScalar.constant
mono = PuiseuxScalar.monomial


def rand_exact(rng, allow_zero=True):
    n_terms = rng.randint(0 if allow_zero else 1, 4)
    exps = rng.sample([F(k, 2) for k in range(-6, 7)], n_terms)
    return P((e, F(rng.randint(-5, 5), rng.randint(1, 4))) for e in exps)


def test_add_mul_basic():
    assert (X + 1) + (-X) == const(1)
    half = mono(1, F(1, 2))
    assert half * half == X
    assert (X + 1).ramification == 1
    assert (half + 1).ramification == 2


def test_truncated_mul_tail_shift():
    a = P([(1, 1), (0, 1)], tail=-2)  # X + 1 + O(X^(-2))
    out = a * X
    assert out == P([(2, 1), (1, 1)], tail=-1)


def test_sign_infinite_variable():
    assert (X - 1000000).sign() == 1
    assert (-mono(1, -5) + mono(1, -7)).sign() == -1
    with pytest.raises(IndeterminateSign):
        P((), tail=-3).sign()
    assert P(()).sign() == 0


def test_invert_monomial_and_constant():
    assert X.invert() == mono(1, -1)
    assert X.invert().is_exact()
    assert const(2).invert() == const(F(1, 2))


def test_invert_geometric():
    a = const(1) - mono(1, -1)
    inv = a.invert(3)
    # 1 + X^-1 + X^-2 + O(X^-3)
    assert inv.coefficient(0) == 1
    assert inv.coefficient(-1) == 1
    assert inv.coefficient(-2) == 1
    assert inv.tail == -3
    prod = a * inv
    assert prod.coefficient(0) == 1
    assert all(c.is_zero() for e, c in prod.terms if e != 0)


def test_invert_roundtrip_random():
    rng = random.Random(5)
    for _ in range(200):
        a = rand_exact(rng, allow_zero=False)
        if a.sign() == 0:
            continue
        inv = a.invert(6)
        prod = a * inv
        assert prod.coefficient(0) == 1
        for e, c in prod.terms:
            if e != 0:
                assert c.is_zero()


def test_sqrt_monomials():
    assert (X * X).sqrt_positive() == X
    s = (2 * X).sqrt_positive()
    assert s == mono(tower_sqrt(2), F(1, 2))
    assert s.is_exact()


def test_sqrt_series():
    a = X * X + 1
    r = a.sqrt_positive(6)
    # leading behaviour X + (1/2) X^-1 ...
    assert r.coefficient(1) == 1
    assert r.coefficient(-1) == F(1, 2)
    sq = r * r
    assert sq.coefficient(2) == 1
    assert sq.coefficient(0) == 1
    for e, c in sq.terms:
        if e not in (2, 0):
            assert c.is_zero()


def test_sqrt_perfect_square_exact():
    a = (X + 1) * (X + 1)
    r = a.sqrt_positive(8)
    assert r.is_exact()
    assert r == X + 1


def test_exact_zero_has_no_inverse_and_no_leading_term():
    zero = P(())
    with pytest.raises(DivisionByZero, match="inverse of zero"):
        zero.invert()
    with pytest.raises(DomainError, match="no leading term"):
        zero.lead()
    # a truncated zero is not known to be zero: its sign stays undecided
    with pytest.raises(IndeterminateSign):
        P((), tail=0).invert()
    with pytest.raises(IndeterminateSign):
        P((), tail=0).lead()


def test_sqrt_errors():
    with pytest.raises(NotPositive):
        (-X).sqrt_positive()
    with pytest.raises(IndeterminateSign):
        P((), tail=0).sqrt_positive()


def test_sqrt_roundtrip_random():
    rng = random.Random(9)
    for _ in range(200):
        a = rand_exact(rng, allow_zero=False)
        sq = a * a + mono(1, -8)  # positive: leading coeff is a square plus tiny
        if sq.sign() != 1:
            continue
        r = sq.sqrt_positive(6)
        res = r * r - sq
        for e, c in res.terms:
            assert c.is_zero(), f"residual term at {e}"


def test_specialize():
    assert (X + 1).specialize(10) == 11
    assert mono(1, F(1, 2)).specialize(4) == 2
    assert (X - X.invert()).specialize(10) == F(99, 10)
    with pytest.raises(UnsupportedExponent):
        mono(1, F(1, 3)).specialize(8)
    with pytest.raises(NotPositive):
        X.specialize(-1)


def test_leading_term_homomorphism():
    rng = random.Random(17)
    for _ in range(100):
        a = rand_exact(rng, allow_zero=False)
        b = rand_exact(rng, allow_zero=False)
        if a.sign() == 0 or b.sign() == 0:
            continue
        ea, ca = a.lead()
        eb, cb = b.lead()
        ep, cp = (a * b).lead()
        assert ep == ea + eb
        assert cp == ca * cb


def test_ordered_field_laws_random():
    rng = random.Random(23)
    for _ in range(100):
        a, b, c = (rand_exact(rng) for _ in range(3))
        assert a + b == b + a
        assert (a + b) + c == a + (b + c)
        assert a * (b + c) == a * b + a * c
        assert (a * b) * c == a * (b * c)
        sa, sb = a.sign(), b.sign()
        assert (a * b).sign() == sa * sb


def test_asymptotic_consistency():
    rng = random.Random(29)
    for _ in range(50):
        a = rand_exact(rng, allow_zero=False)
        if a.sign() != 1:
            continue
        certified = 0
        for t in (F(10), F(100), F(1000)):
            if a.specialize(t).sign() == 1:
                certified += 1
        assert certified >= 1
        # once certified, larger points from the schedule stay positive
        if a.specialize(F(10)).sign() == 1:
            assert a.specialize(F(100)).sign() == 1
            assert a.specialize(F(1000)).sign() == 1


def test_printing():
    v = F(3, 2) * mono(1, F(1, 2)) - 2 * mono(1, -1) + const(tower_sqrt(2))
    assert str(v) == "3/2*X^(1/2) + sqrt(2) - 2*X^(-1)"
    assert str(P([(1, 1)], tail=-2)) == "X + O(X^(-2))"
    assert str(P(())) == "0"


# ---------------------------------------------------------------------------
# the series loops keep an input's tail

def test_tail_only_power_is_kept():
    a = P(((0, 1),), tail=-2)  # 1 + O(X^(-2))
    assert a.invert() == P(((0, 1),), tail=-2)
    assert a.sqrt_positive() == P(((0, 1),), tail=-2)
    # a lead term at its own tail: the remainder is all tail and never shrinks
    at_tail = P(((0, 1),), tail=0)
    assert at_tail.invert() == at_tail
    assert at_tail.sqrt_positive() == at_tail


@st.composite
def truncated_and_completion(draw):
    """(a, b, q): a positive series with a tail, an exact b that agrees
    with a above that tail, and a working order q."""
    lead = F(draw(st.integers(-3, 3)), draw(st.sampled_from([1, 2])))
    coeff = st.fractions(-4, 4, max_denominator=3)
    drops = st.sampled_from([F(k, 2) for k in range(1, 17)])
    terms = [(lead, draw(st.fractions(F(1, 3), 4, max_denominator=3)))]
    terms += [(lead - d, draw(coeff)) for d in draw(st.lists(drops, max_size=4))]
    tail = lead - draw(drops)
    a = P(terms, tail)
    below = st.sampled_from([F(k, 2) for k in range(1, 9)])
    extra = [(tail - d, draw(coeff)) for d in draw(st.lists(below, max_size=3))]
    b = P(a.terms + tuple(extra))
    return a, b, F(draw(st.integers(1, 10)))


def _claims_only_known_terms(claimed, truth):
    """Every term claimed above claimed's tail is truth's term there."""
    assert truth.tail is None or truth.tail <= claimed.tail
    exponents = {e for e, _ in claimed.terms + truth.terms if e >= claimed.tail}
    for e in exponents:
        assert claimed.coefficient(e) == truth.coefficient(e), e


@settings(max_examples=300, deadline=None)
@given(truncated_and_completion())
def test_invert_and_sqrt_claim_only_known_terms(case):
    a, b, q = case
    _claims_only_known_terms(a.invert(q), b.invert(2 * q))
    _claims_only_known_terms(a.sqrt_positive(q), b.sqrt_positive(2 * q))


# ---------------------------------------------------------------------------
# the tail-aware product and the one-pass sum against the normalising
# constructor, with coefficients from two independent towers

_R2, _R3 = tower_sqrt(2), tower_sqrt(3)


@st.composite
def series(draw):
    """A series with or without a tail whose coefficients mix sqrt(2) and
    sqrt(3), so products and sums also merge towers."""
    q = st.fractions(-3, 3, max_denominator=3)
    exps = draw(st.lists(st.sampled_from([F(k, 2) for k in range(-8, 7)]),
                         max_size=5, unique=True))
    terms = [(e, draw(q) + draw(q) * draw(st.sampled_from([_R2, _R3]))) for e in exps]
    tail = draw(st.none() | st.sampled_from([F(k, 2) for k in range(-14, 5)]))
    return P(terms, tail)


def _product_tail(a, b):
    """The tail of a * b: each operand's tail shifted by the other's lead."""
    if (a.tail is None and not a.terms) or (b.tail is None and not b.terms):
        return None
    cands = []
    if a.tail is not None and (b.terms or b.tail is not None):
        cands.append(a.tail + (b.terms[0][0] if b.terms else b.tail))
    if b.tail is not None and (a.terms or a.tail is not None):
        cands.append(b.tail + (a.terms[0][0] if a.terms else a.tail))
    return max(cands) if cands else None


@settings(max_examples=300, deadline=None)
@given(series(), series())
def test_product_and_sum_match_the_normalising_constructor(a, b):
    pairs = [(e1 + e2, c1 * c2) for e1, c1 in a.terms for e2, c2 in b.terms]
    assert a * b == P(pairs, _product_tail(a, b))
    tails = [t for t in (a.tail, b.tail) if t is not None]
    assert a + b == P(a.terms + b.terms, max(tails) if tails else None)
    assert a - b == P(a.terms + tuple((e, -c) for e, c in b.terms),
                      max(tails) if tails else None)


_constants = st.one_of(
    st.integers(-5, 5).filter(bool),
    st.fractions(-3, 3, max_denominator=3).filter(bool),
    st.sampled_from([_R2, _R3, 1 + _R2, F(-1, 2) * _R3]),
)

_rational_terms = st.lists(st.tuples(st.sampled_from([F(k, 2) for k in range(-4, 3)]),
                                     st.fractions(-3, 3, max_denominator=4)), max_size=4)


@settings(max_examples=200, deadline=None)
@given(series() | st.builds(P, _rational_terms, st.none() | st.just(F(-3))),
       _constants, st.booleans())
def test_product_by_a_constant_scales_each_term(a, c, wrapped):
    """A nonzero constant, given as it is or as a one-term series at X^0,
    scales every coefficient of a on either side and keeps a's tail, as the
    general product by c X and X^-1 does."""
    k = P.constant(c) if wrapped else c
    want = P([(e, x * c) for e, x in a.terms], a.tail)
    assert a * k == want and k * a == want
    assert a * k == a * P.monomial(c, 1) * P.monomial(1, -1)


def test_operands_of_another_type_are_left_to_them():
    from rcg.linalg import Matrix

    two = P.coerce(2)
    m = Matrix.puiseux([[X, 1], [0, 1]])
    assert two * m == Matrix.puiseux([[2 * X, 2], [0, 2]])  # Matrix.__rmul__
    assert two.__mul__(m) is NotImplemented
    assert two.__eq__("a") is NotImplemented
    for op in (lambda x: x + "a", lambda x: "a" - x, lambda x: x * "a", lambda x: x / "a"):
        with pytest.raises(TypeError):
            op(two)
    assert tower_sqrt(2) + X == P([(1, 1), (0, tower_sqrt(2))])  # PuiseuxScalar.__radd__


def test_coefficient_below_the_tail_is_unknown():
    a = P(((2, 1),), tail=1)  # X^2 + O(X)
    assert a.coefficient(2) == 1
    assert a.coefficient(1) == 0  # at the tail: known to be absent
    with pytest.raises(IndeterminateSign):
        a.coefficient(0)
    assert P(((2, 1),)).coefficient(0) == 0


# ---------------------------------------------------------------------------
# invert and sqrt_positive against the power sums they replace: the same
# terms and the same tail

def _reference_invert(a, order):
    """1/a as the geometric sum of (1 - u)^k, u = a / (c0 X^e0), each power
    truncated below -order; the sum ends at the first power with no term."""
    e0, c0 = a.lead()
    c0inv = c0.inv()
    if len(a.terms) == 1 and a.tail is None:
        return mono(c0inv, -e0)
    t = const(1) - a * mono(c0inv, -e0)
    total = power = const(1)
    while True:
        power = (power * t).truncate_below(-order)
        total = total + power
        if not power.terms:
            break
    return total.truncate_below(-order) * mono(c0inv, -e0)


def _reference_sqrt(a, order):
    """sqrt(a) as the binomial sum of binom(1/2, k) (u - 1)^k, truncated
    like _reference_invert; exact when the sum squares back to an exact a."""
    e0, c0 = a.lead()
    root0 = tower_sqrt(c0)
    if len(a.terms) == 1 and a.tail is None:
        return mono(root0, e0 / 2)
    t = a * mono(c0.inv(), -e0) - const(1)
    total = power = const(1)
    binom = F(1)
    k = 0
    while True:
        k += 1
        binom = binom * (F(1, 2) - (k - 1)) / k
        power = (power * t).truncate_below(-order)
        total = total + const(binom) * power
        if not power.terms:
            break
    result = total.truncate_below(-order) * mono(root0, e0 / 2)
    if a.tail is None and P(result.terms) * P(result.terms) == a:
        return P(result.terms)
    return result


@st.composite
def positive_series(draw, radicals=True):
    """A positive series, exact or with a tail, with exponent denominators
    1 to 3 and rational or (when radicals) radical coefficients, and a
    working order q, an integer or a fraction."""
    den = st.sampled_from([1, 2, 3])
    lead = F(draw(st.integers(-6, 6)), draw(den))
    drop = st.builds(F, st.integers(1, 12), den)
    rational = st.fractions(-3, 3, max_denominator=3)
    radical = st.builds(lambda p, r, s: p + r * s, rational, rational,
                        st.sampled_from([_R2, _R3]))
    coeff = rational | radical if radicals else rational
    top = st.fractions(F(1, 3), 3, max_denominator=3)
    top = draw(top | st.sampled_from([1 + _R2, _R3]) if radicals else top)
    terms = [(lead, top)] + [(lead - d, draw(coeff)) for d in draw(st.lists(drop, max_size=5))]
    tail = draw(st.none() | st.builds(lambda d: lead - d, drop))
    q = draw(st.integers(1, 8).map(F) | st.builds(F, st.integers(1, 24), den))
    return P(terms, tail), q


@settings(max_examples=200, deadline=None)
@given(positive_series(), st.sampled_from([1, -1]))
def test_invert_and_sqrt_match_the_power_sums(case, sign):
    a, q = case
    # == compares the terms and the tail
    assert (sign * a).invert(q) == _reference_invert(sign * a, q)
    assert a.sqrt_positive(q) == _reference_sqrt(a, q)


@settings(max_examples=200, deadline=None)
@given(positive_series(radicals=False) | positive_series())
def test_root_parts_multiply_to_the_root(case):
    a, q = case
    c, r = a._root_parts(q)
    root = a.sqrt_positive(q)
    assert c.sign() == 1
    assert r.lead()[1] == 1
    if a._rational():
        assert r._rational()
    product = r * c
    if root.tail is None and product.tail is not None:
        # sqrt_positive's exactness test: the same terms, known exactly
        assert a.is_exact() and root * root == a
        product = P(product.terms)
    _same(product, root)
    # an exact square stays exact when the order reaches its last term
    if a.is_exact() and a.terms[0][0] - a.terms[-1][0] <= q:
        _same((a * a).sqrt_positive(q), a)



# ---------------------------------------------------------------------------
# the lattice kernel of all-rational series against the references above,
# and against the same operands lifted into a radical tower, where every
# operation takes the generic path

_LIFT = _R2.tower


def _lifted(a):
    """a with every coefficient lifted into Q(sqrt 2): the same value on
    the generic path."""
    return P(((e, c.lift_to(_LIFT)) for e, c in a.terms), a.tail)


def _same(got, want):
    """Equal terms and tail, and the same printed form."""
    assert got == want
    assert got.tail == want.tail
    assert str(got) == str(want)


_DEN = st.sampled_from([1, 2, 3, 4])


@st.composite
def rational_series(draw):
    """A series with rational coefficients and exponent denominators 1 to
    4, exact or truncated; zeros, exact and truncated, included."""
    exps = draw(st.lists(st.builds(F, st.integers(-12, 12), _DEN), max_size=5, unique=True))
    coeff = st.fractions(-4, 4, max_denominator=4)
    tail = draw(st.none() | st.builds(F, st.integers(-20, 10), _DEN))
    return P([(e, draw(coeff)) for e in exps], tail)


def _outcome(fn, *args):
    """fn(*args), or the type of the RcgError it raised."""
    try:
        return fn(*args)
    except (IndeterminateSign, DivisionByZero, NotPositive) as exc:
        return type(exc)


def _sign_reference(a):
    if a.terms:
        return a.terms[0][1].sign()
    return 0 if a.tail is None else IndeterminateSign


@settings(max_examples=300, deadline=None)
@given(rational_series(), rational_series(), st.builds(F, st.integers(-16, 10), _DEN),
       st.integers(1, 10).map(F) | st.builds(F, st.integers(1, 30), _DEN))
def test_rational_kernel_matches_the_references(a, b, cutoff, q):
    # copies made by the kernel itself, whose terms nobody has read yet
    la, lb = a * 1, b * 1
    s = _outcome(la.sign)
    pos = la if s == 1 else -la
    got = [la * lb, la + lb, la - lb, -la, la.truncate_below(cutoff), s,
           _outcome(la.invert, q), _outcome(pos.sqrt_positive, q)]
    tails = [t for t in (a.tail, b.tail) if t is not None]
    tail = max(tails) if tails else None
    neg_b = tuple((e, -c) for e, c in b.terms)
    want = [
        P([(e1 + e2, c1 * c2) for e1, c1 in a.terms for e2, c2 in b.terms], _product_tail(a, b)),
        P(a.terms + b.terms, tail),
        P(a.terms + neg_b, tail),
        P(((e, -c) for e, c in a.terms), a.tail),
        P(a.terms, cutoff if a.tail is None else max(a.tail, cutoff)),
        _sign_reference(a),
    ]
    for g, w in zip(got[:5], want[:5]):
        _same(g, w)
    assert got[5] == want[5]
    if s in (1, -1):
        _same(got[6], _reference_invert(a, q))
        _same(got[7], _reference_sqrt(a if s == 1 else -a, q))
        # the generic path on the same values agrees term for term
        assert got[6] == _lifted(a).invert(q)
        assert got[7] == _lifted(a if s == 1 else -a).sqrt_positive(q)
    else:
        want = (DivisionByZero, NotPositive) if s == 0 else (IndeterminateSign,) * 2
        assert (got[6], got[7]) == want
    assert got[0] == _lifted(a) * _lifted(b) and got[1] == _lifted(a) + _lifted(b)


def test_rational_kernel_makes_no_tower_arithmetic(monkeypatch):
    a = P([(2, F(1, 2)), (F(1, 2), -3), (-1, F(2, 3))], tail=F(-7, 2))
    b = P([(1, 1), (F(-1, 3), F(5, 4)), (-2, -1)])
    c = P([(0, 4), (F(-1, 2), 1), (F(-3, 4), F(-1, 3))])

    def refuse(*args):
        raise AssertionError("TowerScalar arithmetic on a rational series")

    for name in ("__add__", "__radd__", "__sub__", "__rsub__", "__mul__", "__rmul__"):
        monkeypatch.setattr(TowerScalar, name, refuse)
    product, total, inv, root = a * b, a + b - c, b.invert(6), c.sqrt_positive(6)
    monkeypatch.undo()
    _same(product, P([(e1 + e2, c1 * c2) for e1, c1 in a.terms for e2, c2 in b.terms],
                     _product_tail(a, b)))
    _same(total, P(a.terms + b.terms + tuple((e, -x) for e, x in c.terms), a.tail))
    _same(inv, _reference_invert(b, 6))
    _same(root, _reference_sqrt(c, 6))


def test_rational_times_radical_takes_the_generic_path():
    a = P([(1, F(1, 2)), (0, -2), (F(-1, 2), F(3, 4))], tail=-3)
    r = P([(F(1, 2), _R2), (-1, 1 + _R3)])
    for x, y in ((a, r), (r, a), (a * 1, r), (r, a * 1)):
        _same(x * y, P([(e1 + e2, c1 * c2) for e1, c1 in x.terms for e2, c2 in y.terms],
                       _product_tail(x, y)))
        tails = [t for t in (x.tail, y.tail) if t is not None]
        _same(x + y, P(x.terms + y.terms, max(tails)))
    # a radical coefficient keeps its tower: rational times sqrt(2) prints as before
    assert str(a * r).startswith("1/2*sqrt(2)*X^(3/2)")


# ---------------------------------------------------------------------------
# a truncation order must be positive wherever the library takes one

def test_truncation_order_must_be_positive():
    from rcg.decomp import cartan_kak
    from rcg.linalg import Matrix, PuiseuxDomain, sym_eigen_lift
    from rcg.slgroup import GroupElement

    g = GroupElement.puiseux([[X, 0], [0, X.invert()]])
    tower_g = GroupElement.tower([[2, 3], [1, 2]])
    s = Matrix.puiseux([[X, 1], [1, -X]])
    a = X + 1
    for bad in (0, -1, F(-1, 2)):
        for call in (lambda: PuiseuxDomain(bad), lambda: cartan_kak(g, order=bad),
                     lambda: cartan_kak(tower_g, order=bad),
                     lambda: sym_eigen_lift(s, order=bad), lambda: a.invert(bad),
                     lambda: a.sqrt_positive(bad), lambda: a.invert(bad)):
            with pytest.raises(DomainError, match="^truncation order must be positive$"):
                call()
    assert PuiseuxDomain(F(1, 2)).order == F(1, 2)
    assert a.invert(F(1, 2)).tail == F(-3, 2)


def test_truncation_order_must_be_a_rational_number():
    from rcg.decomp import cartan_kak
    from rcg.linalg import PuiseuxDomain
    from rcg.slgroup import GroupElement

    tower_g = GroupElement.tower([[2, 3], [1, 2]])
    for call in (lambda: PuiseuxDomain("x"), lambda: PuiseuxDomain(True),
                 lambda: cartan_kak(tower_g, order="x")):
        with pytest.raises(DomainError, match="is not a rational number"):
            call()
    assert PuiseuxDomain("3/2").order == F(3, 2)
