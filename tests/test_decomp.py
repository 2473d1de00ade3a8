import random
from fractions import Fraction
from functools import reduce
from operator import mul

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import rcg.decomp
import rcg.puiseux
import rcg.slgroup
from rcg.decomp import (
    KAKResult,
    a_component,
    bruhat,
    cartan_kak,
    iwasawa_kau,
    iwasawa_uak,
    kak_uniqueness_check,
)
from rcg.errors import DomainError, IndeterminateSign, NoRelatingElement, RepeatedEigenvalue
from rcg.linalg import TOWER, Matrix, PuiseuxDomain, det
from rcg.puiseux import PuiseuxScalar, X
from rcg.slgroup import (
    GroupElement,
    _signed_permutation,
    _signed_permutation_det,
    member_A,
    member_B,
    member_K,
    member_N,
    member_U,
)
from rcg.tower import TowerScalar, sqrt_positive

from _references import bruhat_permutation, weyl_reps_sl3

F = Fraction
mono = PuiseuxScalar.monomial


def rotation(n, i, j, t):
    """Exact rational rotation in the (i, j) plane with tan-half parameter t."""
    c = (1 - t * t) / (1 + t * t)
    s = 2 * t / (1 + t * t)
    rows = [[1 if a == b else 0 for b in range(n)] for a in range(n)]
    rows[i][i] = c
    rows[j][j] = c
    rows[i][j] = -s
    rows[j][i] = s
    return GroupElement.tower(rows)


def rand_sl(rng, n, bound=9):
    while True:
        rows = [
            [F(rng.randint(-bound, bound), rng.randint(1, 5)) for _ in range(n)]
            for _ in range(n)
        ]
        m = Matrix.tower(rows)
        d = det(m)
        if not d.is_zero():
            inv = d.inv()
            rows[0] = [x * inv for x in rows[0]]
            return GroupElement.tower(rows)


def rand_chamber_diag(rng, n, spread=6):
    vals = sorted(
        {F(rng.randint(1, spread), rng.randint(1, spread)) for _ in range(n - 1)},
        reverse=True,
    )
    while len(vals) < n - 1:
        vals.append(vals[-1])
    prod = F(1)
    for v in vals:
        prod *= v
    vals.append(1 / prod)
    vals.sort(reverse=True)
    rows = [[vals[i] if i == j else 0 for j in range(n)] for i in range(n)]
    return GroupElement.tower(rows)


# ---------------------------------------------------------------------------
# Iwasawa

def test_kau_identity_and_triangular():
    i2 = GroupElement.identity(2)
    res = iwasawa_kau(i2)
    assert res.k == i2 and res.a == i2 and res.u == i2
    g = GroupElement.tower([[1, 1], [0, 1]])
    res = iwasawa_kau(g)
    assert res.k == i2 and res.a == i2 and res.u == g


def test_kau_worked_example():
    g = GroupElement.tower([[1, 0], [1, 1]])
    res = iwasawa_kau(g)
    r2 = sqrt_positive(2)
    half_r2 = r2 / 2
    assert res.k == GroupElement.tower(
        [[half_r2, -half_r2], [half_r2, half_r2]]
    )
    assert res.a == GroupElement.tower([[r2, 0], [0, half_r2]])
    assert res.u == GroupElement.tower([[1, F(1, 2)], [0, 1]])
    assert res.reconstruct() == g


def test_kau_random_exact():
    rng = random.Random(41)
    for _ in range(25):
        g = rand_sl(rng, 3)
        res = iwasawa_kau(g)
        assert member_K(res.k) and member_A(res.a) and member_U(res.u)
        assert res.reconstruct() == g


def test_kau_uniqueness_shuffle():
    rng = random.Random(43)
    for _ in range(10):
        k = rotation(3, 0, 1, F(rng.randint(-5, 5), 3)) * rotation(
            3, 1, 2, F(rng.randint(-5, 5), 4)
        )
        a = rand_chamber_diag(rng, 3)
        u = GroupElement.tower(
            [[1, F(rng.randint(-4, 4)), F(rng.randint(-4, 4))], [0, 1, F(rng.randint(-4, 4))], [0, 0, 1]]
        )
        res = iwasawa_kau(k * a * u)
        assert res.k == k and res.a == a and res.u == u


def test_uak_bridge():
    rng = random.Random(47)
    i3 = GroupElement.identity(3)
    assert iwasawa_uak(i3).a == i3
    d = rand_chamber_diag(rng, 3)
    res = iwasawa_uak(d)
    assert res.u == i3 and res.a == d and res.k == i3
    for _ in range(15):
        g = rand_sl(rng, 3)
        res = iwasawa_uak(g)
        assert member_U(res.u) and member_A(res.a) and member_K(res.k)
        assert res.reconstruct() == g


def test_a_component():
    rng = random.Random(53)
    g = GroupElement.identity(3)
    assert a_component(g) == g
    d = rand_chamber_diag(rng, 3)
    assert a_component(d) == d
    k = rotation(3, 0, 2, F(1, 3))
    assert a_component(k) == GroupElement.identity(3)
    for _ in range(10):
        a = rand_chamber_diag(rng, 3)
        k = rotation(3, 0, 1, F(rng.randint(-4, 4), 3)) * rotation(
            3, 1, 2, F(rng.randint(-4, 4), 5)
        )
        assert a_component(a * k) == a


def test_kau_puiseux_series_input():
    g = GroupElement.puiseux([[X, 0], [1, X.invert()]])
    res = iwasawa_kau(g)
    # column norm sqrt(X^2 + 1) leads the a-part
    assert res.a[0, 0].coefficient(1) == 1
    assert res.a[0, 0].coefficient(-1) == F(1, 2)
    _known_zero_matrix((res.k * res.a * res.u).mat - g.mat)
    assert member_K(res.k) and member_A(res.a) and member_U(res.u)
    res2 = iwasawa_uak(g)
    _known_zero_matrix((res2.u * res2.a * res2.k).mat - g.mat)


def test_kau_keeps_a_tail_only_power():
    # the SL2 input whose KAU once failed with a bogus "determinant is
    # 1 + 1/128*X^(-6) + O(X^(-8)), not 1": a series loop dropped a power
    # made only of a tail
    c = mono(F(1, 4), 0)
    g = GroupElement.puiseux([
        [mono(2, 3), mono(2, 3)],
        [c - mono(F(1, 2), -3) - mono(F(3, 4), -6), c - mono(F(3, 4), -6)],
    ])
    res = iwasawa_kau(g)
    res.certify(g)
    assert member_K(res.k) and member_A(res.a) and member_U(res.u)


def test_domain_order_is_the_working_order():
    rows = [[X, 0], [1, X.invert()]]
    deep = GroupElement(Matrix(PuiseuxDomain(12), rows))
    res = iwasawa_kau(deep)
    res.certify(deep)
    assert "O(X^(-12))" in str(res.k.mat)
    assert "O(X^(-12))" not in str(iwasawa_kau(GroupElement.puiseux(rows)).k.mat)
    assert rcg.puiseux.DEFAULT_REL_ORDER == 8
    # cartan_kak's order keyword and the domain's order agree
    by_keyword = cartan_kak(GroupElement.puiseux(rows), order=12)
    by_domain = cartan_kak(deep)
    for name, factor in by_domain.factors().items():
        assert str(factor.mat) == str(by_keyword.factors()[name].mat)


PUISEUX_A_INPUTS = [
    [[X, 0], [1, X.invert()]],
    [[2 * X, 3], [1, 2 * X.invert()]],
    [[X, 1, 0], [0, 1, 0], [0, 1, X.invert()]],
    # L diag(X, 1, 1/X) U, L unit lower and U unit upper triangular
    [[X, X, 2 * X], [2 * X, 2 * X + 1, 4 * X - 1], [-X, 3 - X, X.invert() - 2 * X - 3]],
]


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_a_component_is_the_uak_a_tower(n):
    rng = random.Random(40 + n)
    for _ in range(4):
        g = rand_sl(rng, n)
        assert a_component(g) == iwasawa_uak(g).a


@pytest.mark.parametrize("rows", PUISEUX_A_INPUTS, ids=["sl2-a", "sl2-b", "sl3-a", "sl3-b"])
def test_a_component_is_the_uak_a_puiseux(rows):
    g = GroupElement.puiseux(rows)
    assert a_component(g) == iwasawa_uak(g).a


def test_a_component_forms_only_a(monkeypatch):
    """No k, no u and no determinant: only the Gram-Schmidt norms."""
    g = rand_sl(random.Random(5), 4)
    expected = iwasawa_uak(g).a

    def refuse(*_):
        raise AssertionError("a_component formed more than a")

    for name in ("iwasawa_uak", "iwasawa_kau", "det"):
        monkeypatch.setattr(rcg.decomp, name, refuse)
    monkeypatch.setattr(rcg.slgroup, "det", refuse)
    assert a_component(g) == expected


@pytest.mark.parametrize("n", [3, 4, 5, 6])
def test_rational_gram_schmidt_makes_no_tower_product(n, monkeypatch):
    """Rational input runs Gram-Schmidt over Q: no TowerScalar product is
    formed inside it."""
    g = rand_sl(random.Random(f"gram-schmidt-{n}"), n)
    gram_schmidt, tower_mul = rcg.decomp._gram_schmidt, TowerScalar.__mul__
    inside = []

    def watched(m):
        inside.append(True)
        try:
            return gram_schmidt(m)
        finally:
            inside.pop()

    def product(a, b):
        if inside:
            raise AssertionError("TowerScalar product inside _gram_schmidt")
        return tower_mul(a, b)

    monkeypatch.setattr(rcg.decomp, "_gram_schmidt", watched)
    monkeypatch.setattr(TowerScalar, "__mul__", product)
    monkeypatch.setattr(TowerScalar, "__rmul__", product)
    kau, uak, a = iwasawa_kau(g), iwasawa_uak(g), a_component(g)
    monkeypatch.undo()
    kau.certify(g)
    uak.certify(g)
    assert a == uak.a


def test_gram_schmidt_over_q_matches_the_tower_loop():
    """The rational path and the loop over depth-0 tower scalars (the
    same body, kept from lowering by one radical entry that is then
    removed) give the same qhat, norms and u."""
    rng = random.Random(77)
    for n in (2, 3, 5):
        m = rand_sl(rng, n).mat
        qhat, norm2, u = rcg.decomp._gram_schmidt(m)
        r = sqrt_positive(2)
        padded = Matrix.tower([[x + r - r if (i, j) == (0, 0) else x for j, x in enumerate(row)]
                               for i, row in enumerate(m.data)])
        assert rcg.linalg._over_q(padded)[0] is TOWER
        assert rcg.decomp._gram_schmidt(padded) == (qhat, norm2, u)


@pytest.mark.parametrize("decompose", [a_component, cartan_kak], ids=lambda f: f.__name__)
def test_a_factor_refuses_determinant_two(decompose):
    stretched = Matrix.diagonal([4, 1, F(1, 2)]) * rotation(3, 0, 1, F(1, 2)).mat
    for m in (Matrix.tower([[4, 6], [1, 2]]), stretched):
        smuggled = GroupElement._unchecked(m)
        assert det(smuggled.mat) == 2
        with pytest.raises(DomainError, match="^determinant is 2, not 1$"):
            decompose(smuggled)
    smuggled = GroupElement._unchecked(Matrix.puiseux([[2 * X, 0], [1, X.invert()]]))
    with pytest.raises(DomainError, match="^determinant is 2"):
        decompose(smuggled)


# ---------------------------------------------------------------------------
# Cartan

def test_kak_diagonal_fixed_point():
    g = GroupElement.tower([[3, 0], [0, F(1, 3)]])
    res = cartan_kak(g)
    assert res.a == g
    assert res.k1 == GroupElement.identity(2)
    assert res.k2 == GroupElement.identity(2)
    assert res.reconstruct() == g


def test_kak_worked_example():
    g = GroupElement.tower([[1, 1], [0, 1]])
    res = cartan_kak(g)
    r5 = sqrt_positive(5)
    assert res.a == GroupElement.tower(
        [[(1 + r5) / 2, 0], [0, (r5 - 1) / 2]]
    )
    assert res.reconstruct() == g
    assert member_K(res.k1) and member_K(res.k2)
    assert res.k2.mat.transpose() * res.k2.mat == Matrix.identity(2)


def test_kak_repeated_singular_values():
    with pytest.raises(RepeatedEigenvalue):
        cartan_kak(GroupElement.identity(2))


def test_kak_random_exact_sl2():
    rng = random.Random(59)
    done = 0
    while done < 25:
        g = rand_sl(rng, 2)
        try:
            res = cartan_kak(g)
        except RepeatedEigenvalue:
            continue
        assert res.reconstruct() == g
        assert member_K(res.k1) and member_A(res.a) and member_K(res.k2)
        # chamber: non-increasing diagonal
        assert (res.a[0, 0] - res.a[1, 1]).sign() >= 0
        done += 1


def test_kak_radical_entries():
    r2 = sqrt_positive(2)
    g = GroupElement.tower([[r2, 0], [1, r2 / 2]])
    res = cartan_kak(g)
    assert res.reconstruct() == g
    assert member_K(res.k1) and member_K(res.k2)
    assert (res.a[0, 0] - res.a[1, 1]).sign() > 0


def test_kau_radical_entries():
    r2, r3 = sqrt_positive(2), sqrt_positive(3)
    g = GroupElement.tower([[1 + r2, r3], [0, r2 - 1]])
    res = iwasawa_kau(g)
    assert res.reconstruct() == g
    assert member_K(res.k) and member_A(res.a) and member_U(res.u)


def test_kak_uniqueness_check():
    rng = random.Random(61)
    g = rand_sl(rng, 2)
    res = cartan_kak(g)
    assert kak_uniqueness_check(g, res, res) == GroupElement.identity(2)
    # conjugate the chamber a-part out of the chamber by a Weyl flip
    w = GroupElement.tower([[0, -1], [1, 0]])
    shuffled = KAKResult(res.k1 * w.inverse(), w * res.a * w.inverse(), w * res.k2)
    assert shuffled.reconstruct() == g
    rel = kak_uniqueness_check(g, res, shuffled)
    assert rel * res.a * rel.inverse() == shuffled.a


def _diagonal(entries, domain):
    n = len(entries)
    return GroupElement(Matrix(domain, [[entries[i] if i == j else 0 for j in range(n)]
                                        for i in range(n)]))


@pytest.mark.parametrize("entries, domain", [
    ((4, 2, F(1, 2), F(1, 4)), TOWER),
    ((2, 2, F(1, 2), F(1, 2)), TOWER),  # repeated entries
    ((X, mono(1, F(1, 2)), mono(1, F(-1, 2)), mono(1, -1)), PuiseuxDomain()),
])
def test_kak_uniqueness_check_n4_shuffled_chamber_factor(entries, domain):
    g = a = _diagonal(entries, domain)
    one = GroupElement(Matrix.identity(4, domain))
    res = KAKResult(one, a, one)
    rng = random.Random(4)
    for _ in range(6):
        perm = rng.sample(range(4), 4)
        rows = [[0] * 4 for _ in range(4)]
        for j, i in enumerate(perm):
            rows[i][j] = rng.choice((1, -1))
        if det(Matrix.tower(rows)) != 1:
            rows[perm[0]][0] *= -1
        w = GroupElement(Matrix(domain, rows))
        shuffled = KAKResult(res.k1 * w.inverse(), w * res.a * w.inverse(), w * res.k2)
        assert shuffled.reconstruct() == g
        rel = kak_uniqueness_check(g, res, shuffled)
        assert member_N(rel)
        assert rel * res.a * rel.inverse() == shuffled.a


def test_kak_uniqueness_check_raises_without_a_relating_element():
    a1 = _diagonal((4, 2, F(1, 2), F(1, 4)), TOWER)
    a2 = _diagonal((4, 2, F(1, 8), 1), TOWER)
    one = GroupElement.identity(4)
    with pytest.raises(NoRelatingElement):
        kak_uniqueness_check(a1, KAKResult(one, a1, one), KAKResult(one, a2, one))


def _known_zero_matrix(m):
    for row in m.data:
        for x in row:
            for e, c in x.terms:
                assert c.is_zero(), f"unexpected known term at {e}"


def test_kak_puiseux():
    g = GroupElement.puiseux([[X, 0], [1, X.invert()]])
    res = cartan_kak(g, order=6)
    # singular values straddle X and X^-1
    assert res.a[0, 0].lead()[0] == 1
    assert res.a[1, 1].lead()[0] == -1
    _known_zero_matrix(res.reconstruct().mat - g.mat)
    assert member_K(res.k1) and member_A(res.a) and member_K(res.k2)


def test_kak_puiseux_specialisation_oracle():
    numpy = pytest.importorskip("numpy")
    g = GroupElement.puiseux([[X, 0], [1, X.invert()]])
    res = cartan_kak(g, order=6)
    a1 = res.a[0, 0]
    for t in (F(10), F(100), F(1000)):
        num = numpy.array(
            [[float(t), 0.0], [1.0, 1.0 / float(t)]], dtype=float
        )
        top_singular = max(numpy.linalg.svd(num, compute_uv=False))
        approx_lo, approx_hi = a1.specialize(t).approx(F(1, 10**6))
        mid = float((approx_lo + approx_hi) / 2)
        assert abs(mid - top_singular) / top_singular < 0.05


# Puiseux KAK over radical coefficients: the same code as for rational
# input, with the radicals of g in every series.  The printed factors at
# order 4 were generated before the Cartan series work was kept in g's own
# field, and must stay term for term and tail for tail the same.

_R2, _R3 = sqrt_positive(2), sqrt_positive(3)

RADICAL_KAK_INPUTS = {
    "sl2-sqrt2": [[mono(_R2, 2), 1], [0, mono(_R2 / 2, -2)]],
    "sl2-sqrt3": [[mono(_R3, 1), 0], [_R3, mono(_R3 / 3, -1)]],
    "sl2-both": [[mono(_R2, 1), _R3], [0, mono(_R2 / 2, -1)]],
    # every column of k1 gets its own radicals: rho = 1/4, sqrt(30)/30,
    # sqrt(20)/20 and c = sqrt(2), sqrt(5), sqrt(1/10)
    "sl3-mixed": [[mono(_R2, 2), 1, 0], [0, _R3, _R2], [0, 0, mono(_R2 * _R3 / 6, -2)]],
    "sl3-mixed2": [[mono(_R2, 1), 0, 0], [_R3, 1, 0], [0, 1, mono(_R2 / 2, -1)]],
}

RADICAL_KAK_PRINTED = {'sl2-sqrt2': {'k1': [['1 + O(X^(-4))', '0 + O(X^(-2))'],
                          ['1/4*sqrt(2)*X^(-6) - 1/8*sqrt(2)*X^(-10) + O(X^(-10))',
                           '1 + O(X^(-4))']],
                   'a': [['sqrt(2)*X^(2) + 1/4*sqrt(2)*X^(-2) + O(X^(-2))', '0'],
                         ['0', '1/2*sqrt(2)*X^(-2) - 1/8*sqrt(2)*X^(-6) + O(X^(-6))']],
                   'k2': [['1 - 1/4*X^(-4) + O(X^(-4))',
                           '1/2*sqrt(2)*X^(-2) - 1/8*sqrt(2)*X^(-6) + O(X^(-6))'],
                          ['-1/2*sqrt(2)*X^(-2) + 1/8*sqrt(2)*X^(-6) + O(X^(-6))',
                           '1 - 1/4*X^(-4) + O(X^(-4))']]},
     'sl2-sqrt3': {'k1': [['1 - 1/2*X^(-2) + 3/8*X^(-4) + O(X^(-4))',
                           '-X^(-1) + 1/2*X^(-3) + O(X^(-3))'],
                          ['X^(-1) - 1/2*X^(-3) + 35/72*X^(-5) + O(X^(-5))',
                           '1 - 1/2*X^(-2) + 3/8*X^(-4) + O(X^(-4))']],
                   'a': [['sqrt(3)*X + 1/2*sqrt(3)*X^(-1) - 1/8*sqrt(3)*X^(-3) + O(X^(-3))', '0'],
                         ['0',
                          '1/3*sqrt(3)*X^(-1) - 1/6*sqrt(3)*X^(-3) + 1/8*sqrt(3)*X^(-5) + '
                          'O(X^(-5))']],
                   'k2': [['1 + O(X^(-4))', '1/3*X^(-3) - 1/3*X^(-5) + 10/27*X^(-7) + O(X^(-7))'],
                          ['-1/3*X^(-3) + 1/3*X^(-5) + O(X^(-5))', '1 + O(X^(-4))']]},
     'sl2-both': {'k1': [['1 + O(X^(-4))', '-1/4*sqrt(2)*sqrt(3)*X^(-3) + O(X^(-3))'],
                         ['1/4*sqrt(2)*sqrt(3)*X^(-3) - 3/8*sqrt(2)*sqrt(3)*X^(-5) + '
                          '5/8*sqrt(2)*sqrt(3)*X^(-7) + O(X^(-7))',
                          '1 + O(X^(-4))']],
                  'a': [['sqrt(2)*X + 3/4*sqrt(2)*X^(-1) - 9/32*sqrt(2)*X^(-3) + O(X^(-3))', '0'],
                        ['0',
                         '1/2*sqrt(2)*X^(-1) - 3/8*sqrt(2)*X^(-3) + 27/64*sqrt(2)*X^(-5) + '
                         'O(X^(-5))']],
                  'k2': [['1 - 3/4*X^(-2) + 27/32*X^(-4) + O(X^(-4))',
                          '1/2*sqrt(3)*sqrt(2)*X^(-1) - 3/8*sqrt(3)*sqrt(2)*X^(-3) + '
                          '35/64*sqrt(3)*sqrt(2)*X^(-5) + O(X^(-5))'],
                         ['-1/2*sqrt(3)*sqrt(2)*X^(-1) + 3/8*sqrt(3)*sqrt(2)*X^(-3) - '
                          '35/64*sqrt(3)*sqrt(2)*X^(-5) + O(X^(-5))',
                          '1 - 3/4*X^(-2) + 27/32*X^(-4) + O(X^(-4))']]},
     'sl3-mixed': {'k1': [['1 + O(X^(-4))', '1/2*sqrt(3)*X^(-4) + O(X^(-4))', '0 + O(X^(-2))'],
                          ['1/2*sqrt(3)*X^(-4) + sqrt(3)*X^(-8) + O(X^(-8))',
                           '-1 + 1/150*X^(-4) + O(X^(-4))',
                           '1/15*sqrt(3)*X^(-2) + O(X^(-2))'],
                          ['1/4*X^(-10) + 3/8*X^(-14) + O(X^(-14))',
                           '-1/15*sqrt(3)*X^(-2) - 47/2250*sqrt(3)*X^(-6) + O(X^(-6))',
                           '-1 + 1/150*X^(-4) + O(X^(-4))']],
                   'a': [['sqrt(2)*X^(2) + 1/4*sqrt(2)*X^(-2) + O(X^(-2))', '0', '0'],
                         ['0', 'sqrt(5) - 43/300*sqrt(5)*X^(-4) + O(X^(-4))', '0'],
                         ['0', '0', 'sqrt(1/10)*X^(-2) - 8/75*sqrt(1/10)*X^(-6) + O(X^(-6))']],
                   'k2': [['1 - 1/4*X^(-4) + O(X^(-4))',
                           '1/2*sqrt(2)*X^(-2) + 5/8*sqrt(2)*X^(-6) + O(X^(-6))',
                           '1/2*sqrt(3)*X^(-6) + 7/8*sqrt(3)*X^(-10) + O(X^(-10))'],
                          ['1/10*sqrt(30)*X^(-2) + 641/3000*sqrt(30)*X^(-6) + O(X^(-6))',
                           '-1/10*sqrt(2)*sqrt(30) + 109/3000*sqrt(2)*sqrt(30)*X^(-4) + O(X^(-4))',
                           '-1/15*sqrt(3)*sqrt(30) - 17/1500*sqrt(3)*sqrt(30)*X^(-4) + O(X^(-4))'],
                          ['-1/10*sqrt(20)*X^(-2) + 1/125*sqrt(20)*X^(-6) + O(X^(-6))',
                           '1/10*sqrt(2)*sqrt(20) - 1/125*sqrt(2)*sqrt(20)*X^(-4) + O(X^(-4))',
                           '-1/10*sqrt(3)*sqrt(20) + 17/1500*sqrt(3)*sqrt(20)*X^(-4) + '
                           'O(X^(-4))']]},
     'sl3-mixed2': {'k1': [['1 - 3/4*X^(-2) + 3/32*X^(-4) + O(X^(-4))',
                            '1/2*sqrt(3)*X^(-1) - 1/8*sqrt(3)*X^(-3) + O(X^(-3))',
                            '-1/2*sqrt(3)*X^(-1) + 1/8*sqrt(3)*X^(-3) + O(X^(-3))'],
                           ['1/2*sqrt(3)*sqrt(2)*X^(-1) - 1/8*sqrt(3)*sqrt(2)*X^(-3) - '
                            '17/64*sqrt(3)*sqrt(2)*X^(-5) + O(X^(-5))',
                            '-1/2*sqrt(2) + 5/8*sqrt(2)*X^(-2) + 7/64*sqrt(2)*X^(-4) + O(X^(-4))',
                            '1/2*sqrt(2) - 1/8*sqrt(2)*X^(-2) + 5/64*sqrt(2)*X^(-4) + O(X^(-4))'],
                           ['1/4*sqrt(3)*sqrt(2)*X^(-3) - 5/16*sqrt(3)*sqrt(2)*X^(-5) + '
                            '7/128*sqrt(3)*sqrt(2)*X^(-7) + O(X^(-7))',
                            '-1/2*sqrt(2) - 1/4*sqrt(2)*X^(-2) + 5/32*sqrt(2)*X^(-4) + O(X^(-4))',
                            '-1/2*sqrt(2) + 1/4*sqrt(2)*X^(-2) - 1/32*sqrt(2)*X^(-4) + O(X^(-4))']],
                    'a': [['sqrt(2)*X + 3/4*sqrt(2)*X^(-1) + 3/32*sqrt(2)*X^(-3) + O(X^(-3))',
                           '0',
                           '0'],
                          ['0',
                           'sqrt(2) - 5/16*sqrt(2)*X^(-2) + 99/512*sqrt(2)*X^(-4) + O(X^(-4))',
                           '0'],
                          ['0', '0', '1/2*X^(-1) - 7/32*X^(-3) + 71/1024*X^(-5) + O(X^(-5))']],
                    'k2': [['1 - 3/8*X^(-4) + O(X^(-4))',
                            '1/2*sqrt(3)*X^(-2) - 1/4*sqrt(3)*X^(-4) - 7/16*sqrt(3)*X^(-6) + '
                            'O(X^(-6))',
                            '1/8*sqrt(3)*sqrt(2)*X^(-5) - 1/4*sqrt(3)*sqrt(2)*X^(-7) + '
                            '13/64*sqrt(3)*sqrt(2)*X^(-9) + O(X^(-9))'],
                           ['1/2*sqrt(3)*X^(-2) - 9/32*sqrt(3)*X^(-4) + O(X^(-4))',
                            '-1 + 1/16*X^(-2) + 245/512*X^(-4) + O(X^(-4))',
                            '-1/4*sqrt(2)*X^(-1) - 13/64*sqrt(2)*X^(-3) + 129/2048*sqrt(2)*X^(-5) '
                            '+ O(X^(-5))'],
                           ['-1/8*sqrt(2)*sqrt(3)*X^(-3) + 11/128*sqrt(2)*sqrt(3)*X^(-5) + '
                            'O(X^(-5))',
                            '1/4*sqrt(2)*X^(-1) + 13/64*sqrt(2)*X^(-3) - 321/2048*sqrt(2)*X^(-5) + '
                            'O(X^(-5))',
                            '-1 + 1/16*X^(-2) + 53/512*X^(-4) + O(X^(-4))']]}}


@pytest.mark.parametrize("name", sorted(RADICAL_KAK_INPUTS))
def test_kak_puiseux_radical_coefficients(name):
    g = GroupElement.puiseux(RADICAL_KAK_INPUTS[name])
    res = cartan_kak(g, order=4)
    printed = {k: [[str(x) for x in row] for row in f.mat.data]
               for k, f in res.factors().items()}
    assert printed == RADICAL_KAK_PRINTED[name]
    res.certify(g)


# ---------------------------------------------------------------------------
# Bruhat

def test_bruhat_upper_triangular():
    g = GroupElement.tower([[2, 5], [0, F(1, 2)]])
    res = bruhat(g)
    assert res.w == GroupElement.identity(2)
    assert res.reconstruct() == g


def test_bruhat_worked_example():
    g = GroupElement.tower([[1, 0], [1, 1]])
    res = bruhat(g)
    assert res.w == GroupElement.tower([[0, -1], [1, 0]])
    assert res.b1 == GroupElement.tower([[1, 1], [0, 1]])
    assert res.b2 == GroupElement.tower([[1, 1], [0, 1]])
    assert res.reconstruct() == g


def test_bruhat_antidiagonal():
    w0 = GroupElement.tower([[0, 0, 1], [0, -1, 0], [1, 0, 0]])
    res = bruhat(w0)
    assert res.w == w0
    assert res.b1 == GroupElement.identity(3)
    assert res.b2 == GroupElement.identity(3)


def test_bruhat_random_exact():
    rng = random.Random(67)
    for _ in range(30):
        g = rand_sl(rng, 3)
        res = bruhat(g)
        assert member_B(res.b1) and member_B(res.b2) and member_N(res.w)
        assert res.reconstruct() == g
        assert bruhat_permutation(res.w) == bruhat_permutation(g)


def test_bruhat_cells_disjoint():
    rng = random.Random(71)
    for w in weyl_reps_sl3():
        target = bruhat_permutation(w)
        for _ in range(20):
            b1 = GroupElement.tower(
                [[1, F(rng.randint(-4, 4)), F(rng.randint(-4, 4))], [0, 1, F(rng.randint(-4, 4))], [0, 0, 1]]
            )
            b2 = GroupElement.tower(
                [[1, 0, F(rng.randint(-4, 4))], [0, 1, F(rng.randint(-4, 4))], [0, 0, 1]]
            )
            g = b1 * w * b2
            assert bruhat_permutation(g) == target
            assert bruhat(g).w == w


def reference_bruhat(g):
    """Bruhat by two-sided elimination, the reference for bruhat's one row
    pass: row operations, then a column pass with its own accumulator rinv,
    and an n-term update of linv after every row operation.  Returns the
    matrices (b1, w, b2)."""
    dom = g.mat.domain
    n = g.n
    m = [list(row) for row in g.mat.data]
    linv = [list(row) for row in Matrix.identity(n, dom).data]
    rinv = [list(row) for row in Matrix.identity(n, dom).data]
    used_rows = set()
    pivot_row_of = {}
    for col in range(n):
        pivot = None
        for i in range(n - 1, -1, -1):
            if i in used_rows:
                continue
            if not dom.is_zero(m[i][col]):
                pivot = i
                break
        if pivot is None:
            raise IndeterminateSign("singular column during Bruhat elimination")
        used_rows.add(pivot)
        pivot_row_of[col] = pivot
        inv_p = dom.invert(m[pivot][col])
        for i in range(pivot):
            if i in used_rows or dom.is_zero(m[i][col]):
                continue
            c = m[i][col] * inv_p
            m[i] = [x - c * y for x, y in zip(m[i], m[pivot])]
            for t in range(n):
                linv[t][pivot] = linv[t][pivot] + linv[t][i] * c
        for j in range(col + 1, n):
            if dom.is_zero(m[pivot][j]):
                continue
            c = m[pivot][j] * inv_p
            for i in range(n):
                m[i][j] = m[i][j] - m[i][col] * c
            for t in range(n):
                rinv[col][t] = rinv[col][t] + c * rinv[j][t]
    w_rows = [[dom.zero] * n for _ in range(n)]
    d_diag = [dom.zero] * n
    for col in range(n):
        i = pivot_row_of[col]
        val = m[i][col]
        sgn = dom.sign(val)
        w_rows[i][col] = dom.one if sgn > 0 else -dom.one
        d_diag[col] = val if sgn > 0 else -val
    b2 = [[d_diag[i] * rinv[i][j] for j in range(n)] for i in range(n)]
    return Matrix(dom, linv), Matrix(dom, w_rows), Matrix(dom, b2)


def assert_matches_reference(g):
    res = bruhat(g)
    printed = [str(res.b1), str(res.w), str(res.b2)]
    assert printed == [str(f) for f in reference_bruhat(g)]
    res.certify(g)


@st.composite
def rational_bruhat_inputs(draw):
    """u1 w d u2 in SL_n, n <= 5: unit upper u's with some zero entries, a
    signed permutation w of det 1 (its cell) and a diagonal d of det 1."""
    n = draw(st.integers(2, 5))
    entries = st.sampled_from([F(0), F(0), F(1), F(-2), F(3, 2), F(-1, 3)])

    def unit_upper():
        return Matrix.tower(
            [[1 if i == j else (draw(entries) if i < j else 0) for j in range(n)]
             for i in range(n)]
        )

    perm = draw(st.permutations(range(n)))
    signs = draw(st.lists(st.sampled_from([1, -1]), min_size=n, max_size=n))
    signs[0] *= _signed_permutation_det(perm, signs)
    d = draw(st.lists(st.sampled_from([F(2), F(-1, 3), F(5, 4), F(-1)]),
                      min_size=n - 1, max_size=n - 1))
    d.append(1 / reduce(mul, d, F(1)))
    w = _signed_permutation(perm, signs, TOWER)
    g = unit_upper() * w * Matrix.diagonal(d) * unit_upper()
    return GroupElement(g)


@settings(max_examples=120, deadline=None)
@given(rational_bruhat_inputs())
def test_bruhat_matches_two_sided_elimination(g):
    """The factors read off the row pass print the same as those of the
    two-sided elimination, factor for factor."""
    assert_matches_reference(g)


def test_bruhat_matches_two_sided_elimination_over_radicals():
    s = 1 + sqrt_positive(TowerScalar.coerce(2))
    upper = Matrix.tower([[s, 1, 2 * s], [0, s.inv(), 3], [0, 0, 1]])
    cycle = Matrix.tower([[0, 1, 0], [0, 0, 1], [1, 0, 0]])
    lower = Matrix.tower([[1, 0, 0], [s, 1, 0], [F(1, 2), s.inv(), 1]])
    assert_matches_reference(GroupElement(upper * cycle * lower))
