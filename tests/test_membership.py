"""SL_n membership is checked once, at the boundary.

The tower determinant switches to elimination from 4x4 on, ring operations
on group elements build their results unchecked, and iwasawa_kau certifies
its K factor from the Gram-Schmidt matrix.  These tests pin each of the
three: elimination agrees with the cofactor expansion, inputs with det != 1
are still refused, the K certificate rejects a bad determinant, and exact
reconstruction holds at sizes the cofactor check could not afford.
"""

import random
import re
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import rcg.slgroup
from rcg.decomp import bruhat, iwasawa_kau, iwasawa_uak
from rcg.errors import DomainError
from rcg.linalg import TOWER, Matrix, _det_rows, det
from rcg.puiseux import X
from rcg.slgroup import (
    GroupElement,
    member_A,
    member_B,
    member_K,
    member_N,
    member_U,
)
from rcg.tower import sqrt_positive

F = Fraction


def unit_triangular(rng, n, upper=True, bound=2):
    return [
        [
            1 if i == j else (rng.randint(-bound, bound) if (i < j) == upper else 0)
            for j in range(n)
        ]
        for i in range(n)
    ]


def rand_rows(rng, n, bound=9):
    return [[F(rng.randint(-bound, bound), rng.randint(1, 5)) for _ in range(n)] for _ in range(n)]


def det_cases(rng, n):
    """Named matrices on which elimination meets every branch: a pivot
    search that swaps rows, columns with nothing below the pivot, singular
    input, and entries from several different towers."""
    dense = rand_rows(rng, n)
    swap = rand_rows(rng, n)
    swap[0][0] = 0
    swap[1][0] = 0
    singular = rand_rows(rng, n)
    singular[-1] = [a + 2 * b for a, b in zip(singular[0], singular[1])]
    zero_col = rand_rows(rng, n)
    for row in zero_col:
        row[n // 2] = 0
    upper = [[x if j >= i else 0 for j, x in enumerate(r)] for i, r in enumerate(rand_rows(rng, n))]
    lower = [[x if j <= i else 0 for j, x in enumerate(r)] for i, r in enumerate(rand_rows(rng, n))]
    radicals = [[x * sqrt_positive(2 + (i + j) % 3) for j, x in enumerate(r)]
                for i, r in enumerate(rand_rows(rng, n, 3))]
    return {
        "dense": dense,
        "row swap": swap,
        "singular": singular,
        "zero column": zero_col,
        "upper": upper,
        "lower": lower,
        "radicals": radicals,
    }


@pytest.mark.parametrize("n", [4, 5, 6, 7])
def test_elimination_det_matches_cofactor(n):
    rng = random.Random(100 + n)
    for name, rows in det_cases(rng, n).items():
        if name == "radicals" and n > 5:
            continue  # cofactor over mixed towers is the slow side here
        m = Matrix.tower(rows)
        assert det(m) == _det_rows(m.data, TOWER), name
    assert det(Matrix.tower(det_cases(rng, n)["singular"])).is_zero()


@pytest.mark.parametrize("n", [4, 5])
def test_elimination_det_on_mixed_tower_k_factors(n):
    rng = random.Random(7 * n)
    g = GroupElement.tower(unit_triangular(rng, n, upper=False)) * GroupElement.tower(
        unit_triangular(rng, n)
    )
    for k in (iwasawa_kau(g).k, iwasawa_uak(g).k):
        assert det(k.mat) == _det_rows(k.mat.data, TOWER) == 1


@pytest.mark.parametrize("n", [4, 5, 6])
def test_tower_boundary_refuses_det_not_one(n):
    rng = random.Random(n)
    rows = unit_triangular(rng, n, upper=False)
    rows[n - 1] = [2 * x for x in rows[n - 1]]
    with pytest.raises(DomainError, match="determinant is 2"):
        GroupElement.tower(rows)
    swapped = unit_triangular(rng, n)
    swapped[0], swapped[1] = swapped[1], swapped[0]
    with pytest.raises(DomainError, match="determinant is -1"):
        GroupElement.tower(swapped)


def test_kau_certificate_rejects_smuggled_determinant():
    """An element built past the boundary, through the unchecked
    constructor, still cannot yield a factorisation: with det -1 the K
    certificate det(qhat) * prod(1/r_j) fails (a and u stay fine), and with
    det 2 the checked A factor does."""
    rng = random.Random(3)
    for n in (2, 3, 4, 5):
        base = GroupElement.tower(unit_triangular(rng, n, upper=False)).mat.data
        neg = [list(r) for r in base]
        neg[0] = [-x for x in neg[0]]
        with pytest.raises(DomainError, match="determinant of k is -1"):
            iwasawa_kau(GroupElement._unchecked(Matrix.tower(neg)))
        with pytest.raises(DomainError, match="determinant of k is -1"):
            iwasawa_uak(GroupElement._unchecked(Matrix.tower(neg)))
        double = [list(r) for r in base]
        double[0] = [2 * x for x in double[0]]
        with pytest.raises(DomainError, match="determinant is 2"):
            iwasawa_kau(GroupElement._unchecked(Matrix.tower(double)))
    # the same certificate serves the Puiseux field, to the working order
    neg = [[-X, 0], [1, X.invert()]]
    with pytest.raises(DomainError, match=re.escape("determinant of k is -1 + O(X^(-8))")):
        iwasawa_kau(GroupElement._unchecked(Matrix.puiseux(neg)))


def test_unchecked_paths_skip_the_determinant(monkeypatch):
    """Products and transposes compute no determinant."""
    rng = random.Random(11)
    g = GroupElement.tower(unit_triangular(rng, 4, upper=False))
    h = GroupElement.tower(unit_triangular(rng, 4))

    def refuse(_):
        raise AssertionError("determinant computed on an unchecked path")

    monkeypatch.setattr(rcg.slgroup, "det", refuse)
    assert (g * h).transpose().transpose() == g * h


@st.composite
def sl_elements(draw):
    n = draw(st.integers(2, 5))
    entries = st.integers(-3, 3)
    upper = [[1 if i == j else (draw(entries) if i < j else 0) for j in range(n)] for i in range(n)]
    lower = [[1 if i == j else (draw(entries) if i > j else 0) for j in range(n)] for i in range(n)]
    scale = draw(st.sampled_from([F(1), F(2), F(-3, 2), F(5, 7)]))
    diag = [[0] * n for _ in range(n)]
    diag[0][0] = scale
    diag[1][1] = 1 / scale
    for i in range(2, n):
        diag[i][i] = 1
    return [GroupElement.tower(m) for m in (upper, lower, diag)]


@settings(max_examples=40, deadline=None)
@given(sl_elements(), st.lists(st.integers(0, 5), min_size=1, max_size=6))
def test_products_and_transposes_stay_in_sl_n(factors, word):
    """Every word in checked elements and their transposes has det exactly 1,
    so the unchecked constructor behind * and transpose() loses nothing."""
    gens = factors + [f.transpose() for f in factors]
    g = gens[word[0]]
    for idx in word[1:]:
        g = g * gens[idx]
        if idx % 2:
            g = g.transpose()
    assert det(g.mat) == 1


def rand_dense_sl(rng, n):
    while True:
        rows = rand_rows(rng, n)
        d = det(Matrix.tower(rows))
        if not d.is_zero():
            rows[0] = [x * d.inv() for x in rows[0]]
            return GroupElement.tower(rows)


@pytest.mark.parametrize("n", [7, 8])
def test_exact_reconstruction_at_large_n(n):
    """k a u, u a k and b1 w b2 multiply back to g exactly; every factor
    lies in its subgroup.  Before elimination and the K certificate one
    n = 8 KAU took about a minute."""
    g = rand_dense_sl(random.Random(n), n)
    kau = iwasawa_kau(g)
    assert kau.k * kau.a * kau.u == g
    assert member_K(kau.k) and member_A(kau.a) and member_U(kau.u)
    uak = iwasawa_uak(g)
    assert uak.u * uak.a * uak.k == g
    assert member_U(uak.u) and member_A(uak.a) and member_K(uak.k)
    bwb = bruhat(g)
    assert bwb.b1 * bwb.w * bwb.b2 == g
    assert member_B(bwb.b1) and member_N(bwb.w) and member_B(bwb.b2)
