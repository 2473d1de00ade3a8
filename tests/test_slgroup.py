import random
from fractions import Fraction
from itertools import permutations, product

import pytest

import rcg.slgroup

from rcg.errors import DomainError
from rcg.linalg import PUISEUX, TOWER, Matrix, det
from rcg.slgroup import (
    GroupElement,
    _signed_permutation,
    _signed_permutation_det,
    RootIndex,
    b_theta,
    chi,
    conj_root_vector,
    killing_form,
    m_elements,
    member_A,
    member_B,
    member_K,
    member_M,
    member_N,
    member_U,
    n_elements,
    positive_roots,
    root_space_decompose,
    theta,
)

from _references import n_mod_m_classes, weyl_reps_sl3

F = Fraction


def E(n, i, j, c=1):
    return Matrix.tower([[c if (a, b) == (i, j) else 0 for b in range(n)] for a in range(n)])


def diag(*entries):
    n = len(entries)
    return GroupElement.tower(
        [[entries[i] if i == j else 0 for j in range(n)] for i in range(n)]
    )


def test_group_element_det_check():
    with pytest.raises(DomainError):
        GroupElement.tower([[2, 0], [0, 2]])


def test_memberships_identity():
    g = GroupElement.identity(3)
    assert all(
        f(g) for f in (member_K, member_A, member_U, member_M, member_N, member_B)
    )


def test_memberships_examples():
    a = diag(2, F(1, 2))
    assert member_A(a) and member_B(a) and not member_K(a)
    r = GroupElement.tower([[0, -1], [1, 0]])
    assert member_K(r) and member_N(r) and not member_A(r)
    u = GroupElement.tower([[1, 5], [0, 1]])
    assert member_U(u) and member_B(u) and not member_N(u)
    m = diag(-1, -1, 1)
    assert member_M(m) and member_N(m) and member_A(diag(1, 1, 1))
    assert not member_A(m)
    assert not member_N(a) and not member_U(a) and not member_U(u.transpose())
    # one nonzero entry per row, but two in one column
    assert not member_N(GroupElement._unchecked(Matrix.tower([[1, 0], [1, 0]])))


def test_theta():
    x = E(2, 0, 1)
    assert theta(x) == -E(2, 1, 0)
    d = Matrix.tower([[1, 0], [0, -1]])
    assert theta(d) == -d
    rng = random.Random(1)
    for _ in range(20):
        m = Matrix.tower([[rng.randint(-5, 5) for _ in range(3)] for _ in range(3)])
        assert theta(theta(m)) == m


def test_root_space_decompose():
    x = E(3, 0, 1)
    dec = root_space_decompose(x)
    assert list(dec.components) == [RootIndex(0, 1)]
    h = Matrix.tower([[1, 0], [0, -1]])
    dec = root_space_decompose(h)
    assert dec.components == {} and dec.zero_part == h
    x = E(3, 0, 1) + E(3, 1, 0)
    dec = root_space_decompose(x)
    assert set(dec.components) == {RootIndex(0, 1), RootIndex(1, 0)}
    assert dec.reconstruct() == x


def test_root_space_bracket_rule():
    # [g_{e_i-e_j}, g_{e_j-e_k}] lies in g_{e_i-e_k}
    rng = random.Random(3)
    for _ in range(20):
        i, j, k = rng.sample(range(3), 3)
        c1 = F(rng.randint(1, 5))
        c2 = F(rng.randint(1, 5))
        x, y = E(3, i, j, c1), E(3, j, k, c2)
        br = x * y - y * x
        dec = root_space_decompose(br)
        assert set(dec.components) <= {RootIndex(i, k)}


def test_killing_form_sl2():
    h = Matrix.tower([[1, 0], [0, -1]])
    assert killing_form(h, h) == 8
    e = E(2, 0, 1)
    assert killing_form(e, e) == 0
    assert b_theta(e, e).sign() == 1
    assert killing_form(e, theta(e)).sign() == -1


def test_killing_shortcut_equivalence():
    rng = random.Random(5)
    for n in (2, 3):
        for _ in range(15):
            x = Matrix.tower([[rng.randint(-4, 4) for _ in range(n)] for _ in range(n)])
            y = Matrix.tower([[rng.randint(-4, 4) for _ in range(n)] for _ in range(n)])
            # project to traceless
            tx = x - Matrix.identity(n) * (x.trace() * F(1, n))
            ty = y - Matrix.identity(n) * (y.trace() * F(1, n))
            assert killing_form(tx, ty) == 2 * n * (tx * ty).trace()


def test_b_theta_positive_definite_sl3():
    from rcg.slgroup import _sl_basis
    from rcg.linalg import TOWER

    basis = _sl_basis(3, TOWER)
    gram = [[b_theta(u, v) for v in basis] for u in basis]
    for i in range(len(basis)):
        for j in range(len(basis)):
            assert gram[i][j] == gram[j][i]
    # leading principal minors all positive
    for k in range(1, len(basis) + 1):
        sub = Matrix.tower([[gram[i][j] for j in range(k)] for i in range(k)])
        assert det(sub).sign() == 1


def test_chi():
    a = diag(2, 1, F(1, 2))
    assert chi(RootIndex(0, 1), a) == 2
    assert chi(RootIndex(0, 2), a) == 4
    i3 = GroupElement.identity(3)
    for alpha in positive_roots(3):
        assert chi(alpha, i3) == 1


def test_chi_multiplicative():
    rng = random.Random(7)
    for _ in range(20):
        d1 = [F(rng.randint(1, 5)), F(rng.randint(1, 5))]
        d1.append(1 / (d1[0] * d1[1]))
        d2 = [F(rng.randint(1, 5)), F(rng.randint(1, 5))]
        d2.append(1 / (d2[0] * d2[1]))
        a, b = diag(*d1), diag(*d2)
        for alpha in positive_roots(3):
            assert chi(alpha, a * b) == chi(alpha, a) * chi(alpha, b)


def test_conj_root_vector():
    a = diag(2, F(1, 2))
    alpha = RootIndex(0, 1)
    out = conj_root_vector(a, alpha, E(2, 0, 1, F(3)))
    assert out == Matrix.identity(2) + E(2, 0, 1, F(12))  # chi = 4
    i2 = GroupElement.identity(2)
    assert conj_root_vector(i2, alpha, E(2, 0, 1)) == Matrix.identity(2) + E(2, 0, 1)


def test_a_normalizes_u():
    rng = random.Random(9)
    for _ in range(20):
        d = [F(rng.randint(1, 6)), F(rng.randint(1, 6))]
        d.append(1 / (d[0] * d[1]))
        a = diag(*d)
        u = GroupElement.tower(
            [
                [1, F(rng.randint(-4, 4)), F(rng.randint(-4, 4))],
                [0, 1, F(rng.randint(-4, 4))],
                [0, 0, 1],
            ]
        )
        assert member_U(a * u * a.inverse())


def test_weyl_reps_sl3_list():
    reps = weyl_reps_sl3()
    assert reps[0] == GroupElement.identity(3)
    assert reps[1] == GroupElement.tower([[0, -1, 0], [1, 0, 0], [0, 0, 1]])
    for r in reps:
        assert member_N(r)


def test_n_mod_m_quotient_is_s3():
    elems = n_elements(3)
    assert len(elems) == 24  # 6 permutations x 4 admissible sign patterns
    assert len(m_elements(3)) == 4
    reps, table = n_mod_m_classes(elems)
    assert len(reps) == 6
    # order profile of the quotient group: S_3 = {1, 2, 2, 2, 3, 3}
    ident = next(i for i in range(6) if all(table[i][j] == j for j in range(6)))
    orders = []
    for i in range(6):
        k, cur = 1, i
        while cur != ident:
            cur = table[cur][i]
            k += 1
        orders.append(k)
    assert sorted(orders) == [1, 2, 2, 2, 3, 3]
    # non-abelian
    assert any(table[i][j] != table[j][i] for i in range(6) for j in range(6))


@pytest.mark.parametrize("domain", [TOWER, PUISEUX], ids=["tower", "puiseux"])
def test_signed_permutation_det_is_det(domain):
    """The determinant read off the shape equals the determinant of the
    matrix, for every signed permutation with n <= 4."""
    for n in range(1, 5):
        for rows_of in permutations(range(n)):
            for signs in product((1, -1), repeat=n):
                m = _signed_permutation(rows_of, signs, domain)
                assert det(m) == domain.coerce(_signed_permutation_det(rows_of, signs))


def test_n_and_m_elements_form_no_determinant(monkeypatch):
    def refuse(m):
        raise AssertionError("a determinant was formed")

    monkeypatch.setattr(rcg.slgroup, "det", refuse)
    n_list, m_list = n_elements(3), m_elements(3)
    monkeypatch.undo()
    assert len({str(g) for g in n_list}) == 24 and len({str(g) for g in m_list}) == 4
    for g in n_list:
        assert det(g.mat) == 1 and member_N(g)
    for g in m_list:
        assert det(g.mat) == 1 and member_M(g)
