import random
from fractions import Fraction

import pytest

from rcg.errors import (
    DegenerateLeadingSpectrum,
    DomainError,
    RepeatedEigenvalue,
    SingularMatrix,
    UnsolvableSpectrum,
)
from rcg.linalg import (
    PUISEUX,
    Matrix,
    char_poly,
    det,
    inverse,
    kernel,
    rank,
    solve,
    sym_eigen_lift,
    sym_eigen_tower,
    tower_roots,
)
from rcg.puiseux import X, PuiseuxScalar
from rcg.tower import TowerScalar, sqrt_positive

F = Fraction


def rand_matrix(rng, n, lo=-9, hi=9):
    return Matrix.tower(
        [[F(rng.randint(lo, hi), rng.randint(1, 5)) for _ in range(n)] for _ in range(n)]
    )


def test_det_basics():
    assert det(Matrix.identity(3)) == 1
    assert det(Matrix.tower([[0, -1], [1, 0]])) == 1
    assert rank(Matrix.tower([[1, 2], [2, 4]])) == 1


def test_det_multiplicative():
    rng = random.Random(2)
    for _ in range(40):
        a, b = rand_matrix(rng, 3), rand_matrix(rng, 3)
        assert det(a * b) == det(a) * det(b)


def test_solve_and_inverse():
    rng = random.Random(4)
    solved = 0
    while solved < 30:
        m = rand_matrix(rng, 3)
        b = Matrix.tower([[F(rng.randint(-5, 5))] for _ in range(3)])
        try:
            x = solve(m, b)
        except SingularMatrix:
            continue
        assert m * x == b
        assert m * inverse(m) == Matrix.identity(3)
        solved += 1


def test_solve_singular_raises():
    with pytest.raises(SingularMatrix):
        solve(Matrix.tower([[1, 2], [2, 4]]), Matrix.tower([[1], [0]]))


def test_kernel():
    basis = kernel(Matrix.tower([[1, 2], [2, 4]]))
    assert len(basis) == 1
    v = basis[0]
    assert v[0] + 2 * v[1] == 0


def test_char_poly_examples():
    cp = char_poly(Matrix.tower([[2, 0], [0, F(1, 2)]]))
    assert cp[1] == F(-5, 2) and cp[2] == 1
    cp = char_poly(Matrix.zeros(2, 2))
    assert cp[1] == 0 and cp[2] == 0
    cp = char_poly(Matrix.tower([[2, 1], [1, 1]]))
    assert cp[1] == -3 and cp[2] == 1


def test_char_poly_trace_det_anchors():
    rng = random.Random(6)
    for n in (2, 3):
        for _ in range(20):
            m = rand_matrix(rng, n)
            cp = char_poly(m)
            assert cp[1] == -m.trace()
            assert cp[-1] == det(m) * (-1) ** n


def test_tower_roots_quadratic():
    # x^2 - 3x + 1: roots (3 +- sqrt(5)) / 2
    roots = tower_roots([1, -3, 1])
    r5 = sqrt_positive(5)
    assert any(r == (3 + r5) / 2 for r in roots)
    assert any(r == (3 - r5) / 2 for r in roots)


def test_tower_roots_cubic_rational():
    # (x - 2)(x^2 - 2) has rational root 2 then quadratic split
    roots = tower_roots([1, -2, -2, 4])
    r2 = sqrt_positive(2)
    assert any(r == 2 for r in roots)
    assert any(r == r2 for r in roots)
    assert any(r == -r2 for r in roots)


def test_tower_roots_unsolvable():
    with pytest.raises(UnsolvableSpectrum):
        tower_roots([1, 0, 0, -2])  # x^3 = 2 needs a cube root


def test_sym_eigen_tower_diagonal():
    lams, v = sym_eigen_tower(Matrix.tower([[4, 0], [0, 1]]))
    assert lams[0] == 4 and lams[1] == 1
    assert v == Matrix.identity(2)


def test_sym_eigen_tower_worked():
    s = Matrix.tower([[2, 1], [1, 1]])
    lams, v = sym_eigen_tower(s)
    r5 = sqrt_positive(5)
    assert lams[0] == (3 + r5) / 2
    assert lams[1] == (3 - r5) / 2
    lam_mat = Matrix.tower([[lams[0], 0], [0, lams[1]]])
    assert s * v == v * lam_mat
    assert v.transpose() * v == Matrix.identity(2)
    assert det(v) == 1


def test_sym_eigen_tower_repeated_raises():
    with pytest.raises(RepeatedEigenvalue):
        sym_eigen_tower(Matrix.identity(2))


def test_sym_eigen_tower_random_3x3_rational_spectrum():
    rng = random.Random(8)
    for _ in range(10):
        d = sorted({rng.randint(-9, 9) for _ in range(5)})[:3]
        if len(d) < 3:
            continue
        # conjugate a diagonal by an exact rotation to get a symmetric matrix
        t = F(rng.randint(-3, 3), rng.randint(1, 3))
        c, s_ = (1 - t * t) / (1 + t * t), 2 * t / (1 + t * t)
        q = Matrix.tower([[c, -s_, 0], [s_, c, 0], [0, 0, 1]])
        s = q * Matrix.tower([[d[0], 0, 0], [0, d[1], 0], [0, 0, d[2]]]) * q.transpose()
        lams, v = sym_eigen_tower(s)
        assert sorted(float(l) for l in lams) == sorted(float(x) for x in d)
        assert v.transpose() * v == Matrix.identity(3)
        lam_mat = Matrix.tower(
            [[lams[i] if i == j else 0 for j in range(3)] for i in range(3)]
        )
        assert s * v == v * lam_mat


def _assert_known_zero(p: PuiseuxScalar):
    for e, c in p.terms:
        assert c.is_zero(), f"unexpected known term at exponent {e}"


def test_sym_eigen_lift_diagonal():
    s = Matrix.puiseux([[X * X, 0], [0, 1]])
    lift = sym_eigen_lift(s, 6)
    assert lift.eigenvalues[0].lead() == (2, TowerScalar.coerce(1))
    assert lift.eigenvalues[1].lead() == (0, TowerScalar.coerce(1))


def test_sym_eigen_lift_worked():
    s = Matrix.puiseux([[X * X, 1], [1, 1]])
    lift = sym_eigen_lift(s, 6)
    l1, l2 = lift.eigenvalues
    # frozen leading behaviour (derived by substitution): l1 = X^2 + X^-2 - ...,
    # l2 = 1 - X^-2 + ...
    assert l1.coefficient(2) == 1
    assert l1.coefficient(0) == 0
    assert l1.coefficient(-2) == 1
    assert l2.coefficient(0) == 1
    assert l2.coefficient(-2) == -1
    # trace and determinant anchors through the certified order
    _assert_known_zero(l1 + l2 - s.trace())
    _assert_known_zero(l1 * l2 - det(s))
    # residuals
    v = lift.eigenvectors
    for idx, lam in enumerate(lift.eigenvalues):
        col = [v.data[i][idx] for i in range(2)]
        for i in range(2):
            res = s.data[i][0] * col[0] + s.data[i][1] * col[1] - lam * col[i]
            _assert_known_zero(res)
        norm = col[0] * col[0] + col[1] * col[1] - 1
        _assert_known_zero(norm)


def test_sym_eigen_lift_eigenvectors_have_det_one():
    # descending eigenvalues X^2, 1 put e2 before e1: the raw basis has det -1
    lift = sym_eigen_lift(Matrix.puiseux([[1, 0], [0, X * X]]))
    assert PUISEUX.vanishes(det(lift.eigenvectors) - 1)
    assert lift.certified_order == 8
    with pytest.raises(DomainError, match="needs a Puiseux matrix"):
        sym_eigen_lift(Matrix.tower([[2, 1], [1, 1]]))


def test_sym_eigen_lift_degenerate():
    s = Matrix.puiseux([[X, X], [X, X]])
    with pytest.raises(DegenerateLeadingSpectrum):
        sym_eigen_lift(s, 4)


def test_sym_eigen_lift_mixed_scales_random():
    rng = random.Random(12)
    for _ in range(10):
        a = rng.randint(1, 4)
        c = F(rng.randint(1, 9), rng.randint(1, 3))
        s = Matrix.puiseux(
            [[PuiseuxScalar.monomial(c, a), 1], [1, PuiseuxScalar.monomial(1, 0)]]
        )
        lift = sym_eigen_lift(s, 6)
        _assert_known_zero(lift.eigenvalues[0] + lift.eigenvalues[1] - s.trace())
        _assert_known_zero(lift.eigenvalues[0] * lift.eigenvalues[1] - det(s))
        v = lift.eigenvectors
        for idx, lam in enumerate(lift.eigenvalues):
            col = [v.data[i][idx] for i in range(2)]
            for i in range(2):
                res = s.data[i][0] * col[0] + s.data[i][1] * col[1] - lam * col[i]
                _assert_known_zero(res)


def test_shape_mismatch_is_a_domain_error():
    two, three = Matrix.identity(2), Matrix.identity(3)
    wide = Matrix.tower([[1, 2, 3], [4, 5, 6]])
    for op in (
        lambda: two + three,
        lambda: three - two,
        lambda: two + wide,
        lambda: two * three,
        lambda: solve(three, two),
        lambda: solve(wide, two),
        lambda: det(wide),
        lambda: char_poly(wide),
    ):
        with pytest.raises(DomainError):
            op()
    assert (two + two) == two * 2 and (wide - wide) == wide * 0
