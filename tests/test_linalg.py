import random
from fractions import Fraction
from itertools import permutations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rcg.errors import (
    DegenerateLeadingSpectrum,
    DomainError,
    IndeterminateSign,
    RepeatedEigenvalue,
    SingularMatrix,
    UnsolvableSpectrum,
)
from rcg import linalg
from rcg.linalg import (
    PUISEUX,
    TOWER,
    Matrix,
    _adjugate_column,
    _special_orthogonal,
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

from _references import (
    fraction_det,
    fraction_kernel,
    fraction_product,
    fraction_rank,
    fraction_solve,
)

F = Fraction


def rand_matrix(rng, n, lo=-9, hi=9):
    return Matrix.tower(
        [[F(rng.randint(lo, hi), rng.randint(1, 5)) for _ in range(n)] for _ in range(n)]
    )


def test_diagonal_and_unit_constructors():
    d = Matrix.diagonal([2, F(1, 3), -1])
    assert d == Matrix.tower([[2, 0, 0], [0, F(1, 3), 0], [0, 0, -1]])
    assert d.domain is TOWER
    assert Matrix.identity(3) == Matrix.diagonal([1, 1, 1])
    e = Matrix.unit(3, 0, 2, F(5, 2))
    assert e == Matrix.tower([[0, 0, F(5, 2)], [0, 0, 0], [0, 0, 0]])
    assert Matrix.unit(2, 1, 0) == Matrix.tower([[0, 0], [1, 0]])
    # x E_ij E_jk = x E_ik, and E_ij E_kl = 0 for j != k
    assert e * Matrix.unit(3, 2, 1) == Matrix.unit(3, 0, 1, F(5, 2))
    assert e * Matrix.unit(3, 1, 0) == Matrix.zeros(3, 3)
    p = Matrix.diagonal([X, 1], PUISEUX)
    assert p.domain is PUISEUX and p[0, 0] == X and p[1, 0] == 0
    assert Matrix.unit(2, 0, 1, X, PUISEUX)[0, 1] == X


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


def test_tower_roots_lists_the_leading_divisors_once(monkeypatch):
    # (x - 3)(x^2 - 2): the search tries p = 1, 2, 3 and must not factor the
    # leading coefficient again for each of them
    calls = []
    divisors = linalg._divisors

    def counted(n):
        calls.append(n)
        return divisors(n)

    monkeypatch.setattr(linalg, "_divisors", counted)
    roots = tower_roots([1, -3, -2, 6])
    assert roots[0] == 3
    assert len(calls) == 2
    # (x - 1/2)(x^2 - 2): a root with a denominator, found through q = 2
    assert tower_roots([1, F(-1, 2), -2, 1])[0] == F(1, 2)


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


@pytest.mark.parametrize("n", [2, 3])
def test_sym_eigen_tower_frame_has_det_exactly_one(n):
    """Random symmetric inputs; for n = 3 a rational eigenvalue and a
    quadratic pair, so the columns carry different radicals."""
    rng = random.Random(60 + n)
    for _ in range(8):
        if n == 2:
            a, b, c = (F(rng.randint(-9, 9), rng.randint(1, 4)) for _ in range(3))
            if b == 0:
                continue
            s = Matrix.tower([[a, b], [b, c]])
        else:
            p, q, r, d = (F(rng.randint(-9, 9), rng.randint(1, 4)) for _ in range(4))
            if q == 0:
                continue
            t = F(rng.randint(-3, 3), rng.randint(1, 3))
            c_, s_ = (1 - t * t) / (1 + t * t), 2 * t / (1 + t * t)
            rot = Matrix.tower([[1, 0, 0], [0, c_, -s_], [0, s_, c_]])
            block = Matrix.tower([[d, 0, 0], [0, p, q], [0, q, r]])
            s = rot * block * rot.transpose()
        try:
            lams, v = sym_eigen_tower(s)
        except RepeatedEigenvalue:
            continue
        assert det(v) == 1
        assert v.transpose() * v == Matrix.identity(n)


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


# ---------------------------------------------------------------------------
# the rational kernel: depth-0 tower matrices against plain Fraction code

def _fractions(values):
    """The Fractions held by depth-0 TowerScalars; fails on anything else."""
    out = []
    for x in values:
        assert isinstance(x, TowerScalar) and x.tower.depth == 0
        assert type(x.coeffs[0]) is Fraction
        out.append(x.coeffs[0])
    return out


def _rows(m):
    return [_fractions(row) for row in m.data]


def _frac_product(a, b):
    return [
        [sum((a[i][k] * b[k][j] for k in range(len(b))), F(0)) for j in range(len(b[0]))]
        for i in range(len(a))
    ]


def _frac_rank(rows):
    rows = [list(r) for r in rows]
    rank_ = 0
    for c in range(len(rows[0])):
        pivot = next((i for i in range(rank_, len(rows)) if rows[i][c]), None)
        if pivot is None:
            continue
        rows[rank_], rows[pivot] = rows[pivot], rows[rank_]
        for i in range(len(rows)):
            if i != rank_ and rows[i][c]:
                f = rows[i][c] / rows[rank_][c]
                rows[i] = [x - f * y for x, y in zip(rows[i], rows[rank_])]
        rank_ += 1
    return rank_


def _frac_det(rows):
    """Leibniz formula."""
    n = len(rows)
    total = F(0)
    for perm in permutations(range(n)):
        inversions = sum(perm[i] > perm[j] for i in range(n) for j in range(i + 1, n))
        term = F(-1) ** inversions
        for i in range(n):
            term *= rows[i][perm[i]]
        total += term
    return total


_small_fractions = st.builds(F, st.integers(-4, 4), st.integers(1, 4))


@st.composite
def _rational_rows(draw, nrows, ncols):
    """Rows of small rationals, often with a zero row or a row that is a
    multiple of another (so rank-deficient)."""
    rows = [[draw(_small_fractions) for _ in range(ncols)] for _ in range(nrows)]
    if nrows > 1:
        i, j = draw(st.permutations(range(nrows)))[:2]
        shape = draw(st.sampled_from(("random", "zero row", "dependent row")))
        if shape == "zero row":
            rows[i] = [F(0)] * ncols
        elif shape == "dependent row":
            c = draw(_small_fractions)
            rows[i] = [c * x for x in rows[j]]
    return rows


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_rational_kernel_ring_operations_match_fractions(data):
    n, k, m = (data.draw(st.integers(1, 4)) for _ in range(3))
    a, b = data.draw(_rational_rows(n, k)), data.draw(_rational_rows(n, k))
    c = data.draw(_rational_rows(k, m))
    s = data.draw(_small_fractions)
    am, bm, cm = Matrix.tower(a), Matrix.tower(b), Matrix.tower(c)
    assert _rows(am * cm) == _frac_product(a, c)
    assert _rows(am + bm) == [[x + y for x, y in zip(r, q)] for r, q in zip(a, b)]
    assert _rows(am - bm) == [[x - y for x, y in zip(r, q)] for r, q in zip(a, b)]
    scaled = [[x * s for x in r] for r in a]
    for product in (am * s, s * am, am * TowerScalar.coerce(s)):
        assert _rows(product) == scaled
    assert _rows(am * 3) == [[3 * x for x in r] for r in a]
    assert rank(am) == _frac_rank(a)
    basis = kernel(am)
    assert len(basis) == k - _frac_rank(a)
    if basis:
        vectors = [_fractions(v) for v in basis]
        assert _frac_rank(vectors) == len(vectors)
        assert _frac_product(a, [list(col) for col in zip(*vectors)]) == [
            [F(0)] * len(vectors) for _ in range(n)
        ]


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_rational_kernel_square_operations_match_fractions(data):
    n, k = data.draw(st.integers(1, 4)), data.draw(st.integers(1, 3))
    a, rhs = data.draw(_rational_rows(n, n)), data.draw(_rational_rows(n, k))
    am = Matrix.tower(a)
    d = _frac_det(a)
    assert _fractions([det(am)]) == [d]
    assert _fractions([am.trace()]) == [sum((a[i][i] for i in range(n)), F(0))]
    coeffs = _fractions(char_poly(am))
    for t in range(n + 1):
        shifted = [[(t if i == j else 0) - a[i][j] for j in range(n)] for i in range(n)]
        assert sum(c * t ** (n - i) for i, c in enumerate(coeffs)) == _frac_det(shifted)
    if d == 0:
        with pytest.raises(SingularMatrix):
            solve(am, Matrix.tower(rhs))
    else:
        assert _frac_product(a, _rows(solve(am, Matrix.tower(rhs)))) == rhs
        assert _frac_product(a, _rows(inverse(am))) == [
            [F(int(i == j)) for j in range(n)] for i in range(n)
        ]


def test_rational_kernel_makes_no_tower_arithmetic(monkeypatch):
    a = [[1, F(1, 2), 0, 3], [F(-2, 3), 1, 4, 0], [0, 0, F(5, 4), 1], [2, -1, 0, F(1, 3)]]
    b = [[F(1, 2), 0], [1, F(-3, 2)], [0, 2], [F(1, 5), 1]]
    am, bm = Matrix.tower(a), Matrix.tower(b)

    def refuse(*args):
        raise AssertionError("TowerScalar arithmetic on a depth-0 matrix")

    for name in ("__add__", "__radd__", "__sub__", "__rsub__", "__mul__", "__rmul__"):
        monkeypatch.setattr(TowerScalar, name, refuse)
    product, r, x = am * bm, rank(am), solve(am, bm)
    d, coeffs = det(am), char_poly(am)
    monkeypatch.undo()
    assert _rows(product) == _frac_product(a, b)
    assert r == 4 and _frac_product(a, _rows(x)) == b
    assert _fractions([d]) == [_frac_det(a)] and len(_fractions(coeffs)) == 5


# ---------------------------------------------------------------------------
# the integer kernel against the Fraction elimination and product it replaced

#: small rationals, and rationals with large denominators
_wide_fractions = st.one_of(
    _small_fractions,
    st.builds(F, st.integers(-10**12, 10**12), st.integers(1, 10**15)),
)


@st.composite
def _kernel_rows(draw, nrows, ncols):
    """Rows of rationals, drawn whole (random, zero, or of a drawn rank
    below full) or with one row made a multiple of another."""
    shape = draw(st.sampled_from(("random", "zero", "low rank", "dependent row")))
    if shape == "zero":
        return [[F(0)] * ncols for _ in range(nrows)]
    if shape == "low rank":
        r = draw(st.integers(1, max(1, min(nrows, ncols) - 1)))
        left = [[draw(_small_fractions) for _ in range(r)] for _ in range(nrows)]
        right = [[draw(_wide_fractions) for _ in range(ncols)] for _ in range(r)]
        return fraction_product(left, right)
    rows = [[draw(_wide_fractions) for _ in range(ncols)] for _ in range(nrows)]
    if shape == "dependent row" and nrows > 1:
        i, j = draw(st.permutations(range(nrows)))[:2]
        c = draw(_wide_fractions)
        rows[i] = [c * x for x in rows[j]]
    return rows


def _held(rows, form):
    """The matrix of these rows, held as its integer form or as
    TowerScalars."""
    return linalg._lift(linalg._Q, rows) if form else Matrix.tower(rows)


def _same(m, rows):
    """m has these Fraction rows, and equals the matrix built from
    TowerScalars both ways round."""
    built = Matrix.tower(rows)
    return _rows(m) == rows and m == built and built == m


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_integer_kernel_matches_the_fraction_reference(data):
    n, k, m = (data.draw(st.integers(1, 6)) for _ in range(3))
    a, b = data.draw(_kernel_rows(n, k)), data.draw(_kernel_rows(n, k))
    c = data.draw(_kernel_rows(k, m))
    s = data.draw(_wide_fractions)
    am, bm, cm = (_held(rows, data.draw(st.booleans())) for rows in (a, b, c))
    assert _same(am * cm, fraction_product(a, c))
    assert _same(am + bm, [[x + y for x, y in zip(r, q)] for r, q in zip(a, b)])
    assert _same(am - bm, [[x - y for x, y in zip(r, q)] for r, q in zip(a, b)])
    assert _same(-am, [[-x for x in r] for r in a])
    assert _same(am.transpose(), [list(col) for col in zip(*a)])
    scaled = [[x * s for x in r] for r in a]
    for product in (am * s, s * am, am * TowerScalar.coerce(s)):
        assert _same(product, scaled)
    assert rank(am) == fraction_rank(a)
    assert [_fractions(v) for v in kernel(am)] == fraction_kernel(a)


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_integer_kernel_square_operations_match_the_fraction_reference(data):
    n, k = data.draw(st.integers(1, 6)), data.draw(st.integers(1, 3))
    a, rhs = data.draw(_kernel_rows(n, n)), data.draw(_kernel_rows(n, k))
    am, rm = _held(a, data.draw(st.booleans())), _held(rhs, data.draw(st.booleans()))
    assert _fractions([det(am)]) == [fraction_det(a)]
    x = fraction_solve(a, rhs)
    if x is None:
        for call in (lambda: solve(am, rm), lambda: inverse(am)):
            with pytest.raises(SingularMatrix):
                call()
    else:
        assert _same(solve(am, rm), x)
        identity = [[F(int(i == j)) for j in range(n)] for i in range(n)]
        assert _same(inverse(am), fraction_solve(a, identity))


def test_integer_forms_are_reduced_and_canonical():
    """Equal matrices reached by different operations hold the same form,
    reduced by its gcd; the zero matrix's is over 1."""
    a = Matrix.tower([[F(1, 2), F(3, 4)], [F(-5, 6), 2]])
    twice = a + a
    assert linalg._lower(twice) == linalg._lower(a * 2) == ([[6, 9], [-10, 24]], 6)
    assert linalg._lower(a - a) == ([[0, 0], [0, 0]], 1)
    assert (a - a)._form is not None and Matrix.zeros(2, 2) == a - a


def test_rational_kernel_falls_back_on_a_radical():
    r2 = sqrt_positive(TowerScalar.coerce(2))
    zero = TowerScalar.coerce(0)
    a = Matrix.tower([[1, F(1, 2)], [F(-3), F(2, 3)]])
    b = Matrix.tower([[r2, 1], [0, r2]])

    def generic(p, q):
        return [
            [sum((p[i, k] * q[k, j] for k in range(2)), zero) for j in range(2)]
            for i in range(2)
        ]

    for got, want in (
        (a * b, generic(a, b)),
        (b * a, generic(b, a)),
        (a * r2, [[a[i, j] * r2 for j in range(2)] for i in range(2)]),
    ):
        assert got == Matrix.tower(want)
        assert all(x.tower == r2.tower for row in got.data for x in row)
    assert a + b == Matrix.tower([[a[i, j] + b[i, j] for j in range(2)] for i in range(2)])
    assert a * solve(a, b) == b


# ---------------------------------------------------------------------------
# the eigen lift's one adjugate column and the sign of det(V)

def _leibniz_det(rows):
    n = len(rows)
    total = 0
    for perm in permutations(range(n)):
        inversions = sum(perm[i] > perm[j] for i in range(n) for j in range(i + 1, n))
        term = 1
        for i in range(n):
            term = term * rows[i][perm[i]]
        total = total + term if inversions % 2 == 0 else total - term
    return total


def _leibniz_adjugate(rows):
    """adj(m)[i][j] = (-1)^(i+j) det(m without row j and column i)."""
    n = len(rows)
    if n == 1:
        return [[1]]

    def minor(r, c):
        return [[x for k, x in enumerate(row) if k != c] for q, row in enumerate(rows) if q != r]

    return [[(-1) ** (i + j) * _leibniz_det(minor(j, i)) for j in range(n)] for i in range(n)]


@pytest.mark.parametrize("field", ["tower", "puiseux"])
@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_one_adjugate_column_matches_leibniz(field, n):
    rng = random.Random(n)
    r2 = sqrt_positive(2)

    def entry():
        x = F(rng.randint(-3, 3), rng.randint(1, 2)) + rng.randint(-1, 1) * r2
        if field == "tower":
            return x
        tail = rng.choice([None, -3])
        return PuiseuxScalar(((rng.randint(-1, 1), x), (-1, F(rng.randint(-2, 2)))), tail)

    m = Matrix.tower([[entry() for _ in range(n)] for _ in range(n)]) if field == "tower" \
        else Matrix.puiseux([[entry() for _ in range(n)] for _ in range(n)])
    adj = _leibniz_adjugate(m.data)
    for j in range(n):
        assert _adjugate_column(m.data, j, m.domain) == [adj[i][j] for i in range(n)]


def test_det_sign_of_v_is_read_at_x0():
    c, s = F(3, 5), F(4, 5)
    flipped = _special_orthogonal([[c, s], [s, -c]], TOWER)  # det -1
    assert det(flipped) == 1
    # the same columns plus terms below X^0: only X^0 decides
    p = PuiseuxScalar.coerce
    tail = PuiseuxScalar((), tail=-2)
    v = _special_orthogonal([[c + X ** -1, p(s)], [s + tail, p(-c)]], PUISEUX)
    assert v[0, 1] == -(s + tail) and v[1, 1] == c
    # an X^0 coefficient below a tail is unknown
    with pytest.raises(IndeterminateSign):
        _special_orthogonal([[PuiseuxScalar(((-1, 1),), tail=1), p(0)], [p(0), p(1)]], PUISEUX)
    # det(V0) = 0: the sign of det(V) is not at X^0
    with pytest.raises(IndeterminateSign):
        _special_orthogonal([[p(1), p(0)], [p(0), X ** -1]], PUISEUX)


@pytest.mark.parametrize("domain", [linalg.TOWER, linalg.PUISEUX, linalg._Q],
                         ids=["tower", "puiseux", "rationals"])
def test_dot_returns_the_domains_type_for_empty_and_plain_input(domain):
    kind = type(domain.zero)
    empty, plain = linalg._dot((), (), domain), linalg._dot([1, 2], [F(1, 2), 3], domain)
    assert type(empty) is kind and empty == 0
    assert type(plain) is kind and plain == F(13, 2)


def test_dot_of_series_makes_one_sum_fewer_than_it_has_products(monkeypatch):
    u = [X + 1, 2 * X, X.invert()]
    v = [X, 1 - X.invert(), 3 * X]
    expected = u[0] * v[0] + u[1] * v[1] + u[2] * v[2]
    sums = []
    add = PuiseuxScalar.__add__

    def counting(a, b):
        sums.append(b)
        return add(a, b)

    monkeypatch.setattr(PuiseuxScalar, "__add__", counting)
    assert linalg._dot(u, v, linalg.PUISEUX) == expected
    assert len(sums) == 2
