import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import rcg.linalg
import rcg.nilpotent
from rcg.errors import (
    DomainError,
    NotInUTheta,
    NotNilpotent,
    NotUnipotent,
    ZeroInput,
    ZeroParameter,
)
from rcg.linalg import Matrix, _dot, commutator, det, inverse, kernel, rank
from rcg.nilpotent import (
    ThetaSet,
    bch,
    bch_partial_sum,
    bch_series_terms,
    exp_nilpotent,
    jacobson_morozov,
    jm_basic_triple,
    log_unipotent,
    m_element,
    psi_split,
    rank1_bruhat_certify,
    root_order_key,
    sl2_embed,
    u_theta_factorize,
    zassenhaus,
)
from rcg.puiseux import PuiseuxScalar, X
from rcg.slgroup import GroupElement, RootIndex, chi, member_N, positive_roots
from rcg.tower import TowerScalar, sqrt_positive

F = Fraction


def E(n, i, j, c=1):
    return Matrix.tower(
        [[c if (a, b) == (i, j) else 0 for b in range(n)] for a in range(n)]
    )


def rand_upper(rng, n, bound=4):
    return Matrix.tower(
        [
            [
                F(rng.randint(-bound, bound), rng.randint(1, 3)) if j > i else 0
                for j in range(n)
            ]
            for i in range(n)
        ]
    )


# ---------------------------------------------------------------------------
# exp / log

def test_exp_basics():
    assert exp_nilpotent(Matrix.zeros(2, 2)) == GroupElement.identity(2)
    t = F(7, 3)
    assert exp_nilpotent(E(2, 0, 1, t)) == GroupElement.tower([[1, t], [0, 1]])


def test_log_worked_example():
    u = GroupElement.tower([[1, 1, 1], [0, 1, 1], [0, 0, 1]])
    assert log_unipotent(u) == E(3, 0, 1) + E(3, 1, 2) + E(3, 0, 2, F(1, 2))


def test_exp_log_errors():
    with pytest.raises(NotNilpotent):
        exp_nilpotent(Matrix.identity(2))
    with pytest.raises(NotUnipotent):
        log_unipotent(GroupElement.tower([[2, 0], [0, F(1, 2)]]))


def test_exp_log_inverse_random():
    rng = random.Random(101)
    for _ in range(300):
        n = rng.choice([2, 3, 4])
        x = rand_upper(rng, n)
        assert log_unipotent(exp_nilpotent(x)) == x


# ---------------------------------------------------------------------------
# BCH

def test_bch_trivial_cases():
    x = E(3, 0, 1)
    zero = Matrix.zeros(3, 3)
    assert bch(x, zero) == x
    y = E(3, 0, 2)  # commutes with x
    assert bch(x, y) == x + y


def test_bch_worked_example():
    z = bch(E(3, 0, 1), E(3, 1, 2))
    assert z == E(3, 0, 1) + E(3, 1, 2) + E(3, 0, 2, F(1, 2))


def test_bch_requires_strictly_upper():
    with pytest.raises(NotNilpotent):
        bch(E(2, 0, 1), E(2, 1, 0))


def test_dynkin_degree3_matches_printed_coefficients():
    # through degree 3 the series is X + Y + (1/2)[X,Y]
    # + (1/12)([X,[X,Y]] + [Y,[Y,X]]); on sl_4 strictly uppers every
    # degree >= 4 bracket vanishes, so the partial sum equals the exact log.
    rng = random.Random(103)
    for _ in range(30):
        x, y = rand_upper(rng, 4), rand_upper(rng, 4)
        xy = commutator(x, y)
        closed = (
            x
            + y
            + xy * F(1, 2)
            + (commutator(x, xy) + commutator(y, commutator(y, x))) * F(1, 12)
        )
        assert bch_partial_sum(x, y, 3) == closed
        assert bch(x, y) == closed


def test_dynkin_degree4_single_term():
    # degree-4 component collapses to -(1/24)[Y,[X,[X,Y]]]: a free-Lie
    # identity, so it holds for arbitrary matrices; check sl_4 uppers (where
    # both sides vanish) and dense 3x3 integer matrices (where they do not)
    rng = random.Random(107)
    for _ in range(10):
        x, y = rand_upper(rng, 4), rand_upper(rng, 4)
        d4 = bch_series_terms(x, y, 4)[4]
        expected = commutator(y, commutator(x, commutator(x, y))) * F(-1, 24)
        assert d4 == expected
    for _ in range(10):
        x = Matrix.tower([[rng.randint(-3, 3) for _ in range(3)] for _ in range(3)])
        y = Matrix.tower([[rng.randint(-3, 3) for _ in range(3)] for _ in range(3)])
        d4 = bch_series_terms(x, y, 4)[4]
        expected = commutator(y, commutator(x, commutator(x, y))) * F(-1, 24)
        assert d4 == expected


# ---------------------------------------------------------------------------
# Zassenhaus

def test_zassenhaus_commuting():
    x, y = E(3, 0, 1), E(3, 0, 2)
    factors = zassenhaus(x, y)
    for f in factors[2:]:
        assert f == Matrix.zeros(3, 3)


def test_zassenhaus_rejects_non_upper():
    with pytest.raises(NotNilpotent):
        zassenhaus(E(2, 0, 1), E(2, 1, 0))


def test_zassenhaus_printed_factors_close_sl4():
    # in sl_4 the printed c2, c3 close the expansion: no residual remains
    rng = random.Random(109)
    for _ in range(20):
        x, y = rand_upper(rng, 4), rand_upper(rng, 4)
        factors = zassenhaus(x, y)
        assert len(factors) == 4
        xy = commutator(x, y)
        assert factors[2] == xy * F(-1, 2)
        assert factors[3] == commutator(y, xy) * F(1, 3) + commutator(x, xy) * F(1, 6)


def test_zassenhaus_reconstructs_sl5():
    rng = random.Random(113)
    for _ in range(5):
        x, y = rand_upper(rng, 5, 2), rand_upper(rng, 5, 2)
        factors = zassenhaus(x, y)
        prod = GroupElement.identity(5)
        for f in factors:
            prod = prod * exp_nilpotent(f)
        assert prod == exp_nilpotent(x + y)


def test_bch_example_reconstruction():
    x, y = E(3, 0, 1), E(3, 0, 2) + E(3, 1, 2)
    factors = zassenhaus(x, y)
    prod = GroupElement.identity(3)
    for f in factors:
        prod = prod * exp_nilpotent(f)
    assert prod == exp_nilpotent(x + y)


# ---------------------------------------------------------------------------
# U_Theta factorisation

def test_theta_set_validation():
    ThetaSet(3, [RootIndex(0, 1), RootIndex(1, 2), RootIndex(0, 2)])
    with pytest.raises(DomainError):
        ThetaSet(3, [RootIndex(0, 1), RootIndex(1, 2)])  # missing the sum
    with pytest.raises(DomainError):
        ThetaSet(3, [RootIndex(1, 0)])  # negative root


def test_root_order_is_lex_by_simple_coordinates():
    n = 3
    hi = RootIndex(0, 2)
    assert root_order_key(hi, n) > root_order_key(RootIndex(0, 1), n)
    assert root_order_key(RootIndex(0, 1), n) > root_order_key(RootIndex(1, 2), n)


def test_u_theta_factorize_worked_example():
    u = exp_nilpotent(E(3, 0, 1) + E(3, 1, 2))
    theta = ThetaSet.all_positive(3)
    factors = u_theta_factorize(u, theta)
    assert [alpha for alpha, _ in factors] == [
        RootIndex(0, 2),
        RootIndex(0, 1),
        RootIndex(1, 2),
    ]
    by_root = {alpha: comp for alpha, comp in factors}
    assert by_root[RootIndex(0, 2)] == E(3, 0, 2, F(-1, 2))
    prod = GroupElement.identity(3)
    for _, comp in factors:
        prod = prod * exp_nilpotent(comp)
    assert prod == u


def test_u_theta_factorize_trivial_cases():
    theta = ThetaSet.all_positive(3)
    u = exp_nilpotent(E(3, 0, 1, F(5)))
    factors = u_theta_factorize(u, theta)
    prod = GroupElement.identity(3)
    for _, comp in factors:
        prod = prod * exp_nilpotent(comp)
    assert prod == u
    ident = GroupElement.identity(3)
    assert all(
        comp == Matrix.zeros(3, 3) for _, comp in u_theta_factorize(ident, theta)
    )


def test_u_theta_factorize_not_in_theta():
    theta = ThetaSet(3, [RootIndex(1, 2)])
    u = exp_nilpotent(E(3, 0, 1))
    with pytest.raises(NotInUTheta):
        u_theta_factorize(u, theta)


def test_u_theta_factorize_random_sl4():
    rng = random.Random(127)
    theta = ThetaSet.all_positive(4)
    for _ in range(25):
        u = exp_nilpotent(rand_upper(rng, 4))
        factors = u_theta_factorize(u, theta)
        keys = [root_order_key(alpha, 4) for alpha, _ in factors]
        assert keys == sorted(keys, reverse=True)
        prod = GroupElement.identity(4)
        for _, comp in factors:
            prod = prod * exp_nilpotent(comp)
        assert prod == u


def test_normalizer_conjugation_stays_in_theta():
    # with Theta-union-{alpha} closed and alpha above all of Theta,
    # exp(g_alpha) normalises U_Theta
    rng = random.Random(131)
    alpha = RootIndex(0, 3)
    theta = ThetaSet(4, [RootIndex(1, 3), RootIndex(2, 3)])
    assert all(root_order_key(alpha, 4) > root_order_key(b, 4) for b in theta.roots)
    for _ in range(20):
        u = exp_nilpotent(
            E(4, 1, 3, F(rng.randint(-4, 4), 3)) + E(4, 2, 3, F(rng.randint(-4, 4)))
        )
        w = exp_nilpotent(E(4, alpha.i, alpha.j, F(rng.randint(-5, 5), 2)))
        conj = w * u * w.inverse()
        u_theta_factorize(conj, theta)  # raises if support escapes


def test_psi_split_random():
    rng = random.Random(137)
    theta = ThetaSet.all_positive(4)
    all_roots = sorted(theta.roots, key=lambda a: root_order_key(a, 4))
    for _ in range(15):
        u = exp_nilpotent(rand_upper(rng, 4))
        psi = {a for a in all_roots if rng.random() < 0.5}
        u1, u2 = psi_split(u, theta, psi)
        assert u1 * u2 == u
        # u1 is supported on Psi, u2 on the complement
        for alpha, comp in u_theta_factorize(u1, theta):
            if comp != Matrix.zeros(4, 4):
                assert alpha in psi
        for alpha, comp in u_theta_factorize(u2, theta):
            if comp != Matrix.zeros(4, 4):
                assert alpha not in psi


# ---------------------------------------------------------------------------
# Jacobson-Morozov

def test_jm_sl2():
    triple = jacobson_morozov(E(2, 0, 1))
    assert triple.h == Matrix.tower([[1, 0], [0, -1]])
    assert triple.y == E(2, 1, 0)


def test_jm_regular_sl3():
    x = E(3, 0, 1) + E(3, 1, 2)
    triple = jacobson_morozov(x)
    assert triple.h == Matrix.tower([[2, 0, 0], [0, 0, 0], [0, 0, -2]])
    assert triple.y == E(3, 1, 0, 2) + E(3, 2, 1, 2)


def test_jm_minimal_sl3():
    triple = jacobson_morozov(E(3, 0, 2))
    triple.verify()
    # weights (1, 0, -1) up to basis: trace of h^2 is 2
    assert (triple.h * triple.h).trace() == 2


def test_jm_zero_input():
    with pytest.raises(ZeroInput):
        jacobson_morozov(Matrix.zeros(3, 3))
    with pytest.raises(NotNilpotent):
        jacobson_morozov(Matrix.identity(3))


def jordan_type_matrix(blocks):
    n = sum(blocks)
    rows = [[0] * n for _ in range(n)]
    off = 0
    for m in blocks:
        for t in range(m - 1):
            rows[off + t][off + t + 1] = 1
        off += m
    return Matrix.tower(rows)


def test_jm_all_sl4_jordan_types_random_conjugates():
    rng = random.Random(139)
    types = [(4,), (3, 1), (2, 2), (2, 1, 1)]
    for blocks in types:
        base = jordan_type_matrix(blocks)
        for _ in range(25):
            upper = GroupElement.tower(
                [
                    [1, rng.randint(-2, 2), rng.randint(-2, 2), rng.randint(-2, 2)],
                    [0, 1, rng.randint(-2, 2), rng.randint(-2, 2)],
                    [0, 0, 1, rng.randint(-2, 2)],
                    [0, 0, 0, 1],
                ]
            )
            lower = GroupElement.tower(
                [
                    [1, 0, 0, 0],
                    [rng.randint(-2, 2), 1, 0, 0],
                    [rng.randint(-2, 2), rng.randint(-2, 2), 1, 0],
                    [rng.randint(-2, 2), rng.randint(-2, 2), rng.randint(-2, 2), 1],
                ]
            )
            g = upper * lower
            x = g.mat * base * g.inverse().mat
            triple = jacobson_morozov(x)
            assert triple.verify()


def test_jm_basic_triple_sl2():
    triple = jm_basic_triple(RootIndex(0, 1), E(2, 0, 1))
    assert triple.h == Matrix.tower([[1, 0], [0, -1]])
    assert triple.y == E(2, 1, 0)


def test_jm_basic_triple_scaling():
    t1 = jm_basic_triple(RootIndex(0, 1), E(2, 0, 1))
    t2 = jm_basic_triple(RootIndex(0, 1), E(2, 0, 1, 2))
    assert t2.y == t1.y * F(1, 2)
    assert t2.verify()


def test_jm_basic_triple_block_locality():
    triple = jm_basic_triple(RootIndex(1, 2), E(3, 1, 2))
    for a in range(3):
        for b in range(3):
            if a == 0 or b == 0:
                assert triple.h[a, b].is_zero()
                assert triple.y[a, b].is_zero()
    assert triple.verify()


# ---------------------------------------------------------------------------
# root SL2-embeddings and m(u)

def test_embedding_transpose_equivariance():
    emb = sl2_embed(RootIndex(0, 2), 3)
    h = Matrix.tower([[2, 1], [1, 1]])
    assert emb.group(GroupElement(h)).mat.transpose() == emb.group(
        GroupElement(h.transpose())
    ).mat


def test_oneparam_character_square():
    lam = F(5, 3)
    alpha = RootIndex(0, 1)
    emb = sl2_embed(alpha, 3)
    a = emb.group(Matrix.tower([[lam, 0], [0, 1 / lam]]))
    assert chi(alpha, a) == lam * lam


def test_m_element_sl2():
    u = GroupElement.tower([[1, 1], [0, 1]])
    m = m_element(u, RootIndex(0, 1))
    assert m == GroupElement.tower([[0, 1], [-1, 0]])
    assert member_N(m)


def test_m_element_zero_parameter():
    with pytest.raises(ZeroParameter):
        m_element(GroupElement.identity(2), RootIndex(0, 1))


def test_m_element_inverts_character():
    rng = random.Random(149)
    alpha = RootIndex(0, 2)
    for _ in range(15):
        t = F(rng.randint(1, 7), rng.randint(1, 4))
        u = exp_nilpotent(E(3, 0, 2, t))
        m = m_element(u, alpha)
        d1, d2 = F(rng.randint(1, 6)), F(rng.randint(1, 6))
        a = GroupElement.tower(
            [[d1, 0, 0], [0, d2, 0], [0, 0, 1 / (d1 * d2)]]
        )
        conj = m * a * m.inverse()
        assert chi(alpha, conj) == 1 / chi(alpha, a)


def test_m_element_swaps_root_groups_at_t1():
    alpha = RootIndex(0, 1)
    u = exp_nilpotent(E(3, 0, 1))
    m = m_element(u, alpha)
    assert member_N(m)
    for t in (F(2), F(-1, 3)):
        v = exp_nilpotent(E(3, 0, 1, t))
        conj = m * v * m.inverse()
        lg = log_unipotent(conj)
        assert not lg[1, 0].is_zero()
        assert all(
            lg[a, b].is_zero() for a in range(3) for b in range(3) if (a, b) != (1, 0)
        )


def test_rank1_bruhat_cells():
    alpha = RootIndex(0, 1)
    emb = sl2_embed(alpha, 3)
    upper = emb.group(Matrix.tower([[2, 3], [0, F(1, 2)]]))
    cell = rank1_bruhat_certify(upper, alpha)
    assert cell.tag == "B"
    rot = emb.group(Matrix.tower([[0, 1], [-1, 0]]))
    cell = rank1_bruhat_certify(rot, alpha)
    assert cell.tag == "BmB" and cell.reconstruct() == rot
    lower = emb.group(Matrix.tower([[1, 0], [1, 1]]))
    cell = rank1_bruhat_certify(lower, alpha)
    assert cell.tag == "BmB"
    assert cell.reconstruct() == lower
    # cross-check against the global Bruhat cell
    from rcg.decomp import bruhat

    assert bruhat(lower).w != GroupElement.identity(3)
    assert bruhat(upper).w == GroupElement.identity(3)


def test_rank1_bruhat_not_in_image():
    from rcg.errors import NotInImage

    g = GroupElement.tower([[1, 0, 1], [0, 1, 0], [0, 0, 1]])
    with pytest.raises(NotInImage):
        rank1_bruhat_certify(g, RootIndex(0, 1))


def test_bch_refuses_non_square_input():
    wide = Matrix.tower([[0, 1], [0, 0], [0, 0]])
    with pytest.raises(DomainError, match="X must be a square matrix"):
        bch(wide, wide)
    with pytest.raises(DomainError, match="Y must be a square matrix"):
        zassenhaus(Matrix.tower([[0, 1], [0, 0]]), wide)


# ---------------------------------------------------------------------------
# the facts the unchecked constructions and the one-pass peeling rest on

@pytest.mark.parametrize("function", [exp_nilpotent, log_unipotent])
@pytest.mark.parametrize(
    "rows", [[[0, 0, 0], [0, 0, 0]], [[1, 2, 0], [0, 1, 3]]], ids=["zero", "nonzero"]
)
def test_exp_and_log_refuse_non_square_input(function, rows):
    with pytest.raises(DomainError):
        function(Matrix.tower(rows))


def _conjugated_jordan_block(p, p_inv):
    """p J p^-1 for the Jordan block J of p's size."""
    n = p.nrows
    return p * Matrix(p.domain, [[int(j == i + 1) for j in range(n)] for i in range(n)]) * p_inv


@pytest.mark.parametrize("n", [3, 4])
def test_exp_of_a_radical_nilpotent_has_determinant_exactly_one(n):
    r2, r3 = sqrt_positive(2), sqrt_positive(3)
    upper = [[1 if i == j else r2 if j == i + 1 else r3 if j > i else 0
              for j in range(n)] for i in range(n)]
    lower = [[1 if i == j else r3 if i == j + 1 else 0 for j in range(n)] for i in range(n)]
    g = GroupElement.tower(upper) * GroupElement.tower(lower)
    x = _conjugated_jordan_block(g.mat, g.inverse().mat)
    assert any(not s.is_rational() for row in x.data for s in row)
    assert det(exp_nilpotent(x).mat) == 1


def test_exp_of_a_puiseux_nilpotent_has_determinant_exactly_one():
    # P = I + A with A^2 = 0, so P^-1 = I - A
    a = Matrix.puiseux([[0, X, 0], [0, 0, 0], [0, X.invert(), 0]])
    one = Matrix.identity(3, a.domain)
    x = _conjugated_jordan_block(one + a, one - a)
    assert det(exp_nilpotent(x).mat) == 1


def _closed_theta_sets(n):
    roots = positive_roots(n)
    for mask in range(1, 1 << len(roots)):
        chosen = [r for b, r in enumerate(roots) if mask >> b & 1]
        if all(a + b is None or a + b in chosen for a in chosen for b in chosen):
            yield ThetaSet(n, chosen)


CLOSED_THETA_SETS = [t for n in (3, 4) for t in _closed_theta_sets(n)]
_small_fractions = st.builds(F, st.integers(-6, 6), st.integers(1, 4))


def reference_u_theta_factorize(u, theta_set):
    """Peel every root by the (i, j) entry of a full log of the residual."""
    n = theta_set.n
    factors = []
    residual = u
    for alpha in reversed(theta_set.descending()):
        log_r = log_unipotent(residual)
        comp = Matrix.unit(n, alpha.i, alpha.j, log_r.data[alpha.i][alpha.j], log_r.domain)
        factors.append((alpha, comp))
        residual = residual * exp_nilpotent(-comp)
    return list(reversed(factors))


def reference_psi_split(u, theta_set, psi):
    """Solve the root parameters in ascending order by a log fixed point: a
    parameter change at a root only moves log components at larger roots."""
    n, dom = theta_set.n, u.mat.domain
    desc = theta_set.descending()
    params = {a: dom.zero for a in desc}

    def build(roots):
        prod = GroupElement.identity(n, dom)
        for a in roots:
            prod = prod * exp_nilpotent(Matrix.unit(n, a.i, a.j, params[a], dom))
        return prod

    left = [a for a in desc if a in psi]
    right = [a for a in desc if a not in psi]
    target_log = log_unipotent(u)
    for alpha in reversed(desc):
        diff = target_log - log_unipotent(build(left) * build(right))
        params[alpha] = params[alpha] + diff.data[alpha.i][alpha.j]
    return build(left), build(right)


def _draw_u_theta_element(theta_set, data):
    n = theta_set.n
    x = Matrix.zeros(n, n)
    for alpha in theta_set.descending():
        x = x + E(n, alpha.i, alpha.j, data.draw(_small_fractions))
    return exp_nilpotent(x)


@settings(max_examples=150, deadline=None)
@given(st.sampled_from(CLOSED_THETA_SETS), st.data())
def test_u_theta_factorize_matches_the_log_peeling_reference(theta_set, data):
    u = _draw_u_theta_element(theta_set, data)
    assert u_theta_factorize(u, theta_set) == reference_u_theta_factorize(u, theta_set)


@settings(max_examples=150, deadline=None)
@given(st.sampled_from(CLOSED_THETA_SETS), st.data())
def test_psi_split_matches_the_log_fixed_point_reference(theta_set, data):
    u = _draw_u_theta_element(theta_set, data)
    psi = data.draw(st.sets(st.sampled_from(positive_roots(theta_set.n))))
    assert psi_split(u, theta_set, psi) == reference_psi_split(u, theta_set, psi)


def test_both_factorisations_match_their_references_on_an_exact_puiseux_element():
    u = exp_nilpotent(Matrix.puiseux([[0, X, 3], [0, 0, 2 * X.invert() - 1], [0, 0, 0]]))
    theta = ThetaSet.all_positive(3)
    factors = u_theta_factorize(u, theta)
    assert factors == reference_u_theta_factorize(u, theta)
    assert all(x.tail is None for _, comp in factors for row in comp.data for x in row)
    for psi in ({RootIndex(0, 1)}, {RootIndex(1, 2)}, {RootIndex(0, 2), RootIndex(1, 2)}):
        assert psi_split(u, theta, psi) == reference_psi_split(u, theta, psi)


def test_both_factorisations_accept_a_truncated_puiseux_element_to_its_known_terms():
    tail = PuiseuxScalar((), -3)  # O(X^-3)
    u = GroupElement.puiseux([[1, X + tail, 2], [0, 1 + tail, 1], [0, 0, 1]])
    theta = ThetaSet.all_positive(3)
    by_root = dict(u_theta_factorize(u, theta))
    assert str(by_root[RootIndex(0, 2)][0, 2]) == str(2 - X + tail)
    u1, u2 = psi_split(u, theta, {RootIndex(0, 1)})
    residual = (u1 * u2).mat - u.mat
    assert all(u.mat.domain.vanishes(x) for row in residual.data for x in row)


@pytest.mark.parametrize(
    "rows",
    [
        [[1, 1, 1], [0, 1, 1], [0, 0, 1]],  # an entry at e2 - e3, outside Theta
        [[1, 1, 0], [0, 1, 0], [0, 2, 1]],  # an entry below the diagonal
        [[2, 1, 0], [0, 1, 0], [0, 0, F(1, 2)]],  # not unipotent
    ],
    ids=["outside-theta", "lower-triangular", "diagonal"],
)
def test_both_factorisations_refuse_an_element_outside_u_theta(rows):
    theta = ThetaSet(3, [RootIndex(0, 1), RootIndex(0, 2)])
    u = GroupElement.tower(rows)
    with pytest.raises(NotInUTheta):
        u_theta_factorize(u, theta)
    with pytest.raises(NotInUTheta):
        psi_split(u, theta, {RootIndex(0, 1)})


def test_both_factorisations_take_no_log_and_no_exp(monkeypatch):
    """The root sweep reads entries and makes row operations; on rational
    input it runs over the rational kernel, with no tower product."""
    rng = random.Random(139)
    u = exp_nilpotent(rand_upper(rng, 5))
    theta = ThetaSet.all_positive(5)
    products, mul = [], TowerScalar.__mul__

    def refuse(_):
        raise AssertionError("the root sweep took a log or an exp")

    def counting_mul(a, b):
        products.append((a, b))
        return mul(a, b)

    monkeypatch.setattr(rcg.nilpotent, "log_unipotent", refuse)
    monkeypatch.setattr(rcg.nilpotent, "exp_nilpotent", refuse)
    monkeypatch.setattr(TowerScalar, "__mul__", counting_mul)
    assert len(u_theta_factorize(u, theta)) == 10
    u1, u2 = psi_split(u, theta, [a for a in theta.roots if a.i == 0])
    assert products == []
    assert u1 * u2 == u


def reference_jacobson_morozov(x):
    """Jordan chains picked one candidate at a time by a rank test."""
    domain = x.domain
    n = x.nrows

    def apply(v):
        return tuple(_dot(row, v, domain) for row in x.data)

    powers = [Matrix.identity(n, domain)]
    while any(not s.is_zero() for row in powers[-1].data for s in row):
        powers.append(powers[-1] * x)
    q = len(powers) - 1
    kernels = {0: []}
    for k in range(1, q + 1):
        kernels[k] = kernel(powers[k])
    kernels[q + 1] = kernels[q]
    chains = []
    for k in range(q, 0, -1):
        base = list(kernels[k - 1]) + [apply(w) for w in kernels[k + 1]]
        base_rank = rank(Matrix(domain, list(zip(*base))))
        for w in kernels[k]:
            if rank(Matrix(domain, list(zip(*base, w)))) > base_rank:
                base.append(w)
                base_rank += 1
                chain = [w]
                for _ in range(k - 1):
                    chain.append(apply(chain[-1]))
                chains.append(chain)
    cols = []
    blocks = []
    for chain in sorted(chains, key=len, reverse=True):
        cols.extend(reversed(chain))
        blocks.append(len(chain))
    p = Matrix(domain, cols).transpose()
    h_rows = [[0] * n for _ in range(n)]
    y_rows = [[0] * n for _ in range(n)]
    offset = 0
    for m in blocks:
        for t in range(m):
            h_rows[offset + t][offset + t] = m - 1 - 2 * t
        for t in range(1, m):
            y_rows[offset + t][offset + t - 1] = t * (m - t)
        offset += m
    p_inv = inverse(p)
    return p * Matrix(domain, h_rows) * p_inv, p * Matrix(domain, y_rows) * p_inv


def _partitions(n, largest):
    if n == 0:
        yield ()
    for m in range(min(n, largest), 0, -1):
        for rest in _partitions(n - m, m):
            yield (m,) + rest


JORDAN_TYPES = [b for n in (4, 5) for b in _partitions(n, n) if b[0] > 1]


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(JORDAN_TYPES), st.data())
def test_jacobson_morozov_matches_the_rank_loop_reference(blocks, data):
    n = sum(blocks)
    entry = st.integers(-2, 2)
    upper = [[1 if i == j else data.draw(entry) if j > i else 0 for j in range(n)]
             for i in range(n)]
    lower = [[1 if i == j else data.draw(entry) if j < i else 0 for j in range(n)]
             for i in range(n)]
    g = GroupElement.tower(upper) * GroupElement.tower(lower)
    x = g.mat * jordan_type_matrix(blocks) * g.inverse().mat
    triple = jacobson_morozov(x)
    assert (triple.h, triple.y) == reference_jacobson_morozov(x)


# ---------------------------------------------------------------------------
# the rational path builds no tower scalar

def _strictly_upper_rows(rng, n):
    return [[F(rng.randint(-4, 4), rng.randint(1, 3)) if j > i else F(0) for j in range(n)]
            for i in range(n)]


def _fraction_rows(m):
    return [[x.as_fraction() for x in row] for row in m.data]


@pytest.mark.parametrize("held", ["data", "form"])
@pytest.mark.parametrize("n", [4, 5])
def test_rational_lie_calculus_makes_no_tower_scalar(n, held, monkeypatch):
    """bch, its degree-3 partial sum, zassenhaus, u_theta_factorize and
    jacobson_morozov on rational input run on integer forms: no TowerScalar
    is made until the caller reads a result's data, whether the input holds
    TowerScalars or only its form."""
    rng = random.Random(f"no-tower-{n}-{held}")
    x_rows, y_rows = _strictly_upper_rows(rng, n), _strictly_upper_rows(rng, n)
    u_rows = _fraction_rows(exp_nilpotent(Matrix.tower(x_rows)).mat)
    upper = [[1 if i == j else rng.randint(-2, 2) if j > i else 0 for j in range(n)]
             for i in range(n)]
    g = GroupElement.tower(upper) * GroupElement.tower(upper).transpose()
    nil_rows = _fraction_rows(g.mat * jordan_type_matrix((n - 2, 2)) * g.inverse().mat)
    def held_as(rows):
        return Matrix.tower(rows) if held == "data" else rcg.linalg._lift(rcg.linalg._Q, rows)

    x, y, nil = held_as(x_rows), held_as(y_rows), held_as(nil_rows)
    u = GroupElement._unchecked(held_as(u_rows))
    theta = ThetaSet.all_positive(n)
    made = []
    init = TowerScalar.__init__

    def counting(self, *args):
        made.append(args)
        init(self, *args)

    monkeypatch.setattr(TowerScalar, "__init__", counting)
    z, z3, factors = bch(x, y), bch_partial_sum(x, y, 3), zassenhaus(x, y)
    parts, triple = u_theta_factorize(u, theta), jacobson_morozov(nil)
    assert made == []
    monkeypatch.undo()
    assert exp_nilpotent(z) == exp_nilpotent(x) * exp_nilpotent(y)
    terms = bch_series_terms(x, y, 3)
    assert z3 == terms[1] + terms[2] + terms[3]
    product = GroupElement.identity(n)
    for f in factors:
        product = product * exp_nilpotent(f)
    assert product == exp_nilpotent(x + y)
    product = GroupElement.identity(n)
    for _, comp in parts:
        product = product * exp_nilpotent(comp)
    assert product.mat == Matrix.tower(u_rows)
    assert triple.verify() and str(triple.x) == str(Matrix.tower(nil_rows))
