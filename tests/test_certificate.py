"""One certificate per factorisation, one vanishing test, one exact sort key,
and checks made once.

Every decomposition result certifies itself (`res.certify(g)`): it accepts
an exact factorisation and a Puiseux one whose known residual terms vanish
above their tails, and raises InternalError for a wrong factor over either
field, also one that reconstructs g but lies outside its subgroup.
`domain.vanishes` is the one test for "every known term is zero";
`_exact_key` is the one sort key for exact scalars.  The chamber
projection, the determinant message, the decompositions and the nilpotent
calculus compute no determinant they already have.
"""

import random
from dataclasses import replace
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import rcg
import rcg.decomp
import rcg.linalg
import rcg.nilpotent
import rcg.slgroup
import rcg.tower
from _panel import W, sl3_panel
from rcg.decomp import (
    BruhatResult,
    KAKResult,
    KAUResult,
    UAKResult,
    bruhat,
    cartan_kak,
    iwasawa_kau,
    iwasawa_uak,
)
from rcg.errors import DomainError, InternalError, RcgError
from rcg.kostant import chamber_projection
from rcg.linalg import PUISEUX, TOWER, Matrix, _exact_key, _Scaled
from rcg.nilpotent import (
    ThetaSet,
    bch,
    exp_nilpotent,
    jacobson_morozov,
    psi_split,
    u_theta_factorize,
    zassenhaus,
)
from rcg.puiseux import PuiseuxScalar, X
from rcg.slgroup import GroupElement, member_K, member_N
from rcg.tower import TowerScalar, sqrt_positive

F = Fraction

TOWER_G = GroupElement.tower([[2, 3], [1, 2]])
PUISEUX_G = GroupElement.puiseux([[X, 0], [1, X.invert()]])
DECOMPOSITIONS = [iwasawa_kau, iwasawa_uak, cartan_kak, bruhat]


def test_factors_are_the_fields_in_product_order():
    one = GroupElement.identity(2)
    expected = {
        KAUResult: ["k", "a", "u"],
        UAKResult: ["u", "a", "k"],
        KAKResult: ["k1", "a", "k2"],
        BruhatResult: ["b1", "w", "b2"],
    }
    for cls, names in expected.items():
        assert list(cls(one, one, one).factors()) == names
    res = iwasawa_kau(TOWER_G)
    assert res.reconstruct() == res.k * res.a * res.u == TOWER_G


@pytest.mark.parametrize("decompose", DECOMPOSITIONS, ids=lambda f: f.__name__)
def test_certify_accepts_an_exact_factorisation(decompose):
    decompose(TOWER_G).certify(TOWER_G)


@pytest.mark.parametrize("decompose", DECOMPOSITIONS, ids=lambda f: f.__name__)
def test_certify_accepts_known_terms_that_vanish_above_a_tail(decompose):
    res = decompose(PUISEUX_G)
    residual = res.reconstruct().mat - PUISEUX_G.mat
    if decompose is not bruhat:  # Bruhat divides only by exact monomials
        assert any(x.tail is not None for row in residual.data for x in row)
    res.certify(PUISEUX_G)


def test_certify_accepts_a_residual_made_only_of_tails():
    one = GroupElement.identity(2, PUISEUX)
    fuzzy = GroupElement.puiseux([[1 + PuiseuxScalar((), -4), 0], [0, 1]])
    KAUResult(one, fuzzy, one).certify(one)


@pytest.mark.parametrize("g", [TOWER_G, PUISEUX_G], ids=["tower", "puiseux"])
def test_certify_rejects_a_wrong_factor(g):
    res = iwasawa_kau(g)
    stretch = GroupElement(Matrix(g.mat.domain, [[2, 0], [0, F(1, 2)]]))
    for wrong in (replace(res, a=res.a * stretch), replace(res, u=res.u.transpose())):
        with pytest.raises(InternalError, match="reconstruction failed"):
            wrong.certify(g)
    # reconstructs g, but k is no longer orthogonal
    outside = replace(res, k=res.k * stretch, a=stretch.inverse() * res.a)
    with pytest.raises(InternalError, match="k is not in its subgroup"):
        outside.certify(g)


@pytest.mark.parametrize("g", [TOWER_G, PUISEUX_G], ids=["tower", "puiseux"])
def test_certify_rejects_k_factors_of_determinant_minus_one(g):
    """k1 D and D k2 reconstruct g and keep k k^T = I, but det k = -1."""
    res = cartan_kak(g)
    flip = GroupElement._unchecked(Matrix.diagonal([-1, 1], g.mat.domain))
    assert member_K(res.k1) and member_K(res.k2)
    assert not member_K(res.k1 * flip) and not member_K(flip * res.k2)
    wrong = replace(res, k1=res.k1 * flip, k2=flip * res.k2)
    with pytest.raises(InternalError, match="k1 is not in its subgroup"):
        wrong.certify(g)


def test_member_k_refutes_no_determinant_it_cannot_read():
    """An entry known only above X^1 has no known X^0 coefficient, so no
    known term of k k^T - I or of det k - 1 refutes membership."""
    fuzzy = PuiseuxScalar((), 1)
    assert member_K(GroupElement._unchecked(Matrix.puiseux([[fuzzy, 0], [0, 1]])))
    assert not member_K(GroupElement._unchecked(Matrix.puiseux([[-1, 0], [0, 1]])))


def test_member_k_reads_the_tower_determinant_sign_from_rationals(monkeypatch):
    """Over the tower the sign of det k is read from a rational matrix near
    k, never from a product of the radicals in k's columns."""
    g = GroupElement.tower([[1, 3, 1], [0, 1, 4], [0, 0, 1]]) * GroupElement.tower(
        [[1, 0, 0], [2, 1, 0], [F(1, 3), 5, 1]]
    )
    k = iwasawa_kau(g).k
    assert not all(x.is_rational() for row in k.mat.data for x in row)
    seen = []
    det = rcg.linalg.det

    def rational_det(m):
        seen.append(all(x.is_rational() for row in m.data for x in row))
        return det(m)

    monkeypatch.setattr(rcg.linalg, "det", rational_det)
    assert member_K(k)
    assert seen == [True]


def test_vanishes_is_zero_over_the_tower_and_no_known_term_over_puiseux():
    r2 = sqrt_positive(2)
    assert TOWER.vanishes(r2 - r2)
    assert not TOWER.vanishes(TowerScalar.coerce(1))
    assert PUISEUX.vanishes(PuiseuxScalar(()))
    assert PUISEUX.vanishes(PuiseuxScalar((), -3))
    assert not PUISEUX.vanishes(1 + PuiseuxScalar((), -3))
    assert not PUISEUX.vanishes(X)


def test_exact_key_orders_both_fields():
    r2, r3 = sqrt_positive(2), sqrt_positive(3)
    values = [r3, TowerScalar.coerce(1), r2, TowerScalar.coerce(F(3, 2))]
    assert sorted(values, key=_exact_key) == [values[1], r2, values[3], r3]
    series = [X, X.invert(), PuiseuxScalar.constant(1)]
    assert sorted(series, key=_exact_key, reverse=True) == [X, series[2], series[1]]


def test_chamber_projection_computes_no_determinant(monkeypatch):
    a = GroupElement.tower([[F(1, 2), 0, 0], [0, 4, 0], [0, 0, F(1, 2)]])

    def refuse(_):
        raise AssertionError("determinant computed for a permuted diagonal")

    monkeypatch.setattr(rcg.slgroup, "det", refuse)
    assert chamber_projection(a).diagonal() == [4, F(1, 2), F(1, 2)]


def test_decompositions_take_no_determinant_their_construction_fixes(monkeypatch):
    """Neither takes a determinant.  Bruhat: b1 is unitriangular, det b2 =
    prod |pivot| > 0 and det w = +-1, so det g = 1 fixes both, and certify
    reads det w from the permutation.  KAK: a by prod(lam_j) = 1; k1 and
    k2 follow from det g and the eigenvectors."""
    g = GroupElement.puiseux([[X, 1, 0], [0, 1, 0], [0, 1, X.invert()]])
    calls = []
    det = rcg.slgroup.det

    def counting_det(m):
        calls.append(m)
        return det(m)

    monkeypatch.setattr(rcg.slgroup, "det", counting_det)
    for decompose, taken in ((cartan_kak, 0), (bruhat, 0)):
        calls.clear()
        decompose(g).certify(g)
        assert len(calls) == taken, decompose.__name__


def test_member_n_refuses_a_signed_permutation_of_determinant_minus_one(monkeypatch):
    """det w = -1 is read from the permutation's parity and the -1 entries,
    with no determinant; that keeps certify refusing a Bruhat w built
    unchecked with the wrong sign."""
    g = GroupElement.tower([[0, 1], [-1, 0]])

    def refuse(_):
        raise AssertionError("determinant computed for a signed permutation")

    monkeypatch.setattr(rcg.slgroup, "det", refuse)
    monkeypatch.setattr(rcg.linalg, "det", refuse)
    for domain in (TOWER, PUISEUX):
        swap = GroupElement._unchecked(Matrix(domain, [[0, 1], [1, 0]]))
        assert not member_N(swap)
        assert member_N(GroupElement._unchecked(Matrix(domain, [[0, -1], [1, 0]])))
        assert not member_N(GroupElement._unchecked(Matrix.diagonal([-1, 1, 1], domain)))
    wrong = replace(bruhat(g), w=GroupElement._unchecked(Matrix.tower([[0, 1], [1, 0]])))
    with pytest.raises(InternalError):
        wrong.certify(g)


def test_a_refused_element_computes_its_determinant_once(monkeypatch):
    calls = []
    det = rcg.slgroup.det

    def counting_det(m):
        calls.append(m)
        return det(m)

    monkeypatch.setattr(rcg.slgroup, "det", counting_det)
    with pytest.raises(DomainError, match="determinant is 2, not 1"):
        GroupElement.tower([[2, 0], [0, 1]])
    assert len(calls) == 1


def _strictly_upper(n, offset):
    return Matrix.tower(
        [[F((i + 2 * j + offset) % 7 - 3, 1 + (i + j) % 3) if j > i else 0 for j in range(n)]
         for i in range(n)]
    )


def test_nilpotent_calculus_takes_no_determinant_and_no_checked_element(monkeypatch):
    """exp of a nilpotent has det e^(tr x) = 1 and a root-group element a
    unit diagonal; every other element is a product of those."""
    x, y = _strictly_upper(5, 0), _strictly_upper(5, 3)
    u = exp_nilpotent(x + y)
    dets, inits = [], []
    det, init = rcg.slgroup.det, GroupElement.__init__

    def counting_det(m):
        dets.append(m)
        return det(m)

    def counting_init(self, mat):
        inits.append(mat)
        init(self, mat)

    monkeypatch.setattr(rcg.slgroup, "det", counting_det)
    monkeypatch.setattr(rcg.linalg, "det", counting_det)
    monkeypatch.setattr(GroupElement, "__init__", counting_init)
    assert exp_nilpotent(x) * exp_nilpotent(y) == exp_nilpotent(bch(x, y))
    assert len(zassenhaus(x, y)) >= 4
    theta = ThetaSet.all_positive(5)
    assert len(u_theta_factorize(u, theta)) == 10
    u1, u2 = psi_split(u, theta, [a for a in theta.roots if a.j == a.i + 1])
    assert u1 * u2 == u
    assert dets == [] and inits == []


def test_jacobson_morozov_eliminates_once_per_chain_level(monkeypatch):
    """Jordan type (3, 2): three chain levels, the kernels of x and x^2 and
    one inverse, all over the rational kernel."""
    j = Matrix.tower([[int(c == r + 1 and r != 2) for c in range(5)] for r in range(5)])
    g = GroupElement.tower([[1, 1, 0, 2, 0], [0, 1, -1, 0, 1], [1, 1, 1, 2, 0],
                            [0, 0, 0, 1, 1], [0, 0, 0, 0, 1]])
    x = g.mat * j * g.inverse().mat
    calls, products = [], []
    eliminate, mul = rcg.linalg._eliminate, TowerScalar.__mul__

    def counting_eliminate(*args):
        calls.append(args)
        return eliminate(*args)

    def counting_mul(a, b):
        products.append((a, b))
        return mul(a, b)

    monkeypatch.setattr(rcg.linalg, "_eliminate", counting_eliminate)
    monkeypatch.setattr(rcg.nilpotent, "_eliminate", counting_eliminate)
    monkeypatch.setattr(TowerScalar, "__mul__", counting_mul)
    triple = jacobson_morozov(x)
    assert len(calls) <= 3 + 2 + 1
    assert products == []
    # h has weights 2, 0, -2 and 1, -1
    assert (triple.h * triple.h).trace() == 10


# ---------------------------------------------------------------------------
# certificates drawn from the scaled forms of the K factors

def _carrying(mat, form):
    """An unchecked factor with this matrix that carries this form."""
    factor = GroupElement._unchecked(mat)
    factor._form = form
    return factor


def _stripped(res):
    """res with every factor rebuilt without a form: certify's check on the
    printed matrices."""
    return replace(res, **{name: GroupElement._unchecked(f.mat)
                           for name, f in res.factors().items()})


def _verdict(res, g):
    try:
        res.certify(g)
    except InternalError as exc:
        return str(exc)
    return "certified"


def _unit_triangular_product(rng, n, bound=3):
    """A rational element of SL_n: unit lower times unit upper, both dense."""
    lower = [[1 if i == j else rng.randint(-bound, bound) if j < i else 0 for j in range(n)]
             for i in range(n)]
    upper = [[1 if i == j else rng.randint(-bound, bound) if j > i else 0 for j in range(n)]
             for i in range(n)]
    return GroupElement.tower(lower) * GroupElement.tower(upper)


TOWER_3 = _unit_triangular_product(random.Random(5), 3)


@pytest.mark.parametrize("g, decompose, name", [
    (TOWER_3, iwasawa_kau, "k"), (TOWER_3, iwasawa_uak, "k"),
    (PUISEUX_G, iwasawa_kau, "k"), (PUISEUX_G, iwasawa_uak, "k"),
    (PUISEUX_G, cartan_kak, "k1"), (PUISEUX_G, cartan_kak, "k2"),
], ids=["tower-kau", "tower-uak", "puiseux-kau", "puiseux-uak", "puiseux-k1", "puiseux-k2"])
def test_certify_refuses_a_factor_whose_entry_disagrees_with_its_form(g, decompose, name):
    res = decompose(g)
    res.certify(g)
    factor = getattr(res, name)
    rows = [list(row) for row in factor.mat.data]
    rows[1][0] = rows[1][0] + 1
    wrong = replace(res, **{name: _carrying(Matrix(g.mat.domain, rows), factor._form)})
    with pytest.raises(InternalError, match=f"{name} is not the matrix of its form"):
        wrong.certify(g)


def test_certify_refuses_cartan_forms_of_determinant_minus_one():
    """k1 D and D k2, D = diag(-1, 1), carried with the forms B1 D diag(t)
    and W D diag(rho): the columns stay orthogonal and k1 a k2 = g, so only
    the sign of det(B1) refuses them."""
    g = PUISEUX_G
    res = cartan_kak(g)
    flip = Matrix.diagonal([-1] + [1] * (g.n - 1), g.mat.domain)
    k1, k2 = res.k1._form, res.k2._form
    wrong = replace(
        res,
        k1=_carrying(res.k1.mat * flip, _Scaled(k1.base * flip, k1.scales)),
        k2=_carrying(flip * res.k2.mat, _Scaled(k2.base * flip, k2.scales)),
    )
    with pytest.raises(InternalError, match="k1 is not in its subgroup"):
        wrong.certify(g)
    assert _verdict(_stripped(wrong), g) == "k1 is not in its subgroup"


def test_certify_refuses_a_form_whose_columns_are_not_orthogonal():
    """k' = B' diag(s) with B' = B E, E unit upper triangular, and u' =
    E^-1 u: k' a u' = g still holds, but B'^T B' is not diagonal."""
    g = _unit_triangular_product(random.Random(11), 3)
    res = iwasawa_kau(g)
    form = res.k._form
    shear = Matrix.tower([[1, 2, 0], [0, 1, 0], [0, 0, 1]])
    sheared = _Scaled(form.base * shear, form.scales)
    u = GroupElement._unchecked(rcg.linalg.inverse(shear) * res.u.mat)
    wrong = replace(res, k=_carrying(sheared.matrix(), sheared), u=u)
    assert wrong.reconstruct() == g
    with pytest.raises(InternalError, match="k is not in its subgroup"):
        wrong.certify(g)
    assert _verdict(_stripped(wrong), g) == "k is not in its subgroup"


def test_certify_refuses_a_form_whose_column_norms_multiply_past_one():
    """g of determinant 2, passed unchecked: Gram-Schmidt gives orthogonal
    columns, a positive diagonal a and a unitriangular u with k a u = g,
    and k has det +1, so the checks on the printed matrices pass; the form
    shows prod(norm2_j) = det(g)^2 = 4, so det a = 2."""
    g = GroupElement._unchecked(Matrix.tower([[3, 1], [1, 1]]))
    qhat, norm2, u = rcg.decomp._gram_schmidt(g.mat)
    roots = [sqrt_positive(x) for x in norm2]
    form = _Scaled(qhat, [r.inv() for r in roots])
    res = KAUResult(_carrying(form.matrix(), form),
                    GroupElement._unchecked(Matrix.diagonal(roots)),
                    GroupElement._unchecked(u))
    assert _verdict(_stripped(res), g) == "certified"
    with pytest.raises(InternalError, match="a is not in its subgroup"):
        res.certify(g)


def _panel():
    return [W._puiseux_element(rcg, g) for g in sl3_panel()]


@pytest.mark.parametrize("decompose", [
    iwasawa_kau, iwasawa_uak, bruhat,
    lambda g: cartan_kak(g, order=6), lambda g: cartan_kak(g, order=8),
], ids=["kau", "uak", "bruhat", "kak6", "kak8"])
def test_forms_and_printed_matrices_give_one_verdict_on_the_panel(decompose):
    for g in _panel():
        try:
            res = decompose(g)
        except RcgError:
            continue
        assert _verdict(res, g) == _verdict(_stripped(res), g) == "certified"


@settings(max_examples=30, deadline=None)
@given(st.integers(2, 5), st.integers(0, 10**6))
def test_forms_and_printed_matrices_give_one_verdict_on_rational_input(n, seed):
    g = _unit_triangular_product(random.Random(seed), n)
    for decompose in (iwasawa_kau, iwasawa_uak, bruhat):
        res = decompose(g)
        assert _verdict(res, g) == _verdict(_stripped(res), g) == "certified"


@pytest.mark.parametrize("n", [5, 6, 7])
def test_rational_iwasawa_certify_merges_no_tower_and_takes_no_determinant(n, monkeypatch):
    """Each of k's entries, each a_jj s_j and s_j^2 lies in the one tower of
    its column, and every identity is checked over Q; on the printed
    matrices k a u merges the towers of all n columns."""
    g = _unit_triangular_product(random.Random(f"merge-free-{n}"), n)
    results = [iwasawa_kau(g), iwasawa_uak(g)]

    def refuse(*_):
        raise AssertionError("tower merge or determinant during certify")

    monkeypatch.setattr(rcg.tower, "_merge", refuse)
    monkeypatch.setattr(rcg.slgroup, "det", refuse)
    for res in results:
        res.certify(g)
        with pytest.raises(AssertionError):
            _stripped(res).certify(g)
