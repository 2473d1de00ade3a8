"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -s` to see the per-criterion
lines.  Tolerances are exact unless stated: Puiseux certifications assert
that every known residual term vanishes at the stated relative order, and
the hull-oracle comparison excludes (and counts, < 5%) boundary cases
inside the 1e-20 certification slack.
"""

import random
import time
from fractions import Fraction

from rcg.decomp import (
    bruhat,
    cartan_kak,
    iwasawa_kau,
)
from rcg.errors import DegenerateLeadingSpectrum
from rcg.kostant import (
    ChamberPoint,
    kostant_member,
    orbit_sample_check,
)
from rcg.linalg import Matrix, commutator, det
from rcg.nilpotent import bch_partial_sum, exp_nilpotent, jacobson_morozov, log_unipotent
from rcg.puiseux import PuiseuxScalar
from rcg.rootsys import build, cone_data, gamma_coefficients, weyl
from rcg.slgroup import (
    GroupElement,
    member_A,
    member_B,
    member_K,
    member_M,
    member_N,
    member_U,
    n_elements,
)
from rcg.tower import sqrt_positive

from _hull_oracle import hull_oracle
from _references import bruhat_permutation, n_mod_m_classes, weyl_reps_sl3

F = Fraction
MEMBERSHIPS = (member_K, member_A, member_U, member_M, member_N, member_B)


def rand_sl(rng, n, bound=20):
    while True:
        rows = [
            [F(rng.randint(-bound, bound), rng.randint(1, bound)) for _ in range(n)]
            for _ in range(n)
        ]
        m = Matrix.tower(rows)
        d = det(m)
        if not d.is_zero():
            inv = d.inv()
            rows[0] = [x * inv for x in rows[0]]
            return GroupElement.tower(rows)


def rand_upper_unitriangular(rng, n, bound=5):
    return GroupElement.tower(
        [
            [
                1 if i == j else (F(rng.randint(-bound, bound), rng.randint(1, 3)) if j > i else 0)
                for j in range(n)
            ]
            for i in range(n)
        ]
    )


def rand_b_element(rng, n):
    """A random element of B = MAU."""
    signs_options = []
    from itertools import product

    for signs in product((1, -1), repeat=n):
        if len([s for s in signs if s < 0]) % 2 == 0:
            signs_options.append(signs)
    signs = rng.choice(signs_options)
    diag = [F(rng.randint(1, 5), rng.randint(1, 5)) for _ in range(n - 1)]
    prod = F(1)
    for v in diag:
        prod *= v
    diag.append(1 / prod)
    m = GroupElement.tower(
        [[signs[i] * diag[i] if i == j else 0 for j in range(n)] for i in range(n)]
    )
    return m * rand_upper_unitriangular(rng, n)


def test_criterion_1_iwasawa():
    rng = random.Random(2024)
    mats = [rand_sl(rng, 3) for _ in range(500)]
    start = time.perf_counter()
    for g in mats:
        res = iwasawa_kau(g)
        assert member_K(res.k) and member_A(res.a) and member_U(res.u)
        assert (res.k * res.a * res.u).mat == g.mat
    elapsed = time.perf_counter() - start
    assert elapsed < 30, f"Iwasawa run took {elapsed:.1f}s"
    # uniqueness shuffle: decomposing a product of known factors returns them
    for _ in range(50):
        res = iwasawa_kau(rand_sl(rng, 3))
        again = iwasawa_kau(res.reconstruct())
        assert again.k == res.k and again.a == res.a and again.u == res.u
    print(f"\nACCEPTANCE 1 PASS: 500 exact SL3 Iwasawa in {elapsed:.1f}s, unique")


def rand_sl2_puiseux(rng):
    a = rng.randint(1, 3)
    c = F(rng.randint(1, 5), rng.randint(1, 3))
    t = F(rng.randint(-4, 4), rng.randint(1, 3))
    r = F(rng.randint(-4, 4), rng.randint(1, 3))
    lower = GroupElement.puiseux(
        [
            [PuiseuxScalar.monomial(c, a), 0],
            [PuiseuxScalar.constant(r), PuiseuxScalar.monomial(1 / c, -a)],
        ]
    )
    shear = GroupElement.puiseux([[1, PuiseuxScalar.constant(t)], [0, 1]])
    return lower * shear


def test_criterion_2_cartan():
    rng = random.Random(2025)
    done = 0
    while done < 200:
        g = rand_sl(rng, 2, bound=9)
        s = g.mat.transpose() * g.mat
        # distinct singular values wanted
        disc = (s[0, 0] - s[1, 1]) * (s[0, 0] - s[1, 1]) + 4 * s[0, 1] * s[0, 1]
        if disc.is_zero():
            continue
        res = cartan_kak(g)
        assert (res.k1 * res.a * res.k2).mat == g.mat
        assert res.k2.mat.transpose() * res.k2.mat == Matrix.identity(2)
        assert res.k1.mat.transpose() * res.k1.mat == Matrix.identity(2)
        done += 1
    # the worked example is pinned exactly
    res = cartan_kak(GroupElement.tower([[1, 1], [0, 1]]))
    r5 = sqrt_positive(5)
    assert res.a == GroupElement.tower([[(1 + r5) / 2, 0], [0, (r5 - 1) / 2]])
    # Puiseux leg: 50 random SL2 with distinct leading exponents, order 6
    done = 0
    while done < 50:
        g = rand_sl2_puiseux(rng)
        try:
            res = cartan_kak(g, order=6)
        except DegenerateLeadingSpectrum:
            continue
        diff = (res.k1 * res.a * res.k2).mat - g.mat
        for row in diff.data:
            for entry in row:
                assert not [e for e, c in entry.terms if not c.is_zero()]
        for i in range(2):
            entry = res.a[i, i]
            e0, _ = entry.lead()
            # at least six relative orders are certified (exact counts too)
            assert entry.tail is None or entry.tail <= e0 - 6
        done += 1
    print("\nACCEPTANCE 2 PASS: 200 exact tower KAK, example pinned, 50 certified Puiseux KAK")


def test_criterion_3_bruhat_cells():
    rng = random.Random(2026)
    reps = weyl_reps_sl3()
    # all six cells realised by construction
    for w in reps:
        g = rand_b_element(rng, 3) * w * rand_b_element(rng, 3)
        assert bruhat_permutation(g) == bruhat_permutation(w)
    collisions = 0
    for i in range(500):
        w = reps[i % 6]
        g = rand_b_element(rng, 3) * w * rand_b_element(rng, 3)
        if bruhat_permutation(g) != bruhat_permutation(w):
            collisions += 1
        res = bruhat(g)
        assert res.reconstruct() == g
        assert bruhat_permutation(res.w) == bruhat_permutation(w)
    assert collisions == 0
    print("\nACCEPTANCE 3 PASS: 6 cells realised, 500 products, zero collisions")


def test_criterion_4_bch():
    rng = random.Random(2027)
    for _ in range(300):
        x = Matrix.tower(
            [
                [F(rng.randint(-4, 4), rng.randint(1, 3)) if j > i else 0 for j in range(4)]
                for i in range(4)
            ]
        )
        y = Matrix.tower(
            [
                [F(rng.randint(-4, 4), rng.randint(1, 3)) if j > i else 0 for j in range(4)]
                for i in range(4)
            ]
        )
        z = log_unipotent(exp_nilpotent(x) * exp_nilpotent(y))
        partial = bch_partial_sum(x, y, 3)
        remainder = z - partial
        assert z == partial + remainder
        # degree >= 4 brackets vanish identically in sl_4, so the remainder
        # must be exactly zero and the printed 1/2 and 1/12 terms must close
        assert remainder == Matrix.zeros(4, 4)
        xy = commutator(x, y)
        closed = x + y + xy * F(1, 2) + (
            commutator(x, xy) - commutator(y, xy)
        ) * F(1, 12)
        assert partial == closed
    print("\nACCEPTANCE 4 PASS: 300 sl4 pairs, Dynkin degree-3 exact")


def test_criterion_5_jacobson_morozov():
    rng = random.Random(2028)
    types = [(4,), (3, 1), (2, 2), (2, 1, 1)]
    count = 0
    for blocks in types:
        base_rows = [[0] * 4 for _ in range(4)]
        off = 0
        for m in blocks:
            for t in range(m - 1):
                base_rows[off + t][off + t + 1] = 1
            off += m
        base = Matrix.tower(base_rows)
        for _ in range(25):
            g = rand_upper_unitriangular(rng, 4) * rand_lower_unitriangular(rng, 4)
            x = g.mat * base * g.inverse().mat
            triple = jacobson_morozov(x)
            assert triple.verify()
            count += 1
    assert count == 100
    print("\nACCEPTANCE 5 PASS: 100 sl4 nilpotents over 4 Jordan types, exact triples")


def rand_lower_unitriangular(rng, n, bound=3):
    return GroupElement.tower(
        [
            [
                1 if i == j else (F(rng.randint(-bound, bound)) if j < i else 0)
                for j in range(n)
            ]
            for i in range(n)
        ]
    )


def test_criterion_6_root_systems():
    rng = random.Random(2029)
    for name in ("A2", "G2"):
        rs = build(name)
        for alpha in rs.all_roots:
            aa = rs.inner(alpha, alpha)
            for beta in rs.all_roots:
                assert (2 * rs.inner(alpha, beta) / aa).denominator == 1
        cd = cone_data(rs)
        for _ in range(50):
            eta = tuple(rng.randint(-10, 10) for _ in range(rs.rank))
            coeffs = gamma_coefficients(rs, cd, eta)
            recon = [F(0)] * rs.rank
            for c, g in zip(coeffs, cd.gamma):
                for i in range(rs.rank):
                    recon[i] += c * g[i]
            assert tuple(recon) == tuple(F(v) for v in eta)
    g2 = build("G2")
    cd = cone_data(g2)
    eta_plus_vec = [0, 0]
    for root in g2.positive_roots:
        eta_plus_vec[0] += root[0]
        eta_plus_vec[1] += root[1]
    assert all(c > 0 for c in gamma_coefficients(g2, cd, tuple(eta_plus_vec)))
    assert any(c < 0 for c in gamma_coefficients(g2, cd, (1, 1)))
    print("\nACCEPTANCE 6 PASS: A2/G2 crystallographic, gamma identity, G2 anchors")


def rand_chamber(rng, n):
    while True:
        vals = [F(rng.randint(1, 9), rng.randint(1, 9)) for _ in range(n - 1)]
        prod = F(1)
        for v in vals:
            prod *= v
        vals.append(1 / prod)
        vals.sort(reverse=True)
        if all(vals[i] != vals[i + 1] for i in range(n - 1)):
            return ChamberPoint.from_diagonal(vals)


def test_criterion_7_kostant():
    rng = random.Random(2030)
    boundary = 0
    for _ in range(200):
        a = rand_chamber(rng, 3)
        b = rand_chamber(rng, 3)
        hull = hull_oracle(a, b)
        if hull is None:
            boundary += 1
            continue
        assert hull == kostant_member(a, b)
    assert boundary < 10, f"{boundary} boundary cases out of 200"
    b = ChamberPoint.from_diagonal([F(3), F(1), F(1, 3)])
    report = orbit_sample_check(b, 1000, seed=2030)
    assert report.violations == 0
    assert report.min_slack >= 0
    print(
        f"\nACCEPTANCE 7 PASS: 200 oracle agreements ({boundary} boundary), "
        f"1000 orbit samples clean"
    )


def test_criterion_8_transfer():
    rng = random.Random(2031)
    for trial in range(200):
        g = rand_sl(rng, 3, bound=9)
        gp = GroupElement(g.mat.to_puiseux())
        assert bruhat_permutation(g) == bruhat_permutation(gp)
        w_t = bruhat(g).w
        w_p = bruhat(gp).w
        for i in range(3):
            for j in range(3):
                assert w_p[i, j].coefficient(0) == w_t[i, j].as_fraction()
        for pred in MEMBERSHIPS:
            assert pred(g) == pred(gp)
        if trial % 10 == 0:
            res_t = iwasawa_kau(g)
            res_p = iwasawa_kau(gp)
            assert member_K(res_p.k) and member_A(res_p.a) and member_U(res_p.u)
            for i in range(3):
                for j in range(3):
                    assert res_p.u[i, j].coefficient(0) == res_t.u[i, j].as_fraction()
    print("\nACCEPTANCE 8 PASS: 200 transfer agreements (Bruhat + memberships + KAU)")


def test_criterion_9_weyl_compatibility():
    reps, table = n_mod_m_classes(n_elements(3))
    assert len(reps) == 6
    ident = next(i for i in range(6) if all(table[i][j] == j for j in range(6)))
    orders = []
    for i in range(6):
        k, cur = 1, i
        while cur != ident:
            cur = table[cur][i]
            k += 1
        orders.append(k)
    w = weyl(build("A2"))
    assert sorted(orders) == w.element_orders() == [1, 2, 2, 2, 3, 3]
    assert any(table[i][j] != table[j][i] for i in range(6) for j in range(6))
    # the expected representative list, entry for entry
    expected = [
        [[1, 0, 0], [0, 1, 0], [0, 0, 1]],
        [[0, -1, 0], [1, 0, 0], [0, 0, 1]],
        [[1, 0, 0], [0, 0, -1], [0, 1, 0]],
        [[0, 0, -1], [0, 1, 0], [1, 0, 0]],
        [[0, 0, 1], [1, 0, 0], [0, 1, 0]],
        [[0, 1, 0], [0, 0, 1], [1, 0, 0]],
    ]
    produced = weyl_reps_sl3()
    for mat, g in zip(expected, produced):
        assert g == GroupElement.tower(mat)
    # and they represent the six distinct classes
    from rcg.linalg import inverse
    from rcg.slgroup import member_M

    for i in range(6):
        for j in range(i + 1, 6):
            q = GroupElement(inverse(produced[i].mat) * produced[j].mat)
            assert not member_M(q)
    print("\nACCEPTANCE 9 PASS: N/M quotient is S3, representatives as expected")
