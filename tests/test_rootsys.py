import json
import random
from fractions import Fraction
from math import gcd
from pathlib import Path

import pytest

from rcg.errors import InternalError, UnsupportedType
from rcg.kostant import kostant_chars
from rcg.rootsys import (
    _primitive,
    build,
    cone_data,
    eta_plus,
    eta_plus_expansion,
    WeylGroup,
    gamma_coefficients,
    RootSystem,
    weyl,
    weyl_order,
)

F = Fraction


def test_build_counts():
    assert len(build("A1").all_roots) == 2
    assert len(build("A2").all_roots) == 6
    assert len(build("B2").all_roots) == 8
    assert len(build("G2").all_roots) == 12
    assert len(build("A3").all_roots) == 12


def test_build_unsupported():
    with pytest.raises(UnsupportedType):
        build("E8")
    with pytest.raises(UnsupportedType):
        build("B3")


def test_crystallographic_integrality():
    for name in ("A1", "A2", "A3", "B2", "G2"):
        rs = build(name)
        for alpha in rs.all_roots:
            aa = rs.inner(alpha, alpha)
            for beta in rs.all_roots:
                c = 2 * rs.inner(alpha, beta) / aa
                assert c.denominator == 1


def test_reflection_stability():
    for name in ("A2", "B2", "G2"):
        rs = build(name)
        roots = set(rs.all_roots)
        for i in range(rs.rank):
            for r in roots:
                img = tuple(int(x) for x in rs.reflect(i, r))
                assert img in roots


def test_weyl_orders():
    assert len(weyl(build("A1"))) == 2
    assert len(weyl(build("A2"))) == 6
    assert len(weyl(build("B2"))) == 8
    assert len(weyl(build("G2"))) == 12
    assert len(weyl(build("A3"))) == 24


def test_weyl_words_and_root_action():
    w = weyl(build("A2"))
    # identity has the empty word; generators have length-1 words
    lengths = sorted(len(e.word) for e in w.elements)
    assert lengths == [0, 1, 1, 2, 2, 3]


def test_cone_data_a2():
    rs = build("A2")
    cd = cone_data(rs)
    assert cd.gamma[0] == (2, 1)
    assert cd.gamma[1] == (1, 2)
    for j, e in enumerate(cd.e):
        assert gcd(*e) == 1
        assert rs.inner(e, cd.x[j]) > 0


def test_cone_data_a1():
    cd = cone_data(build("A1"))
    assert cd.gamma[0] == (1,)


def test_cone_data_g2():
    rs = build("G2")
    cd = cone_data(rs)
    for j in range(2):
        assert rs.inner(cd.gamma[j], rs.simple_roots[j]) > 0
        other = 1 - j
        assert rs.inner(cd.e[j], cd.x[other]) == 0


def test_eta_plus_expansion_a2():
    rs = build("A2")
    assert eta_plus(rs) == (2, 2)
    assert eta_plus_expansion(rs) == [F(2, 3), F(2, 3)]


def test_eta_plus_expansion_a1():
    assert eta_plus_expansion(build("A1")) == [1]


def test_eta_plus_expansion_g2_positive():
    coeffs = eta_plus_expansion(build("G2"))
    assert all(c > 0 for c in coeffs)


def test_g2_counter_anchor():
    # the naive candidate delta_1 + delta_2 has a negative gamma-coefficient
    rs = build("G2")
    cd = cone_data(rs)
    coeffs = gamma_coefficients(rs, cd, (1, 1))
    assert any(c < 0 for c in coeffs)


def test_gamma_identity_random_lattice():
    rng = random.Random(31)
    for name in ("A2", "G2"):
        rs = build(name)
        cd = cone_data(rs)
        for ell in range(rs.rank):
            assert rs.inner(cd.gamma[ell], rs.simple_roots[ell]) > 0
        for _ in range(50):
            eta = tuple(rng.randint(-10, 10) for _ in range(rs.rank))
            coeffs = gamma_coefficients(rs, cd, eta)
            recon = [F(0)] * rs.rank
            for c, g in zip(coeffs, cd.gamma):
                for i in range(rs.rank):
                    recon[i] += c * g[i]
            assert tuple(recon) == tuple(F(x) for x in eta)


def test_weyl_compose_outside_the_group_is_an_internal_error():
    w = weyl(build("A2"))
    s1, s2 = w.generators
    partial = WeylGroup(w.system, [s1, s2], w.generators)
    with pytest.raises(InternalError, match="Weyl group not closed"):
        partial.compose(s1, s2)


@pytest.mark.parametrize("name", ["A1", "A2", "A3", "A4", "A5", "B2", "G2"])
def test_weyl_order_formula_matches_enumeration(name):
    rs = build(name)
    assert weyl_order(rs) == len(weyl(rs))


def test_weyl_order_needs_an_irreducible_system():
    with pytest.raises(UnsupportedType, match="irreducible"):
        weyl_order(RootSystem("A1xA1", [[2, 0], [0, 2]]))


CONE_GOLDEN = json.loads((Path(__file__).parent / "cone_golden.json").read_text())


@pytest.mark.parametrize("name", sorted(CONE_GOLDEN))
def test_cone_data_matches_the_golden_table(name):
    # pinned per type: gamma and e, and for A_r the characters of SL_(r+1)
    want = CONE_GOLDEN[name]
    rs = build(name)
    cd = cone_data(rs)
    assert [list(g) for g in cd.gamma] == want["gamma"]
    assert [list(v) for v in cd.e] == want["e"]
    if "kostant_chars" in want:
        assert [list(v) for v in kostant_chars(rs.rank + 1)] == want["kostant_chars"]


def test_primitive_scales_to_the_smallest_integer_vector():
    assert _primitive([4, 6, 0]) == (2, 3, 0)
    assert _primitive([-2, -4]) == (-1, -2)
    assert _primitive([F(1, 2), F(-1, 3)]) == (3, -2)
    assert _primitive([F(3, 4)]) == (1,)
    assert all(type(q) is int for q in _primitive([F(5, 6), F(10, 9)]))
