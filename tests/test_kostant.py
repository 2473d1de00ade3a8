import random
from fractions import Fraction

import pytest

import rcg.kostant
from rcg.errors import DomainError, InternalError
from rcg.kostant import (
    ChamberPoint,
    chamber_projection,
    char_value,
    kostant_chars,
    kostant_member,
    orbit_sample_check,
)
from rcg.puiseux import PuiseuxScalar, X
from rcg.slgroup import GroupElement

from _hull_oracle import hull_oracle, ln_interval

F = Fraction
mono = PuiseuxScalar.monomial


def chamber(*entries):
    return ChamberPoint.from_diagonal([F(e) for e in entries])


def rand_chamber(rng, n, spread=9):
    while True:
        vals = [F(rng.randint(1, spread), rng.randint(1, spread)) for _ in range(n - 1)]
        prod = F(1)
        for v in vals:
            prod *= v
        vals.append(1 / prod)
        vals.sort(reverse=True)
        if all(vals[i] != vals[i + 1] for i in range(n - 1)):
            return ChamberPoint.from_diagonal(vals)


def test_chamber_validation():
    chamber(2, 1, F(1, 2))
    with pytest.raises(DomainError):
        chamber(1, 2, F(1, 2))  # increasing
    with pytest.raises(DomainError):
        ChamberPoint(GroupElement.tower([[0, -1], [1, 0]]))  # not in A


def test_kostant_chars_derivation():
    assert kostant_chars(2) == [(1, 0)]
    assert kostant_chars(3) == [(1, 0, 0), (1, 1, 0)]
    assert kostant_chars(4) == [(1, 0, 0, 0), (1, 1, 0, 0), (1, 1, 1, 0)]


def test_kostant_chars_hands_out_a_copy():
    kostant_chars(3).clear()
    kostant_chars(3).append((0, 0, 1))
    assert kostant_chars(3) == [(1, 0, 0), (1, 1, 0)]
    assert not kostant_member(chamber(8, 1, F(1, 8)), chamber(2, 1, F(1, 2)))


def test_char_values_identity():
    ident = chamber(1, 1, 1)
    for vec in kostant_chars(3):
        assert char_value(vec, ident) == 1


def test_kostant_member_basics():
    b = chamber(4, F(1, 4))
    assert kostant_member(b, b)
    assert kostant_member(chamber(2, F(1, 2)), b)
    assert not kostant_member(chamber(5, F(1, 5)), b)


def test_kostant_member_puiseux():
    b = ChamberPoint(
        GroupElement.puiseux([[X, 0], [0, X.invert()]])
    )
    a = ChamberPoint(
        GroupElement.puiseux(
            [[mono(1, F(1, 2)), 0], [0, mono(1, F(-1, 2))]]
        )
    )
    assert kostant_member(a, b)
    assert not kostant_member(b, a)


def test_kostant_member_transitive():
    rng = random.Random(211)
    found = 0
    while found < 30:
        a, b, c = (rand_chamber(rng, 3) for _ in range(3))
        if kostant_member(a, b) and kostant_member(b, c):
            assert kostant_member(a, c)
            found += 1


def test_chamber_projection_invariance():
    # membership is insensitive to which Weyl image of the diagonal we take
    rng = random.Random(223)
    for _ in range(20):
        b = rand_chamber(rng, 3)
        diag = b.diagonal()
        perm = rng.sample(range(3), 3)
        shuffled = GroupElement.tower(
            [
                [diag[perm[i]] if i == j else 0 for j in range(3)]
                for i in range(3)
            ]
        )
        assert chamber_projection(shuffled) == b


def test_ln_interval():
    # ln 2 = 0.69314718055994530941...
    ln2_lo = F(69314718055994530941, 10**20)
    ln2_hi = F(69314718055994530942, 10**20)
    lo, hi = ln_interval(F(2), 80)
    assert hi - lo <= F(1, 2**78)
    assert lo <= ln2_hi and hi >= ln2_lo
    lo, hi = ln_interval(F(1, 2), 80)
    assert lo <= -ln2_lo and hi >= -ln2_hi
    assert ln_interval(F(1), 50) == (0, 0)


def test_hull_oracle_vertex_and_interior():
    b = chamber(4, 2, F(1, 8))
    assert hull_oracle(b, b)
    ident = chamber(1, 1, 1)
    # 0 is the average of the Weyl orbit of log b, hence interior
    assert hull_oracle(ident, b)


def test_hull_oracle_outside():
    b = chamber(4, F(1, 4))
    a = chamber(5, F(1, 5))
    assert not hull_oracle(a, b)
    assert not kostant_member(a, b)


def test_hull_oracle_requires_rational():
    from rcg.tower import sqrt_positive

    b = ChamberPoint.from_diagonal([sqrt_positive(2), sqrt_positive(2).inv()])
    with pytest.raises(DomainError):
        hull_oracle(b, b)


def test_hull_oracle_agreement_sl2_sl3():
    rng = random.Random(227)
    checked = 0
    boundary = 0
    for n in (2, 3):
        count = 0
        while count < 60:
            a = rand_chamber(rng, n)
            b = rand_chamber(rng, n)
            hull = hull_oracle(a, b)
            if hull is None:
                boundary += 1
                count += 1
                continue
            assert hull == kostant_member(a, b)
            checked += 1
            count += 1
    assert checked >= 100
    assert boundary <= 6


def test_orbit_rotation_parameter_one():
    # k with tan-half parameter 1 is the quarter rotation [[0,-1],[1,0]]
    from rcg.decomp import a_component
    from rcg.kostant import chamber_projection

    b = chamber(4, F(1, 4))
    k = GroupElement.tower([[0, -1], [1, 0]])
    proj = chamber_projection(a_component(k * b.element))
    assert kostant_member(proj, b)


def test_orbit_sample_sl2():
    b = chamber(4, F(1, 4))
    report = orbit_sample_check(b, 50, seed=5)
    assert report.violations == 0
    assert report.min_slack >= 0


def test_orbit_sample_sl3():
    b = chamber(3, 1, F(1, 3))
    report = orbit_sample_check(b, 40, seed=7)
    assert report.violations == 0


def test_orbit_sample_check_raises_outside_the_hull(monkeypatch):
    b = chamber(3, 1, F(1, 3))
    outside = GroupElement.tower([[9, 0, 0], [0, 1, 0], [0, 0, F(1, 9)]])
    monkeypatch.setattr(rcg.kostant, "a_component", lambda g: outside)
    with pytest.raises(InternalError, match="convexity violation"):
        orbit_sample_check(b, 3, seed=1)


def test_chamber_projection_tests_its_input_once(monkeypatch):
    calls = []
    member_a = rcg.kostant.member_A

    def counting(g):
        calls.append(g)
        return member_a(g)

    monkeypatch.setattr(rcg.kostant, "member_A", counting)
    a = GroupElement.tower([[F(1, 2), 0, 0], [0, 4, 0], [0, 0, F(1, 2)]])
    proj = chamber_projection(a)
    assert calls == [a]
    assert proj.diagonal() == [4, F(1, 2), F(1, 2)] and proj.n == 3
