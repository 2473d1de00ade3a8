import random
from fractions import Fraction
from functools import reduce
from operator import mul

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import rcg.decomp
import rcg.kostant
import rcg.tower
from rcg.errors import DomainError, InternalError
from rcg.kostant import (
    ChamberPoint,
    chamber_projection,
    char_value,
    kostant_chars,
    kostant_member,
    orbit_sample_check,
)
from rcg.linalg import TOWER, Matrix, _exact_key
from rcg.puiseux import PuiseuxScalar, X
from rcg.slgroup import GroupElement
from rcg.tower import sqrt_positive

from _hull_oracle import hull_oracle, ln_interval
from _references import radical_orbit_point, radical_orbit_sample_check

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
    squares = [outside[i, i] * outside[i, i] for i in range(3)]
    monkeypatch.setattr(rcg.kostant, "_a_squares", lambda g: squares)
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


# ---------------------------------------------------------------------------
# squared characters against the characters themselves (_references)

#: a positive tower value p/q sqrt(r); r = 1 gives a rational
radical_values = st.builds(
    lambda p, q, r: F(p, q) * sqrt_positive(r),
    st.integers(1, 9), st.integers(1, 9), st.sampled_from([1, 1, 2, 3, 5, 6]),
)


def _unit_diagonal(values, domain):
    """values and 1/prod(values): a diagonal of determinant one."""
    return list(values) + [domain.invert(reduce(mul, values, domain.one))]


def _chamber_point(values, domain):
    diag = sorted(_unit_diagonal(values, domain), key=_exact_key, reverse=True)
    return ChamberPoint(GroupElement(Matrix.diagonal(diag, domain)))


def _outcome(call):
    try:
        return call()
    except InternalError as exc:
        return type(exc).__name__


@settings(max_examples=20, deadline=None)
@given(st.integers(2, 3).flatmap(
    lambda n: st.lists(radical_values, min_size=n - 1, max_size=n - 1)),
    st.integers(0, 10**6))
def test_orbit_report_is_the_radical_one(values, seed):
    """Same trials and violations, slacks within the 10^-12 width of
    _slack, on chamber points with radicals."""
    b = _chamber_point(values, TOWER)
    report = orbit_sample_check(b, 2, seed=seed)
    trials, violations, low, high = radical_orbit_sample_check(
        b, 2, seed, rcg.decomp.a_component)
    assert (report.trials, report.violations) == (trials, violations)
    assert abs(report.min_slack - low) <= 1e-12
    assert abs(report.max_slack - high) <= 1e-12


@settings(max_examples=60, deadline=None)
@given(st.integers(2, 3).flatmap(
    lambda n: st.tuples(st.lists(radical_values, min_size=n - 1, max_size=n - 1),
                        st.lists(radical_values, min_size=n - 1, max_size=n - 1),
                        st.permutations(range(n)))))
def test_orbit_verdict_is_the_radical_one_for_any_a_component(drawn):
    """The seam _a_squares returns the squares of an A-element in any
    order; the sampler raises exactly when the characters of its chamber
    projection exceed b's, and otherwise reports their smallest gap."""
    a_values, b_values, order = drawn
    b = _chamber_point(b_values, TOWER)
    diag = _unit_diagonal(a_values, TOWER)
    a = GroupElement(Matrix.diagonal([diag[i] for i in order]))
    expected = _outcome(lambda: radical_orbit_point(a, b))
    with pytest.MonkeyPatch.context() as patch:
        squares = [a[i, i] * a[i, i] for i in range(len(order))]
        patch.setattr(rcg.kostant, "_a_squares", lambda g: squares)
        got = _outcome(lambda: orbit_sample_check(b, 1, seed=0))
    if isinstance(expected, str):
        assert got == expected
    else:
        assert abs(got.min_slack - expected) <= 1e-12 and got.min_slack == got.max_slack


def test_orbit_sample_check_on_rational_b_merges_no_tower(monkeypatch):
    """The A-component's squares are rational, so they sort and compare as
    Fractions, and each slack holds one radical."""
    rng = random.Random(31)
    points = [rand_chamber(rng, n) for n in (2, 3, 4) for _ in range(3)]

    def refuse(*_):
        raise AssertionError("tower merge in the orbit sampler")

    monkeypatch.setattr(rcg.tower, "_merge", refuse)
    for seed, b in enumerate(points):
        report = orbit_sample_check(b, 5, seed=seed)
        assert report.violations == 0 and report.min_slack >= 0
