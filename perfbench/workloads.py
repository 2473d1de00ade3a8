"""The four workloads: seeded inputs, and one round of timed operations.

A workload makes its inputs in two steps.  ``generate(rng)`` draws one
round's raw inputs with this package's own Fraction code.  ``prepare(rcg,
raw, workdir)`` hands them to the program the way a user would (for example
``GroupElement.tower`` or writing a CLI input file) and returns the round as
a list of ``Op``.  Only ``Op.call`` is timed; ``Op.check`` runs afterwards on
its result with the independent oracles.

Every round has the same make-up, so the share of failed operations is the
same in every run.  The counts per size class were chosen so that the median
and the 90th percentile latency each fall inside one class (see README.md).
"""

from __future__ import annotations

import io
import json
import random
from fractions import Fraction as F
from math import prod

import oracles as O

# ---------------------------------------------------------------------------
# generators (benchmark-side Fraction code only)


def _unit_upper(rng, n):
    return [[F(1) if i == j else (F(rng.randint(-2, 2)) if i < j else F(0))
             for j in range(n)] for i in range(n)]


def _unit_lower(rng, n, values=(-2, -1, 0, 1, 2)):
    return [[F(1) if i == j else (F(rng.choice(values)) if i > j else F(0))
             for j in range(n)] for i in range(n)]


def _signed_permutation(rng, n):
    perm = list(range(n))
    rng.shuffle(perm)
    signs = [rng.choice((1, -1)) for _ in range(n)]
    inversions = sum(perm[i] > perm[j] for i in range(n) for j in range(i + 1, n))
    if (-1) ** inversions * prod(signs) < 0:
        signs[0] = -signs[0]
    m = [[F(0)] * n for _ in range(n)]
    for col, row in enumerate(perm):
        m[row][col] = F(signs[col])
    return m


def _squarefree_primes(m: int) -> set:
    out = set()
    p = 2
    while p * p <= m:
        while m % p == 0:
            out ^= {p}
            m //= p
        p += 1
    if m > 1:
        out ^= {m}
    return out


def _square_class_rank(values) -> int:
    """Rank over GF(2) of the square classes of positive rationals: the
    number of independent radicals their square roots adjoin."""
    basis = []
    for q in values:
        v = _squarefree_primes(q.numerator) ^ _squarefree_primes(q.denominator)
        for b in basis:
            if max(b) in v:
                v ^= b
        if v:
            basis.append(v)
    return len(basis)


def sl_rational(rng, n):
    """A random rational element of SL_n, b1 w b2 with unit upper b's and a
    signed permutation w, whose KAU and UAK column norms adjoin the full
    n - 1 independent radicals.  Fixing that tower depth keeps the cost of
    one input of size n steady from seed to seed."""
    while True:
        g = O.mmul(O.mmul(_unit_upper(rng, n), _signed_permutation(rng, n)),
                   _unit_upper(rng, n))
        _, d1 = O.ldl(O.mmul(O.transpose(g), g))
        _, d2 = O.udu(O.mmul(g, O.transpose(g)))
        if _square_class_rank(d1) == n - 1 and _square_class_rank(d2) == n - 1:
            return g


def chamber_diagonal(rng, n=3):
    """Descending positive rationals with product one."""
    d = [F(rng.randint(1, 9), rng.randint(1, 9)) for _ in range(n - 1)]
    d.append(1 / prod(d))
    return sorted(d, reverse=True)


def random_strictly_upper(rng, n):
    return [[F(rng.randint(-3, 3), rng.choice((1, 1, 2, 3))) if j > i else F(0)
             for j in range(n)] for i in range(n)]


def partitions(n, largest=None):
    largest = largest or n
    if n == 0:
        yield []
        return
    for k in range(min(n, largest), 0, -1):
        for rest in partitions(n - k, k):
            yield [k] + rest


def jordan_nilpotent(blocks):
    n = sum(blocks)
    m = [[F(0)] * n for _ in range(n)]
    offset = 0
    for b in blocks:
        for t in range(b - 1):
            m[offset + t][offset + t + 1] = F(1)
        offset += b
    return m


def conjugated_nilpotent(rng, blocks):
    """P J P^-1 for the Jordan matrix J of the given block sizes and
    P = L U with random unit triangular L, U."""
    n = sum(blocks)
    low, up = _unit_lower(rng, n), _unit_upper(rng, n)
    low_inv = O.transpose(O.unit_upper_inverse(O.transpose(low)))
    p = O.mmul(low, up)
    p_inv = O.mmul(O.unit_upper_inverse(up), low_inv)
    return O.mmul(O.mmul(p, jordan_nilpotent(blocks)), p_inv)


def nilpotent_types(n):
    """Block sizes of every nonzero nilpotent orbit of sl_n."""
    return [p for p in partitions(n) if p != [1] * n]


def _mono(c, e):
    return O.Series({F(e): F(c)})


def sl_puiseux(rng, n):
    """g = D L S in SL_n over the Puiseux field: D monomial diagonal with
    distinct exponents (so g^T g has a simple leading spectrum), L lower and
    S upper unitriangular with nonzero rational entries.  Returns g as
    Series rows and L, whose rank profile is g's Bruhat cell.

    An SL_2 input takes D = diag(c X^e, X^-e / c) with e = +-3.  The KAK
    lift's cost depends on |e| (at 2 the order-8 lift takes twice as long as
    at 3, at 1 both do), and one |e| keeps the SL_2 KAK latencies, where
    the median of puiseux_decomp falls, in one cluster."""
    if n == 2:
        e = rng.choice((-3, 3))
        exps = [e, -e]
    else:
        while True:
            exps = [rng.randint(-3, 3) for _ in range(n - 1)]
            exps.append(-sum(exps))
            if len(set(exps)) == n and exps[0] != 0:
                break
    coeffs = [F(rng.choice((1, 2, 3, 4)), rng.choice((1, 2, 3))) for _ in range(n - 1)]
    coeffs.append(1 / prod(coeffs))
    d = [[_mono(coeffs[i], exps[i]) if i == j else O.Series({}) for j in range(n)]
         for i in range(n)]
    low = _unit_lower(rng, n, (-2, -1, 1, 2))
    shear = [[F(1) if i == j else (F(rng.choice((-2, -1, 1, 2))) if i < j else F(0))
              for j in range(n)] for i in range(n)]
    return O.mmul(O.mmul(d, low), shear), low


#: An SL_2 input on which iwasawa_kau fails today with a bogus "determinant
#: is 1 + 1/128*X^(-6) + O(X^(-8)), not 1" DomainError: the series loops in
#: puiseux.invert / sqrt_positive drop a power made only of a tail.
KNOWN_KAU_FAULT = [
    [{3: 2}, {3: 2}],
    [{0: F(1, 4), -3: F(-1, 2), -6: F(-3, 4)}, {0: F(1, 4), -6: F(-3, 4)}],
]

#: the relative order of rcg's Puiseux operations when none is given, which
#: iwasawa_kau and bruhat results must certify
DEFAULT_ORDER = 8

#: seed of the fixed SL_3 panel of puiseux_decomp
SL3_PANEL_SEED = "puiseux_decomp:sl3-panel"


def _series_rows(spec):
    return [[O.Series({F(e): F(c) for e, c in entry.items()}) for entry in r] for r in spec]


# ---------------------------------------------------------------------------
# operations


class Op:
    """One public call of rcg (``call``, timed) and the independent check
    of its result (``check``, untimed; returns None or a message)."""

    __slots__ = ("kind", "call", "check")

    def __init__(self, kind, call, check):
        self.kind = kind
        self.call = call
        self.check = check


def _puiseux_scalar(rcg, series):
    return rcg.PuiseuxScalar(tuple(series.terms.items()), series.tail)


def _puiseux_element(rcg, g):
    return rcg.GroupElement.puiseux([[_puiseux_scalar(rcg, x) for x in r] for r in g])


class TowerDecomp:
    """Rational SL_n, n = 2..6, over the tower: KAU, UAK and Bruhat on every
    input, KAK on n = 2, plus the Kostant test and orbit sampler on n = 3
    chamber points."""

    #: inputs per size in one round
    SIZES = {2: 24, 3: 2, 4: 5, 5: 12, 6: 1}
    MEMBER_PAIRS = 6
    ORBIT_CALLS = 38
    ORBIT_TRIALS = 2

    def generate(self, rng):
        return {
            "sl": [(n, sl_rational(rng, n)) for n, k in self.SIZES.items() for _ in range(k)],
            "member": [(chamber_diagonal(rng), chamber_diagonal(rng))
                       for _ in range(self.MEMBER_PAIRS)],
            "orbit": [(chamber_diagonal(rng), rng.randrange(10**6))
                      for _ in range(self.ORBIT_CALLS)],
        }

    def prepare(self, rcg, raw, workdir):
        dec, kos = rcg.decomp, rcg.kostant
        ops = []
        for n, g in raw["sl"]:
            ge = rcg.GroupElement.tower(g)
            ops.append(Op(f"kau/n{n}", lambda ge=ge: dec.iwasawa_kau(ge),
                          lambda r, g=g: O.check_kau(g, O.rows(r.k), O.rows(r.a), O.rows(r.u))))
            ops.append(Op(f"uak/n{n}", lambda ge=ge: dec.iwasawa_uak(ge),
                          lambda r, g=g: O.check_uak(g, O.rows(r.u), O.rows(r.a), O.rows(r.k))))
            ops.append(Op(f"bruhat/n{n}", lambda ge=ge: dec.bruhat(ge),
                          lambda r, g=g: O.check_bruhat(
                              g, O.frac_rows(r.b1), O.frac_rows(r.w), O.frac_rows(r.b2))))
            if n == 2:
                ops.append(Op("kak/n2", lambda ge=ge: dec.cartan_kak(ge),
                              lambda r, g=g: O.check_kak2(
                                  g, O.rows(r.k1), O.rows(r.a), O.rows(r.k2))))
        for da, db in raw["member"]:
            a = rcg.ChamberPoint.from_diagonal(da)
            b = rcg.ChamberPoint.from_diagonal(db)
            ops.append(Op("member/n3", lambda a=a, b=b: kos.kostant_member(a, b),
                          lambda r, da=da, db=db: O.check_member(da, db, r)))
        for db, seed in raw["orbit"]:
            b = rcg.ChamberPoint.from_diagonal(db)
            trials = self.ORBIT_TRIALS
            ops.append(Op("orbit/n3",
                          lambda b=b, s=seed: kos.orbit_sample_check(b, trials, seed=s),
                          lambda r: O.check_orbit_report(r, trials)))
        return ops


class RationalLie:
    """Rational strictly upper triangular pairs in sl_4 and sl_5 (BCH,
    degree-3 BCH partial sum, Zassenhaus, U_Theta factorisation) and
    Jacobson-Morozov on conjugated nilpotents of every Jordan type."""

    PAIRS = {4: 8, 5: 6}
    JM_SETS = 5

    def generate(self, rng):
        return {
            "pairs": [(n, random_strictly_upper(rng, n), random_strictly_upper(rng, n))
                      for n, k in self.PAIRS.items() for _ in range(k)],
            "jm": [conjugated_nilpotent(rng, blocks)
                   for _ in range(self.JM_SETS) for n in (4, 5)
                   for blocks in nilpotent_types(n)],
        }

    def prepare(self, rcg, raw, workdir):
        nil = rcg.nilpotent
        ops = []
        for n, x, y in raw["pairs"]:
            mx, my = rcg.Matrix.tower(x), rcg.Matrix.tower(y)
            u = O.exp_nil(x)
            gu = rcg.GroupElement.tower(u)
            theta = rcg.ThetaSet.all_positive(n)
            ops.append(Op(f"bch/n{n}", lambda mx=mx, my=my: nil.bch(mx, my),
                          lambda r, x=x, y=y: O.check_bch(x, y, O.frac_rows(r))))
            ops.append(Op(f"bch3/n{n}", lambda mx=mx, my=my: nil.bch_partial_sum(mx, my, 3),
                          lambda r, x=x, y=y: O.check_bch3(x, y, O.frac_rows(r))))
            ops.append(Op(f"zassenhaus/n{n}", lambda mx=mx, my=my: nil.zassenhaus(mx, my),
                          lambda r, x=x, y=y: O.check_zassenhaus(
                              x, y, [O.frac_rows(f) for f in r])))
            ops.append(Op(f"utheta/n{n}", lambda gu=gu, t=theta: nil.u_theta_factorize(gu, t),
                          lambda r, u=u: O.check_utheta(
                              u, [(a, O.frac_rows(c)) for a, c in r])))
        for x in raw["jm"]:
            mx = rcg.Matrix.tower(x)
            ops.append(Op(f"jm/n{len(x)}", lambda mx=mx: nil.jacobson_morozov(mx),
                          lambda r, x=x: O.check_jm(
                              x, O.frac_rows(r.x), O.frac_rows(r.h), O.frac_rows(r.y))))
        return ops


class PuiseuxDecomp:
    """Puiseux products D L S.  Seeded SL_2 inputs get KAU, KAK at orders 6
    and 8, and Bruhat; no SL_2 draw fails or falls short of the order it
    must certify (see test_oracles.py).  A fixed SL_3 panel, the same in
    every run, gets the same four operations: seeded SL_3 draws fail now and
    then, and a fixed panel keeps its failures the same share of every run.
    KNOWN_KAU_FAULT gets KAU."""

    SL2_INPUTS = 16
    SL3_PANEL = 20

    def generate(self, rng):
        panel = random.Random(SL3_PANEL_SEED)
        return {
            "sl2": [sl_puiseux(rng, 2) for _ in range(self.SL2_INPUTS)],
            "sl3": [sl_puiseux(panel, 3) for _ in range(self.SL3_PANEL)],
        }

    def prepare(self, rcg, raw, workdir):
        dec = rcg.decomp
        ops = []
        for g, low in raw["sl2"] + raw["sl3"]:
            ge = _puiseux_element(rcg, g)
            n = len(g)
            ops.append(self._kau(dec, ge, g, f"kau/n{n}"))
            for order in (6, 8):
                ops.append(Op(f"kak{order}/n{n}",
                              lambda ge=ge, q=order: dec.cartan_kak(ge, order=q),
                              lambda r, g=g, q=order: O.check_series_kak(
                                  g, O.series_rows(r.k1), O.series_rows(r.a),
                                  O.series_rows(r.k2), q)))
            profile = O.rank_profile(low)
            ops.append(Op(f"bruhat/n{n}", lambda ge=ge: dec.bruhat(ge),
                          lambda r, g=g, p=profile: O.check_series_bruhat(
                              g, O.series_rows(r.b1), O.series_rows(r.w),
                              O.series_rows(r.b2), p, DEFAULT_ORDER)))
        g = _series_rows(KNOWN_KAU_FAULT)
        ops.append(self._kau(dec, _puiseux_element(rcg, g), g, "kau-known-fault/n2"))
        return ops

    @staticmethod
    def _kau(dec, ge, g, kind):
        return Op(kind, lambda: dec.iwasawa_kau(ge),
                  lambda r: O.check_series_kau(
                      g, O.series_rows(r.k), O.series_rows(r.a), O.series_rows(r.u),
                      DEFAULT_ORDER))


def _fmt_fraction(q):
    q = F(q)
    return str(q.numerator) if q.denominator == 1 else f"{q.numerator}/{q.denominator}"


def _fmt_series(s):
    """A Series in rcg's input grammar: c*X^(e) terms, largest first."""
    parts = []
    for e in sorted(s.terms, reverse=True):
        c = F(s.terms[e])
        body = _fmt_fraction(abs(c)) + ("" if e == 0 else f"*X^({_fmt_fraction(e)})")
        parts.append(("-" if c < 0 else "+", body))
    if not parts:
        return "0"
    text = ("-" if parts[0][0] == "-" else "") + parts[0][1]
    return text + "".join(f" {sign} {body}" for sign, body in parts[1:])


def _write_matrix(path, m, fmt=_fmt_fraction):
    path.write_text("\n".join(", ".join(fmt(x) for x in r) for r in m) + "\n")
    return str(path)


def _cli_result(cli, argv):
    out, err = io.StringIO(), io.StringIO()
    code = cli.run(argv, out, err)
    return code, out.getvalue(), err.getvalue()


def _blocks(fmt, text):
    """The named outputs of one CLI run, as {key: rows or value}."""
    return json.loads(text) if fmt == "json" else O.parse_text_blocks(text)


class CliText:
    """``rcg.cli.run(argv, out, err)`` in-process on text input files drawn
    from the generators above: every verb, both formats, both fields."""

    TOWER_SL2 = 10
    TOWER_SL3 = 4
    PUISEUX_SL2 = 8
    BCH_PAIRS = 8
    JM_PER_TYPE = 2
    MEMBER_PAIRS = 12
    ROOT_TYPES = {"A2": (6, 6), "G2": (12, 12)}  # type -> (roots, Weyl order)

    def generate(self, rng):
        return {
            "tower": [sl_rational(rng, n) for n, k in ((2, self.TOWER_SL2), (3, self.TOWER_SL3))
                      for _ in range(k)],
            "puiseux": [sl_puiseux(rng, 2) for _ in range(self.PUISEUX_SL2)],
            "bch": [(random_strictly_upper(rng, 4), random_strictly_upper(rng, 4))
                    for _ in range(self.BCH_PAIRS)],
            "jm": [conjugated_nilpotent(rng, blocks) for _ in range(self.JM_PER_TYPE)
                   for blocks in nilpotent_types(4)],
            "member": [(chamber_diagonal(rng), chamber_diagonal(rng))
                       for _ in range(self.MEMBER_PAIRS)],
        }

    def prepare(self, rcg, raw, workdir):
        cli = rcg.cli
        sqrt = rcg.tower.sqrt_positive
        files = iter(range(10**9))

        def path():
            return workdir / f"{next(files)}.mat"

        def op(kind, argv, check):
            fmt = "json" if "json" in argv else "text"
            return Op(f"{kind}/{fmt}", lambda: _cli_result(cli, argv),
                      lambda r: _check_cli(r, lambda out: check(_blocks(fmt, out))))

        def tower_rows(block):
            return [[O.parse_tower(x, sqrt) for x in r] for r in block]

        formats = ("text", "json")
        ops = []
        for i, g in enumerate(raw["tower"]):
            f = _write_matrix(path(), g)
            n = len(g)
            fmt = formats[i % 2]
            ops.append(op(f"iwasawa-kau/n{n}", ["--format", fmt, "iwasawa", f],
                          lambda b, g=g: O.check_kau(
                              g, *(tower_rows(b[key]) for key in ("k", "a", "u")))))
            ops.append(op(f"iwasawa-uak/n{n}",
                          ["--format", formats[1 - i % 2], "iwasawa", "--mode", "uak", f],
                          lambda b, g=g: O.check_uak(
                              g, *(tower_rows(b[key]) for key in ("u", "a", "k")))))
            ops.append(op(f"bruhat/n{n}", ["--format", fmt, "bruhat", f],
                          lambda b, g=g: O.check_bruhat(
                              g, *(tower_rows(b[key]) for key in ("b1", "w", "b2")))))
            if n == 2:
                ops.append(op("cartan/n2", ["--format", formats[1 - i % 2], "cartan", f],
                              lambda b, g=g: O.check_kak2(
                                  g, *(tower_rows(b[key]) for key in ("k1", "a", "k2")))))
        for i, (g, _) in enumerate(raw["puiseux"]):
            f = _write_matrix(path(), g, _fmt_series)
            fmt = formats[i % 2]
            field = ["--field", "puiseux", "--format", fmt]
            ops.append(op("puiseux-iwasawa/n2", field + ["iwasawa", f], _shape("k", "a", "u")))
            ops.append(op("puiseux-cartan/n2", field + ["--trunc", "6", "cartan", f],
                          _shape("k1", "a", "k2")))
            ops.append(op("puiseux-bruhat/n2", field + ["bruhat", f], _shape("b1", "w", "b2")))
        for i, (x, y) in enumerate(raw["bch"]):
            fx, fy = _write_matrix(path(), x), _write_matrix(path(), y)
            ops.append(op("bch/n4", ["--format", formats[i % 2], "bch", fx, fy],
                          lambda b, x=x, y=y: O.check_bch(x, y, tower_rows(b["z"]))))
        for i, x in enumerate(raw["jm"]):
            f = _write_matrix(path(), x)
            ops.append(op("jm-triple/n4", ["--format", formats[i % 2], "jm-triple", f],
                          lambda b, x=x: O.check_jm(
                              x, *(tower_rows(b[key]) for key in ("x", "h", "y")))))
        for i, (da, db) in enumerate(raw["member"]):
            fa = _write_matrix(path(), _diagonal(da))
            fb = _write_matrix(path(), _diagonal(db))
            ops.append(op("kostant-check/n3",
                          ["--format", formats[i % 2], "kostant-check", "--a", fa, "--b", fb],
                          lambda b, da=da, db=db: O.check_member(
                              da, db, b["member"] in (True, "True"))))
        for i, (name, (roots, order)) in enumerate(self.ROOT_TYPES.items()):
            ops.append(op(f"roots/{name}", ["--format", formats[i % 2], "roots", "--type", name],
                          lambda b, roots=roots, order=order: _check_roots(b, roots, order)))
        return ops


def _diagonal(d):
    return [[x if i == j else F(0) for j, x in enumerate(d)] for i in range(len(d))]


def _check_cli(result, check):
    code, out, err = result
    if code != 0:
        return f"exit code {code}: {err.strip()[:120]}"
    return check(out)


def _shape(*keys):
    """Puiseux output is checked by shape only: a truncated value such as
    '... + O(X^(-6))' does not parse back (see CHANGES.md)."""

    def check(blocks):
        if any(not isinstance(blocks.get(k), list) or len(blocks[k]) != 2
               or any(len(r) != 2 or not all(r) for r in blocks[k]) for k in keys):
            return f"output does not hold the 2x2 blocks {keys}"
        return None

    return check


def _check_roots(blocks, roots, order):
    if int(blocks.get("weyl_order", -1)) != order or len(blocks.get("roots", ())) != roots:
        return f"expected {roots} roots and a Weyl group of order {order}"
    return None
