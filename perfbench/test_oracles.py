"""The benchmark's own tests: every independent check accepts rcg's result
and rejects a deliberately corrupted one; the tracer reaches rebound names
and puts everything back.

    python3 -m unittest discover -s perfbench -p "test_*.py"
"""

from __future__ import annotations

import copy
import itertools
import random
import sys
import tempfile
import unittest
from fractions import Fraction as F
from pathlib import Path
from types import SimpleNamespace

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import rcg  # noqa: E402
import rcg.cli  # noqa: E402

import oracles as O  # noqa: E402
import run as R  # noqa: E402
import workloads as W  # noqa: E402
from tracing import Tracer  # noqa: E402


def corrupt(m, i, j, delta=F(1)):
    out = copy.deepcopy(m)
    out[i][j] = out[i][j] + delta
    return out


class TowerChecks(unittest.TestCase):
    def setUp(self):
        self.rng = random.Random(7)
        self.g = W.sl_rational(self.rng, 3)
        self.ge = rcg.GroupElement.tower(self.g)

    def test_kau(self):
        r = rcg.iwasawa_kau(self.ge)
        k, a, u = O.rows(r.k), O.rows(r.a), O.rows(r.u)
        self.assertIsNone(O.check_kau(self.g, k, a, u))
        self.assertIsNotNone(O.check_kau(self.g, k, a, corrupt(u, 0, 2)))
        self.assertIsNotNone(O.check_kau(self.g, corrupt(k, 1, 1), a, u))
        self.assertIsNotNone(O.check_kau(self.g, k, O.mscale(a, F(-1)), u))

    def test_uak(self):
        r = rcg.iwasawa_uak(self.ge)
        u, a, k = O.rows(r.u), O.rows(r.a), O.rows(r.k)
        self.assertIsNone(O.check_uak(self.g, u, a, k))
        self.assertIsNotNone(O.check_uak(self.g, corrupt(u, 0, 1), a, k))
        self.assertIsNotNone(O.check_uak(self.g, u, a, corrupt(k, 2, 0)))

    def test_kak2(self):
        g = W.sl_rational(self.rng, 2)
        r = rcg.cartan_kak(rcg.GroupElement.tower(g))
        k1, a, k2 = O.rows(r.k1), O.rows(r.a), O.rows(r.k2)
        self.assertIsNone(O.check_kak2(g, k1, a, k2))
        swapped = [[a[1][1], a[0][1]], [a[1][0], a[0][0]]]
        self.assertIsNotNone(O.check_kak2(g, k1, swapped, k2))
        self.assertIsNotNone(O.check_kak2(g, O.mscale(k1, F(2)), a, k2))
        flipped = copy.deepcopy(k2)
        flipped[0][0] = -flipped[0][0]
        self.assertIsNotNone(O.check_kak2(g, k1, a, flipped))

    def test_bruhat(self):
        r = rcg.bruhat(self.ge)
        b1, w, b2 = O.frac_rows(r.b1), O.frac_rows(r.w), O.frac_rows(r.b2)
        self.assertIsNone(O.check_bruhat(self.g, b1, w, b2))
        self.assertIsNotNone(O.check_bruhat(self.g, corrupt(b1, 2, 0), w, b2))
        self.assertIsNotNone(O.check_bruhat(self.g, b1, w, corrupt(b2, 1, 2)))
        moved = [[r[1], r[2], r[0]] for r in w]
        self.assertIsNotNone(O.check_bruhat(self.g, b1, moved, b2))

    def test_member_and_orbit(self):
        da, db = [F(2), F(1), F(1, 2)], [F(4), F(1), F(1, 4)]
        a, b = rcg.ChamberPoint.from_diagonal(da), rcg.ChamberPoint.from_diagonal(db)
        verdict = rcg.kostant_member(a, b)
        self.assertTrue(verdict)
        self.assertIsNone(O.check_member(da, db, verdict))
        self.assertIsNotNone(O.check_member(da, db, not verdict))
        self.assertIsNotNone(O.check_member(db, da, True))
        report = rcg.orbit_sample_check(b, 2, seed=3)
        self.assertIsNone(O.check_orbit_report(report, 2))
        bad = SimpleNamespace(**{**vars(report), "violations": 1})
        self.assertIsNotNone(O.check_orbit_report(bad, 2))


class LieChecks(unittest.TestCase):
    def setUp(self):
        rng = random.Random(3)
        self.x, self.y = W.random_strictly_upper(rng, 4), W.random_strictly_upper(rng, 4)
        self.mx, self.my = rcg.Matrix.tower(self.x), rcg.Matrix.tower(self.y)
        self.nil = W.conjugated_nilpotent(rng, [2, 2])

    def test_bch(self):
        z = O.frac_rows(rcg.bch(self.mx, self.my))
        self.assertIsNone(O.check_bch(self.x, self.y, z))
        self.assertIsNotNone(O.check_bch(self.x, self.y, corrupt(z, 0, 3)))
        z3 = O.frac_rows(rcg.nilpotent.bch_partial_sum(self.mx, self.my, 3))
        self.assertIsNone(O.check_bch3(self.x, self.y, z3))
        self.assertIsNotNone(O.check_bch3(self.x, self.y, corrupt(z3, 0, 2, F(1, 12))))

    def test_zassenhaus(self):
        factors = [O.frac_rows(f) for f in rcg.zassenhaus(self.mx, self.my)]
        self.assertIsNone(O.check_zassenhaus(self.x, self.y, factors))
        self.assertIsNotNone(O.check_zassenhaus(
            self.x, self.y, factors[:3] + [corrupt(factors[3], 0, 3)] + factors[4:]))
        self.assertIsNotNone(O.check_zassenhaus(self.x, self.y, [factors[1], factors[0]] + factors[2:]))

    def test_utheta(self):
        u = O.exp_nil(self.x)
        factors = [(a, O.frac_rows(c)) for a, c in rcg.u_theta_factorize(
            rcg.GroupElement.tower(u), rcg.ThetaSet.all_positive(4))]
        self.assertIsNone(O.check_utheta(u, factors))
        self.assertIsNotNone(O.check_utheta(u, factors[::-1]))
        alpha, comp = factors[0]
        self.assertIsNotNone(O.check_utheta(
            u, [(alpha, corrupt(comp, alpha.i, alpha.j))] + factors[1:]))

    def test_jm(self):
        t = rcg.jacobson_morozov(rcg.Matrix.tower(self.nil))
        x, h, y = O.frac_rows(t.x), O.frac_rows(t.h), O.frac_rows(t.y)
        self.assertIsNone(O.check_jm(self.nil, x, h, y))
        self.assertIsNotNone(O.check_jm(self.nil, x, O.mscale(h, F(2)), y))
        self.assertIsNotNone(O.check_jm(self.nil, x, h, corrupt(y, 3, 0)))


class SeriesChecks(unittest.TestCase):
    def setUp(self):
        rng = random.Random(5)
        self.g, self.low = W.sl_puiseux(rng, 2)
        self.ge = W._puiseux_element(rcg, self.g)

    @staticmethod
    def bump(m, i, j):
        """Add 1 to the leading known term of entry (i, j)."""
        out = [list(r) for r in m]
        s = out[i][j]
        lead = max(s.terms)
        out[i][j] = s + O.Series({lead: F(1)})
        return out

    def assertWrong(self, problem):
        self.assertIsNotNone(problem)
        self.assertNotIsInstance(problem, O.Shortfall)

    def test_kau(self):
        r = rcg.iwasawa_kau(self.ge)
        k, a, u = (O.series_rows(m) for m in (r.k, r.a, r.u))
        self.assertIsNone(O.check_series_kau(self.g, k, a, u, 8))
        self.assertWrong(O.check_series_kau(self.g, self.bump(k, 0, 0), a, u, 8))
        self.assertWrong(O.check_series_kau(self.g, k, a, self.bump(u, 0, 1), 8))

    def test_kak(self):
        r = rcg.cartan_kak(self.ge, order=6)
        k1, a, k2 = (O.series_rows(m) for m in (r.k1, r.a, r.k2))
        self.assertIsNone(O.check_series_kak(self.g, k1, a, k2, 6))
        self.assertWrong(O.check_series_kak(self.g, k1, self.bump(a, 0, 0), k2, 6))
        self.assertWrong(O.check_series_kak(self.g, k1, a, self.bump(k2, 1, 0), 6))
        # the order-6 result does not certify order 8
        self.assertIsInstance(O.check_series_kak(self.g, k1, a, k2, 8), O.Shortfall)

    def test_bruhat(self):
        r = rcg.bruhat(self.ge)
        b1, w, b2 = (O.series_rows(m) for m in (r.b1, r.w, r.b2))
        profile = O.rank_profile(self.low)
        self.assertIsNone(O.check_series_bruhat(self.g, b1, w, b2, profile, 8))
        self.assertWrong(O.check_series_bruhat(self.g, b1, w, self.bump(b2, 0, 0), profile, 8))
        self.assertWrong(O.check_series_bruhat(self.g, b1, w, b2, {0: 0, 1: 1}, 8))
        unknown = [[O.Series({}, F(9)) if i <= j else x for j, x in enumerate(row)]
                   for i, row in enumerate(b2)]
        self.assertIsInstance(O.check_series_bruhat(self.g, b1, w, unknown, profile, 8),
                              O.Shortfall)

    def test_lost_precision_is_a_shortfall(self):
        """A result whose known part stops early, or that is all tail, is
        consistent but certifies too little: it is not accepted."""
        r = rcg.iwasawa_kau(self.ge)
        k, a, u = (O.series_rows(m) for m in (r.k, r.a, r.u))
        cut = [[O.Series(x.terms, F(0)) for x in row] for row in k]
        self.assertIsInstance(O.check_series_kau(self.g, cut, a, u, 8), O.Shortfall)
        tail = [[O.Series({}, F(5)) for _ in row] for row in k]
        self.assertIsInstance(O.check_series_kau(self.g, tail, a, u, 8), O.Shortfall)
        self.assertWrong(O.check_series_kau(self.g, self.bump(cut, 0, 0), a, u, 8))

    def test_shortfall_counts_as_failed(self):
        tally = R.Tally()
        tally.run([W.Op("short", lambda: None, lambda r: O.Shortfall("too little")),
                   W.Op("right", lambda: None, lambda r: None)])
        self.assertEqual((tally.attempted, tally.failed, len(tally.latencies)), (2, 1, 1))
        self.assertEqual(tally.wrong, [])


class SeededPuiseuxFamily(unittest.TestCase):
    """Every operation puiseux_decomp and cli_text run on seeded SL_2
    inputs succeeds, and passes its check to the order it must certify, on
    every input sl_puiseux(rng, 2) can draw, so the share of failed
    operations never depends on the seed."""

    def test_every_sl2_draw_succeeds(self):
        coeffs = {F(a, b) for a in (1, 2, 3, 4) for b in (1, 2, 3)}
        one = O.Series({F(0): F(1)})
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "g.mat"
            for e, c, low, up in itertools.product((-3, 3), sorted(coeffs),
                                                   (-2, -1, 1, 2), (-2, -1, 1, 2)):
                d = [[W._mono(c, e), O.Series({})], [O.Series({}), W._mono(1 / c, -e)]]
                lower = [[F(1), F(0)], [F(low), F(1)]]
                g = O.mmul(O.mmul(d, lower), [[one, F(up)], [O.Series({}), one]])
                ops = W.PuiseuxDecomp().prepare(rcg, {"sl2": [(g, lower)], "sl3": []}, None)
                for op in ops[:-1]:  # the last is KNOWN_KAU_FAULT
                    self.assertIsNone(op.check(op.call()), op.kind)
                W._write_matrix(path, g, W._fmt_series)
                for argv in (["iwasawa"], ["--trunc", "6", "cartan"], ["bruhat"]):
                    code, _, err = W._cli_result(rcg.cli, ["--field", "puiseux"] + argv + [str(path)])
                    self.assertEqual(code, 0, (argv, err))


class CliReading(unittest.TestCase):
    def test_parse_tower_round_trip(self):
        s5 = rcg.sqrt_positive(5)
        nested = rcg.sqrt_positive(2 + rcg.sqrt_positive(3))
        for value in (s5 * F(1, 2) + F(1, 2), -s5 * rcg.sqrt_positive(2) * F(3, 4), nested):
            parsed = O.parse_tower(str(value), rcg.sqrt_positive)
            self.assertTrue(O.same(parsed, value), str(value))

    def test_failed_run_is_rejected(self):
        self.assertIsNotNone(W._check_cli((1, "", "parse error"), lambda out: None))
        self.assertIsNotNone(W._shape("k", "a", "u")({"k": [["1", "0"]], "a": [], "u": []}))

    def test_text_blocks(self):
        blocks = O.parse_text_blocks("k:\n  1, 0\n  0, 1\nmember: True\n")
        self.assertEqual(blocks, {"k": [["1", "0"], ["0", "1"]], "member": "True"})


class Tracing(unittest.TestCase):
    def test_rebound_names_are_traced_and_restored(self):
        det = rcg.linalg.det
        tracer = Tracer(rcg)
        tracer.install()
        try:
            self.assertIsNot(rcg.slgroup.det, det)
            self.assertIs(rcg.slgroup.det, rcg.decomp.det)
            rcg.GroupElement.tower([[1, 1], [0, 1]])
        finally:
            tracer.uninstall()
        self.assertIs(rcg.slgroup.det, det)
        self.assertIs(rcg.decomp.det, det)
        metrics = tracer.metrics()
        self.assertEqual(metrics["slgroup.element_inits"][0], 1)
        self.assertEqual(metrics["linalg.det_calls"][0], 1)
        self.assertGreater(metrics["tower.mul_calls"][0], 0)

    def test_counts_repeat(self):
        g = rcg.GroupElement.tower(W.sl_rational(random.Random(2), 3))
        counts = []
        for _ in range(2):
            tracer = Tracer(rcg)
            tracer.install()
            try:
                rcg.iwasawa_kau(g)
            finally:
                tracer.uninstall()
            counts.append({k: v for k, (v, unit) in tracer.metrics().items() if unit != "s"})
        self.assertEqual(counts[0], counts[1])
        self.assertGreater(counts[0]["tower.mixed_ops"], 0)


if __name__ == "__main__":
    unittest.main()
