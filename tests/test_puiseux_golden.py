"""Golden output of the Puiseux decompositions.

`puiseux_golden.json` holds, per input and operation, the printed entries
of every factor, or the type and message of the error raised, for
iwasawa_kau, cartan_kak at orders 6, 8 and 16, and bruhat.  The inputs are
the benchmark's own Puiseux products D L S (`perfbench/workloads.py`,
imported read-only): 16 seeded SL_2 draws, the 20 inputs of the fixed SL_3
panel, one seeded draw at n = 4 and two at n = 5 (on the first, KAK
cannot determine an eigenvector at either order; the second lifts).  Every
case must print the same strings, so a change to the series arithmetic or
the eigen lift that claims to keep results must keep them term for term
and tail for tail.

A second test pins what keeps the Cartan series work fast on this
rational input: the eigen directions and k1's dot products stay rational,
and each radical enters as one constant per column.

Regenerate (only when a change is meant to alter results):

    PYTHONPATH=src python tests/test_puiseux_golden.py
"""

import json
import random
from pathlib import Path

import pytest

import rcg.decomp
import rcg.linalg
from _panel import W, sl3_panel
from rcg import GroupElement, PuiseuxScalar, RcgError, bruhat, cartan_kak, iwasawa_kau
from rcg.linalg import sym_eigen_lift
from rcg.tower import TowerScalar

GOLDEN_PATH = Path(__file__).with_name("puiseux_golden.json")

#: seed of the SL_2, SL_4 and SL_5 draws (the SL_3 panel has its own)
SEED = "puiseux-golden"

OPERATIONS = {
    "kau": iwasawa_kau,
    "kak6": lambda g: cartan_kak(g, order=6),
    "kak8": lambda g: cartan_kak(g, order=8),
    "kak16": lambda g: cartan_kak(g, order=16),
    "bruhat": bruhat,
}


def inputs():
    """(name, rows of PuiseuxScalar) for every golden input."""
    rng = random.Random(SEED)
    draws = [(f"sl2-{i}", W.sl_puiseux(rng, 2)[0]) for i in range(16)]
    draws += [(f"sl3-{i}", g) for i, g in enumerate(sl3_panel())]
    draws += [(name, W.sl_puiseux(rng, n)[0])
              for name, n in (("sl4-0", 4), ("sl5-0", 5), ("sl5-1", 5))]
    return [
        (name, [[PuiseuxScalar(tuple(x.terms.items()), x.tail) for x in row] for row in g])
        for name, g in draws
    ]


def outcome(op, rows):
    """The printed factors of op(g), or the error it raised."""
    try:
        res = op(GroupElement.puiseux(rows))
    except RcgError as exc:
        return {"error": type(exc).__name__, "message": str(exc)}
    return {name: [[str(x) for x in row] for row in f.mat.data]
            for name, f in res.factors().items()}


def compute():
    return {f"{name}/{verb}": outcome(op, rows)
            for name, rows in inputs() for verb, op in OPERATIONS.items()}


GOLDEN = json.loads(GOLDEN_PATH.read_text()) if GOLDEN_PATH.exists() else {}


@pytest.fixture(scope="module")
def rows_by_name():
    return dict(inputs())


@pytest.mark.parametrize("case", sorted(GOLDEN))
def test_puiseux_decomposition_output_is_unchanged(rows_by_name, case):
    name, verb = case.split("/")
    assert outcome(OPERATIONS[verb], rows_by_name[name]) == GOLDEN[case]


def test_golden_covers_every_input_and_operation(rows_by_name):
    assert sorted(GOLDEN) == sorted(f"{n}/{v}" for n in rows_by_name for v in OPERATIONS)


def _spy(monkeypatch, module, name):
    """Record the arguments and result of every call of module.name."""
    calls = []
    real = getattr(module, name)

    def spy(*args):
        out = real(*args)
        calls.append((args, out))
        return out

    monkeypatch.setattr(module, name, spy)
    return calls


def test_panel_kak_keeps_its_series_rational(rows_by_name, monkeypatch):
    """On rational input the Cartan series work runs in the lattice kernel:
    the eigen directions w_j are rational series, each radical sits in one
    positive constant rho_j per column, the eigenvectors are rho_j w_j, and
    det V = +1 is read from the directions.  cartan_kak's dot products of
    g with the directions are rational too."""
    g = GroupElement.puiseux(rows_by_name["sl3-0"])
    signs = _spy(monkeypatch, rcg.linalg, "_x0_det_sign")
    lift = sym_eigen_lift(g.mat.transpose() * g.mat, 8)
    w, rhos = lift._frame.base, lift._frame.scales
    assert all(x._rational() for row in w.data for x in row)
    assert all(isinstance(rho, TowerScalar) and rho.sign() == 1 for rho in rhos)
    assert any(not rho.is_rational() for rho in rhos)
    for i, row in enumerate(lift.eigenvectors.data):
        for j, v in enumerate(row):
            want = w[i, j] * rhos[j]
            assert v == want and str(v) == str(want)
    [((rows,), sign)] = signs
    assert all(x._rational() for row in rows for x in row)
    assert sign == rcg.linalg._x0_det_sign(w.data) == 1
    dots = _spy(monkeypatch, rcg.decomp, "_dot")
    res = cartan_kak(g, order=8)
    assert len(dots) == 9 and all(out._rational() for _, out in dots)
    res.certify(g)


if __name__ == "__main__":
    GOLDEN_PATH.write_text(json.dumps(compute(), indent=1, sort_keys=True) + "\n")
