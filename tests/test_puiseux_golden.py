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

Regenerate (only when a change is meant to alter results):

    PYTHONPATH=src python tests/test_puiseux_golden.py
"""

import json
import random
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))

import workloads as W  # noqa: E402

from rcg import GroupElement, PuiseuxScalar, RcgError, bruhat, cartan_kak, iwasawa_kau  # noqa: E402

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
    panel = random.Random(W.SL3_PANEL_SEED)
    draws = [(f"sl2-{i}", W.sl_puiseux(rng, 2)[0]) for i in range(16)]
    draws += [(f"sl3-{i}", W.sl_puiseux(panel, 3)[0]) for i in range(20)]
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


if __name__ == "__main__":
    GOLDEN_PATH.write_text(json.dumps(compute(), indent=1, sort_keys=True) + "\n")
