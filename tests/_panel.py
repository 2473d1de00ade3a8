"""The benchmark's Puiseux inputs (`perfbench/workloads.py`, imported
read-only as `W`) and its fixed SL_3 panel, for the tests that run over
them."""

import random
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))

import workloads as W  # noqa: E402


def sl3_panel():
    """The 20 SL_3 products D L S of the panel, in order, as rows of the
    benchmark's series."""
    rng = random.Random(W.SL3_PANEL_SEED)
    return [W.sl_puiseux(rng, 3)[0] for _ in range(20)]
