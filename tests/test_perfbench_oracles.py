"""The benchmark's own tests (perfbench/test_oracles.py), run with the rest
of the suite: rcg's results against the benchmark's independent Fraction
and series oracles, each oracle against a corrupted result, and the tracer.
"""

import sys
import unittest
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))

import test_oracles  # noqa: E402

globals().update(
    (name, case)
    for name, case in vars(test_oracles).items()
    if isinstance(case, type) and issubclass(case, unittest.TestCase)
)
