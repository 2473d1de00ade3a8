"""Golden output of the decomposition verbs.

`cli_golden.json` holds the stdout and exit code of iwasawa (kau and uak),
cartan (also at --trunc 6 over the Puiseux field) and bruhat, in both
formats and over both fields, on small fixed inputs, as printed before the
three verbs shared one command.  Every case must print the same bytes.
"""

import io
import json
from pathlib import Path

import pytest

from rcg.cli import run

GOLDEN = json.loads(Path(__file__).with_name("cli_golden.json").read_text())


@pytest.mark.parametrize("case", GOLDEN, ids=[case["id"] for case in GOLDEN])
def test_decomposition_output_is_unchanged(tmp_path, case):
    g = tmp_path / "g.mat"
    g.write_text(case["matrix"])
    out, err = io.StringIO(), io.StringIO()
    argv = case["options"] + [case["verb"][0], str(g)] + case["verb"][1:]
    assert run(argv, out=out, err=err) == case["code"], err.getvalue()
    assert out.getvalue() == case["stdout"]
