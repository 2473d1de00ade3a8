"""No invariant of the library rests on `assert`, which `python -O` strips:
every check in src/rcg raises a typed RcgError."""

import ast
from pathlib import Path

import rcg


def test_no_assert_statements_in_the_library():
    package = Path(rcg.__file__).resolve().parent
    found = [
        f"{path.name}:{node.lineno}"
        for path in sorted(package.rglob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(), str(path)))
        if isinstance(node, ast.Assert)
    ]
    assert found == []
