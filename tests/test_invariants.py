"""Invariants of the library's source, checked by scanning its AST.

No invariant rests on `assert`, which `python -O` strips, or on a bare
AssertionError, which escapes the CLI as a traceback: every check in
src/rcg raises a typed RcgError.  And no call mutates process-wide state:
src/rcg has no `global` statement, never assigns to an attribute of a
module it imported (a working order travels in a ScalarDomain instead), and
no function writes into a container bound at module level (a memo lives on
the object it belongs to, as the tower merge maps do on their Tower).
Every error class the library defines is raised somewhere in it.  And a
fresh import of rcg builds no argument parser: the CLI builds its one
parser on the first run of a process."""

import ast
import importlib
import os
import subprocess
import sys
import textwrap
import types
from pathlib import Path

import rcg
import rcg.errors

PACKAGE = Path(rcg.__file__).resolve().parent


def _sources():
    for path in sorted(PACKAGE.rglob("*.py")):
        yield path, ast.parse(path.read_text(), str(path))


def _raised_name(node):
    """The name of the class a raise statement raises, or None."""
    if not isinstance(node, ast.Raise) or node.exc is None:
        return None
    exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
    if isinstance(exc, ast.Name):
        return exc.id
    return exc.attr if isinstance(exc, ast.Attribute) else None


def _raises_assertion_error(node) -> bool:
    return _raised_name(node) == "AssertionError"


def test_no_assert_statements_in_the_library():
    found = [
        f"{path.name}:{node.lineno}"
        for path, tree in _sources()
        for node in ast.walk(tree)
        if isinstance(node, ast.Assert) or _raises_assertion_error(node)
    ]
    assert found == []


def _module_names(path) -> set:
    """The names that the module at `path` binds to modules."""
    name = "rcg" if path.stem == "__init__" else f"rcg.{path.stem}"
    module = importlib.import_module(name)
    return {k for k, v in vars(module).items() if isinstance(v, types.ModuleType)}


def _targets(node):
    """The targets an assignment or del statement writes, unpacked."""
    if isinstance(node, (ast.Assign, ast.Delete)):
        todo = list(node.targets)
    elif isinstance(node, (ast.AugAssign, ast.AnnAssign)):
        todo = [node.target]
    else:
        return
    while todo:
        target = todo.pop()
        if isinstance(target, (ast.Tuple, ast.List)):
            todo.extend(target.elts)
        elif isinstance(target, ast.Starred):
            todo.append(target.value)
        else:
            yield target


#: methods that change a list, dict or set in place
_MUTATORS = frozenset({"append", "extend", "update", "setdefault", "pop", "clear", "add"})


def _stored_names(node) -> set:
    return {n.id for n in ast.walk(node) if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Store)}


def _module_level_names(tree) -> set:
    """The names a module binds outside its functions and classes."""
    names = set()
    for stmt in tree.body:
        if isinstance(stmt, (ast.Import, ast.ImportFrom)):
            names.update((a.asname or a.name).split(".")[0] for a in stmt.names)
        elif not isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names |= _stored_names(stmt)
    return names


def _container_writes(tree):
    """(line, name) of each write inside a function into a container that
    the module binds: NAME[k] = v, NAME[k] += v, del NAME[k], and
    NAME.append/extend/update/setdefault/pop/clear/add(...)."""
    shared = _module_level_names(tree)
    for fn in ast.walk(tree):
        if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        local = _stored_names(fn) | {a.arg for a in ast.walk(fn.args) if isinstance(a, ast.arg)}
        for node in ast.walk(fn):
            names = [t.value for t in _targets(node) if isinstance(t, ast.Subscript)]
            if (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                    and node.func.attr in _MUTATORS):
                names.append(node.func.value)
            for name in names:
                if isinstance(name, ast.Name) and name.id in shared - local:
                    yield node.lineno, name.id


def test_no_process_wide_writes_in_the_library():
    found = []
    for path, tree in _sources():
        modules = _module_names(path)
        found += sorted({f"{path.name}:{line}: writes into {name}"
                         for line, name in _container_writes(tree)})
        for node in ast.walk(tree):
            if isinstance(node, ast.Global):
                found.append(f"{path.name}:{node.lineno}: global {', '.join(node.names)}")
            for target in _targets(node):
                if (isinstance(target, ast.Attribute) and isinstance(target.value, ast.Name)
                        and target.value.id in modules):
                    found.append(f"{path.name}:{node.lineno}: writes {target.value.id}.{target.attr}")
    assert found == []


def test_every_error_class_is_raised_in_the_library():
    raised = {_raised_name(node) for _, tree in _sources() for node in ast.walk(tree)}
    defined = {
        name for name, value in vars(rcg.errors).items()
        if isinstance(value, type) and issubclass(value, rcg.errors.RcgError)
        and value is not rcg.errors.RcgError
    }
    assert sorted(defined - raised) == []


def test_importing_rcg_builds_no_argument_parser():
    """A fresh import of rcg and rcg.cli constructs no ArgumentParser: the
    CLI builds its parser (and its sub-parsers) on the first run of a
    process, and later runs build none."""
    script = textwrap.dedent("""
        import argparse, io
        built = []
        init = argparse.ArgumentParser.__init__

        def counting(self, *args, **kwargs):
            built.append(type(self))
            init(self, *args, **kwargs)

        argparse.ArgumentParser.__init__ = counting
        import rcg, rcg.cli
        counts = [len(built)]
        for _ in range(2):
            rcg.cli.run(["roots", "--type", "A2"], out=io.StringIO())
            counts.append(len(built))
        print(*counts)
    """)
    env = dict(os.environ, PYTHONPATH=str(PACKAGE.parent))
    done = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                          env=env, timeout=120)
    assert done.returncode == 0, done.stderr
    at_import, first_run, second_run = map(int, done.stdout.split())
    assert at_import == 0 and first_run > 0 and second_run == first_run
