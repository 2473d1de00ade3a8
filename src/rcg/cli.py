"""Command-line front end.

Verbs: iwasawa, cartan, bruhat, bch, jm-triple, kostant-check, roots.
The three decomposition verbs share one command: it loads g, decomposes
it, and prints the factors in product order only after res.certify(g) has
checked each factor's subgroup and their product against g (self-certifying
output).  --trunc (else RCG_TRUNC, else puiseux.DEFAULT_REL_ORDER) is read
once per run into the run's PuiseuxDomain, which every parsed matrix
carries; the run changes no module state.  Exit codes: 0 success, 1 parse
error (also a command-line usage error, a --trunc that is not a rational
number or an input file that is not UTF-8), 2 domain error (also a shape
mismatch, a --trunc <= 0 or a truncated O(X^(e)) input entry), 3
indeterminate truncation, 4 internal error (a result failed its own check,
or another RcgError such as NoRelatingElement).
--help writes the usage to the output stream and exits 0.  The argument
parser is built once per process, on the first run, and every later run
reuses it.

    python -m rcg.cli cartan g.mat
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from fractions import Fraction
from functools import cache

from . import puiseux as puiseux_mod
from .decomp import bruhat, cartan_kak, iwasawa_kau, iwasawa_uak
from .errors import DomainError, IndeterminateSign, ParseError, RcgError
from .kostant import ChamberPoint, _char_gaps, _slack
from .linalg import TOWER, Matrix, PuiseuxDomain, ScalarDomain
from .nilpotent import bch, jacobson_morozov
from .parsing import parse_matrix
from .rootsys import build, cone_data, eta_plus, eta_plus_expansion, weyl_order
from .slgroup import GroupElement

F = Fraction


def _truncation_order(text) -> Fraction:
    """--trunc, else RCG_TRUNC, else the library default, as a positive
    rational."""
    if text is None:
        text = os.environ.get("RCG_TRUNC")
    if text is None:
        return puiseux_mod.DEFAULT_REL_ORDER
    try:
        order = F(text)
    except (ValueError, ZeroDivisionError):
        raise ParseError(f"truncation order {text!r} is not a rational number") from None
    return puiseux_mod._positive_order(order)


def _matrix_block(m: Matrix):
    return [[str(x) for x in row] for row in m.data]


def _emit(args, payload: dict, out) -> None:
    if args.format == "json":
        print(json.dumps(payload, indent=2, sort_keys=True), file=out)
        return
    for key, value in payload.items():
        if isinstance(value, list) and value and isinstance(value[0], list):
            print(f"{key}:", file=out)
            for row in value:
                print("  " + ", ".join(str(x) for x in row), file=out)
        else:
            print(f"{key}: {value}", file=out)


def _read_matrix(path: str, domain: ScalarDomain) -> Matrix:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            mat = parse_matrix(fh.read(), domain)
    except UnicodeDecodeError as exc:
        raise ParseError(str(exc)) from None
    # Input must be exact: that the decompositions of a truncated input
    # certify nothing below its tails has not been shown yet.
    if domain is not TOWER and not all(x.is_exact() for row in mat.data for x in row):
        raise DomainError("input entries must be exact, without an O(X^(e)) term")
    return mat


def _load_group_element(path: str, domain: ScalarDomain, expect_n=None) -> GroupElement:
    mat = _read_matrix(path, domain)
    if expect_n is not None and mat.nrows != expect_n:
        raise DomainError(f"expected a {expect_n}x{expect_n} matrix")
    return GroupElement(mat)


def _cmd_decompose(args, out) -> None:
    g = _load_group_element(args.file, args.domain, args.n)
    if args.command == "iwasawa":
        res = iwasawa_kau(g) if args.mode == "kau" else iwasawa_uak(g)
    elif args.command == "cartan":
        res = cartan_kak(g)
    else:
        res = bruhat(g)
    res.certify(g)
    _emit(args, {name: _matrix_block(f.mat) for name, f in res.factors().items()}, out)


def _cmd_bch(args, out) -> None:
    z = bch(_read_matrix(args.x, args.domain), _read_matrix(args.y, args.domain))
    _emit(args, {"z": _matrix_block(z)}, out)


def _cmd_jm_triple(args, out) -> None:
    triple = jacobson_morozov(_read_matrix(args.file, args.domain))
    _emit(
        args,
        {
            "x": _matrix_block(triple.x),
            "h": _matrix_block(triple.h),
            "y": _matrix_block(triple.y),
        },
        out,
    )


def _cmd_kostant_check(args, out) -> None:
    a = ChamberPoint(_load_group_element(args.a, args.domain))
    b = ChamberPoint(_load_group_element(args.b, args.domain))
    gaps = list(_char_gaps(a, b))
    member = all(gap.sign() >= 0 for gap in gaps)
    slacks = [_slack(gap) if args.domain is TOWER else str(gap) for gap in gaps]
    _emit(args, {"member": member, "slacks": slacks}, out)
    if args.format == "text":
        print(f"result: {'inside' if member else 'outside'}", file=out)


def _cmd_roots(args, out) -> None:
    rs = build(args.type)
    cd = cone_data(rs)
    coeffs = eta_plus_expansion(rs)
    payload = {
        "type": rs.name,
        "roots": [list(r) for r in rs.all_roots],
        "positive_roots": [list(r) for r in rs.positive_roots],
        "weyl_order": weyl_order(rs),
        "gamma": [list(g) for g in cd.gamma],
        "eta_plus": list(eta_plus(rs)),
        "eta_plus_coefficients": [str(c) for c in coeffs],
    }
    _emit(args, payload, out)


class _HelpRequested(Exception):
    """--help was given; args[0] is the help text, which run writes to its
    out stream."""


class _ArgumentParser(argparse.ArgumentParser):
    """Reports a command-line usage error as a ParseError (exit 1) instead
    of printing usage and raising SystemExit(2), and hands the text of
    --help to run instead of printing it to sys.stdout and raising
    SystemExit(0)."""

    def error(self, message):
        raise ParseError(message)

    def print_help(self, file=None):
        if file is not None:
            super().print_help(file)
            return
        raise _HelpRequested(self.format_help())


@cache
def _parser() -> argparse.ArgumentParser:
    """The command-line parser, built on the first run of a process and
    reused by every later one: parsing keeps its state in the Namespace it
    returns, not in the parser, and nothing builds one at import."""
    parser = _ArgumentParser(
        prog="rcg",
        description="exact SL_n decompositions over computable real closed fields",
    )
    parser.add_argument("--field", choices=("tower", "puiseux"), default="tower")
    parser.add_argument(
        "--trunc",
        default=None,
        help="relative truncation order for Puiseux operations (rational)",
    )
    parser.add_argument("--format", choices=("text", "json"), default="text")
    parser.add_argument("--n", type=int, default=None, help="expected matrix size")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("iwasawa", help="g = k a u (or u a k)")
    p.add_argument("file")
    p.add_argument("--mode", choices=("kau", "uak"), default="kau")

    p = sub.add_parser("cartan", help="g = k1 a k2")
    p.add_argument("file")

    p = sub.add_parser("bruhat", help="g = b1 w b2")
    p.add_argument("file")

    p = sub.add_parser("bch", help="log(exp X exp Y)")
    p.add_argument("x")
    p.add_argument("y")

    p = sub.add_parser("jm-triple", help="complete a nilpotent to an sl2-triple")
    p.add_argument("file")

    p = sub.add_parser("kostant-check", help="character-inequality membership")
    p.add_argument("--a", required=True)
    p.add_argument("--b", required=True)

    p = sub.add_parser("roots", help="root system data")
    p.add_argument("--type", required=True)

    return parser


_COMMANDS = {
    "iwasawa": _cmd_decompose,
    "cartan": _cmd_decompose,
    "bruhat": _cmd_decompose,
    "bch": _cmd_bch,
    "jm-triple": _cmd_jm_triple,
    "kostant-check": _cmd_kostant_check,
    "roots": _cmd_roots,
}


def run(argv, out=sys.stdout, err=sys.stderr) -> int:
    try:
        args = _parser().parse_args(argv)
        order = _truncation_order(args.trunc)
        args.domain = TOWER if args.field == "tower" else PuiseuxDomain(order)
        _COMMANDS[args.command](args, out)
        return 0
    except _HelpRequested as exc:
        out.write(exc.args[0])
        return 0
    except ParseError as exc:
        print(f"parse error: {exc}", file=err)
        return 1
    except IndeterminateSign as exc:
        print(
            f"indeterminate: {exc} (raise --trunc or RCG_TRUNC)",
            file=err,
        )
        return 3
    except DomainError as exc:
        print(f"domain error: {exc}", file=err)
        return 2
    except OSError as exc:
        print(f"parse error: {exc}", file=err)
        return 1
    except RcgError as exc:
        print(f"internal error: {exc}", file=err)
        return 4


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
