"""Command-line front end.

Verbs: iwasawa, cartan, bruhat, bch, jm-triple, kostant-check, roots.
Every decomposition is re-multiplied and checked against the input before
anything is printed (self-certifying output).  Exit codes: 0 success,
1 parse error, 2 domain error, 3 indeterminate truncation, 4 internal error
(a result failed its own check, or another RcgError such as
NoRelatingElement or PrecisionExhausted).

    python -m rcg.cli cartan g.mat
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from fractions import Fraction

from . import puiseux as puiseux_mod
from .decomp import bruhat, cartan_kak, iwasawa_kau, iwasawa_uak
from .errors import DomainError, IndeterminateSign, InternalError, ParseError, RcgError
from .kostant import ChamberPoint, char_value, kostant_chars, kostant_member
from .linalg import Matrix
from .nilpotent import bch, jacobson_morozov
from .parsing import parse_matrix
from .rootsys import build, cone_data, eta_plus, eta_plus_expansion, weyl
from .slgroup import GroupElement

F = Fraction


class Config:
    def __init__(self, field: str, trunc: Fraction, fmt: str):
        if trunc <= 0:
            raise DomainError("truncation order must be positive")
        self.field = field
        self.trunc = trunc
        self.format = fmt


def _matrix_block(m: Matrix):
    return [[str(x) for x in row] for row in m.data]


def _emit(config: Config, payload: dict, out) -> None:
    if config.format == "json":
        print(json.dumps(payload, indent=2, sort_keys=True), file=out)
        return
    for key, value in payload.items():
        if isinstance(value, list) and value and isinstance(value[0], list):
            print(f"{key}:", file=out)
            for row in value:
                print("  " + ", ".join(str(x) for x in row), file=out)
        else:
            print(f"{key}: {value}", file=out)


def _load_group_element(path: str, config: Config, expect_n=None) -> GroupElement:
    with open(path, "r", encoding="utf-8") as fh:
        text = fh.read()
    mat = parse_matrix(text, config.field)
    if expect_n is not None and mat.nrows != expect_n:
        raise DomainError(f"expected a {expect_n}x{expect_n} matrix")
    return GroupElement(mat)


def _certify_equal(actual: Matrix, expected: Matrix) -> None:
    diff = actual - expected
    for row in diff.data:
        for entry in row:
            try:
                ok = diff.domain.is_zero(entry)
            except IndeterminateSign:
                ok = not entry.terms  # truncated but all known terms vanish
            if not ok:
                raise InternalError("reconstruction failed")


def _cmd_iwasawa(args, config: Config, out) -> None:
    g = _load_group_element(args.file, config, args.n)
    if args.mode == "kau":
        res = iwasawa_kau(g)
        _certify_equal((res.k * res.a * res.u).mat, g.mat)
        payload = {
            "k": _matrix_block(res.k.mat),
            "a": _matrix_block(res.a.mat),
            "u": _matrix_block(res.u.mat),
        }
    else:
        res = iwasawa_uak(g)
        _certify_equal((res.u * res.a * res.k).mat, g.mat)
        payload = {
            "u": _matrix_block(res.u.mat),
            "a": _matrix_block(res.a.mat),
            "k": _matrix_block(res.k.mat),
        }
    _emit(config, payload, out)


def _cmd_cartan(args, config: Config, out) -> None:
    g = _load_group_element(args.file, config, args.n)
    res = cartan_kak(g, order=config.trunc if config.field == "puiseux" else None)
    _certify_equal((res.k1 * res.a * res.k2).mat, g.mat)
    _emit(
        config,
        {
            "k1": _matrix_block(res.k1.mat),
            "a": _matrix_block(res.a.mat),
            "k2": _matrix_block(res.k2.mat),
        },
        out,
    )


def _cmd_bruhat(args, config: Config, out) -> None:
    g = _load_group_element(args.file, config, args.n)
    res = bruhat(g)
    _certify_equal((res.b1 * res.w * res.b2).mat, g.mat)
    _emit(
        config,
        {
            "b1": _matrix_block(res.b1.mat),
            "w": _matrix_block(res.w.mat),
            "b2": _matrix_block(res.b2.mat),
        },
        out,
    )


def _cmd_bch(args, config: Config, out) -> None:
    with open(args.x, "r", encoding="utf-8") as fh:
        x = parse_matrix(fh.read(), config.field)
    with open(args.y, "r", encoding="utf-8") as fh:
        y = parse_matrix(fh.read(), config.field)
    z = bch(x, y)
    _emit(config, {"z": _matrix_block(z)}, out)


def _cmd_jm_triple(args, config: Config, out) -> None:
    with open(args.file, "r", encoding="utf-8") as fh:
        x = parse_matrix(fh.read(), config.field)
    triple = jacobson_morozov(x)
    _emit(
        config,
        {
            "x": _matrix_block(triple.x),
            "h": _matrix_block(triple.h),
            "y": _matrix_block(triple.y),
        },
        out,
    )


def _cmd_kostant_check(args, config: Config, out) -> None:
    a = ChamberPoint(_load_group_element(args.a, config))
    b = ChamberPoint(_load_group_element(args.b, config))
    member = kostant_member(a, b)
    slacks = []
    for vec in kostant_chars(a.n):
        diff = char_value(vec, b) - char_value(vec, a)
        if config.field == "tower":
            lo, hi = diff.approx(F(1, 10**12))
            slacks.append(float((lo + hi) / 2))
        else:
            slacks.append(str(diff))
    _emit(config, {"member": member, "slacks": slacks}, out)
    if config.format == "text":
        print(f"result: {'inside' if member else 'outside'}", file=out)


def _cmd_roots(args, config: Config, out) -> None:
    rs = build(args.type)
    w = weyl(rs)
    cd = cone_data(rs)
    coeffs = eta_plus_expansion(rs)
    payload = {
        "type": rs.name,
        "roots": [list(r) for r in rs.all_roots],
        "positive_roots": [list(r) for r in rs.positive_roots],
        "weyl_order": len(w),
        "gamma": [list(g) for g in cd.gamma],
        "eta_plus": list(eta_plus(rs)),
        "eta_plus_coefficients": [str(c) for c in coeffs],
    }
    _emit(config, payload, out)


def make_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
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
    "iwasawa": _cmd_iwasawa,
    "cartan": _cmd_cartan,
    "bruhat": _cmd_bruhat,
    "bch": _cmd_bch,
    "jm-triple": _cmd_jm_triple,
    "kostant-check": _cmd_kostant_check,
    "roots": _cmd_roots,
}


def run(argv, out=sys.stdout, err=sys.stderr) -> int:
    parser = make_parser()
    args = parser.parse_args(argv)
    try:
        trunc_text = args.trunc
        if trunc_text is None:
            trunc_text = os.environ.get("RCG_TRUNC", "8")
        trunc = F(trunc_text)
        config = Config(args.field, trunc, args.format)
        puiseux_mod.DEFAULT_REL_ORDER = trunc
        _COMMANDS[args.command](args, config, out)
        return 0
    except ParseError as exc:
        print(f"parse error: {exc}", file=err)
        return 1
    except ValueError as exc:
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
    finally:
        puiseux_mod.DEFAULT_REL_ORDER = F(8)


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
