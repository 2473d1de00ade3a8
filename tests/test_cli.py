import io
import json
import os
import random
import subprocess
import sys
from fractions import Fraction
from math import prod
from pathlib import Path

import pytest

import rcg
import rcg.cli
from rcg.cli import run
from rcg.decomp import BruhatResult, bruhat, cartan_kak, iwasawa_kau, iwasawa_uak
from rcg.errors import (
    IndeterminateSign,
    NoRelatingElement,
    NotPositive,
    ParseError,
)
from rcg.linalg import Matrix, PuiseuxDomain, det
from rcg.parsing import MAX_NESTING, parse_matrix, parse_scalar, print_matrix
from rcg.puiseux import PuiseuxScalar
from rcg.slgroup import GroupElement
from rcg.tower import TowerScalar, sqrt_positive

F = Fraction


# ---------------------------------------------------------------------------
# grammar

def test_parse_scalar_tower():
    v = parse_scalar("1/2 + sqrt(2)")
    assert v == F(1, 2) + sqrt_positive(2)
    assert parse_scalar("1/2 + sqrt(2)*3") == F(1, 2) + 3 * sqrt_positive(2)
    assert parse_scalar("2/sqrt(2)") == sqrt_positive(2)
    assert parse_scalar("(1+sqrt(5))/2") == (1 + sqrt_positive(5)) / 2
    assert parse_scalar("-3") == TowerScalar.coerce(-3)


def test_parse_scalar_puiseux():
    v = parse_scalar("3*X^(1/2) - X^(-1)", field="puiseux")
    assert isinstance(v, PuiseuxScalar)
    assert v.ramification == 2
    assert v.coefficient(F(1, 2)) == 3
    assert v.coefficient(-1) == -1
    assert parse_scalar("X", field="puiseux") == PuiseuxScalar.monomial(1, 1)


def test_parse_errors():
    with pytest.raises(ParseError):
        parse_scalar("1 +")
    with pytest.raises(ParseError):
        parse_scalar("sqrt(2")
    with pytest.raises(ParseError):
        parse_scalar("X", field="tower")
    with pytest.raises(ParseError):
        parse_scalar("1 @ 2")


@pytest.mark.parametrize("field", ["tower", "puiseux"])
def test_sqrt_of_an_exact_zero_is_zero(field):
    texts = ["sqrt(0)", "sqrt(1-1)", "1 + sqrt(2 - 2)"]
    if field == "puiseux":
        texts.append("sqrt(X - X)")
    for text in texts:
        assert parse_scalar(text, field) == (1 if text.startswith("1 +") else 0)
    assert parse_scalar("sqrt(0)", field).is_zero()


@pytest.mark.parametrize("field", ["tower", "puiseux"])
def test_sqrt_of_a_negative_is_refused_with_one_message(field):
    texts = ["sqrt(-1)", "sqrt(1 - sqrt(2))"] + (["sqrt(-X)"] if field == "puiseux" else [])
    for text in texts:
        with pytest.raises(NotPositive, match="^sqrt of a negative value$"):
            parse_scalar(text, field)


def test_sqrt_of_a_truncated_zero_stays_indeterminate():
    with pytest.raises(IndeterminateSign):
        parse_scalar("sqrt(O(X^(-1)))", "puiseux")


def test_parse_matrix():
    m = parse_matrix("1, 0; 1, 1")
    assert m.nrows == 2 and m[1, 0] == 1
    m2 = parse_matrix("1, 0\n1, 1")
    assert m == m2
    with pytest.raises(ParseError):
        parse_matrix("1, 0; 1")


def test_roundtrip_scalars():
    samples = [
        "1/2 + sqrt(2)*3",
        "sqrt(3 + 2*sqrt(2))",
        "-5/7",
        "1 - sqrt(5)",
    ]
    for text in samples:
        v = parse_scalar(text)
        assert parse_scalar(str(v)) == v
    puiseux_samples = ["3/2*X^(1/2) - 2*X^(-1) + sqrt(2)", "X^(3) + 1"]
    for text in puiseux_samples:
        v = parse_scalar(text, field="puiseux")
        assert parse_scalar(str(v), field="puiseux") == v


def test_roundtrip_computed_nested_radicals():
    # values produced by decompositions print and re-parse to equal values
    from rcg.decomp import cartan_kak
    from rcg.slgroup import GroupElement

    r2 = sqrt_positive(2)
    g = GroupElement.tower([[r2, 0], [1, r2 / 2]])
    res = cartan_kak(g)
    for row in res.a.mat.data:
        for entry in row:
            assert parse_scalar(str(entry)) == entry


def test_roundtrip_matrix():
    m = parse_matrix("1/2, sqrt(2); 0, 2/sqrt(2)")
    again = parse_matrix(print_matrix(m))
    assert again == m


# ---------------------------------------------------------------------------
# CLI verbs

def run_cli(args, files=None, tmp_path=None):
    argv = []
    if files:
        for name, content in files.items():
            path = tmp_path / name
            path.write_text(content)
            argv.append(str(path))
    out, err = io.StringIO(), io.StringIO()
    code = run(args + argv, out=out, err=err)
    return code, out.getvalue(), err.getvalue()


def test_cli_iwasawa_identity(tmp_path):
    code, out, err = run_cli(
        ["iwasawa"], files={"g.mat": "1, 0; 0, 1"}, tmp_path=tmp_path
    )
    assert code == 0
    assert out.count("1, 0") >= 3


def test_cli_iwasawa_uak_mode(tmp_path):
    g = tmp_path / "g.mat"
    g.write_text("1, 0; 1, 1")
    out = io.StringIO()
    assert run(["iwasawa", str(g), "--mode", "uak"], out=out, err=io.StringIO()) == 0
    text = out.getvalue()
    # u comes first in the UAK layout
    assert text.index("u:") < text.index("a:") < text.index("k:")


def test_cli_cartan_worked_example(tmp_path):
    code, out, err = run_cli(
        ["cartan"], files={"g.mat": "1, 1; 0, 1"}, tmp_path=tmp_path
    )
    assert code == 0
    assert "1/2 + 1/2*sqrt(5)" in out


def test_cli_cartan_repeated_singular_values(tmp_path):
    code, out, err = run_cli(
        ["cartan"], files={"g.mat": "1, 0; 0, 1"}, tmp_path=tmp_path
    )
    assert code == 2
    assert "domain error" in err


def test_cli_det_not_one(tmp_path):
    code, out, err = run_cli(
        ["bruhat"], files={"g.mat": "2, 0; 0, 2"}, tmp_path=tmp_path
    )
    assert code == 2


def test_cli_parse_error(tmp_path):
    code, out, err = run_cli(
        ["bruhat"], files={"g.mat": "2, 0; 0,"}, tmp_path=tmp_path
    )
    assert code == 1


@pytest.mark.parametrize("args", [["cartan"], ["--field", "puiseux", "bruhat"]],
                         ids=["tower", "puiseux"])
def test_cli_input_nested_past_the_limit_is_a_parse_error(tmp_path, args):
    """500 nested parentheses or sqrt( are refused as input, not a
    RecursionError; the limit itself still parses."""
    for opener in ("(", "sqrt("):
        deep = opener * 500 + "1" + ")" * 500
        code, out, err = run_cli(args, files={"g.mat": f"{deep}, 0; 0, 1"}, tmp_path=tmp_path)
        assert (code, out) == (1, "")
        assert err.startswith(f"parse error: nesting deeper than {MAX_NESTING} levels")
    at_limit = "(" * MAX_NESTING + "1" + ")" * MAX_NESTING
    code, _, err = run_cli(["--field", "puiseux", "bruhat"],
                           files={"g.mat": f"{at_limit}, 1; 0, 1"}, tmp_path=tmp_path)
    assert code == 0, err


def test_cli_missing_file():
    code, out, err = run_cli(["bruhat", "/nonexistent/g.mat"])
    assert code == 1


def test_cli_indeterminate_exit(tmp_path):
    # truncated pivot: X column scaled so the known terms cancel is hard to
    # produce from exact inputs; instead drive cartan over puiseux with a
    # repeated leading spectrum, which must exit 2, then check exit 3 via a
    # degenerate bruhat on a matrix whose pivot has unknown sign
    code, out, err = run_cli(
        ["--field", "puiseux", "cartan"],
        files={"g.mat": "X, X; X, X"},
        tmp_path=tmp_path,
    )
    assert code == 2


@pytest.mark.parametrize("field", ["tower", "puiseux"])
def test_cli_division_by_exact_zero_is_a_domain_error(tmp_path, field):
    code, out, err = run_cli(
        ["--field", field, "iwasawa"],
        files={"g.mat": "1/(1-1), 0; 0, 1"},
        tmp_path=tmp_path,
    )
    assert (code, out, err) == (2, "", "domain error: inverse of zero\n")


def test_cli_division_by_a_truncated_zero_stays_indeterminate(tmp_path):
    code, out, err = run_cli(
        ["--field", "puiseux", "iwasawa"],
        files={"g.mat": "1/O(X^(0)), 0; 0, 1"},
        tmp_path=tmp_path,
    )
    assert code == 3 and err.startswith("indeterminate:")


def test_cli_bch(tmp_path):
    code, out, err = run_cli(
        ["bch"],
        files={
            "x.mat": "0, 1, 0; 0, 0, 0; 0, 0, 0",
            "y.mat": "0, 0, 0; 0, 0, 1; 0, 0, 0",
        },
        tmp_path=tmp_path,
    )
    assert code == 0
    assert "1/2" in out


def test_cli_jm_triple(tmp_path):
    code, out, err = run_cli(
        ["jm-triple"],
        files={"x.mat": "0, 1, 0; 0, 0, 1; 0, 0, 0"},
        tmp_path=tmp_path,
    )
    assert code == 0
    assert "h:" in out


def test_cli_kostant_check_files(tmp_path):
    a = tmp_path / "a.mat"
    b = tmp_path / "b.mat"
    a.write_text("2, 0; 0, 1/2")
    b.write_text("4, 0; 0, 1/4")
    out, err = io.StringIO(), io.StringIO()
    code = run(["kostant-check", "--a", str(a), "--b", str(b)], out=out, err=err)
    assert code == 0
    assert "inside" in out.getvalue()
    code = run(["kostant-check", "--a", str(b), "--b", str(a)], out=out, err=err)
    assert code == 0
    assert "outside" in out.getvalue()


def test_cli_roots():
    out, err = io.StringIO(), io.StringIO()
    code = run(["roots", "--type", "A2"], out=out, err=err)
    assert code == 0
    assert "weyl_order: 6" in out.getvalue()
    code = run(["--format", "json", "roots", "--type", "G2"], out=io.StringIO(), err=err)
    assert code == 0
    code = run(["roots", "--type", "E8"], out=out, err=err)
    assert code == 2


def test_cli_roots_names_why_a0_is_refused():
    out, err = io.StringIO(), io.StringIO()
    assert run(["roots", "--type", "A0"], out=out, err=err) == 2
    assert out.getvalue() == ""
    assert err.getvalue() == (
        "domain error: unsupported root system type 'A0': A_n needs n >= 1\n"
    )


def test_cli_json_text_same_content(tmp_path):
    g = tmp_path / "g.mat"
    g.write_text("1, 0; 1, 1")
    out_t, out_j = io.StringIO(), io.StringIO()
    assert run(["iwasawa", str(g)], out=out_t, err=io.StringIO()) == 0
    assert (
        run(["--format", "json", "iwasawa", str(g)], out=out_j, err=io.StringIO()) == 0
    )
    data = json.loads(out_j.getvalue())
    k_entries = [parse_scalar(s) for row in data["k"] for s in row]
    # k = (1/sqrt(2)) [[1, -1], [1, 1]]
    r2 = sqrt_positive(2)
    assert k_entries == [r2 / 2, -r2 / 2, r2 / 2, r2 / 2]
    # text output carries the same entries
    text = out_t.getvalue()
    assert "1/2*sqrt(2)" in text


def test_cli_n_flag(tmp_path):
    g = tmp_path / "g.mat"
    g.write_text("1, 0; 1, 1")
    out = io.StringIO()
    assert run(["--n", "3", "bruhat", str(g)], out=out, err=io.StringIO()) == 2
    assert run(["--n", "2", "bruhat", str(g)], out=out, err=io.StringIO()) == 0


def test_cli_trunc_env(tmp_path, monkeypatch):
    g = tmp_path / "g.mat"
    g.write_text("X, 0; 1, X^(-1)")
    out = io.StringIO()
    monkeypatch.setenv("RCG_TRUNC", "4")
    code = run(["--field", "puiseux", "cartan", str(g)], out=out, err=io.StringIO())
    assert code == 0
    assert "O(X^(" in out.getvalue()


def test_cli_internal_error_exit(tmp_path, monkeypatch):
    """A result that does not multiply back to the input is a bug: exit 4
    with a message, not a traceback and not a domain error."""
    one = GroupElement.identity(2)
    monkeypatch.setattr(rcg.cli, "bruhat", lambda g: BruhatResult(one, one, one))
    code, out, err = run_cli(["bruhat"], files={"g.mat": "1, 1; 0, 1"}, tmp_path=tmp_path)
    assert code == 4
    assert out == ""
    assert err.startswith("internal error: reconstruction failed")


@pytest.mark.parametrize("error", [NoRelatingElement])
def test_cli_other_rcg_errors_exit_4(tmp_path, monkeypatch, error):
    def fail(g, order=None):
        raise error("boom")

    monkeypatch.setattr(rcg.cli, "cartan_kak", fail)
    code, out, err = run_cli(["cartan"], files={"g.mat": "1, 1; 0, 1"}, tmp_path=tmp_path)
    assert code == 4
    assert "boom" in err and "Traceback" not in err


def test_python_m_rcg_cli(tmp_path):
    env = dict(os.environ, PYTHONPATH=str(Path(rcg.__file__).resolve().parent.parent))
    good, bad = tmp_path / "g.mat", tmp_path / "h.mat"
    good.write_text("1, 1; 0, 1")
    bad.write_text("2, 0; 0, 1")
    ok = subprocess.run([sys.executable, "-m", "rcg.cli", "cartan", str(good)],
                        capture_output=True, text=True, env=env, timeout=120)
    assert ok.returncode == 0, ok.stderr
    assert "1/2 + 1/2*sqrt(5)" in ok.stdout
    refused = subprocess.run([sys.executable, "-m", "rcg.cli", "cartan", str(bad)],
                             capture_output=True, text=True, env=env, timeout=120)
    assert refused.returncode == 2
    assert "determinant is 2" in refused.stderr


# ---------------------------------------------------------------------------
# error surface: shape errors are domain errors, --trunc is parsed once

def test_cli_bch_shape_mismatch_is_a_domain_error(tmp_path):
    code, out, err = run_cli(
        ["bch"],
        files={"x.mat": "0, 1; 0, 0", "y.mat": "0, 1, 0; 0, 0, 1; 0, 0, 0"},
        tmp_path=tmp_path,
    )
    assert (code, out) == (2, "")
    assert err == "domain error: dimension mismatch\n"


def test_cli_bch_non_square_is_a_domain_error(tmp_path):
    code, out, err = run_cli(
        ["bch"], files={"x.mat": "0, 1; 0, 0; 0, 0", "y.mat": "0, 0; 0, 0; 0, 0"},
        tmp_path=tmp_path,
    )
    assert code == 2
    assert err == "domain error: X must be a square matrix\n"


def test_cli_input_that_is_not_utf8_is_a_parse_error(tmp_path):
    g = tmp_path / "g.mat"
    g.write_bytes(b"\xff")
    code, out, err = run_cli(["bruhat", str(g)])
    assert (code, out) == (1, "")
    assert err.startswith("parse error: 'utf-8' codec can't decode byte 0xff")


@pytest.mark.parametrize(
    "argv, files",
    [
        (["iwasawa"], {"g.mat": "1 + O(X^(-3)), 0; 0, 1"}),
        (["cartan"], {"g.mat": "X, O(X^(-5)); 0, X^(-1)"}),
        (["bch"], {"x.mat": "0, 1 + O(X^(-2)); 0, 0", "y.mat": "0, 1; 0, 0"}),
    ],
    ids=["iwasawa", "cartan", "bch"],
)
def test_cli_refuses_truncated_input(tmp_path, argv, files):
    code, out, err = run_cli(["--field", "puiseux"] + argv, files=files, tmp_path=tmp_path)
    assert (code, out) == (2, "")
    assert err == "domain error: input entries must be exact, without an O(X^(e)) term\n"


@pytest.mark.parametrize("trunc", ["abc", "1/0", "1/2/3", ""])
def test_cli_trunc_that_is_not_rational_is_a_parse_error(tmp_path, trunc):
    code, out, err = run_cli(
        ["--trunc", trunc, "bruhat"], files={"g.mat": "1, 1; 0, 1"}, tmp_path=tmp_path
    )
    assert code == 1
    assert err == f"parse error: truncation order {trunc!r} is not a rational number\n"


def test_cli_trunc_env_that_is_not_rational_is_a_parse_error(tmp_path, monkeypatch):
    monkeypatch.setenv("RCG_TRUNC", "1/0")
    code, out, err = run_cli(["bruhat"], files={"g.mat": "1, 1; 0, 1"}, tmp_path=tmp_path)
    assert code == 1 and err.startswith("parse error: truncation order '1/0'")


@pytest.mark.parametrize("trunc", ["0", "-1", "-3/2"])
def test_cli_trunc_not_positive_is_a_domain_error(tmp_path, trunc):
    code, out, err = run_cli(
        [f"--trunc={trunc}", "bruhat"], files={"g.mat": "1, 1; 0, 1"}, tmp_path=tmp_path
    )
    assert code == 2
    assert err == "domain error: truncation order must be positive\n"


def test_cli_restores_the_default_order_it_found(tmp_path, monkeypatch):
    monkeypatch.setattr(rcg.puiseux, "DEFAULT_REL_ORDER", F(12))
    files = {"g.mat": "X, 0; 1, X^(-1)"}
    code, out, _ = run_cli(["--field", "puiseux", "iwasawa"], files=files, tmp_path=tmp_path)
    # without --trunc the run uses the default it found
    assert code == 0 and "O(X^(-12))" in out
    assert rcg.puiseux.DEFAULT_REL_ORDER == 12
    code, out, _ = run_cli(
        ["--field", "puiseux", "--trunc", "6", "iwasawa"], files=files, tmp_path=tmp_path
    )
    assert code == 0 and "O(X^(-12))" not in out
    assert rcg.puiseux.DEFAULT_REL_ORDER == 12
    assert run_cli(["--trunc", "0", "roots", "--type", "A1"])[0] == 2
    assert rcg.puiseux.DEFAULT_REL_ORDER == 12


# ---------------------------------------------------------------------------
# printing round-trips, truncated Puiseux values included

def test_parse_truncation_marker():
    assert parse_scalar("1 + O(X^(-6))", "puiseux") == PuiseuxScalar(((0, 1),), tail=-6)
    assert parse_scalar("O(X)", "puiseux") == PuiseuxScalar((), tail=1)
    assert parse_scalar("0 + O(X^(1/2))", "puiseux") == PuiseuxScalar((), tail=F(1, 2))
    with pytest.raises(ParseError, match="only available in the puiseux field"):
        parse_scalar("1 + O(X^(-6))")
    with pytest.raises(ParseError):
        parse_scalar("O(3)", "puiseux")


@pytest.mark.parametrize(
    "argv, decompose",
    [
        (["iwasawa"], iwasawa_kau),
        (["iwasawa", "--mode", "uak"], iwasawa_uak),
        (["--trunc", "6", "cartan"], lambda g: cartan_kak(g, order=6)),
        (["bruhat"], bruhat),
    ],
    ids=["kau", "uak", "cartan-trunc6", "bruhat"],
)
def test_cli_puiseux_output_reparses_to_the_printed_values(tmp_path, argv, decompose):
    code, out, err = run_cli(
        ["--field", "puiseux", "--format", "json"] + argv,
        files={"g.mat": "X, 0; 1, X^(-1)"},
        tmp_path=tmp_path,
    )
    assert code == 0, err
    blocks = json.loads(out)
    res = decompose(GroupElement.puiseux([[rcg.X, 0], [1, rcg.X.invert()]]))
    printed = [s for name in res.factors() for row in blocks[name] for s in row]
    values = [x for f in res.factors().values() for row in f.mat.data for x in row]
    assert len(printed) == len(values) == 12
    for text, value in zip(printed, values):
        assert parse_scalar(text, "puiseux") == value
    if decompose is not bruhat:
        assert any("O(X^(" in text for text in printed)


def _rational_sl(rng, n):
    """A random rational element of SL_n: its first row divided by det."""
    while True:
        rows = [[F(rng.randint(-9, 9), rng.randint(1, 9)) for _ in range(n)] for _ in range(n)]
        d = det(Matrix.tower(rows)).as_fraction()
        if d:
            rows[0] = [x / d for x in rows[0]]
            return GroupElement.tower(rows)


def _puiseux_sl(rng, n, domain):
    """g = D L S in SL_n over `domain`: D a monomial diagonal with distinct
    exponents, L lower and S upper unitriangular with small integers."""
    while True:
        exps = [rng.randint(-3, 3) for _ in range(n - 1)]
        exps.append(-sum(exps))
        if len(set(exps)) == n:
            break
    coeffs = [F(rng.randint(1, 3), rng.randint(1, 2)) for _ in range(n - 1)]
    coeffs.append(1 / prod(coeffs))
    d = Matrix.diagonal([PuiseuxScalar.monomial(c, e) for c, e in zip(coeffs, exps)], domain)
    low = Matrix(domain, [[1 if i == j else (rng.choice((-2, -1, 1, 2)) if j < i else 0)
                           for j in range(n)] for i in range(n)])
    up = Matrix(domain, [[1 if i == j else (rng.choice((-1, 1)) if j > i else 0)
                          for j in range(n)] for i in range(n)])
    return GroupElement(d * low * up)


@pytest.mark.parametrize("n", [2, 3, 4])
def test_tower_factors_reparse_to_equal_values(n):
    rng = random.Random(f"tower-roundtrip-{n}")
    for _ in range(8):
        g = _rational_sl(rng, n)
        for res in (iwasawa_kau(g), iwasawa_uak(g), bruhat(g)):
            for factor in res.factors().values():
                assert parse_matrix(print_matrix(factor.mat)) == factor.mat


@pytest.mark.parametrize("n", [2, 3, 4])
def test_puiseux_factors_reprint_identically(n):
    domain = PuiseuxDomain(16)
    rng = random.Random(f"puiseux-roundtrip-{n}")
    printed = []
    for _ in range(5):
        g = _puiseux_sl(rng, n, domain)
        for res in (iwasawa_kau(g), cartan_kak(g, order=16), bruhat(g)):
            for factor in res.factors().values():
                text = print_matrix(factor.mat)
                assert print_matrix(parse_matrix(text, domain)) == text
                printed.append(text)
    assert any("O(X^(" in text for text in printed)


# ---------------------------------------------------------------------------
# the truncation order lives in the run's PuiseuxDomain, not in a global

def test_cli_trunc_writes_no_module_state(tmp_path, monkeypatch):
    seen = []

    def recording_bruhat(g):
        seen.append(rcg.puiseux.DEFAULT_REL_ORDER)
        seen.append(g.mat.domain.order)
        return bruhat(g)

    monkeypatch.setattr(rcg.cli, "bruhat", recording_bruhat)
    code, _, err = run_cli(
        ["--field", "puiseux", "--trunc", "6", "bruhat"],
        files={"g.mat": "X, 0; 1, X^(-1)"}, tmp_path=tmp_path,
    )
    assert code == 0, err
    assert seen == [8, 6]


def test_cli_trunc_reaches_parse_time_roots(tmp_path):
    # sqrt(X^20 + 2 X^10 + 1) = X^10 + 1 needs order 10 to close exactly
    files = {"g.mat": "sqrt(X^(20) + 2*X^(10) + 1), X^(10); 1, 1"}
    code, out, err = run_cli(
        ["--field", "puiseux", "--trunc", "12", "bruhat"], files=files, tmp_path=tmp_path
    )
    assert code == 0, err
    assert out.startswith("b1:\n  1, X^(10) + 1\n")
    code, _, err = run_cli(["--field", "puiseux", "bruhat"], files=files, tmp_path=tmp_path)
    assert code == 2 and "must be exact" in err


# ---------------------------------------------------------------------------
# command-line usage errors are parse errors

@pytest.mark.parametrize(
    "argv, message",
    [
        (["--trunc", "-3/2", "bruhat", "g.mat"], "argument --trunc: expected one argument"),
        ([], "the following arguments are required: command"),
        (["bogus"], "invalid choice: 'bogus'"),
        (["roots"], "the following arguments are required: --type"),
    ],
    ids=["trunc-looks-like-a-flag", "no-verb", "unknown-verb", "missing-option"],
)
def test_cli_usage_error_is_a_parse_error(argv, message, capsys):
    out, err = io.StringIO(), io.StringIO()
    assert run(argv, out=out, err=err) == 1
    assert err.getvalue().startswith("parse error: ") and message in err.getvalue()
    assert capsys.readouterr() == ("", "")


def test_python_m_rcg_cli_usage_error_exits_1():
    env = dict(os.environ, PYTHONPATH=str(Path(rcg.__file__).resolve().parent.parent))
    done = subprocess.run([sys.executable, "-m", "rcg.cli", "bogus"],
                          capture_output=True, text=True, env=env, timeout=120)
    assert done.returncode == 1
    assert done.stderr.startswith("parse error: ") and done.stdout == ""


def test_cli_roots_a9_without_enumerating_the_weyl_group():
    code, out, err = run_cli(["--format", "json", "roots", "--type", "A9"])
    assert code == 0, err
    payload = json.loads(out)
    assert payload["weyl_order"] == 3628800 and len(payload["roots"]) == 90


# ---------------------------------------------------------------------------
# --help returns 0 and writes to the caller's stream

@pytest.mark.parametrize(
    "argv, usage",
    [(["--help"], "usage: rcg [-h]"), (["bch", "--help"], "usage: rcg bch [-h] x y")],
    ids=["top-level", "verb"],
)
def test_cli_help_writes_usage_to_out_and_returns_0(argv, usage, capsys):
    out, err = io.StringIO(), io.StringIO()
    assert run(argv, out=out, err=err) == 0
    assert out.getvalue().startswith(usage) and err.getvalue() == ""
    assert capsys.readouterr() == ("", "")


def test_python_m_rcg_cli_help_exits_0():
    env = dict(os.environ, PYTHONPATH=str(Path(rcg.__file__).resolve().parent.parent))
    done = subprocess.run([sys.executable, "-m", "rcg.cli", "--help"],
                          capture_output=True, text=True, env=env, timeout=120)
    assert done.returncode == 0
    assert done.stdout.startswith("usage: rcg [-h]") and "jm-triple" in done.stdout
    assert done.stderr == ""


@pytest.mark.parametrize("field", ["tower", "puiseux"])
def test_cli_sqrt_of_zero_parses_and_of_a_negative_is_a_domain_error(tmp_path, field):
    code, out, err = run_cli(["--field", field, "bruhat"],
                             files={"g.mat": "1, sqrt(0); sqrt(1-1), 1"}, tmp_path=tmp_path)
    assert (code, err) == (0, "")
    assert out.startswith("b1:\n  1, 0\n  0, 1\n")
    code, out, err = run_cli(["--field", field, "bruhat"],
                             files={"g.mat": "1, sqrt(-1); 0, 1"}, tmp_path=tmp_path)
    assert (code, out, err) == (2, "", "domain error: sqrt of a negative value\n")


def test_cli_runs_in_one_process_print_what_fresh_processes_print(tmp_path, monkeypatch):
    """run builds its parser once per process and reuses it: a sequence of
    runs in this process, through one parser, prints the same bytes and
    returns the same codes as each run in a fresh process, so argparse
    carries no state from one run to the next."""
    g, p = tmp_path / "g.mat", tmp_path / "p.mat"
    g.write_text("2, 3; 1, 2")
    p.write_text("X, 0; 1, X^(-1)")
    sequence = [
        ["bogus"],
        ["--help"],
        ["--format", "json", "iwasawa", str(g)],
        ["--field", "puiseux", "--trunc", "6", "cartan", str(p)],
        ["bruhat", str(g)],
    ]
    monkeypatch.setenv("COLUMNS", "80")  # the width of --help
    env = dict(os.environ, PYTHONPATH=str(Path(rcg.__file__).resolve().parent.parent))
    parser = rcg.cli._parser()
    for argv in sequence:
        out, err = io.StringIO(), io.StringIO()
        code = run(argv, out=out, err=err)
        fresh = subprocess.run([sys.executable, "-m", "rcg.cli", *argv],
                               capture_output=True, env=env, timeout=120)
        assert (code, out.getvalue().encode(), err.getvalue().encode()) == (
            fresh.returncode, fresh.stdout, fresh.stderr), argv
    assert rcg.cli._parser() is parser
