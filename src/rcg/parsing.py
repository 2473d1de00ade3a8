"""Scalar and matrix text grammar shared by the library and the CLI.

    scalar   := ["+"|"-"] term (("+"|"-") term)*
    term     := factor (("*"|"/") factor)*
    factor   := rational | "sqrt" "(" scalar ")" | "(" scalar ")"
              | power | "O" "(" power ")"
    power    := "X" ("^" "(" rational ")")?
    rational := ["-"] int ("/" posint)?

Matrices: rows separated by ";" or newlines, entries by ",".  Parsing
evaluates directly to exact values; printing any value re-parses to an
equal value.  "X" and "O" are only admitted in the Puiseux field;
O(X^(e)) is the truncation marker of a truncated value, zero with every
term below X^(e) unknown.  The field is a name ("tower", "puiseux") or a
ScalarDomain; "/" and sqrt(...) over the Puiseux field work to the
domain's truncation order, so sqrt(X^(20) + 2*X^(10) + 1) is the exact
X^(10) + 1 at order 12 but truncated at the default order 8.  sqrt of an
exact zero is zero; of a negative value, NotPositive in either field.
A scalar nests at most MAX_NESTING levels of "(" and "sqrt(" (ParseError
beyond): each level takes three frames of the recursive descent, and
deeper input would exhaust the interpreter's stack.
"""

from __future__ import annotations

from fractions import Fraction

from .errors import NotPositive, ParseError
from .linalg import Matrix, PUISEUX, TOWER, ScalarDomain
from .puiseux import PuiseuxScalar

F = Fraction

#: the deepest nesting of "(" and "sqrt(" that a scalar may have
MAX_NESTING = 200


class _Tokens:
    SYMBOLS = ("+", "-", "*", "/", "(", ")", "^")

    def __init__(self, text: str):
        self.items = []  # (kind, value, line, col)
        line, col = 1, 1
        i = 0
        while i < len(text):
            ch = text[i]
            if ch == "\n":
                line += 1
                col = 1
                i += 1
                continue
            if ch.isspace():
                col += 1
                i += 1
                continue
            if ch.isdigit():
                j = i
                while j < len(text) and text[j].isdigit():
                    j += 1
                self.items.append(("int", int(text[i:j]), line, col))
                col += j - i
                i = j
                continue
            if ch.isalpha():
                j = i
                while j < len(text) and text[j].isalnum():
                    j += 1
                self.items.append(("name", text[i:j], line, col))
                col += j - i
                i = j
                continue
            if ch in self.SYMBOLS:
                self.items.append(("sym", ch, line, col))
                col += 1
                i += 1
                continue
            raise ParseError(f"unexpected character {ch!r}", line, col)
        self.pos = 0

    def peek(self):
        if self.pos < len(self.items):
            return self.items[self.pos]
        return ("eof", None, -1, -1)

    def next(self):
        tok = self.peek()
        self.pos += 1
        return tok

    def expect_sym(self, sym):
        kind, value, line, col = self.next()
        if kind != "sym" or value != sym:
            raise ParseError(f"expected {sym!r}, found {value!r}", line, col)

    def error(self, message):
        _, _, line, col = self.peek()
        raise ParseError(message, line, col)


class _Grammar:
    def __init__(self, field: str | ScalarDomain):
        self.domain = {"tower": TOWER, "puiseux": PUISEUX}.get(field, field)
        if not isinstance(self.domain, ScalarDomain):
            raise ParseError(f"unknown field {field!r}")
        self.nesting = 0

    # -- productions ---------------------------------------------------------

    def scalar(self, toks: _Tokens):
        kind, value, _, _ = toks.peek()
        negate = False
        if kind == "sym" and value in ("+", "-"):
            toks.next()
            negate = value == "-"
        total = self.term(toks)
        if negate:
            total = -total
        while True:
            kind, value, _, _ = toks.peek()
            if kind == "sym" and value in ("+", "-"):
                toks.next()
                rhs = self.term(toks)
                total = total + rhs if value == "+" else total - rhs
            else:
                return total

    def term(self, toks: _Tokens):
        total = self.factor(toks)
        while True:
            kind, value, _, _ = toks.peek()
            if kind == "sym" and value in ("*", "/"):
                toks.next()
                rhs = self.factor(toks)
                total = total * (rhs if value == "*" else self.domain.invert(rhs))
            else:
                return total

    def factor(self, toks: _Tokens):
        kind, value, line, col = toks.peek()
        if kind == "int":
            return self.domain.coerce(self.rational(toks))
        if kind == "sym" and value == "(":
            toks.next()
            return self.nested(toks, line, col)
        if kind == "name" and value == "sqrt":
            toks.next()
            toks.expect_sym("(")
            return self.sqrt(self.nested(toks, line, col))
        if kind == "name" and value in ("X", "O"):
            if self.domain is TOWER:
                raise ParseError(f"{value} is only available in the puiseux field", line, col)
            if value == "X":
                return PuiseuxScalar.monomial(1, self.power(toks))
            toks.next()
            toks.expect_sym("(")
            tail = self.power(toks)
            toks.expect_sym(")")
            return PuiseuxScalar((), tail)
        toks.error(f"expected a factor, found {value!r}")

    def nested(self, toks: _Tokens, line: int, col: int):
        """The scalar inside one more level of nesting, opened at (line,
        col), up to its ")"; ParseError past MAX_NESTING levels."""
        if self.nesting == MAX_NESTING:
            raise ParseError(f"nesting deeper than {MAX_NESTING} levels", line, col)
        self.nesting += 1
        try:
            inner = self.scalar(toks)
        finally:
            self.nesting -= 1
        toks.expect_sym(")")
        return inner

    def sqrt(self, x):
        """The positive root of x, and 0 for an exact 0.  A truncated zero
        keeps raising IndeterminateSign, as its sign does."""
        sign = self.domain.sign(x)
        if sign < 0:
            raise NotPositive("sqrt of a negative value")
        return self.domain.sqrt_positive(x) if sign else x

    def power(self, toks: _Tokens) -> Fraction:
        """The exponent of X (^(e), default 1)."""
        kind, value, line, col = toks.next()
        if kind != "name" or value != "X":
            raise ParseError(f"expected 'X', found {value!r}", line, col)
        kind, value, _, _ = toks.peek()
        if kind != "sym" or value != "^":
            return F(1)
        toks.next()
        toks.expect_sym("(")
        exponent = self.rational(toks)
        toks.expect_sym(")")
        return exponent

    def rational(self, toks: _Tokens) -> Fraction:
        kind, value, line, col = toks.next()
        sign = 1
        if kind == "sym" and value == "-":
            sign = -1
            kind, value, line, col = toks.next()
        if kind != "int":
            raise ParseError(f"expected an integer, found {value!r}", line, col)
        num = value
        kind, nxt, _, _ = toks.peek()
        if kind == "sym" and nxt == "/":
            save = toks.pos
            toks.next()
            kind, den, line2, col2 = toks.next()
            if kind != "int":
                # the slash belonged to the term level (e.g. "2/sqrt(2)")
                toks.pos = save
                return F(sign * num)
            if den == 0:
                raise ParseError("zero denominator", line2, col2)
            return F(sign * num, den)
        return F(sign * num)


def _parse_all(grammar: _Grammar, toks: _Tokens):
    """The scalar that spans all of toks; ParseError on trailing input."""
    value = grammar.scalar(toks)
    if toks.peek()[0] != "eof":
        toks.error(f"trailing input {toks.peek()[1]!r}")
    return value


def parse_scalar(text: str, field: str | ScalarDomain = "tower"):
    toks = _Tokens(text)  # a bad character is reported before a bad field
    return _parse_all(_Grammar(field), toks)


def parse_matrix(text: str, field: str | ScalarDomain = "tower") -> Matrix:
    rows = []
    grammar = _Grammar(field)
    line_no = 0
    for chunk in text.replace(";", "\n").splitlines():
        line_no += 1
        if not chunk.strip():
            continue
        row = []
        for part in chunk.split(","):
            if not part.strip():
                raise ParseError("empty matrix entry", line_no, 1)
            row.append(_parse_all(grammar, _Tokens(part)))
        rows.append(row)
    if not rows:
        raise ParseError("empty matrix")
    if any(len(r) != len(rows[0]) for r in rows):
        raise ParseError("ragged matrix rows")
    return Matrix(grammar.domain, rows)


def print_matrix(m: Matrix) -> str:
    return "\n".join(", ".join(str(x) for x in row) for row in m.data)
