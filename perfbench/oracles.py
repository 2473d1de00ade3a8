"""Independent checks of rcg results.

Every matrix product, inverse, factorisation, rank and series product here is
written out in this file over ``fractions.Fraction``; rcg's matrix, series and
parsing code is never called.  Values that rcg computes in the quadratic
tower are read through their canonical coordinates (``coeffs``, zero iff all
coordinates vanish); only sums, products and signs of two tower values use
rcg's ``TowerScalar`` arithmetic, and ``sqrt`` in parsed CLI output uses
rcg's scalar square root.

Each ``check_*`` function takes plain row lists (see ``rows``) and returns
None when the result is right, or a short string saying what is wrong.  A
Puiseux check returns a ``Shortfall`` string instead when the result is
consistent but certifies less than its operation must.
"""

from __future__ import annotations

import re
from fractions import Fraction as F

# ---------------------------------------------------------------------------
# scalars


def is_zero(x) -> bool:
    """Exact zero test: a Fraction, or a tower value by its coordinates."""
    coeffs = getattr(x, "coeffs", None)
    if coeffs is None:
        return x == 0
    return not any(coeffs)


def frac(x) -> F:
    """A rational value as a Fraction; ValueError for an irrational one."""
    coeffs = getattr(x, "coeffs", None)
    if coeffs is None:
        return F(x)
    if any(coeffs[1:]):
        raise ValueError(f"not rational: {x}")
    return coeffs[0]


def same(x, y) -> bool:
    return is_zero(x - y)


def sign(x) -> int:
    if isinstance(x, F):
        return (x > 0) - (x < 0)
    return x.sign()


def rows(m):
    """Row lists of a GroupElement, a Matrix or a nested list."""
    mat = getattr(m, "mat", m)
    return [list(r) for r in getattr(mat, "data", mat)]


def frac_rows(m):
    return [[frac(x) for x in r] for r in rows(m)]


# ---------------------------------------------------------------------------
# dense matrices over any ring whose elements support + - * (Fractions or
# tower values)


def ident(n):
    return [[F(int(i == j)) for j in range(n)] for i in range(n)]


def mmul(a, b):
    out = []
    for row in a:
        new = []
        for j in range(len(b[0])):
            acc = F(0)
            for k, x in enumerate(row):
                if not is_zero(x) and not is_zero(b[k][j]):
                    acc = acc + x * b[k][j]
            new.append(acc)
        out.append(new)
    return out


def madd(a, b):
    return [[x + y for x, y in zip(r, s)] for r, s in zip(a, b)]


def msub(a, b):
    return [[x - y for x, y in zip(r, s)] for r, s in zip(a, b)]


def mscale(a, c):
    return [[x * c for x in r] for r in a]


def transpose(a):
    return [list(c) for c in zip(*a)]


def bracket(a, b):
    return msub(mmul(a, b), mmul(b, a))


def mequal(a, b) -> bool:
    return len(a) == len(b) and all(
        len(r) == len(s) and all(same(x, y) for x, y in zip(r, s))
        for r, s in zip(a, b)
    )


def upper_triangular(a) -> bool:
    return all(is_zero(a[i][j]) for i in range(len(a)) for j in range(i))


def ldl(s):
    """s = L diag(d) L^T with L unit lower triangular (s symmetric positive
    definite, Fractions)."""
    n = len(s)
    work = [list(r) for r in s]
    low = ident(n)
    d = []
    for k in range(n):
        piv = work[k][k]
        d.append(piv)
        for i in range(k + 1, n):
            f = work[i][k] / piv
            low[i][k] = f
            for j in range(k, n):
                work[i][j] -= f * work[k][j]
    return low, d


def udu(s):
    """s = U diag(d) U^T with U unit upper triangular, by LDL^T of the
    reversed matrix."""
    n = len(s)
    rev = [[s[n - 1 - i][n - 1 - j] for j in range(n)] for i in range(n)]
    low, d = ldl(rev)
    up = [[low[n - 1 - i][n - 1 - j] for j in range(n)] for i in range(n)]
    return up, d[::-1]


def unit_upper_inverse(u):
    n = len(u)
    inv = ident(n)
    for j in range(n):
        for i in range(j - 1, -1, -1):
            inv[i][j] = -sum((u[i][k] * inv[k][j] for k in range(i + 1, j + 1)), F(0))
    return inv


def rank(m) -> int:
    work = [list(r) for r in m]
    r = 0
    for c in range(len(work[0]) if work else 0):
        piv = next((i for i in range(r, len(work)) if work[i][c] != 0), None)
        if piv is None:
            continue
        work[r], work[piv] = work[piv], work[r]
        for i in range(r + 1, len(work)):
            f = work[i][c] / work[r][c]
            if f:
                work[i] = [x - f * y for x, y in zip(work[i], work[r])]
        r += 1
    return r


def rank_profile(g) -> dict:
    """Bruhat cell of a rational matrix as column -> row: position (i, j)
    is a pivot iff the lower-left ranks r(i, j) = rank g[i:, :j+1] have
    double difference one."""
    n = len(g)

    def r(i, j):
        if i >= n or j < 0:
            return 0
        return rank([row[: j + 1] for row in g[i:]])

    return {
        j: i
        for j in range(n)
        for i in range(n)
        if r(i, j) - r(i + 1, j) - r(i, j - 1) + r(i + 1, j - 1) == 1
    }


def exp_nil(x):
    """exp of a nilpotent Fraction matrix as the finite sum sum_k x^k / k!."""
    n = len(x)
    total = ident(n)
    term = ident(n)
    for k in range(1, n):
        term = mscale(mmul(term, x), F(1, k))
        total = madd(total, term)
    return total


def strictly_upper(x) -> bool:
    return all(is_zero(x[i][j]) for i in range(len(x)) for j in range(i + 1))


# ---------------------------------------------------------------------------
# tower decompositions (rational input g as Fractions)


def _positive_diagonal(a):
    n = len(a)
    for i in range(n):
        for j in range(n):
            if i != j and not is_zero(a[i][j]):
                return "a is not diagonal"
    if any(sign(a[i][i]) <= 0 for i in range(n)):
        return "a has a non-positive diagonal entry"
    return None


def check_kau(g, k, a, u):
    """g = k a u: a^2 and u from the LDL^T of g^T g, and k a = g u^{-1}."""
    n = len(g)
    bad = _positive_diagonal(a)
    if bad:
        return bad
    low, d = ldl(mmul(transpose(g), g))
    if any(not same(a[i][i] * a[i][i], d[i]) for i in range(n)):
        return "a^2 differs from the LDL^T pivots of g^T g"
    if not mequal(u, transpose(low)):
        return "u differs from the LDL^T factor of g^T g"
    gu = mmul(g, unit_upper_inverse(transpose(low)))
    if any(not same(k[i][j] * a[j][j], gu[i][j]) for i in range(n) for j in range(n)):
        return "k a differs from g u^-1"
    return None


def check_uak(g, u, a, k):
    """g = u a k: a^2 and u from the U D U^T of g g^T, and a k = u^{-1} g."""
    n = len(g)
    bad = _positive_diagonal(a)
    if bad:
        return bad
    up, d = udu(mmul(g, transpose(g)))
    if any(not same(a[i][i] * a[i][i], d[i]) for i in range(n)):
        return "a^2 differs from the U D U^T pivots of g g^T"
    if not mequal(u, up):
        return "u differs from the U D U^T factor of g g^T"
    ug = mmul(unit_upper_inverse(up), g)
    if any(not same(a[i][i] * k[i][j], ug[i][j]) for i in range(n) for j in range(n)):
        return "a k differs from u^-1 g"
    return None


def check_kak2(g, k1, a, k2):
    """g = k1 a k2 in SL_2: a11^2, a22^2 are the roots of
    t^2 - tr(g^T g) t + 1, a11 >= a22, k1 and k2 orthogonal, product g."""
    bad = _positive_diagonal(a)
    if bad:
        return bad
    t = sum(x * x for r in g for x in r)
    s1, s2 = a[0][0] * a[0][0], a[1][1] * a[1][1]
    if not same(s1 + s2, t) or not same(s1 * s2, F(1)):
        return "a^2 is not the root pair of t^2 - tr(g^T g) t + 1"
    if sign(a[0][0] - a[1][1]) < 0:
        return "a is not in the closed chamber"
    for name, q in (("k1", k1), ("k2", k2)):
        if not mequal(mmul(transpose(q), q), ident(2)):
            return f"{name} is not orthogonal"
    if not mequal(mmul(mmul(k1, a), k2), g):
        return "k1 a k2 differs from g"
    return None


def _signed_permutation_support(w):
    n = len(w)
    support = {}
    for j in range(n):
        nz = [i for i in range(n) if not is_zero(w[i][j])]
        if len(nz) != 1 or not (same(w[nz[0]][j], F(1)) or same(w[nz[0]][j], F(-1))):
            return None
        support[j] = nz[0]
    if sorted(support.values()) != list(range(n)):
        return None
    return support


def check_bruhat(g, b1, w, b2):
    """g = b1 w b2: b1, b2 upper triangular, w a signed permutation whose
    support is the lower-left rank profile of g."""
    if not upper_triangular(b1) or not upper_triangular(b2):
        return "b1 or b2 is not upper triangular"
    support = _signed_permutation_support(w)
    if support is None:
        return "w is not a signed permutation"
    if support != rank_profile(g):
        return "w does not match the rank profile of g"
    if not mequal(mmul(mmul(b1, w), b2), g):
        return "b1 w b2 differs from g"
    return None


def majorised(a_diag, b_diag) -> bool:
    """Type-A multiplicative Kostant test: the partial products of the
    descending diagonal of a stay below those of b."""
    a_sorted = sorted(a_diag, reverse=True)
    b_sorted = sorted(b_diag, reverse=True)
    pa = pb = F(1)
    for x, y in zip(a_sorted, b_sorted):
        pa *= x
        pb *= y
        if pa > pb:
            return False
    return True


def check_member(a_diag, b_diag, verdict):
    if verdict is not majorised(a_diag, b_diag):
        return f"kostant_member said {verdict}, majorisation says otherwise"
    return None


def check_orbit_report(report, trials):
    if report.trials != trials or report.violations != 0:
        return "orbit sample report has the wrong trial or violation count"
    if not 0 <= report.min_slack <= report.max_slack:
        return "orbit sample slack is negative or out of order"
    return None


# ---------------------------------------------------------------------------
# nilpotent calculus (rational matrices)


def check_bch(x, y, z):
    if not strictly_upper(z):
        return "bch result is not strictly upper triangular"
    if not mequal(exp_nil(z), mmul(exp_nil(x), exp_nil(y))):
        return "exp(z) differs from exp(x) exp(y)"
    return None


def dynkin3(x, y):
    """log(exp x exp y) through degree 3:
    x + y + [x,y]/2 + [x,[x,y]]/12 - [y,[x,y]]/12."""
    xy = bracket(x, y)
    out = madd(madd(x, y), mscale(xy, F(1, 2)))
    out = madd(out, mscale(bracket(x, xy), F(1, 12)))
    return msub(out, mscale(bracket(y, xy), F(1, 12)))


def check_bch3(x, y, z3):
    if not mequal(z3, dynkin3(x, y)):
        return "degree-3 BCH partial sum differs from the Dynkin closed form"
    return None


def check_zassenhaus(x, y, factors):
    if len(factors) < 3 or not mequal(factors[0], x) or not mequal(factors[1], y):
        return "Zassenhaus factors do not start with x, y"
    if not mequal(factors[2], mscale(bracket(x, y), F(-1, 2))):
        return "Zassenhaus c2 differs from -[x,y]/2"
    prod = ident(len(x))
    for f in factors:
        prod = mmul(prod, exp_nil(f))
    if not mequal(prod, exp_nil(madd(x, y))):
        return "product of exp(factors) differs from exp(x + y)"
    return None


def root_key(i, j, n):
    """Coordinates of the positive root e_i - e_j over the simple roots."""
    return tuple(1 if i <= k < j else 0 for k in range(n - 1))


def check_utheta(u, factors):
    """u = prod exp(X_a) over all positive roots a in descending order, each
    X_a supported on the single entry of its root."""
    n = len(u)
    roots = [(alpha.i, alpha.j) for alpha, _ in factors]
    if sorted(roots) != [(i, j) for i in range(n) for j in range(i + 1, n)]:
        return "factors do not run over the positive roots once each"
    keys = [root_key(i, j, n) for i, j in roots]
    if keys != sorted(keys, reverse=True):
        return "factors are not in descending root order"
    prod = ident(n)
    for (i, j), (_, comp) in zip(roots, factors):
        if any(not is_zero(comp[p][q]) for p in range(n) for q in range(n) if (p, q) != (i, j)):
            return "a factor leaves its root space"
        prod = mmul(prod, exp_nil(comp))
    if not mequal(prod, u):
        return "product of root factors differs from u"
    return None


def check_jm(x, tx, h, y):
    if not mequal(tx, x):
        return "triple does not contain x"
    if not mequal(bracket(h, x), mscale(x, F(2))):
        return "[h,x] != 2x"
    if not mequal(bracket(h, y), mscale(y, F(-2))):
        return "[h,y] != -2y"
    if not mequal(bracket(x, y), h):
        return "[x,y] != h"
    return None


# ---------------------------------------------------------------------------
# truncated Puiseux series with X infinite: terms {exponent: coefficient}
# plus a tail (None when exact, else the exponent below which terms are
# unknown)


class Series:
    __slots__ = ("terms", "tail")

    def __init__(self, terms, tail=None):
        self.tail = tail
        self.terms = {
            e: c for e, c in terms.items() if not is_zero(c) and (tail is None or e >= tail)
        }

    @staticmethod
    def of(x) -> "Series":
        """From rcg's PuiseuxScalar (read through its terms and tail), a
        Series, or a rational constant."""
        if isinstance(x, Series):
            return x
        if hasattr(x, "terms"):
            return Series(dict(x.terms), x.tail)
        return Series({F(0): x})

    def bound(self):
        """An upper bound for the exponent of any term; None for exact 0."""
        return max(self.terms) if self.terms else self.tail

    def __add__(self, other):
        other = Series.of(other)
        tails = [t for t in (self.tail, other.tail) if t is not None]
        terms = dict(self.terms)
        for e, c in other.terms.items():
            terms[e] = terms[e] + c if e in terms else c
        return Series(terms, max(tails) if tails else None)

    __radd__ = __add__

    def __neg__(self):
        return Series({e: -c for e, c in self.terms.items()}, self.tail)

    def __sub__(self, other):
        return self + (-Series.of(other))

    def __mul__(self, other):
        other = Series.of(other)
        if (self.tail is None and not self.terms) or (other.tail is None and not other.terms):
            return Series({})
        tails = []
        if self.tail is not None:
            tails.append(self.tail + other.bound())
        if other.tail is not None:
            tails.append(other.tail + self.bound())
        tail = max(tails) if tails else None
        terms = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                e = e1 + e2
                if tail is not None and e < tail:
                    continue
                terms[e] = terms[e] + c1 * c2 if e in terms else c1 * c2
        return Series(terms, tail)

    __rmul__ = __mul__

    def vanishes(self) -> bool:
        """Every known term is zero."""
        return not self.terms


def series_rows(m):
    return [[Series.of(x) for x in r] for r in rows(m)]


class Shortfall(str):
    """The message of a check whose result is consistent but certifies less
    than the operation promises: rcg failed the operation, it is not wrong."""


def _top(m):
    """The largest exponent bound among the entries of a series matrix."""
    return max(b for r in m for x in r if (b := Series.of(x).bound()) is not None)


def _spread(a):
    """Exponent spread of a positive diagonal: the order lost to the
    condition number when one factor is divided by another."""
    leads = [max(a[i][i].terms) for i in range(len(a))]
    return max(leads) - min(leads)


def _residual(actual, expected, name, scale, order):
    """None if every known term of actual - expected vanishes and every
    unknown part starts at or below X^(scale - order); a Shortfall if only
    the second fails."""
    cutoff = scale - order
    short = None
    for r1, r2 in zip(actual, expected):
        for x, y in zip(r1, r2):
            d = x - y
            if d.terms:
                return f"{name}: a known residual term does not vanish"
            if short is None and d.tail is not None and d.tail > cutoff:
                short = Shortfall(f"{name} is known only above X^({d.tail}), "
                                  f"not down to X^({cutoff})")
    return short


def _first(problems):
    """The first wrong result among the checks' messages, else the first
    shortfall."""
    problems = [p for p in problems if p]
    wrong = [p for p in problems if not isinstance(p, Shortfall)]
    return (wrong or problems or [None])[0]


def _positive_series_diagonal(a):
    n = len(a)
    for i in range(n):
        for j in range(n):
            if i != j and (a[i][j].tail is not None or a[i][j].terms):
                return "a is not diagonal"
        if not a[i][i].terms or a[i][i].terms[max(a[i][i].terms)].sign() <= 0:
            return "a has a non-positive diagonal entry"
    return None


def _orthogonal(k, name, order):
    return _residual(mmul(transpose(k), k), ident(len(k)), f"{name}^T {name} = 1", 0, order)


# The Puiseux checks below take the relative order the operation was asked
# for.  A factor k or k1 is a product divided by a diagonal entry of a, so
# the residuals can be certified to that order less the exponent spread of a
# (the condition number); cartan_kak on SL_2 certifies exactly that.


def check_series_kau(g, k, a, u, order):
    """Puiseux g = k a u, certified to order - spread(a) below the scale of
    each residual."""
    bad = _positive_series_diagonal(a)
    if bad:
        return bad
    n = len(g)
    for i in range(n):
        if any(u[i][j].terms or u[i][j].tail is not None for j in range(i)):
            return "u is not upper triangular"
        if (u[i][i] - F(1)).terms:
            return "u is not unitriangular"
    order = order - _spread(a)
    return _first([
        _orthogonal(k, "k", order),
        _residual(mmul(mmul(k, a), u), g, "k a u = g", _top(g), order),
    ])


def check_series_kak(g, k1, a, k2, order):
    """Puiseux g = k1 a k2: orthogonal k's, prod a_ii = 1 and
    sum a_ii^2 = tr(g^T g), all certified to order - spread(a)."""
    bad = _positive_series_diagonal(a)
    if bad:
        return bad
    n = len(g)
    prod = Series({F(0): F(1)})
    squares = Series({})
    for i in range(n):
        prod = prod * a[i][i]
        squares = squares + a[i][i] * a[i][i]
    trace = Series({})
    for r in g:
        for x in r:
            trace = trace + x * x
    order = order - _spread(a)
    return _first([
        _residual([[prod]], [[F(1)]], "prod a_ii = 1", 0, order),
        _residual([[squares]], [[trace]], "sum a_ii^2 = tr(g^T g)", trace.bound(), order),
        _orthogonal(k1, "k1", order),
        _orthogonal(k2, "k2", order),
        _residual(mmul(mmul(k1, a), k2), g, "k1 a k2 = g", _top(g), order),
    ])


def check_series_bruhat(g, b1, w, b2, profile, order):
    """Puiseux g = b1 w b2 with w on the given rank profile, certified to
    the given order below the scale of g."""
    n = len(g)
    for b in (b1, b2):
        if any(b[i][j].terms or b[i][j].tail is not None for i in range(n) for j in range(i)):
            return "b1 or b2 is not upper triangular"
    if any(x.tail is not None or set(x.terms) - {F(0)} for r in w for x in r):
        return "w has a non-constant entry"
    flat = [[x.terms.get(F(0), F(0)) for x in r] for r in w]
    support = _signed_permutation_support(flat)
    if support is None or support != profile:
        return "w is not the signed permutation of g's Bruhat cell"
    return _residual(mmul(mmul(b1, w), b2), g, "b1 w b2 = g", _top(g), order)


# ---------------------------------------------------------------------------
# reading CLI output

_TOKEN = re.compile(r"\s*(?:(\d+)|(sqrt)|([-+*/()]))")


def parse_tower(text: str, sqrt):
    """Parse the tower scalar grammar printed by rcg (rationals, sqrt(...),
    + - * / and parentheses).  `sqrt` computes a positive square root."""
    tokens = []
    pos = 0
    text = text.strip()
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if not m:
            raise ValueError(f"bad scalar text {text!r}")
        tokens.append(m.group(1) or m.group(2) or m.group(3))
        pos = m.end()
    tokens.append(None)
    at = [0]

    def peek():
        return tokens[at[0]]

    def take(expected=None):
        tok = tokens[at[0]]
        if expected is not None and tok != expected:
            raise ValueError(f"expected {expected!r} in {text!r}")
        at[0] += 1
        return tok

    def scalar():
        neg = peek() == "-"
        if peek() in ("+", "-"):
            take()
        total = term()
        total = -total if neg else total
        while peek() in ("+", "-"):
            op = take()
            rhs = term()
            total = total + rhs if op == "+" else total - rhs
        return total

    def term():
        total = factor()
        while peek() in ("*", "/"):
            op = take()
            rhs = factor()
            total = total * rhs if op == "*" else total / rhs
        return total

    def factor():
        tok = take()
        if tok == "(":
            inner = scalar()
            take(")")
            return inner
        if tok == "sqrt":
            take("(")
            inner = scalar()
            take(")")
            return sqrt(inner)
        if tok is not None and tok.isdigit():
            return F(int(tok))
        raise ValueError(f"unexpected {tok!r} in {text!r}")

    value = scalar()
    if peek() is not None:
        raise ValueError(f"trailing input in {text!r}")
    return value


def parse_text_blocks(text: str) -> dict:
    """rcg's text output: 'key:' followed by indented comma-separated rows,
    or 'key: value' on one line."""
    out = {}
    key = None
    for line in text.splitlines():
        if line.startswith("  ") and key is not None:
            out[key].append([c.strip() for c in line.split(",")])
        elif ":" in line:
            key, _, value = line.partition(":")
            value = value.strip()
            if value:
                out[key] = value
                key = None
            else:
                out[key] = []
    return out
