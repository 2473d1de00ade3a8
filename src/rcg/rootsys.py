"""Finite crystallographic root systems with Weyl groups and Kostant cone data.

Roots are integer coordinate vectors over the simple basis; the inner
product is a fixed Gram matrix per type (A_n normalised to <d_i, d_i> = 2
with adjacent product -1; B_2 long/short 4/2; G_2 short/long 2/6).  The
Kostant data consists of the coroot-side generators x_i of the cone, the
primitive lattice vectors e_j orthogonal to the facet hyperplanes E_j, and
their character-side counterparts gamma_j.
"""

from __future__ import annotations

import re
from fractions import Fraction
from math import factorial, gcd, prod
from operator import mul

from .errors import InternalError, UnsupportedType
from .linalg import Matrix, _integer_form, det, kernel

F = Fraction


class RootSystem:
    __slots__ = ("name", "rank", "gram", "simple_roots", "positive_roots", "all_roots")

    def __init__(self, name, gram):
        self.name = name
        self.rank = len(gram)
        self.gram = tuple(tuple(F(x) for x in row) for row in gram)
        self.simple_roots = _identity(self.rank)
        self.all_roots = self._generate()
        self.positive_roots = tuple(
            r for r in self.all_roots if _is_positive(r)
        )
        self._validate()

    def inner(self, u, v) -> Fraction:
        total = F(0)
        for i, ui in enumerate(u):
            if not ui:
                continue
            for j, vj in enumerate(v):
                if vj:
                    total += F(ui) * F(vj) * self.gram[i][j]
        return total

    def reflect(self, root_index: int, v):
        """Reflection of v in the simple root with the given index."""
        delta = self.simple_roots[root_index]
        c = 2 * self.inner(v, delta) / self.gram[root_index][root_index]
        return tuple(F(x) - c * F(d) for x, d in zip(v, delta))

    def _generate(self):
        roots = set(self.simple_roots) | {tuple(-x for x in r) for r in self.simple_roots}
        frontier = set(roots)
        while frontier:
            new = set()
            for v in frontier:
                for i in range(self.rank):
                    img = self.reflect(i, v)
                    imgi = tuple(int(x) for x in img)
                    if any(F(a) != b for a, b in zip(imgi, img)):
                        raise UnsupportedType("non-integral reflection image")
                    if imgi not in roots:
                        new.add(imgi)
            roots |= new
            frontier = new
        return tuple(sorted(roots, reverse=True))

    def _validate(self):
        roots = set(self.all_roots)
        if not all(tuple(-x for x in r) in roots for r in roots):
            raise UnsupportedType("root set is not closed under negation")
        if not all(any(r) for r in roots):
            raise UnsupportedType("zero vector among the roots")
        for alpha in roots:
            aa = self.inner(alpha, alpha)
            for beta in roots:
                c = 2 * self.inner(alpha, beta) / aa
                if c.denominator != 1:
                    raise UnsupportedType("crystallographic axiom violated")

    def __repr__(self):
        return f"RootSystem({self.name}, {len(self.all_roots)} roots)"


def _is_positive(root) -> bool:
    for x in root:
        if x:
            return x > 0
    return False


_GRAMS = {
    "B2": [[4, -2], [-2, 2]],
    "G2": [[2, -3], [-3, 6]],
}


def build(type_name: str) -> RootSystem:
    """Construct a root system of type A_n (any n >= 1), B_2 or G_2."""
    name = type_name.replace("_", "").strip()
    m = re.fullmatch(r"A(\d+)", name)
    if m:
        n = int(m.group(1))
        if n < 1:
            raise UnsupportedType(
                f"unsupported root system type {type_name!r}: A_n needs n >= 1"
            )
        gram = [
            [2 if i == j else (-1 if abs(i - j) == 1 else 0) for j in range(n)]
            for i in range(n)
        ]
        return RootSystem(f"A{n}", gram)
    if name in _GRAMS:
        return RootSystem(name, _GRAMS[name])
    raise UnsupportedType(f"unsupported root system type {type_name!r}")


# ---------------------------------------------------------------------------
# Weyl group

class WeylElement:
    """An orthogonal map stored by its matrix over the simple-root basis,
    together with a reduced word in the simple reflections."""

    __slots__ = ("matrix", "word")

    def __init__(self, matrix, word):
        self.matrix = matrix
        self.word = word

    def apply(self, v):
        n = len(self.matrix)
        return tuple(
            sum(self.matrix[i][j] * v[j] for j in range(n)) for i in range(n)
        )

    def __eq__(self, other):
        return self.matrix == other.matrix

    def __hash__(self):
        return hash(self.matrix)

    def __repr__(self):
        return f"WeylElement(word={self.word})"


class WeylGroup:
    __slots__ = ("system", "elements", "generators")

    def __init__(self, system: RootSystem, elements, generators):
        self.system = system
        self.elements = elements
        self.generators = generators

    def __len__(self):
        return len(self.elements)

    def compose(self, a: WeylElement, b: WeylElement) -> WeylElement:
        mat = _matmul(a.matrix, b.matrix)
        for e in self.elements:
            if e.matrix == mat:
                return e
        raise InternalError("Weyl group not closed")

    def element_orders(self):
        identity = _identity(self.system.rank)
        orders = []
        for e in self.elements:
            k, cur = 1, e
            while cur.matrix != identity:
                cur = self.compose(cur, e)
                k += 1
            orders.append(k)
        return sorted(orders)


def _identity(n):
    return tuple(tuple(1 if i == j else 0 for j in range(n)) for i in range(n))


def _matmul(a, b):
    """The product of two square integer matrices stored as row tuples."""
    cols = tuple(zip(*b))
    return tuple(tuple(sum(map(mul, row, col)) for col in cols) for row in a)


def weyl(rs: RootSystem) -> WeylGroup:
    """Full enumeration of the reflection group, by breadth-first closure of
    the simple reflections (so the stored words are reduced)."""
    n = rs.rank

    def reflection_matrix(i):
        cols = []
        for j in range(n):
            img = rs.reflect(i, rs.simple_roots[j])
            cols.append(tuple(int(x) for x in img))
        return tuple(zip(*cols))

    gens = [WeylElement(reflection_matrix(i), (i,)) for i in range(n)]
    identity = WeylElement(_identity(n), ())
    seen = {identity.matrix: identity}
    frontier = [identity]
    while frontier:
        new = []
        for w in frontier:
            for g in gens:
                mat = _matmul(g.matrix, w.matrix)
                if mat not in seen:
                    elem = WeylElement(mat, g.word + w.word)
                    seen[mat] = elem
                    new.append(elem)
        frontier = new
    elements = list(seen.values())
    # sanity: every element permutes the root set
    roots = set(rs.all_roots)
    for e in elements:
        if {e.apply(r) for r in roots} != roots:
            raise InternalError("a Weyl group element does not permute the roots")
    return WeylGroup(rs, elements, gens)


def weyl_order(rs: RootSystem) -> int:
    """|W| without enumerating W: r! * det(C) * the product of the
    highest root's simple-root coefficients, C the Cartan matrix (Bourbaki,
    Lie groups and Lie algebras, ch. VI, section 2).  The formula holds for
    an irreducible system, i.e. a connected Dynkin diagram."""
    r = rs.rank
    reached, frontier = {0}, [0]
    while frontier:
        i = frontier.pop()
        for j in range(r):
            if rs.gram[i][j] and j not in reached:
                reached.add(j)
                frontier.append(j)
    if len(reached) != r:
        raise UnsupportedType(f"weyl_order needs an irreducible root system, not {rs.name}")
    cartan = [[2 * rs.gram[i][j] / rs.gram[j][j] for j in range(r)] for i in range(r)]
    highest = max(rs.positive_roots, key=sum)
    return int(factorial(r) * det(Matrix.tower(cartan)).as_fraction() * prod(highest))


# ---------------------------------------------------------------------------
# Kostant cone data

class ConeData:
    __slots__ = ("system", "x", "e", "gamma")

    def __init__(self, system, x, e, gamma):
        self.system = system
        self.x = x
        self.e = e
        self.gamma = gamma


def cone_data(rs: RootSystem) -> ConeData:
    """The cone generators x_i = (2/<d_i,d_i>) H_i, the primitive lattice
    normals e_j of the facet hyperplanes E_j = span(x_k : k != j) fixed on
    the cone side by <e_j, x_j> > 0, and the gamma_j: the e_j read on the
    character side through the Gram identification."""
    r = rs.rank
    x = [
        tuple((F(2) / rs.gram[i][i]) if j == i else F(0) for j in range(r))
        for i in range(r)
    ]
    es = []
    for j in range(r):
        # primitive integer kernel of <v, x_i> = 0 for i != j, v over the H-basis
        if r == 1:
            vec = (1,)
        else:
            rows = [
                [rs.inner(d, x[i]) for d in rs.simple_roots] for i in range(r) if i != j
            ]
            basis = kernel(Matrix.tower(rows))
            if len(basis) != 1:
                raise InternalError("facet normal is not one-dimensional")
            vec = _primitive([q.as_fraction() for q in basis[0]])
        if rs.inner(vec, x[j]) < 0:
            vec = tuple(-v for v in vec)
        if rs.inner(vec, x[j]) <= 0 or any(
            rs.inner(vec, x[i]) != 0 for i in range(r) if i != j
        ):
            raise InternalError(f"e_{j + 1} is not a facet normal of the cone")
        es.append(vec)
    gammas = [tuple(v) for v in es]
    return ConeData(rs, x, es, gammas)


def _primitive(fracs) -> tuple:
    """The primitive integer vector on the ray of a nonzero rational vector."""
    [ints], _ = _integer_form([fracs])
    g = gcd(*ints)
    return tuple(q // g for q in ints)


def eta_plus(rs: RootSystem):
    """The sum of the positive roots, in simple-root coordinates."""
    total = [0] * rs.rank
    for root in rs.positive_roots:
        for i, c in enumerate(root):
            total[i] += c
    return tuple(total)


def gamma_coefficients(rs: RootSystem, cd: ConeData, eta):
    """Coefficients of eta over the gamma basis: <eta, d_l> / <gamma_l, d_l>."""
    out = []
    for ell in range(rs.rank):
        delta = rs.simple_roots[ell]
        out.append(rs.inner(eta, delta) / rs.inner(cd.gamma[ell], delta))
    return out


def eta_plus_expansion(rs: RootSystem):
    """Expansion coefficients of the positive-root sum over the gamma_l;
    all of them are strictly positive."""
    cd = cone_data(rs)
    coeffs = gamma_coefficients(rs, cd, eta_plus(rs))
    if not all(c > 0 for c in coeffs):
        raise InternalError("positive-root sum has a non-positive gamma coefficient")
    return coeffs
