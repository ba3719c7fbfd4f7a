"""Graph polynomials, cycle bases and graph Laplacian matrices, all exact.

Every polynomial is a :class:`Poly` over the edge (or matrix) variables:
the spanning-tree polynomial, the entries of a Laplacian and the
determinants of symbolic matrices.
"""

from __future__ import annotations

import itertools
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Mapping, Sequence

from .graphs import Graph, GraphError, _root


class PolynomialError(ValueError):
    pass


# ---------------------------------------------------------------------------
# sparse exact polynomials (exponent vectors)
# ---------------------------------------------------------------------------

def _num(c):
    """Normalise an exact coefficient: integral Fractions become ints."""
    if isinstance(c, Fraction):
        return c.numerator if c.denominator == 1 else c
    return c


def _exact_coordinate(point, i: int) -> Fraction:
    """``point[i]`` as a Fraction; PolynomialError names x_{i+1} when it is
    not a finite number."""
    try:
        return Fraction(point[i])
    except (OverflowError, ValueError):
        raise PolynomialError(
            f"coordinate x{i + 1} = {point[i]!r} is not a finite number"
        ) from None


class Poly:
    """Sparse exact polynomial in x1..x_nvars; coefficients are ints or
    Fractions, keyed by exponent tuples."""

    __slots__ = ("nvars", "coeffs")

    def __init__(self, nvars: int, coeffs: Mapping[tuple, Fraction] | None = None):
        self.nvars = nvars
        self.coeffs: dict[tuple, Fraction] = {}
        if coeffs:
            for k, c in coeffs.items():
                c = _num(c)
                if c:
                    self.coeffs[tuple(k)] = c

    @classmethod
    def zero(cls, nvars: int) -> "Poly":
        return cls(nvars)

    @classmethod
    def const(cls, nvars: int, c) -> "Poly":
        return cls(nvars, {(0,) * nvars: c})

    @classmethod
    def monomial(cls, nvars: int, ids: Iterable[int], coeff=1) -> "Poly":
        """coeff times the product of x_i over the 1-based ``ids``; a
        repeated id raises the power."""
        e = [0] * nvars
        for i in ids:
            if not 1 <= i <= nvars:
                raise PolynomialError(f"variable x{i} outside x1..x{nvars}")
            e[i - 1] += 1
        return cls(nvars, {tuple(e): coeff})

    @classmethod
    def var(cls, nvars: int, i: int) -> "Poly":
        """x_i with 1-based index."""
        return cls.monomial(nvars, (i,))

    def is_zero(self) -> bool:
        return not self.coeffs

    def __eq__(self, other):
        return (isinstance(other, Poly) and self.nvars == other.nvars
                and self.coeffs == other.coeffs)

    def __hash__(self):
        return hash((self.nvars, frozenset(self.coeffs.items())))

    def _same_ring(self, other: "Poly | int | Fraction") -> "Poly":
        """``other`` as a Poly in these variables: a scalar is a constant;
        a Poly in another number of variables raises PolynomialError."""
        if not isinstance(other, Poly):
            return Poly.const(self.nvars, other)
        if other.nvars != self.nvars:
            raise PolynomialError(f"polynomials in {self.nvars} and "
                                  f"{other.nvars} variables do not combine")
        return other

    def __add__(self, other: "Poly | int | Fraction") -> "Poly":
        out = dict(self.coeffs)
        for k, c in self._same_ring(other).coeffs.items():
            out[k] = out.get(k, 0) + c
        return Poly(self.nvars, out)

    __radd__ = __add__

    def __sub__(self, other: "Poly | int | Fraction") -> "Poly":
        out = dict(self.coeffs)
        for k, c in self._same_ring(other).coeffs.items():
            out[k] = out.get(k, 0) - c
        return Poly(self.nvars, out)

    def __rsub__(self, other: "int | Fraction") -> "Poly":
        return self._same_ring(other) - self

    def __neg__(self) -> "Poly":
        return Poly(self.nvars, {k: -c for k, c in self.coeffs.items()})

    def __mul__(self, other: "Poly | int | Fraction") -> "Poly":
        if not isinstance(other, Poly):
            return self.scale(other)
        other = self._same_ring(other)
        out: dict[tuple, Fraction] = {}
        for k1, c1 in self.coeffs.items():
            for k2, c2 in other.coeffs.items():
                k = tuple(a + b for a, b in zip(k1, k2))
                out[k] = out.get(k, 0) + c1 * c2
        return Poly(self.nvars, out)

    __rmul__ = __mul__

    def scale(self, c) -> "Poly":
        c = _num(c)
        return Poly(self.nvars, {k: c * v for k, v in self.coeffs.items()})

    def leading(self) -> tuple[tuple, Fraction]:
        k = max(self.coeffs)
        return k, self.coeffs[k]

    def divide_exact(self, divisor: "Poly") -> "Poly | None":
        """Exact quotient self / divisor, or None if it does not divide."""
        if divisor.is_zero():
            raise ZeroDivisionError("polynomial division by zero")
        rem = dict(self.coeffs)
        quot: dict[tuple, Fraction] = {}
        dk, dc = divisor.leading()
        d_items = list(divisor.coeffs.items())
        while rem:
            rk = max(rem)
            rc = rem[rk]
            qk = tuple(a - b for a, b in zip(rk, dk))
            if any(x < 0 for x in qk):
                return None
            if isinstance(rc, int) and isinstance(dc, int) and rc % dc == 0:
                qc = rc // dc
            else:
                qc = Fraction(rc) / Fraction(dc)
            quot[qk] = quot.get(qk, 0) + qc
            for k2, c2 in d_items:
                k = tuple(a + b for a, b in zip(qk, k2))
                nc = rem.get(k, 0) - qc * c2
                if nc:
                    rem[k] = nc
                else:
                    rem.pop(k, None)
        return Poly(self.nvars, quot)

    def derivative(self, i: int) -> "Poly":
        """d/dx_i, 1-based."""
        out: dict[tuple, Fraction] = {}
        for k, c in self.coeffs.items():
            if k[i - 1]:
                k2 = list(k)
                k2[i - 1] -= 1
                out[tuple(k2)] = out.get(tuple(k2), 0) + c * k[i - 1]
        return Poly(self.nvars, out)

    def degrees(self) -> set[int]:
        """Total degrees of the terms."""
        return {sum(k) for k in self.coeffs}

    def evaluate(self, point: Sequence[Fraction]) -> Fraction:
        """Exact value at ``point``, where point[i - 1] is x_i; a float
        coordinate is read as the rational it stores.  Raises
        PolynomialError when a coordinate the polynomial uses is infinite
        or NaN."""
        total = Fraction(0)
        for k, c in self.coeffs.items():
            term = Fraction(c)
            for i, e in enumerate(k):
                if e:
                    term *= _exact_coordinate(point, i) ** e
            total += term
        return total

    def evaluate_floats(self, xs) -> "object":
        """Vectorised evaluation; xs has shape (batch, nvars).  Each term
        multiplies its variables in ascending order, one factor per power."""
        import numpy as np

        out = np.zeros(xs.shape[0])
        for k, c in self.coeffs.items():
            term = np.full(xs.shape[0], float(c))
            for i, e in enumerate(k):
                for _ in range(e):
                    term = term * xs[:, i]
            out += term
        return out

    def terms(self) -> list[tuple[object, tuple[int, ...]]]:
        """(coefficient, variable ids with multiplicity), ascending by ids."""
        return sorted(((c, tuple(i + 1 for i, e in enumerate(k)
                                 for _ in range(e)))
                       for k, c in self.coeffs.items()), key=lambda t: t[1])

    def to_text(self) -> str:
        """Terms ascending by variable ids, as in ``x1 + x2*x4 - 2*x3^2``;
        the zero polynomial is ``0``."""
        parts = []
        for c, ids in self.terms():
            mono = "*".join(f"x{i}^{n}" if n > 1 else f"x{i}"
                            for i, n in Counter(ids).items())
            if not mono:
                parts.append(str(c))
            elif c in (1, -1):
                parts.append(mono if c == 1 else "-" + mono)
            else:
                parts.append(f"{c}*{mono}")
        return " + ".join(parts).replace("+ -", "- ") if parts else "0"

    def to_json(self) -> list:
        return [[c, list(ids)] for c, ids in self.terms()]

    def __repr__(self):
        return f"Poly({self.to_text()})"


# ---------------------------------------------------------------------------
# matrices of linear forms
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class LinearFormMatrix:
    """Square matrix whose entries are degree <= 1 exact polynomials."""

    entries: tuple[tuple[Poly, ...], ...]
    nvars: int
    symmetric: bool = False

    def __post_init__(self):
        m = len(self.entries)
        for row in self.entries:
            if len(row) != m:
                raise PolynomialError("matrix is not square")
            for f in row:
                if f.nvars != self.nvars or any(d > 1 for d in f.degrees()):
                    raise PolynomialError(
                        f"entry {f!r} is not a linear form in "
                        f"{self.nvars} variables")
        if self.symmetric:
            for i in range(m):
                for j in range(i):
                    if self.entries[i][j] != self.entries[j][i]:
                        raise PolynomialError("matrix is not symmetric")

    @property
    def size(self) -> int:
        return len(self.entries)

    def evaluate(self, point: Sequence[Fraction]) -> list[list[Fraction]]:
        """Entries at ``point``, where point[i - 1] is x_i."""
        return [[f.evaluate(point) for f in row] for row in self.entries]

    def transpose(self) -> "LinearFormMatrix":
        m = self.size
        return LinearFormMatrix(
            tuple(tuple(self.entries[j][i] for j in range(m)) for i in range(m)),
            self.nvars, self.symmetric)


def generic_matrix(m: int) -> LinearFormMatrix:
    """Matrix of m*m independent variables, numbered row by row."""
    rows = tuple(tuple(Poly.var(m * m, i * m + j + 1) for j in range(m))
                 for i in range(m))
    return LinearFormMatrix(rows, m * m)


def generic_2x2() -> LinearFormMatrix:
    """[[x1, x3], [x4, x2]]; the numbering makes the signs tidy."""
    rows = tuple(tuple(Poly.var(4, v) for v in row) for row in ((1, 3), (4, 2)))
    return LinearFormMatrix(rows, 4, symmetric=False)


def generic_symmetric(m: int) -> LinearFormMatrix:
    """Symmetric matrix of m(m+1)/2 variables: x1..xm on the diagonal, then
    x_{m+1}.. along the upper triangle row by row, matching the displays
    used in the worked examples."""
    idx = {(i, i): i + 1 for i in range(m)}
    for v, (i, j) in enumerate(itertools.combinations(range(m), 2), m + 1):
        idx[(i, j)] = idx[(j, i)] = v
    nvars = m * (m + 1) // 2
    rows = tuple(tuple(Poly.var(nvars, idx[(i, j)]) for j in range(m))
                 for i in range(m))
    return LinearFormMatrix(rows, nvars, symmetric=True)


# ---------------------------------------------------------------------------
# cycle space
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CycleBasis:
    """Signed edge-incidence vectors spanning the cycle space.

    Edge orientation convention: source is the smaller endpoint.  Vectors
    are maps edge id -> coefficient in {-1, 0, +1} (stored sparsely).
    """

    vectors: tuple[tuple[tuple[int, int], ...], ...]  # ((edge, coeff), ...)
    ne: int

    def as_dicts(self) -> list[dict[int, int]]:
        return [dict(v) for v in self.vectors]

    @property
    def rank(self) -> int:
        return len(self.vectors)

    def transformed(self, p: Sequence[Sequence[int]]) -> "CycleBasis":
        """New basis c'_j = sum_i p[i][j] * c_i (integer matrix p)."""
        h = self.rank
        old = self.as_dicts()
        new = []
        for j in range(h):
            acc: dict[int, int] = {}
            for i in range(h):
                for e, c in old[i].items():
                    acc[e] = acc.get(e, 0) + p[i][j] * c
            new.append(tuple(sorted((e, c) for e, c in acc.items() if c)))
        return CycleBasis(tuple(new), self.ne)


def edge_orientation(g: Graph, e: int) -> tuple[int, int]:
    u, v = g.endpoints(e)
    return (u, v) if u <= v else (v, u)


def cycle_basis(g: Graph) -> CycleBasis:
    """Fundamental cycles of the greedy lowest-edge-id spanning tree.

    Each non-tree edge appears in exactly one vector, with coefficient +1;
    a self-edge forms the one-element cycle {e: +1}.
    """
    if not g.is_connected:
        raise GraphError("cycle_basis needs a connected graph")
    parent = list(range(g.nv + 1))
    tree: list[int] = []
    rest: list[int] = []
    for e in g.edge_ids:
        u, v = g.endpoints(e)
        if u == v:
            rest.append(e)
            continue
        ru, rv = _root(parent, u), _root(parent, v)
        if ru == rv:
            rest.append(e)
        else:
            parent[ru] = rv
            tree.append(e)
    adj: dict[int, list[tuple[int, int]]] = {v: [] for v in range(1, g.nv + 1)}
    for e in tree:
        s, t = edge_orientation(g, e)
        adj[s].append((t, e))
        adj[t].append((s, e))
    # path[v]: the signed tree edges walking 1 -> v, +1 where the walk
    # agrees with the edge orientation
    path: dict[int, dict[int, int]] = {1: {}}
    stack = [1]
    while stack:
        x = stack.pop()
        for y, e in adj[x]:
            if y not in path:
                path[y] = path[x] | {e: 1 if x < y else -1}
                stack.append(y)
    vectors = []
    for e in sorted(rest):
        s, t = edge_orientation(g, e)
        coeffs = {e: 1} | path[s]
        for te, d in path[t].items():
            coeffs[te] = coeffs.get(te, 0) - d
        vectors.append(tuple(sorted((k, c) for k, c in coeffs.items() if c)))
    return CycleBasis(tuple(vectors), g.ne)


def explicit_basis(vectors: Sequence[Mapping[int, int]], ne: int) -> CycleBasis:
    """Build a CycleBasis from explicit coefficient maps."""
    return CycleBasis(tuple(tuple(sorted(v.items())) for v in vectors), ne)


def validate_cycle_basis(g: Graph, b: CycleBasis) -> None:
    """Check b lies in the kernel of the boundary map and is independent."""
    if b.ne != g.ne:
        raise PolynomialError("basis/graph edge count mismatch")
    for vec in b.as_dicts():
        boundary: dict[int, int] = {}
        for e, c in vec.items():
            s, t = edge_orientation(g, e)
            boundary[t] = boundary.get(t, 0) + c
            boundary[s] = boundary.get(s, 0) - c
        if any(boundary.values()):
            raise PolynomialError("vector is not a cycle")
    # rank over Q
    rows = [{e: Fraction(c) for e, c in vec.items() if c}
            for vec in b.as_dicts()]
    if len(echelon(rows)) != len(rows):
        raise PolynomialError("cycle vectors are dependent")
    if len(rows) != g.loop_number():
        raise PolynomialError("basis does not span the cycle space")


def laplacian(g: Graph, basis: CycleBasis | None = None) -> LinearFormMatrix:
    """Gram matrix of the cycle basis under <e_i, e_j> = delta_ij x_i."""
    if basis is None:
        basis = cycle_basis(g)
    validate_cycle_basis(g, basis)
    vecs = basis.as_dicts()
    h = len(vecs)
    rows = tuple(tuple(sum((Poly.var(g.ne, e).scale(ci * vecs[j][e])
                            for e, ci in vecs[i].items() if e in vecs[j]),
                           Poly.zero(g.ne))
                       for j in range(h)) for i in range(h))
    return LinearFormMatrix(rows, g.ne, symmetric=True)


# ---------------------------------------------------------------------------
# exact elimination on sparse rows
# ---------------------------------------------------------------------------

def pivot(rows: list[dict], r: int, c: int, p: int | None = None,
          counts: Counter | None = None) -> None:
    """One Gauss-Jordan step on sparse rows ``{column: value}``, in place:
    scale row r to 1 at column c and clear column c from every other row.

    Values are non-zero Fractions, or ints in [1, p) when a prime ``p`` is
    given; zeros are never stored.  ``counts`` (column -> rows holding it),
    when given, is kept up to date for the entries the step creates or
    clears in the other rows.
    """
    row = rows[r]
    inv = pow(row[c], -1, p) if p else 1 / row[c]
    for j, v in row.items():
        row[j] = v * inv % p if p else v * inv
    for i, other in enumerate(rows):
        f = other.get(c)
        if i == r or not f:
            continue
        for j, v in row.items():
            old = other.get(j, 0)
            nv = old - f * v
            if p:
                nv %= p
            if nv:
                other[j] = nv
                if counts is not None and not old:
                    counts[j] += 1
            elif old:
                del other[j]
                if counts is not None:
                    counts[j] -= 1


def echelon(rows: list[dict], p: int | None = None,
            limit: int | None = None) -> list[tuple[int, int, object]]:
    """Bring sparse rows to row echelon form, in place.

    Each step pivots on the sparsest remaining row, at the one of its
    columns below ``limit`` (all columns when None) that occurs in the
    fewest remaining rows, and clears that column from the remaining rows
    only: a row pivoted earlier keeps its entries in later pivot columns
    (``forms._invert_exact`` reduces further).  The rows per column are
    counted once and kept up to date by ``pivot``.  Returns ``(row,
    column, value before scaling)`` per pivot: their count is the rank,
    and the product of the values times the sign of the map row -> column
    is the determinant of a square matrix of full rank.
    """
    def live(i):
        return [c for c in rows[i] if limit is None or c < limit]

    # rows not yet pivoted, per column; a row's own columns count once
    # more for every candidate, which leaves the choice unchanged
    counts = Counter(c for row in rows for c in row)
    pivots = []
    rest = list(range(len(rows)))
    while True:
        rest = [i for i in rest if rows[i] and (limit is None or live(i))]
        if not rest:
            return pivots
        r = min(rest, key=lambda i: len(rows[i]))
        rest.remove(r)
        c = min(live(r), key=lambda j: (counts[j], j))
        pivots.append((r, c, rows[r][c]))
        counts.subtract(list(rows[r]))
        pivot([rows[r]] + [rows[i] for i in rest], 0, c, p, counts)


# ---------------------------------------------------------------------------
# determinants
# ---------------------------------------------------------------------------

def det_poly(m: LinearFormMatrix) -> Poly:
    """Exact determinant by fraction-free Bareiss elimination over Poly."""
    n = m.size
    a = [list(row) for row in m.entries]
    if n == 0:
        return Poly.const(m.nvars, 1)
    sign = 1
    prev = Poly.const(m.nvars, 1)
    for k in range(n - 1):
        if a[k][k].is_zero():
            piv = next((i for i in range(k + 1, n) if not a[i][k].is_zero()), None)
            if piv is None:
                return Poly.zero(m.nvars)
            a[k], a[piv] = a[piv], a[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                num = a[k][k] * a[i][j] - a[i][k] * a[k][j]
                q = num.divide_exact(prev)
                if q is None:
                    raise PolynomialError("Bareiss division failed")
                a[i][j] = q
        prev = a[k][k]
    det = a[n - 1][n - 1]
    return det.scale(sign) if sign < 0 else det


# ---------------------------------------------------------------------------
# the graph polynomial
# ---------------------------------------------------------------------------

def spanning_trees(g: Graph) -> list[frozenset]:
    """Edge sets of all spanning trees (self-edges excluded automatically)."""
    non_self = [e for e in g.edge_ids if g.edges[e - 1][0] != g.edges[e - 1][1]]
    want = g.nv - 1
    trees = []
    for combo in itertools.combinations(non_self, want):
        parent = list(range(g.nv + 1))
        ok = True
        for e in combo:
            u, v = g.endpoints(e)
            ru, rv = _root(parent, u), _root(parent, v)
            if ru == rv:
                ok = False
                break
            parent[ru] = rv
        if ok:
            trees.append(frozenset(combo))
    return trees


def graph_polynomial(g: Graph) -> Poly:
    """Sum over spanning trees of the complementary edge monomials, over
    the g.ne edge variables.

    Vertex weights are ignored; a disconnected graph gives the zero
    polynomial.
    """
    if not g.is_connected:
        return Poly.zero(g.ne)
    return Poly(g.ne, {tuple(int(e not in t) for e in g.edge_ids): 1
                       for t in spanning_trees(g)})


def contraction_deletion_split(g: Graph, e: int) -> tuple[Poly, Poly]:
    """(psi of g minus e, psi of g contract e), in g's edge variables.

    The deletion part is zero when deletion disconnects; the contraction
    part is zero when e is a self-edge.
    """
    u, v = g.endpoints(e)

    def psi_without_e(h: Graph) -> Poly:
        # h numbers g's other edges densely; x_e enters with exponent 0
        return Poly(g.ne, {k[:e - 1] + (0,) + k[e - 1:]: c
                           for k, c in graph_polynomial(h).coeffs.items()})

    deleted = g.delete_edge(e)
    psi_del = (psi_without_e(deleted) if deleted.component_count() == 1
               else Poly.zero(g.ne))
    if u == v:
        return psi_del, Poly.zero(g.ne)
    return psi_del, psi_without_e(g.contract_edge(e))


# ---------------------------------------------------------------------------
# subdivergences
# ---------------------------------------------------------------------------

def divergent_subgraphs(g: Graph) -> list[tuple[int, ...]]:
    """Strict edge subsets gamma with |gamma| <= 2 h(gamma).

    Empty iff the graph is subdivergence-free.  Exhaustive over subsets,
    read off the tropical loop-number table, so capped at
    ``MAX_SUBSET_EDGES`` edges.
    """
    # Imported here: tropical loads numpy, and loading numpy ahead of the
    # forms module raises the resident set of an `import periodforge.cli`
    # process by about 0.7 MB (34.2 -> 35.0 MB ru_maxrss, Python 3.11 and
    # numpy 2.4 on x86-64 Linux).
    from .tropical import _mask_edges, _popcounts, subset_loop_numbers

    n = g.ne
    h = subset_loop_numbers(g)
    size = _popcounts(n)
    # proper nonempty subsets, where omega <= 0 for nu = 0 and k = 2
    masks = (size[1:-1] <= 2 * h[1:-1]).nonzero()[0] + 1
    return sorted((_mask_edges(m, n) for m in masks.tolist()),
                  key=lambda s: (len(s), s))
