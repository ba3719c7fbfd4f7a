"""Positive-definite quadratic forms, minimal vectors and Voronoi cells.

All decisions are exact: rational LDL^T bounds for the lattice enumeration
(floats never enter the decision path) and a Fraction simplex with Bland's
rule for cone membership.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .graphs import EdgePermutation, Graph, GraphError
from .polynomials import CycleBasis, echelon, laplacian, pivot


class VoronoiError(ValueError):
    pass


def _frac_matrix(rows) -> tuple[tuple[Fraction, ...], ...]:
    return tuple(tuple(Fraction(x) for x in row) for row in rows)


@dataclass(frozen=True)
class QuadraticForm:
    """Symmetric matrix with exact rational entries, Q(x) = x^T A x."""

    matrix: tuple[tuple[Fraction, ...], ...]

    def __init__(self, rows):
        m = _frac_matrix(rows)
        n = len(m)
        for row in m:
            if len(row) != n:
                raise VoronoiError("matrix is not square")
        for i in range(n):
            for j in range(i):
                if m[i][j] != m[j][i]:
                    raise VoronoiError("matrix is not symmetric")
        object.__setattr__(self, "matrix", m)

    @property
    def dim(self) -> int:
        return len(self.matrix)

    def value(self, xi: Sequence[int]) -> Fraction:
        n = self.dim
        return sum(self.matrix[i][j] * xi[i] * xi[j]
                   for i in range(n) for j in range(n))

    def leading_minors(self) -> list[Fraction]:
        """Determinants of the leading principal minors, exactly: the
        product of the echelon pivots times the sign of row -> column."""
        out = []
        for k in range(1, self.dim + 1):
            pivots = echelon([{j: v for j, v in enumerate(row[:k]) if v}
                              for row in self.matrix[:k]])
            det = Fraction(0)
            if len(pivots) == k:
                det = Fraction(EdgePermutation(
                    tuple(c + 1 for _, c, _ in sorted(pivots))).parity)
                for _, _, v in pivots:
                    det *= v
            out.append(det)
        return out

    def is_positive_definite(self) -> bool:
        return all(d > 0 for d in self.leading_minors())

    def transformed(self, p: Sequence[Sequence[int]]) -> "QuadraticForm":
        """P^T A P for an integer matrix P."""
        n = self.dim
        a = self.matrix
        pt_a = [[sum(Fraction(p[k][i]) * a[k][j] for k in range(n))
                 for j in range(n)] for i in range(n)]
        out = [[sum(pt_a[i][k] * Fraction(p[k][j]) for k in range(n))
                for j in range(n)] for i in range(n)]
        return QuadraticForm(out)


def _ldlt(q: QuadraticForm):
    """Exact LDL^T; returns (L, diag) with L unit lower triangular."""
    n = q.dim
    a = [list(row) for row in q.matrix]
    L = [[Fraction(int(i == j)) for j in range(n)] for i in range(n)]
    d = [Fraction(0)] * n
    for j in range(n):
        d[j] = a[j][j] - sum(L[j][k] ** 2 * d[k] for k in range(j))
        if d[j] <= 0:
            raise VoronoiError("form is not positive definite")
        for i in range(j + 1, n):
            L[i][j] = (a[i][j] - sum(L[i][k] * L[j][k] * d[k]
                                     for k in range(j))) / d[j]
    return L, d


def _isqrt_ceil_frac(x: Fraction) -> int:
    """Smallest integer >= sqrt(x) for x >= 0, computed with isqrt only."""
    if x <= 0:
        return 0
    num, den = x.numerator, x.denominator
    # sqrt(num/den) = sqrt(num*den)/den
    s = math.isqrt(num * den)
    if s * s < num * den:
        s += 1
    r, rem = divmod(s, den)
    return r + (1 if rem else 0)


def _fincke_pohst(L, d, x: list[int], j: int, remaining: Fraction):
    """Yield the nonzero completions of x[j+1:] by x[:j+1], filled in place.

    Q(x) = sum_j d[j] * (x_j + sum_{i>j} L[i][j] x_i)^2 ; recurse from the
    last coordinate down, maintaining the partial sum.
    """
    if j < 0:
        if any(x):
            yield tuple(x)
        return
    s = sum(L[i][j] * x[i] for i in range(j + 1, len(x)))
    # |x_j + s| <= sqrt(remaining / d[j])
    r = _isqrt_ceil_frac(remaining / d[j])
    lo = math.ceil(-s) - r
    hi = math.floor(-s) + r
    for v in range(lo, hi + 1):
        term = d[j] * (v + s) ** 2
        if term <= remaining:
            x[j] = v
            yield from _fincke_pohst(L, d, x, j - 1, remaining - term)
            x[j] = 0


def short_vectors(q: QuadraticForm, bound: Fraction) -> list[tuple[int, ...]]:
    """All nonzero integer vectors with Q(xi) <= bound (both signs).

    Fincke-Pohst recursion over the LDL^T completion of squares; candidate
    windows come from integer square roots and every candidate is checked
    against the exact inequality.
    """
    L, d = _ldlt(q)
    return sorted(_fincke_pohst(L, d, [0] * q.dim, q.dim - 1, Fraction(bound)))


def minimal_vectors(q: QuadraticForm) -> list[tuple[int, ...]]:
    """All nonzero integer vectors attaining min Q, both signs included;
    ``short_vectors`` raises VoronoiError unless q is positive definite."""
    seed = min(q.matrix[i][i] for i in range(q.dim))
    cands = short_vectors(q, seed)
    best = min(q.value(v) for v in cands)
    return sorted(v for v in cands if q.value(v) == best)


def minimum(q: QuadraticForm) -> Fraction:
    return q.value(minimal_vectors(q)[0])


def _sign_normalise(v: tuple[int, ...]) -> tuple[int, ...]:
    for c in v:
        if c > 0:
            return v
        if c < 0:
            return tuple(-x for x in v)
    return v


@dataclass(frozen=True)
class VoronoiCell:
    """Rank-1 generators xi xi^T over the sign-normalised minimal vectors."""

    generators: tuple[tuple[tuple[int, ...], ...], ...]

    @property
    def dim(self) -> int:
        return len(self.generators[0])


def voronoi_cell(q: QuadraticForm) -> VoronoiCell:
    vecs = {_sign_normalise(v) for v in minimal_vectors(q)}
    # distinct sign-normalised v give distinct rank-one forms v v^T
    gens = []
    for v in sorted(vecs):
        gens.append(tuple(tuple(a * b for b in v) for a in v))
    return VoronoiCell(tuple(gens))


# ---------------------------------------------------------------------------
# tropical Torelli map
# ---------------------------------------------------------------------------

def torelli_point(g: Graph, lengths: Sequence[Fraction],
                  basis: CycleBasis | None = None) -> QuadraticForm:
    """Graph Laplacian evaluated at the edge lengths.

    The matrix depends on the cycle basis (default: the deterministic
    fundamental basis); its GL_h(Z)-class does not.
    """
    if any(w for w in g.weights):
        raise GraphError("torelli_point expects an unweighted graph")
    if len(lengths) != g.ne:
        raise GraphError("one length per edge required")
    ls = [Fraction(x) for x in lengths]
    if any(x <= 0 for x in ls):
        raise GraphError("edge lengths must be positive")
    return QuadraticForm(laplacian(g, basis).evaluate(ls))


# ---------------------------------------------------------------------------
# exact cone membership (Fraction simplex, Bland's rule)
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ConeCertificate:
    inside: bool
    coefficients: tuple[Fraction, ...] | None   # lambda per generator
    separating: tuple[tuple[Fraction, ...], ...] | None  # symmetric matrix y

    def __bool__(self):
        return self.inside


def _sym_entries(mat) -> list[Fraction]:
    n = len(mat)
    return [Fraction(mat[i][j]) for i in range(n) for j in range(i, n)]


def cone_membership(x: QuadraticForm, cell: VoronoiCell) -> ConeCertificate:
    """Decide x = sum lambda_i G_i with lambda_i >= 0, exactly.

    Returns the lambda certificate, or a separating functional y (symmetric
    matrix) with <y, G_i> <= 0 for all generators and <y, x> > 0, where
    <a, b> is the Frobenius pairing.
    """
    if x.dim != cell.dim:
        raise VoronoiError("dimension mismatch")
    n = x.dim
    cols = [_sym_entries(g) for g in cell.generators]
    rhs = _sym_entries(x.matrix)
    m = len(rhs)
    k = len(cols)
    # phase-1 tableau of sparse rows, oriented so b >= 0: columns k
    # original, m artificials and b at column k + m
    zero = Fraction(0)
    rhs_col = k + m
    flip = [-1 if r < 0 else 1 for r in rhs]
    tab = []
    for i in range(m):
        row = {j: cols[j][i] * flip[i] for j in range(k) if cols[j][i]}
        row[k + i] = Fraction(1)
        if rhs[i]:
            row[rhs_col] = rhs[i] * flip[i]
        tab.append(row)
    basis = [k + i for i in range(m)]
    # objective: minimise sum of artificials; the last row holds the reduced
    # costs, minus the column sums over the original columns and b
    cost: dict[int, Fraction] = {}
    for row in tab:
        for j, v in row.items():
            if j < k or j == rhs_col:
                cost[j] = cost.get(j, zero) - v
    cost = {j: v for j, v in cost.items() if v}
    tab.append(cost)

    while True:
        # Bland: entering = smallest index with negative reduced cost
        enter = next((j for j in range(k + m) if cost.get(j, zero) < 0), None)
        if enter is None:
            break
        best = None
        for i in range(m):
            if tab[i].get(enter, zero) > 0:
                ratio = tab[i].get(rhs_col, zero) / tab[i][enter]
                if best is None or ratio < best[0] or \
                        (ratio == best[0] and basis[i] < basis[best[1]]):
                    best = (ratio, i)
        if best is None:
            raise VoronoiError("unbounded phase-1 LP (should not happen)")
        pivot(tab, best[1], enter)
        basis[best[1]] = enter

    objective = -cost.get(rhs_col, zero)
    if objective == 0:
        lam = [zero] * k
        for i, bv in enumerate(basis):
            if bv < k:
                lam[bv] = tab[i].get(rhs_col, zero)
        return ConeCertificate(True, tuple(lam), None)
    # infeasible: duals from the artificial reduced costs, 1 - y_i = cost[k+i]
    y_rows = [(1 - cost.get(k + i, zero)) * flip[i] for i in range(m)]
    # unpack upper-triangular functional into a symmetric matrix; off
    # diagonal entries were counted once, so split them evenly
    y = [[Fraction(0)] * n for _ in range(n)]
    idx = 0
    for i in range(n):
        for j in range(i, n):
            if i == j:
                y[i][j] = y_rows[idx]
            else:
                y[i][j] = y_rows[idx] / 2
                y[j][i] = y_rows[idx] / 2
            idx += 1
    return ConeCertificate(False, None, tuple(tuple(r) for r in y))


def frobenius(a, b) -> Fraction:
    n = len(a)
    return sum(Fraction(a[i][j]) * Fraction(b[i][j])
               for i in range(n) for j in range(n))


def principal_form_g2() -> QuadraticForm:
    """The hexagonal form reconstructed from its six minimal vectors."""
    return QuadraticForm([[2, 1], [1, 2]])
