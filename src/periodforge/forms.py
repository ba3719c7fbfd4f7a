"""Bi-invariant forms tr((X^-1 dX)^n), their wedges and graph pullbacks.

Each coefficient matrix dX/dx_v is decomposed into rank-one terms a b^T; a
trace of a product of such terms is a cycle product of scalars b^T M a,
which turns coefficient extraction into one subset dynamic programme over
the variables.  Numeric evaluation takes M = X^-1 at a point; symbolic
computations take the adjugate, so they run over the polynomial ring and no
rational function appears before the final reduction by powers of the
determinant.
"""

from __future__ import annotations

import itertools
import math
import numbers
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Mapping, Sequence

from .graphs import MAX_SUBSET_EDGES, Graph
from .polynomials import (LinearFormMatrix, Poly, cycle_basis, det_poly,
                          echelon, laplacian, pivot)


class FormError(ValueError):
    pass


@dataclass(frozen=True)
class FormSpec:
    """Wedge word omega^{n1} ^ omega^{n2} ^ ...; entries 1 mod 4, >= 5."""

    components: tuple[int, ...]

    def __init__(self, components):
        try:
            comps = tuple(components)
        except TypeError:
            raise FormError("form specification must be a sequence of "
                            f"integers, got {components!r}") from None
        for n in comps:
            if not isinstance(n, numbers.Integral):
                raise FormError(f"component {n!r} is not an integer")
        comps = tuple(map(int, comps))
        if not comps:
            raise FormError("empty form specification")
        for n in comps:
            if n < 5 or n % 4 != 1:
                raise FormError(
                    f"component {n}: generators are 1 mod 4 and at least 5")
        if any(a >= b for a, b in zip(comps, comps[1:])):
            raise FormError("components must be strictly increasing")
        object.__setattr__(self, "components", comps)

    @property
    def degree(self) -> int:
        return sum(self.components)

    def __iter__(self):
        return iter(self.components)


def _merge_sign(s1: frozenset, s2: frozenset) -> int:
    inv = 0
    for a in s1:
        for b in s2:
            if b < a:
                inv += 1
    return -1 if inv % 2 else 1


class RationalForm:
    """Differential form Numerator / det^k with polynomial coefficients.

    The numerator maps ascending wedge keys (frozensets of variable ids) to
    polynomials; the determinant is carried along so the object is
    self-contained.  Stored in lowest terms with respect to det.
    """

    __slots__ = ("nvars", "degree", "k", "numer", "det")

    def __init__(self, nvars: int, degree: int, k: int,
                 numer: Mapping[frozenset, Poly], det: Poly,
                 reduce: bool = True):
        self.nvars = nvars
        self.degree = degree
        self.k = k
        self.numer = {frozenset(s): p for s, p in numer.items()
                      if not p.is_zero()}
        for s in self.numer:
            if len(s) != degree:
                raise FormError("wedge key of wrong degree")
        self.det = det
        if not self.numer:
            self.k = 0
        elif reduce:
            self._reduce()

    def _reduce(self):
        while self.k > 0:
            divided = {}
            for s, p in self.numer.items():
                q = p.divide_exact(self.det)
                if q is None:
                    return
                divided[s] = q
            self.numer = divided
            self.k -= 1

    def is_zero(self) -> bool:
        return not self.numer

    def __eq__(self, other):
        return (isinstance(other, RationalForm)
                and self.nvars == other.nvars and self.degree == other.degree
                and self.k == other.k and self.numer == other.numer)

    def scale(self, c) -> "RationalForm":
        return RationalForm(self.nvars, self.degree, self.k,
                            {s: p.scale(c) for s, p in self.numer.items()},
                            self.det, reduce=False)

    def wedge(self, other: "RationalForm") -> "RationalForm":
        if self.nvars != other.nvars:
            raise FormError("wedge of forms over different variable sets")
        if self.det != other.det:
            raise FormError("wedge of forms over different denominators")
        out: dict[frozenset, Poly] = {}
        for s1, p1 in self.numer.items():
            for s2, p2 in other.numer.items():
                if s1 & s2:
                    continue
                key = s1 | s2
                term = (p1 * p2).scale(_merge_sign(s1, s2))
                out[key] = out.get(key, Poly.zero(self.nvars)) + term
        return RationalForm(self.nvars, self.degree + other.degree,
                            self.k + other.k, out, self.det)

    def is_closed(self) -> bool:
        """Exterior derivative of numer/det^k vanishes identically."""
        acc: dict[frozenset, Poly] = {}
        ddet = [self.det.derivative(v) for v in range(1, self.nvars + 1)]
        for s, p in self.numer.items():
            for v in range(1, self.nvars + 1):
                if v in s:
                    continue
                term = p.derivative(v) * self.det - ddet[v - 1] * p.scale(self.k)
                if term.is_zero():
                    continue
                sign = _merge_sign(frozenset({v}), s)
                key = s | {v}
                acc[key] = acc.get(key, Poly.zero(self.nvars)) + term.scale(sign)
        return all(p.is_zero() for p in acc.values())

    def coefficient(self, s) -> Poly:
        return self.numer.get(frozenset(s), Poly.zero(self.nvars))

    def evaluate_coefficient(self, s, point: Sequence[Fraction]) -> Fraction:
        """Numerator coefficient of dx_s over det^k, at an exact point."""
        num = self.coefficient(s).evaluate(point)
        den = self.det.evaluate(point) ** self.k
        return num / den

    def chart_top_coefficient(self, point: Sequence[Fraction]) -> Fraction:
        """Coefficient against the ascending top wedge of the chart that
        fixes the last variable."""
        s = frozenset(range(1, self.nvars))
        if len(s) != self.degree:
            raise FormError("form degree does not match the chart dimension")
        return self.evaluate_coefficient(s, point)

    def to_text(self) -> str:
        if self.is_zero():
            return "0"
        lines = []
        for s, p in sorted(self.numer.items(), key=lambda t: sorted(t[0])):
            key = "^".join(f"dx{v}" for v in sorted(s))
            lines.append(f"({p.to_text()}) {key}")
        lines.append(f"all over det^{self.k}")
        return "\n".join(lines)

    def __repr__(self):
        return (f"RationalForm(degree={self.degree}, k={self.k}, "
                f"{len(self.numer)} wedge terms)")


# ---------------------------------------------------------------------------
# symbolic path
# ---------------------------------------------------------------------------

def _adjugate(x: LinearFormMatrix) -> list[list[Poly]]:
    m = x.size
    if m == 1:
        return [[Poly.const(x.nvars, 1)]]
    out = [[None] * m for _ in range(m)]
    for i in range(m):
        for j in range(m):
            rows = [r for r in range(m) if r != j]
            cols = [c for c in range(m) if c != i]
            sub = LinearFormMatrix(
                tuple(tuple(x.entries[r][c] for c in cols) for r in rows),
                x.nvars)
            minor = det_poly(sub)
            out[i][j] = minor if (i + j) % 2 == 0 else -minor
    return out


def _coefficient_matrices(x: LinearFormMatrix) -> dict[int, list[list[Fraction]]]:
    """A_v = dX/dx_v as constant matrices, for the variables that occur."""
    m = x.size
    out: dict[int, list[list[Fraction]]] = {}
    for i in range(m):
        for j in range(m):
            for k, c in x.entries[i][j].coeffs.items():
                if any(k):
                    v = k.index(1) + 1
                    mat = out.setdefault(v, [[Fraction(0)] * m
                                             for _ in range(m)])
                    mat[i][j] += c
    return out


def canonical_form_symbolic(x: LinearFormMatrix, n: int) -> RationalForm:
    """tr((X^-1 dX)^n), exactly, reduced to lowest det power.

    ``_cycle_coefficients`` runs on the Gram b_i^T adj(X) a_j of polynomials
    over the rank-one atoms of dX, which gives the numerator of
    tr((adj(X) dX)^n) / det^n with every intermediate polynomial.  Even
    powers are the zero form.
    """
    if n < 1:
        raise FormError("form degree must be positive")
    det = det_poly(x)
    if det.is_zero():
        raise FormError("matrix determinant is identically zero")
    tr = {}
    if n % 2:
        ev = FormEvaluator(x, chart=0)
        table = _cycle_coefficients((n,), ev._object_gram(_adjugate(x)),
                                    ev.variables, ev.atoms_of,
                                    _PathArrays(object))[n]
        tr = dict(zip(_subset_keys(n, ev.variables),
                      [row[0] for row in table]))
    return RationalForm(x.nvars, n, n, tr, det)


def graph_canonical_form(g: Graph, spec: FormSpec) -> RationalForm:
    """Pullback of the canonical form word to the graph's Laplacian on the
    fundamental cycle basis.

    Bi-invariance makes the result independent of the cycle basis.
    """
    lam = laplacian(g)
    form = None
    for n in spec:
        f = canonical_form_symbolic(lam, n)
        form = f if form is None else form.wedge(f)
    return form


# ---------------------------------------------------------------------------
# numeric path: rank-one cycle products
# ---------------------------------------------------------------------------

def _row_reduce(rows: list[dict], m: int):
    """Sparse Fraction rows to reduced row echelon form in their first m
    columns, in place: ``echelon``, then back substitution by ``pivot``
    over the pivots in reverse.  Returns the pivots of ``echelon``."""
    pivots = echelon(rows, limit=m)
    for r, c, _ in reversed(pivots):
        pivot(rows, r, c)
    return pivots


def _rank_one_terms(mat: Sequence[Sequence[Fraction]]):
    """Decompose a constant matrix as sum of outer products a b^T: M =
    sum of M[:, c] (row r of the reduced echelon form) over its pivots
    (r, c)."""
    m = len(mat)
    rows = [{j: Fraction(v) for j, v in enumerate(r) if v} for r in mat]
    return [([Fraction(row[c]) for row in mat],
             [rows[r].get(j, Fraction(0)) for j in range(m)])
            for r, c, _ in _row_reduce(rows, m)]


def _invert_exact(mat: Sequence[Sequence[Fraction]]):
    """Exact inverse: ``_row_reduce`` on [A | I], pivoting in A's columns
    only."""
    m = len(mat)
    rows = [{j: Fraction(v) for j, v in enumerate(r) if v}
            | {m + i: Fraction(1)} for i, r in enumerate(mat)]
    pivots = _row_reduce(rows, m)
    if len(pivots) < m:
        raise FormError("matrix is singular at the evaluation point")
    inv = [None] * m
    for r, c, _ in pivots:
        inv[c] = [rows[r].get(m + j, Fraction(0)) for j in range(m)]
    return inv


def _exact_gram(mat, bs, as_):
    """[[b^T mat a for a in as_] for b in bs] over Fraction vectors, with
    ``mat`` the exact inverse at a point or the polynomial adjugate."""
    ms = range(len(mat))
    tmp = [[sum(b[r] * mat[r][c] for r in ms) for c in ms] for b in bs]
    return [[sum(t[c] * a[c] for c in ms) for a in as_] for t in tmp]


# The longest batch ``_cycle_coefficients`` runs one depth at a time.  On
# K6 that is faster than ``_stream`` up to some hundreds of rows, but a
# layer holds every path of its depth: omega5 and omega9 trace about 0.3 MB
# a row, against 0.04 MB mask by mask.
_DEPTH_ROWS = 8


def _subsets(k: int):
    """The subsets of k variables as bit masks, bit i for variable i:
    (count, rank, by_count), the bit count of every mask, its place among
    the masks of its bit count in ascending order, and those masks for each
    bit count.  A coefficient table of n-subsets has one row per mask of n
    bits, in ``by_count[n]`` order, so row ``rank[mask]`` is the mask's."""
    import numpy as np

    count = np.zeros(1 << k, dtype=np.intp)
    for i in range(k):
        count[1 << i:2 << i] = count[:1 << i] + 1
    order = np.argsort(count, kind="stable")
    sizes = np.bincount(count, minlength=k + 1)
    rank = np.empty_like(order)
    rank[order] = np.arange(1 << k) - np.repeat(np.cumsum(sizes) - sizes,
                                                sizes)
    return count, rank, np.split(order, np.cumsum(sizes)[:-1])


def _subset_keys(n: int, vars_) -> list:
    """The variable sets of the rows of an n-subset coefficient table."""
    if n > len(vars_):
        return []
    return [frozenset(v for i, v in enumerate(vars_) if mask >> i & 1)
            for mask in _subsets(len(vars_))[2][n].tolist()]


def _cycle_coefficients(ns, gt, vars_, atoms_of, arrays) -> dict:
    """n -> coefficient table of tr((X^-1 dX)^n) for each n of ``ns``: one
    (B,) row per n-subset of ``vars_``, ordered as in ``_subsets``
    (``_subset_keys`` names them), as one array or as a list of arrays.

    An anchored subset DP over cyclic products of Gram scalars, with the
    n-fold rotation symmetry factored out.  ``gt`` is b_i^T X^-1 a_j over
    the rank-one atoms (v, a, b) in (atom, atom, sample) layout, float64
    or an object array of Fractions or polynomials.  ``atoms_of[v]`` lists
    the atoms of each of the ascending variables ``vars_``: one per edge
    of a graph Laplacian, two per off-diagonal variable of a symmetric
    family.

    For each anchor atom alpha, the open paths over the bigger variables
    are grown, and each path n - 1 variables long is closed by G[beta,
    alpha] and the rotation count n and added into its coefficient.  Per
    element this is the same sequence of floating-point operations as
    forming each signed term and summing the terms in path order, so the
    result does not depend on the layout, on the accumulation being in
    place, or on how the samples are split into batches.

    Two drivers grow the paths, with the same bits.  A batch of at most
    ``_DEPTH_ROWS`` rows with one atom per variable (every graph Laplacian,
    so also the exact and symbolic paths of a graph) takes ``_by_depth``,
    which grows the paths of every anchor one depth at a time and closes
    every n of ``ns`` from the same layers; it returns arrays.  Any other
    batch takes ``_stream`` once per n, mask by mask, with each path closed
    as soon as it is built and added into its row, the first one becoming
    the row; it returns lists.  Its path arrays, the start arrays and
    ``tmp`` are taken from ``arrays``, a ``_PathArrays`` free list of
    ``gt``'s dtype, and each goes back once no path reads it; the rows come
    from it too.  The batched
    evaluator's single-component words do not come here:
    ``_top_cycle_coefficient`` closes their cycles in the middle, which
    agrees with this DP to rounding, not bit for bit.
    """
    import numpy as np

    if gt.shape[2] <= _DEPTH_ROWS and all(len(atoms_of[v]) == 1
                                          for v in vars_):
        return _by_depth(ns, gt, vars_, atoms_of)
    k = len(vars_)
    _, rank, by_count = _subsets(k)
    rank = rank.tolist()
    arrays.hand_out(gt.shape[2])
    take, give = arrays.take, arrays.give
    tmp = take()
    # rows[i][j] is the (B,) view G[i, j], indexed without a numpy call
    rows = [list(r) for r in gt]
    out = {}
    # the longest component first: the others run on its freed arrays
    for n in sorted(ns, reverse=True):
        table = out[n] = [None] * (len(by_count[n]) if n <= k else 0)
        for ai, anchor in enumerate(vars_):
            bigger = vars_[ai + 1:]
            if len(bigger) < n - 1:
                continue
            # (bits above w, bit of w, atoms of w) per bigger variable w
            free = [(wi + 1, 1 << wi, atoms_of[w])
                    for wi, w in enumerate(bigger)]
            for alpha in atoms_of[anchor]:
                start = take()
                start.fill(1)
                paths = [(alpha, start)]
                closed = ([(0, paths)] if n == 1 else
                          _stream(paths, n - 1, free, rows, tmp, arrays))
                for mask, built in closed:
                    r = rank[mask << ai + 1 | 1 << ai]
                    for last, val in built:
                        np.multiply(val, rows[last][alpha], out=val)
                        val *= n
                        prev = table[r]
                        if prev is None:
                            table[r] = val
                        else:
                            prev += val
                            give(val)
    give(tmp)
    return out


def _by_depth(ns, gt, vars_, atoms_of) -> dict:
    """``_cycle_coefficients`` for one atom per variable, one whole depth at
    a time for every anchor at once: a few numpy calls per depth and free
    variable instead of ``_stream``'s one per path and source, which on a
    batch of a few rows is all their cost.

    A mask of d + 1 bits stands for the paths of depth d from its lowest
    variable, the anchor, over the others.  Layer d is one (masks, paths,
    B) array: the masks of d + 1 bits in ascending order, each with its
    paths by descending last variable (at depth 0 the anchor alone, of
    value 1), the order ``_stream`` appends them in.  One pass per free
    variable w extends the masks that lack w and have a bit below it:
    their paths times G[last, w], negated where the mask's bits above w are
    odd, then added path by path.  That is ``_extend``'s -p0 - p1 - ... on
    every element.  Layer n - 1 is closed for each n of ``ns`` on the way:
    each path times G[last, anchor] and n, the paths added in ``_stream``'s
    order, so the coefficients are ``_stream``'s bit for bit, signed zeros
    included.  A layer holds every path of its depth, so this driver is for
    small batches only.  No free list is used."""
    import numpy as np

    k, B = len(vars_), gt.shape[2]
    atom = np.array([atoms_of[v][0] for v in vars_], dtype=np.intp)
    count, rank, by_count = _subsets(k)
    out = {}
    masks = 1 << np.arange(k)
    lasts = atom[:, None]
    layer = np.ones((k, 1, B), gt.dtype)
    deepest = min(max(ns), k) - 1
    for d in range(deepest + 1):
        if d + 1 in ns:
            # the atom of each mask's lowest bit, its anchor
            first = atom[count[(masks & -masks) - 1]]
            closed = layer * gt[lasts, first[:, None]]
            closed *= d + 1
            coef = closed[:, 0]
            for j in range(1, closed.shape[1]):
                coef += closed[:, j]
            out[d + 1] = coef
        if d == deepest:
            break
        grown = by_count[d + 2]
        nxt = np.empty((len(grown), d + 1, B), gt.dtype)
        nxt_lasts = np.empty((len(grown), d + 1), dtype=np.intp)
        for wi in range(1, k):
            # the masks without w and with their anchor below it
            low = masks & ((2 << wi) - 1)
            lack = (low != 0) & (low < 1 << wi)
            src = masks[lack]
            # w's place among the destination's paths: the bits above w
            above = count[src >> (wi + 1)]
            prod = layer[lack] * gt[lasts[lack], atom[wi]]
            np.negative(prod, out=prod,
                        where=(above & 1).astype(bool)[:, None, None])
            acc = prod[:, 0]
            for j in range(1, prod.shape[1]):
                acc += prod[:, j]
            dest = rank[src | 1 << wi]
            nxt[dest, above] = acc
            nxt_lasts[dest, above] = atom[wi]
        masks, layer, lasts = grown, nxt, nxt_lasts
    for n in ns:
        out.setdefault(n, np.empty((0, B), gt.dtype))
    return out


def _wedge_splits(comps, k: int):
    """The ordered splits of k variables into parts of the sizes ``comps``:
    (rows, odd), per part the table row of its mask for each split, and
    whether the split's sign is odd.  Each part runs over the combinations
    of what the earlier parts leave in lexicographic order, the earlier
    parts varying slowest, the order of the recursive sum this replaces.
    The sign is that of merging each part into the union of the earlier
    ones: the parity of the pairs x > y with x in an earlier part and y in
    a later one."""
    import numpy as np

    count, rank, by_count = _subsets(k)
    rest = np.array([(1 << k) - 1])
    parts: list = []
    for n in comps[:-1]:
        cand = by_count[n] if n <= k else rest[:0]
        # lexicographic order of combinations: descending in the mask with
        # its bits reversed
        rev = np.zeros_like(cand)
        for i in range(k):
            rev |= (cand >> i & 1) << (k - 1 - i)
        cand = cand[np.argsort(-rev, kind="stable")]
        split, pick = np.nonzero((cand[None, :] & ~rest[:, None]) == 0)
        parts = [p[split] for p in parts] + [cand[pick]]
        rest = rest[split] ^ cand[pick]
    keep = count[rest] == comps[-1]
    parts = [p[keep] for p in parts] + [rest[keep]]
    odd = np.zeros(len(parts[0]), dtype=bool)
    placed = np.zeros_like(parts[0])
    for part in parts:
        for i in range(k):
            odd ^= (part >> i & 1 & count[placed >> (i + 1)]).astype(bool)
        placed |= part
    return [rank[p] for p in parts], odd


def _gather(table, idx):
    """Rows ``idx`` of a coefficient table as one array: a table is an
    array from ``_by_depth`` or a list of row arrays from ``_stream``."""
    import numpy as np

    if isinstance(table, list):
        return np.stack([table[i] for i in idx.tolist()])
    return table[idx]


def _wedge(comps, tables, k: int, zero):
    """The word's coefficient on all k variables from the coefficient
    tables of its components: over the splits of ``_wedge_splits``, the
    product of the parts' coefficients taken from the last part backwards,
    negated where the sign is odd, and summed split by split from the row
    ``zero``, for float or object rows.  The splits go in chunks of about
    2^16 entries, each summed by one running sum that starts from the
    total so far."""
    import numpy as np

    rows, odd = _wedge_splits(comps, k)
    step = max(1, (1 << 16) // max(len(zero), 1))
    total = zero
    for lo in range(0, len(odd), step):
        cut = slice(lo, lo + step)
        val = _gather(tables[comps[-1]], rows[-1][cut])
        for n, r in zip(comps[-2::-1], rows[-2::-1]):
            val = _gather(tables[n], r[cut]) * val
        np.negative(val, out=val, where=odd[cut, None])
        total = np.add.accumulate(np.concatenate([total[None], val]),
                                  axis=0)[-1]
    return total


def _stream(paths: list, depth: int, free, rows, tmp, arrays):
    """The paths ``depth`` >= 1 variables longer than ``paths``, those of
    mask 0, yielded as (mask, [(last atom, array), ...]) per source of the
    mask as they are built.

    A mask is pushed on a stack once all its sources are extended, and the
    masks one step completes are pushed smallest last, so it is popped
    first: then every mask's sources are extended in ascending order, as in
    a depth-by-depth sweep, and every sum keeps that sweep's order.  A
    popped mask's arrays go back at once, so only partial and pushed masks
    hold paths.  It grows the DP's paths and the join's half tables."""
    stack = [(0, paths)]
    partial: dict[int, list] = {}
    while stack:
        mask, paths = stack.pop()
        if mask.bit_count() == depth - 1:
            for bitw, built in _extend(mask, paths, free, rows, tmp, arrays):
                yield mask | bitw, built
            continue
        done = []
        for bitw, built in _extend(mask, paths, free, rows, tmp, arrays):
            dest = mask | bitw
            entry = partial.get(dest)
            if entry is None:
                entry = partial[dest] = [dest.bit_count(), []]
            entry[0] -= 1
            entry[1] += built
            if not entry[0]:
                del partial[dest]
                done.append((dest, entry[1]))
        stack += reversed(done)


def _top_cycle_coefficient(n: int, gt, arrays):
    """(B,) coefficient of dx_1 ^ ... ^ dx_n in tr((X^-1 dX)^n), n = 1 mod
    4, for one atom per variable (atom v - 1 of variable v) and the float
    Gram ``gt`` of a symmetric family, by meeting in the middle.

    ``gt`` is first made symmetric in place, G[x, y] and G[y, x] both set
    to their mean, so one direction of a cycle stands for both to first
    order in their rounding, as in the DP's sum over both directions.
    ``_stream`` grows the paths from atom 0 to depth h = (n - 1)/2 only:
    f_h(S, b) over |S| = h, b last.  A cycle 0 -> A -> b -> B - b -> 0,
    A its first h atoms, is f_h(A, a) stepped on to b by G[a, b], then
    f_h(B, b) walked backwards; its sign is theirs times (-1)^(cross(A, B)
    + h(h - 1)/2), cross counting the x in A and y in B with x > y.
    Reversal keeps a cycle's product and, as n = 1 mod 4, its sign, so
    only splits with atom 1 in A are summed and the total is doubled; the
    factor n counts the rotations.  A runs in lexicographic order, the
    order a depth-by-depth sweep makes its masks in, and ``_stream`` keeps
    that sweep's order in each table, so the sum is the sweep's bit for
    bit.  The tables of A and of B go back to ``arrays`` after their split,
    and the total is taken from it."""
    import numpy as np

    arrays.hand_out(gt.shape[2])
    take, give = arrays.take, arrays.give
    for i in range(n - 1):
        upper = gt[i, i + 1:n]
        upper += gt[i + 1:n, i]
        upper *= 0.5
        gt[i + 1:n, i] = upper
    tmp = take()
    rows = [list(r) for r in gt]
    h = (n - 1) // 2
    # atom i >= 1 is bit i - 1 of a mask
    free = [(i, 1 << (i - 1), (i,)) for i in range(1, n)]
    start = take()
    start.fill(1)
    paths: dict[int, list] = {}
    for mask, built in _stream([(0, start)], h, free, rows, tmp, arrays):
        paths.setdefault(mask, []).extend(built)
    full = (1 << (n - 1)) - 1
    total = take()
    total.fill(0)
    for rest in itertools.combinations(range(1, n - 1), h - 1):
        amask = 1 | sum(1 << i for i in rest)
        bmask = full ^ amask
        cross = sum((amask >> (i + 1)).bit_count() for i in range(n - 1)
                    if bmask >> i & 1)
        add = np.subtract if (cross + h * (h - 1) // 2) & 1 else np.add
        (a0, val0), *more = paths.pop(amask)
        for b, term in paths.pop(bmask):
            step = np.multiply(val0, rows[a0][b], out=take())
            for a, val in more:
                np.multiply(val, rows[a][b], out=tmp)
                step += tmp
            term *= step
            add(total, term, out=total)
            give(step)
            give(term)
        give(val0)
        for _, val in more:
            give(val)
    give(tmp)
    total *= 2 * n
    return total


def _extend(mask: int, paths: list, free, rows, tmp, arrays):
    """The paths [(last atom, array), ...] of ``mask`` one variable longer,
    yielded as (bit of w, [(beta, array) for beta in the atoms of w]) for
    each free w in ascending order.  The first term of a destination is
    its product (negated when the sign is odd), later terms are added or
    subtracted in the order of ``paths``.  Each destination's array is
    taken from ``arrays``; the arrays of ``paths`` go back to ``arrays``
    once every destination is built."""
    import numpy as np

    mul = np.multiply
    take = arrays.take
    srcs = [(rows[last], val) for last, val in paths]
    (row0, val0), more = srcs[0], srcs[1:]
    for above, bitw, betas in free:
        if mask & bitw:
            continue
        odd = (mask >> above).bit_count() & 1
        built = []
        for beta in betas:
            acc = mul(val0, row0[beta], take())
            if odd:
                np.negative(acc, out=acc)
                for row, val in more:
                    mul(val, row[beta], out=tmp)
                    acc -= tmp
            else:
                for row, val in more:
                    mul(val, row[beta], out=tmp)
                    acc += tmp
            built.append((beta, acc))
        yield bitw, built
    for _, val in srcs:
        arrays.give(val)


class FormEvaluator:
    """Exact pointwise evaluator for canonical form words on a matrix family.

    Coordinates are taken as exact rationals (a float as the rational it
    stores), so every coefficient is a Fraction.  The chart variable's
    differential is set to zero; coefficients are taken against ascending
    wedge monomials of the remaining variables.
    """

    def __init__(self, x: LinearFormMatrix, chart: int | None = None):
        self.x = x
        self.nvars = x.nvars
        # chart=None: fix the last variable; chart=0: no chart (all
        # differentials kept, for coefficient dictionaries on full space)
        self.chart = self.nvars if chart is None else chart
        coeffs = _coefficient_matrices(x)
        self.atoms = []  # (var, a, b)
        self.atoms_of: dict[int, list[int]] = {}
        for v in sorted(coeffs):
            if v == self.chart:
                continue
            for a, b in _rank_one_terms(coeffs[v]):
                self.atoms_of.setdefault(v, []).append(len(self.atoms))
                self.atoms.append((v, a, b))
        self.variables = sorted(self.atoms_of)

    def _object_gram(self, mat):
        """(atom, atom, 1) object array b_i^T mat a_j over the rank-one
        atoms (v, a, b): Fractions when ``mat`` is the exact inverse at a
        point, polynomials when it is the adjugate."""
        import numpy as np

        na = len(self.atoms)
        return np.array(_exact_gram(mat, [b for _, _, b in self.atoms],
                                    [a for _, a, _ in self.atoms]),
                        dtype=object).reshape(na, na, 1)

    # -- coefficients of tr((X^-1 dX)^n) ------------------------------------

    def coefficients(self, n: int, point) -> dict:
        """Map frozenset S (|S| = n) -> coefficient of dx_S at the point:
        ``_cycle_coefficients`` on a batch of one, over the exact inverse."""
        if n % 2 == 0:
            return {}
        table = _cycle_coefficients((n,), self._gram_at(point),
                                    self.variables, self.atoms_of,
                                    _PathArrays(object))[n]
        return dict(zip(_subset_keys(n, self.variables),
                        [row[0] for row in table]))

    def _gram_at(self, point):
        """The Fraction Gram over the exact inverse at the point."""
        return self._object_gram(_invert_exact(self.x.evaluate(point)))

    def word_top_coefficient(self, spec: FormSpec, point) -> Fraction:
        """Top chart coefficient of the wedge word at the point.

        One Gram at the point serves every component, and
        ``_cycle_coefficients`` builds their tables together for ``_wedge``.
        The chart dimension counts every variable but the chart, including
        those with no atom (an edge in no cycle), whose differential no
        coefficient carries: the word is then 0."""
        import numpy as np

        ndim = len(frozenset(range(1, self.nvars + 1)) - {self.chart})
        if ndim != spec.degree:
            raise FormError(
                f"word degree {spec.degree} does not match chart dimension "
                f"{ndim}")
        comps = spec.components
        gram = self._gram_at(point)
        if len(self.variables) < ndim:
            return Fraction(0)
        tables = _cycle_coefficients(comps, gram, self.variables,
                                     self.atoms_of, _PathArrays(object))
        return _wedge(comps, tables, ndim,
                      np.array([Fraction(0)], dtype=object))[0]


def canonical_form_numeric(x: LinearFormMatrix, spec: FormSpec,
                           point: Sequence) -> Fraction:
    """Chart coefficient of the spec word at the point, exactly.

    The last variable is the chart: its differential drops out and the
    coefficient is taken against the ascending top wedge of the remaining
    variables.
    """
    return FormEvaluator(x).word_top_coefficient(spec, point)


# ---------------------------------------------------------------------------
# batched evaluator for graph Laplacian words (Monte-Carlo hot path)
# ---------------------------------------------------------------------------

class CycleIncidence:
    """Cycle-incidence matrix q (q[e, i]: edge e in fundamental cycle i) and
    the kernels that make the Laplacian sum_e x_e q_e q_e^T and the Gram
    q_e^T Lambda^-1 q_f one matrix product per batch:
    ``lap[e, i*h + j] = q_ei q_ej`` and ``pair[e*ne + f, i*h + j] = q_ei q_fj``.
    Every kernel entry is 0 or +-1, so each product with a coordinate is
    exact.  ``log_psi`` and ``gram`` return trusted values: the rows that
    the float factorisation flags are redone in rational arithmetic here,
    so no caller sees a flag."""

    def __init__(self, g: Graph):
        import numpy as np

        b = cycle_basis(g)
        ne, h = g.ne, b.rank
        q = np.zeros((ne, h))
        for i, vec in enumerate(b.as_dicts()):
            for e, c in vec.items():
                q[e - 1, i] = c
        self.q = q
        self.h = h
        self.lap = (q[:, :, None] * q[:, None, :]).reshape(ne, h * h)

    @cached_property
    def pair(self):
        """The Gram kernel, built on first use: only form words read it."""
        q = self.q
        ne, h = q.shape
        return (q[:, None, :, None] * q[None, :, None, :]).reshape(
            ne * ne, h * h)

    # smallest trusted scaled pivot, sqrt(eps): below it Psi and Lambda^-1
    # keep fewer than half their digits
    _MIN_PIVOT = 2.0 ** -26

    def factor(self, xs, inverse: bool = False):
        """(log Psi, Lambda^-1 or None, flagged) at the rows of ``xs`` (B, ne).

        The Laplacians are built along the sample axis, ``lap.T @ xs.T`` in
        (h, h, B) layout, scaled by their diagonal, S_ij = Lambda_ij /
        (d_i d_j) with d_i = sqrt(Lambda_ii), and factored in place as S =
        L D L^T, one vector operation over the samples per row step; log Psi
        = sum_j log D_j + sum_i log Lambda_ii.  With ``inverse``, L^-1 is
        formed in place, then S^-1 = L^-T D^-1 L^-1, and the (h, h, B)
        Lambda^-1_ij = S^-1_ij / (d_i d_j) is returned.  A row is flagged
        when one of its pivots D_j is below ``_MIN_PIVOT`` or not finite, or
        its inverse is not finite; its other outputs are not trusted and the
        caller redoes it exactly.  D_j in (0, 1] is the scaled pivot, so a
        small one means cancellation has taken about -log2 D_j of its bits.
        Every array written is allocated here, and no floating-point warning
        is raised.
        """
        import numpy as np

        h, B = self.h, xs.shape[0]
        diagonal = (range(h), range(h))
        with np.errstate(all="ignore"):
            a = (self.lap.T @ xs.T).reshape(h, h, B)
            lam_ii = a[diagonal]
            d = np.sqrt(lam_ii)
            # only the lower triangle is read from here on
            for i in range(h):
                a[i, :i + 1] /= d[:i + 1]
                a[i, :i + 1] /= d[i]
            # L below the diagonal, D on it
            for j in range(h - 1):
                col = a[j + 1:, j]
                ell = col / a[j, j]
                for i in range(j + 1, h):
                    a[i, j + 1:i + 1] -= a[i, j] * ell[:i - j]
                col[...] = ell
            piv = a[diagonal]
            logpsi = np.log(piv).sum(axis=0) + np.log(lam_ii).sum(axis=0)
            # finite exactly when every pivot and diagonal entry is positive
            # and finite
            bad = ~np.isfinite(logpsi)
            bad |= piv.min(axis=0) < self._MIN_PIVOT
            if not inverse:
                return logpsi, None, bad
            # M = L^-1 below the diagonal: M_ij = -(L_ij + sum_{j<k<i} L_ik
            # M_kj), ascending j, so L_ik (k > j) is still unread
            for i in range(1, h):
                for j in range(i):
                    if j + 1 < i:
                        a[i, j] += (a[i, j + 1:i] * a[j + 1:i, j]).sum(axis=0)
                    np.negative(a[i, j], out=a[i, j])
            # S^-1_ij = sum_{k >= j} M_ki M_kj / D_k (i <= j, M_kk = 1) by
            # columns; row j of M is last read for column j, so column j of
            # S^-1 is mirrored into it
            rpiv = 1.0 / piv
            for j in range(h):
                w = a[j + 1:, j] * rpiv[j + 1:]
                s = (a[j + 1:, :j + 1] * w[:, None]).sum(axis=0)
                s[:j] += a[j, :j] * rpiv[j]
                s[j] += rpiv[j]
                a[:j + 1, j] = s
                a[j, :j] = s[:j]
            a /= d[:, None]
            a /= d[None, :]
            bad |= ~np.isfinite(a).all(axis=(0, 1))
        return logpsi, a, bad

    @cached_property
    def _cycles_of(self):
        """Per edge, its (cycle, +-1) pairs as Python integers."""
        return [[(i, int(c)) for i, c in enumerate(row) if c]
                for row in self.q.tolist()]

    def exact_laplacian(self, x):
        """The Laplacian at the float row ``x`` in rational arithmetic.

        A float is an integer over a power of two, so the row is scaled to
        integers by its largest denominator, each entry is an integer sum
        over the edges' cycles, and it is divided by the scale once."""
        ratios = [float(c).as_integer_ratio() for c in x]
        scale = max((d for _, d in ratios), default=1)
        acc = [[0] * self.h for _ in range(self.h)]
        for (num, den), cycles in zip(ratios, self._cycles_of):
            if num:
                v = num * (scale // den)
                for i, ci in cycles:
                    row = acc[i]
                    for j, cj in cycles:
                        row[j] += v if ci == cj else -v
        return [[Fraction(v, scale) for v in row] for row in acc]

    def psi_exact(self, x):
        """Psi at the float row ``x``, exactly: the product of the pivots of
        ``echelon`` on the rational Laplacian, whose determinant is never
        negative, so the pivot order's sign is dropped; 0 when singular."""
        rows = [{j: v for j, v in enumerate(r) if v}
                for r in self.exact_laplacian(x)]
        pivots = echelon(rows)
        if len(pivots) < self.h:
            return Fraction(0)
        return abs(math.prod(v for _, _, v in pivots))

    def log_psi(self, xs):
        """(B,) log Psi at the rows of ``xs`` (B, ne).  A row that
        ``factor`` flags takes the log of its exact Psi (-inf when it is
        0), unless the row itself is not finite."""
        import numpy as np

        logpsi, _, bad = self.factor(xs)
        for i in np.flatnonzero(bad):
            if np.isfinite(xs[i]).all():
                psi = self.psi_exact(xs[i])
                # numerator and denominator apart: no float overflow
                logpsi[i] = (math.log(psi.numerator)
                             - math.log(psi.denominator)) if psi else -math.inf
        return logpsi

    def gram(self, xs):
        """(edge, edge, sample) Gram tensor q_e^T Lambda^-1 q_f.

        Lambda^-1 comes from ``factor`` in (h, h, B) layout, so ``pair @
        inv.reshape(h*h, B)`` is the Gram in the subset DP's layout.  Rows
        the factorisation flags (extreme corner samples) are redone in
        rational arithmetic; their columns are zeroed first, so the product
        meets no NaN.  A flagged row with no exact Gram, because a
        coordinate is not finite or its Laplacian is singular, gets NaN,
        which its caller reports with the point.
        """
        import numpy as np

        _, inv, bad = self.factor(xs, inverse=True)
        B, ne = xs.shape
        inv[:, :, bad] = 0.0
        gt = (self.pair @ inv.reshape(-1, B)).reshape(ne, ne, B)
        for i in np.flatnonzero(bad):
            gt[:, :, i] = self._gram_exact(xs[i])
        return gt

    def _gram_exact(self, x):
        """One row's Gram matrix in rational arithmetic, rounded once; NaN
        when the row has no exact Gram."""
        import numpy as np

        if not np.isfinite(x).all():
            return np.nan
        q = [[Fraction(c) for c in row] for row in self.q.tolist()]
        try:
            inv = _invert_exact(self.exact_laplacian(x))
        except FormError:
            return np.nan
        return np.array(_exact_gram(inv, q, q), dtype=float)


class _PathArrays:
    """Free list of ``_stream``'s (B,) arrays of one dtype: its paths and
    the coefficient rows it returns, which ``_dp_word`` gives back after the
    wedge.

    ``take`` pops a free array or makes one; ``give`` returns an array that
    ``take`` handed out, and drops one of another length, which ``take``
    could not serve.  A batch of another length drops the free ones.
    """

    def __init__(self, dtype):
        self.dtype = dtype
        self.batch = 0
        self.spare: list = []

    def hand_out(self, B: int) -> None:
        """Makes ``take`` serve arrays of B entries."""
        if B != self.batch:
            self.batch, self.spare = B, []

    def take(self):
        import numpy as np

        return self.spare.pop() if self.spare else np.empty(self.batch,
                                                            self.dtype)

    def give(self, a) -> None:
        if len(a) == self.batch:
            self.spare.append(a)


class BatchedGraphFormEvaluator:
    """Vectorised chart coefficients of a form word on a graph Laplacian.

    The chart is the last edge.  The Laplacian's coefficient matrices are
    the rank-one cycle outer products q_e q_e^T, so one Gram tensor per
    batch, ``CycleIncidence.gram``, feeds the exact evaluator's subset DP
    ``_cycle_coefficients``, with one atom per edge and numpy arrays over
    the sample axis.  The DP accumulates in place, keeping the per-element
    order of the floating-point operations of the plain term-by-term sum,
    and ``_wedge`` sums the signed split products in the order of the
    recursive split: a multi-component word's estimate is bit-identical to
    that sum over the same Gram.  A single-component word needs only the coefficient on all
    chart variables, whose cycles ``_top_cycle_coefficient`` closes by
    joining half paths, using the Gram's symmetry: its estimates match the
    DP's to rounding, not bit for bit.  A top word, omega5 ^ omega9 ^ ...
    ^ omega_{2m-1} of degree m(m+1)/2 - 1 on |E| = m(m+1)/2 edges and m =
    |V| - 1 odd (W3 omega5, K6 omega5 ^ omega9), is the unique invariant
    top form up to a constant (Brown, arXiv:2101.04419): it is weighed in
    closed form, c x_|E| (prod x)^((m-3)/2) / Psi^((m+1)/2), with no Gram
    and no DP; ``_top_word`` measures c against the DP once, at two fixed
    rows, and keeps the DP when they disagree.  The engine passes one block
    of samples at a time, which bounds the Gram tensor and the DP's path
    arrays.  A block of at most ``_DEPTH_ROWS`` rows (the two-row check,
    a short last block) runs the DP one depth at a time for every anchor
    and component in one sweep (``_by_depth``); a longer one runs it mask
    by mask (``_stream``) once per component, drawing its path arrays and
    coefficient rows from the evaluator's one ``_PathArrays``, so they are
    allocated once per block length, not once per block.  Both drivers give
    the same bits.
    """

    def __init__(self, g: Graph, spec: FormSpec):
        self.graph = g
        self.spec = spec
        if spec.degree != g.ne - 1:
            raise FormError(
                f"word degree {spec.degree} needs {spec.degree + 1} edges, "
                f"graph has {g.ne}")
        if g.ne > MAX_SUBSET_EDGES:
            raise FormError("numeric form evaluation capped at "
                            f"{MAX_SUBSET_EDGES} edges")
        self.inc = CycleIncidence(g)
        self.chart_vars = list(range(1, g.ne))
        self.atoms_of = {v: [v - 1] for v in self.chart_vars}
        self.arrays = _PathArrays(float)
        self.top = self._top_word()

    def _top_word(self):
        """(c, p, k) when the word is the top invariant form of m x m
        matrices, m = |V| - 1 odd, on |E| = m(m+1)/2 edges: then the chart
        coefficient is c x_|E| (prod x)^p / Psi^k, p = (m - 3)/2 and k = (m +
        1)/2.  c is the DP's word over that closed form at two fixed rows,
        1 + e/|E| and 2 - e/|E|, and is used only when both ratios are
        finite, nonzero and agree to 1e-9: an identically zero word (a
        multigraph that passes the edge count) leaves rounding noise there,
        which does not, and keeps the DP.  Two rows are under
        ``_DEPTH_ROWS``, so a word of several components (K6 omega5 ^
        omega9) takes ``_by_depth`` here, which closes all its components
        from one sweep with ``_stream``'s bits, and ``_wedge``; a
        one-component word (W3 omega5) takes the half-path join.  None when
        the word is not top."""
        import numpy as np

        g, m = self.graph, self.graph.nv - 1
        if not (m % 2 and g.ne == m * (m + 1) // 2
                and self.spec.components == tuple(range(5, 2 * m, 4))):
            return None
        p, k = (m - 3) // 2, (m + 1) // 2
        e = np.arange(1, g.ne + 1) / g.ne
        rows = np.array([1 + e, 2 - e])
        with np.errstate(all="ignore"):
            ratio = self._dp_word(rows) / self._closed_form(rows, (1.0, p, k))
        r0, r1 = ratio
        if np.isfinite(ratio).all() and r0 and abs(r1 - r0) <= 1e-9 * abs(r0):
            return float(r0), p, k
        return None

    def _closed_form(self, xs, top):
        """c exp(log x_|E| + p sum log x - k log Psi) at the rows of ``xs``
        for ``top`` = (c, p, k): log Psi comes from ``CycleIncidence.log_psi``,
        which redoes flagged rows exactly, and every power is taken in the
        exponent, so a corner row where Psi^k alone overflows stays finite.
        NaN at a row with a coordinate that is not finite."""
        import numpy as np

        c, p, k = top
        with np.errstate(all="ignore"):
            logx = np.log(xs)
            expo = logx[:, -1] - k * self.inc.log_psi(xs)
            if p:
                expo += p * logx.sum(axis=1)
            out = c * np.exp(expo)
        out[~np.isfinite(xs).all(axis=1)] = np.nan
        return out

    def evaluate(self, xs):
        """(B,) array: coefficient of the ascending top chart wedge.

        ``xs`` holds full edge coordinate rows (chart column included).
        """
        if self.top is not None:
            return self._closed_form(xs, self.top)
        return self._dp_word(xs)

    def _dp_word(self, xs):
        """``evaluate`` by the Gram, the subset DP of every component and
        ``_wedge`` (or the half-path join of a one-component word), the
        path arrays taken from ``self.arrays``."""
        import numpy as np

        gt = self.inc.gram(xs)
        comps = self.spec.components
        if len(comps) == 1:
            return _top_cycle_coefficient(comps[0], gt, self.arrays)
        tables = _cycle_coefficients(comps, gt, self.chart_vars,
                                     self.atoms_of, self.arrays)
        total = _wedge(comps, tables, len(self.chart_vars),
                       np.zeros(xs.shape[0]))
        for table in tables.values():
            if isinstance(table, list):  # rows from the free list
                for row in table:
                    self.arrays.give(row)
        return total

    def integrand_values(self, xs):
        """f with word = f * Omega: (-1)^|E| * top coefficient / x_|E|."""
        sign = (-1) ** self.graph.ne
        return sign * self.evaluate(xs) / xs[:, -1]
