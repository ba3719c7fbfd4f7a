"""The even commutative graph complex: oriented classes, the contraction
differential, and exact homology dimensions by loop order.

A generator is a connected graph without self-edges and with minimum degree
3; its orientation is the edge order of the canonical representative.  A
class vanishes when the graph has parallel edges or an automorphism that
induces an odd edge permutation.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Mapping

from .graphs import EdgePermutation, Graph, enumerate_gc_graphs
from .canonical import canonical_form, symmetry
from .polynomials import echelon

_MOD_PRIME = 2**31 - 1


class ComplexError(ValueError):
    pass


def _check_generator(g: Graph) -> None:
    if g.has_self_edge():
        raise ComplexError("graph complex generators have no self-edges")
    if g.min_degree() < 3:
        raise ComplexError("graph complex generators have min degree 3")
    if not g.is_connected:
        raise ComplexError("graph complex generators are connected")


@dataclass(frozen=True)
class OrientedClass:
    """Canonical representative; its edge order is the orientation."""

    graph: Graph

    @property
    def loops(self) -> int:
        return self.graph.loop_number()

    @property
    def edges(self) -> int:
        return self.graph.ne

    def key(self):
        return (self.graph.weights, self.graph.edges)

    def __lt__(self, other):
        return self.key() < other.key()


def _reduce(g: Graph) -> tuple[Graph, EdgePermutation] | None:
    """Canonical form of a generator, or None for a zero class (parallel
    edges, or an odd automorphism)."""
    _check_generator(g)
    if g.has_parallel_edges():
        return None
    rep, perm = canonical_form(g)
    return None if symmetry(rep) is None else (rep, perm)


def is_zero_class(g: Graph) -> bool:
    """True iff the class of g dies: parallel edges, or an odd automorphism."""
    return _reduce(g) is None


def reduce_to_basis(g: Graph) -> tuple[OrientedClass, int] | None:
    """Canonical class and the parity of the edge permutation onto it.

    None encodes the zero class.  The graph's own edge order is the input
    orientation.
    """
    red = _reduce(g)
    if red is None:
        return None
    rep, perm = red
    return OrientedClass(rep), perm.parity


class ChainVector:
    """Sparse rational combination of oriented classes of one bigrade."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Mapping[OrientedClass, Fraction] | None = None):
        self.coeffs: dict[OrientedClass, Fraction] = {}
        if coeffs:
            for cls, c in coeffs.items():
                c = Fraction(c)
                if c:
                    self.coeffs[cls] = c
        grades = {(c.loops, c.edges) for c in self.coeffs}
        if len(grades) > 1:
            raise ComplexError(f"mixed bigrades in chain: {sorted(grades)}")

    @classmethod
    def zero(cls) -> "ChainVector":
        return cls()

    @classmethod
    def from_graph(cls, g: Graph, coeff=1) -> "ChainVector":
        red = reduce_to_basis(g)
        if red is None:
            return cls()
        oc, sign = red
        return cls({oc: Fraction(coeff) * sign})

    def is_zero(self) -> bool:
        return not self.coeffs

    def __add__(self, other: "ChainVector") -> "ChainVector":
        out = dict(self.coeffs)
        for cls, c in other.coeffs.items():
            out[cls] = out.get(cls, 0) + c
        return ChainVector(out)

    def __sub__(self, other: "ChainVector") -> "ChainVector":
        return self + other.scale(-1)

    def scale(self, c) -> "ChainVector":
        return ChainVector({k: Fraction(c) * v for k, v in self.coeffs.items()})

    def __eq__(self, other):
        return isinstance(other, ChainVector) and self.coeffs == other.coeffs

    def __repr__(self):
        if self.is_zero():
            return "ChainVector(0)"
        bits = [f"{c}*[{cls.graph!r}]" for cls, c in
                sorted(self.coeffs.items(), key=lambda t: t[0].key())]
        return "ChainVector(" + " + ".join(bits) + ")"


def differential_of_class(oc: OrientedClass) -> ChainVector:
    """Alternating sum of one-edge contractions, reduced to the basis.

    An even automorphism carries the signed term of one edge onto that of
    its image, so when every automorphism is even each edge orbit adds its
    size times the term of its least edge.
    """
    g = oc.graph
    coeffs: dict[OrientedClass, int] = {}
    for i, size in symmetry(g) or [(i, 1) for i in g.edge_ids]:
        u, v = g.endpoints(i)
        if u == v:  # a self-edge contracts to the zero graph
            continue
        contracted = g.contract_edge(i)
        if contracted.has_self_edge():
            continue
        red = reduce_to_basis(contracted)
        if red is None:
            continue
        cls, sign = red
        coeffs[cls] = coeffs.get(cls, 0) + (-1) ** i * sign * size
    return ChainVector(coeffs)


def differential(c: ChainVector) -> ChainVector:
    out = ChainVector()
    for cls, coeff in c.coeffs.items():
        out = out + differential_of_class(cls).scale(coeff)
    return out


def gc_basis(loops: int, edges: int) -> list[OrientedClass]:
    """Non-zero classes at the bigrade, in deterministic order.

    Parallel edges always give zero classes, so the enumeration is run over
    simple graphs only; it records the symmetry of every class it returns.
    """
    return sorted(OrientedClass(g) for g in enumerate_gc_graphs(loops, edges)
                  if symmetry(g) is not None)


def differential_matrix(loops: int, edges: int, *, bases=None
                        ) -> dict[tuple[int, int], int]:
    """Sparse matrix of d from bigrade (loops, edges) to (loops, edges-1).

    Keys are (row, col) with rows indexed by the target basis and columns by
    the source basis, both in gc_basis order.  ``bases`` passes the source
    and target ``gc_basis`` lists when the caller already has them.
    """
    src, dst = bases or (gc_basis(loops, edges), gc_basis(loops, edges - 1)
                         if edges - 1 >= loops else [])
    index = {oc: i for i, oc in enumerate(dst)}
    mat: dict[tuple[int, int], int] = {}
    for j, oc in enumerate(src):
        img = differential_of_class(oc)
        for cls, c in img.coeffs.items():
            i = index.get(cls)
            if i is None:
                raise ComplexError("differential left the enumerated basis")
            if c.denominator != 1:
                raise ComplexError(
                    f"coefficient {c} of {cls.graph!r} in the differential "
                    f"of {oc.graph!r} is not an integer")
            mat[(i, j)] = mat.get((i, j), 0) + c.numerator
    return {k: v for k, v in mat.items() if v}


def matrix_rank(mat: Mapping[tuple[int, int], int], nrows: int, ncols: int) -> int:
    """Exact rank over Q, cross-checked against the rank modulo the prime
    2^31 - 1; both come from ``polynomials.echelon``."""
    rows: list[dict[int, Fraction]] = [dict() for _ in range(nrows)]
    mod: list[dict[int, int]] = [dict() for _ in range(nrows)]
    for (i, j), v in mat.items():
        if v:
            rows[i][j] = Fraction(v)
        if v % _MOD_PRIME:
            mod[i][j] = v % _MOD_PRIME
    r = len(echelon(rows))
    rm = len(echelon(mod, _MOD_PRIME))
    if r != rm:
        raise ComplexError(f"rank mismatch: exact {r} vs mod-p {rm}")
    return r


def homology_dims(loops: int, max_loops: int = 6) -> dict[int, int]:
    """Dimensions of graph homology at fixed loop order, keyed by degree
    (edges - 2*loops), read off ``homology_report``."""
    return {row["degree"]: row["homology"]
            for row in homology_report(loops, max_loops) if row["homology"]}


def homology_report(loops: int, max_loops: int = 6) -> list[dict]:
    """Per-bigrade report: basis size, rank of d, kernel and homology dims.

    Loop orders above ``max_loops`` are refused unless the bound is raised
    explicitly (memory grows quickly).
    """
    if loops > max_loops:
        raise ComplexError(
            f"loop order {loops} above the configured bound {max_loops}; "
            "raise max_loops explicitly if you mean it")
    if loops < 2:
        raise ComplexError("homology starts at 2 loops")
    top = 3 * loops - 3
    bases = {n: gc_basis(loops, n) for n in range(loops, top + 1)}
    sizes = {n: len(b) for n, b in bases.items()}
    ranks = {top + 1: 0}
    for n in range(loops, top + 1):
        if sizes[n] == 0 or n - 1 < loops or sizes[n - 1] == 0:
            ranks[n] = 0
        else:
            mat = differential_matrix(loops, n,
                                      bases=(bases[n], bases[n - 1]))
            ranks[n] = matrix_rank(mat, sizes[n - 1], sizes[n])
    out = []
    for n in range(loops, top + 1):
        kernel = sizes[n] - ranks[n]
        out.append({
            "loops": loops,
            "edges": n,
            "degree": n - 2 * loops,
            "basis": sizes[n],
            "rank": ranks[n],
            "kernel": kernel,
            "homology": kernel - ranks[n + 1],
        })
    return out
