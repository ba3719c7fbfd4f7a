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
from typing import Iterator, Mapping

from .graphs import (EdgePermutation, Graph, _check_band, _contractions,
                     _record_class, gc_levels)
from .canonical import _Search, symmetry
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
    (rep, odd, _), perm = _record_class(_Search(g), {})
    return None if odd else (rep, perm)


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
    """Alternating sum of one-edge contractions, reduced to the basis: the
    ``graphs._contractions`` of one edge per automorphism orbit when every
    automorphism is even, else of every edge."""
    g = oc.graph
    coeffs: dict[OrientedClass, int] = {}
    orbits = symmetry(g) or [(i, 1) for i in g.edge_ids]
    for (rep, odd, _), x in _contractions(g, orbits, {}):
        if not odd:
            cls = OrientedClass(rep)
            coeffs[cls] = coeffs.get(cls, 0) + x
    return ChainVector(coeffs)


def differential(c: ChainVector) -> ChainVector:
    out = ChainVector()
    for cls, coeff in c.coeffs.items():
        out = out + differential_of_class(cls).scale(coeff)
    return out


def _complex(loops: int, stop: int
             ) -> Iterator[tuple[list[OrientedClass], dict[tuple[int, int], int]]]:
    """Per level of ``graphs.gc_levels``, from the top down to ``stop``
    edges: the non-zero classes in gc_basis order, and the sparse matrix of
    d from the level above into them (empty at the top)."""
    cols: list[int] = []          # positions of the basis of the level above
    for level, images in gc_levels(loops, stop):
        rows = {i: r for r, i in enumerate(
            i for i, (_, odd, _) in enumerate(level) if not odd)}
        mat: dict[tuple[int, int], int] = {}
        for j, i in enumerate(cols):
            for t, x in images[i]:
                if t in rows:
                    mat[rows[t], j] = mat.get((rows[t], j), 0) + x
        yield ([OrientedClass(level[i][0]) for i in rows],
               {k: v for k, v in mat.items() if v})
        cols = list(rows)


def gc_basis(loops: int, edges: int) -> list[OrientedClass]:
    """Non-zero classes at the bigrade, in key order (parallel edges give
    zero classes, so only the simple graphs of ``graphs.gc_levels``)."""
    for basis, _ in _complex(loops, edges):
        pass
    return basis


def differential_matrix(loops: int, edges: int) -> dict[tuple[int, int], int]:
    """Sparse matrix of d from bigrade (loops, edges) to (loops, edges-1).

    Keys are (row, col) with rows indexed by the target basis and columns by
    the source basis, both in gc_basis order.
    """
    _check_band(loops, edges)
    mat: dict[tuple[int, int], int] = {}
    if edges > loops:
        for _, mat in _complex(loops, edges - 1):
            pass
    return mat


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


def homology_dims(loops: int) -> dict[int, int]:
    """Dimensions of graph homology at fixed loop order, keyed by degree
    (edges - 2*loops), read off ``homology_report`` at its default bound."""
    return {row["degree"]: row["homology"]
            for row in homology_report(loops) if row["homology"]}


def homology_report(loops: int, max_loops: int = 6) -> list[dict]:
    """Per-bigrade report: basis size, rank of d, kernel and homology dims.

    Loop orders above ``max_loops`` are refused unless the bound is raised
    explicitly (memory grows quickly).
    """
    if loops > max_loops:
        raise ComplexError(
            f"loop order {loops} above the configured bound {max_loops}; "
            "raise max_loops, or pass --allow-big on the command line, if "
            "you mean it")
    if loops < 2:
        raise ComplexError("homology starts at 2 loops")
    top = 3 * loops - 3
    sizes: dict[int, int] = {}
    ranks = dict.fromkeys(range(loops, top + 2), 0)
    # one pass down from the top; each map is ranked once its target exists
    for n, (basis, mat) in zip(range(top, loops - 1, -1),
                               _complex(loops, loops)):
        sizes[n] = len(basis)
        if n < top and sizes[n] and sizes[n + 1]:
            ranks[n + 1] = matrix_rank(mat, sizes[n], sizes[n + 1])
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
