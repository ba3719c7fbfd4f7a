"""Multigraph level builder for the graph complex, kept as a test oracle.

Level ``loops + 1`` is the (loops + 1)-fold banana.  Every graph one level
up either has an edge in a parallel class of size one -- and is then a
vertex split of the level below -- or has every parallel class of size at
least two, which forces edges <= 2 * loops and is enumerated directly.  The
levels hold all connected loopless multigraphs of minimum degree 3, so the
simple ones among them are an independent check on
``graphs.enumerate_gc_graphs``.

The fill-matrix enumerator below (degree sequences, symmetric multiplicity
matrices, vertex weightings) also drives the brute-force check of
``graphs.enumerate_stable_weighted``, which builds its graphs from trivalent
ones by contraction instead.
"""

from __future__ import annotations

import itertools
from typing import Iterator, Sequence

from periodforge.canonical import canonical_form
from periodforge.graphs import (Graph, GraphError, banana, _graph_key,
                                _trivalent_graphs)


def _degree_sequences(nv: int, total: int, min_deg: int,
                      cap: int | None = None,
                      prefix: tuple[int, ...] = ()) -> Iterator[tuple[int, ...]]:
    """Non-increasing degree sequences of length nv summing to total (each
    degree at most cap), appended to prefix."""
    if nv == 0:
        if total == 0:
            yield prefix
        return
    cap = total if cap is None else cap
    lo = max(min_deg, total - cap * (nv - 1))
    hi = min(cap, total - min_deg * (nv - 1))
    for d in range(hi, lo - 1, -1):
        yield from _degree_sequences(nv - 1, total - d, min_deg, d,
                                     prefix + (d,))


def _fill_matrices(degs: tuple[int, ...], max_mult: int, allow_loops: bool,
                   state=None, i: int = 0
                   ) -> Iterator[tuple[tuple[int, ...], ...]]:
    """Symmetric multiplicity matrices realising a degree sequence.

    Rows are filled one at a time with a lexicographic-descent constraint
    between equal-degree vertices whose earlier columns agree; duplicates are
    still possible and must be removed by canonical form downstream.
    ``state`` holds the self-edge counts, the matrix and the remaining
    degrees of the rows above ``i``.
    """
    nv = len(degs)
    if state is None:
        state = ([0] * nv, [[0] * nv for _ in range(nv)], list(degs))
    loops, m, rem = state
    if i == nv:
        yield tuple(tuple(r) for r in m)
        return
    entry_rem = rem[i]
    for opt in _row_options(rem, i, max_mult, allow_loops):
        nl, tail = opt[0], opt[1:]
        # symmetry prune: equal-degree neighbour rows with equal prefix
        if i > 0 and degs[i] == degs[i - 1]:
            same_prefix = all(m[a][i] == m[a][i - 1] for a in range(i - 1))
            if same_prefix:
                # swapping i-1 and i fixes m[i-1][i]; compare the rest
                prev_key = (loops[i - 1],) + tuple(
                    m[i - 1][j] for j in range(i + 1, nv))
                cur_key = (nl,) + tail
                if cur_key > prev_key:
                    continue
        loops[i] = nl
        for j, k in enumerate(tail):
            m[i][i + 1 + j] = k
            m[i + 1 + j][i] = k
            rem[i + 1 + j] -= k
        m[i][i] = nl
        rem[i] = 0
        if _rows_feasible(rem, i, allow_loops):
            yield from _fill_matrices(degs, max_mult, allow_loops, state,
                                      i + 1)
        # undo
        rem[i] = entry_rem
        for j, k in enumerate(tail):
            rem[i + 1 + j] += k
            m[i][i + 1 + j] = 0
            m[i + 1 + j][i] = 0
        m[i][i] = 0
        loops[i] = 0


def _rows_feasible(rem: list[int], i: int, allow_loops: bool) -> bool:
    """Remaining degrees on vertices > i can form a loopless multigraph."""
    tail = rem[i + 1:]
    s = sum(tail)
    if s % 2:
        return allow_loops
    return allow_loops or not tail or 2 * max(tail) <= s


def _row_options(rem: list[int], i: int, max_mult: int,
                 allow_loops: bool) -> Iterator[tuple[int, ...]]:
    # distribute rem[i] over loops (if allowed) and columns i+1..nv-1
    budget = rem[i]
    for nl in range(budget // 2 if allow_loops else 0, -1, -1):
        for tail in _row_tails(rem, i + 1, budget - 2 * nl, max_mult, []):
            yield (nl,) + tail


def _row_tails(rem: list[int], col: int, left: int, max_mult: int,
               row: list[int]) -> Iterator[tuple[int, ...]]:
    if col == len(rem):
        if left == 0:
            yield tuple(row)
        return
    cap = min(left, rem[col], max_mult)
    for k in range(cap, -1, -1):
        row.append(k)
        yield from _row_tails(rem, col + 1, left - k, max_mult, row)
        row.pop()


def _matrix_to_graph(mat: Sequence[Sequence[int]],
                     weights: Sequence[int] | None = None) -> Graph:
    nv = len(mat)
    edges = []
    for i in range(nv):
        for _ in range(mat[i][i]):
            edges.append((i + 1, i + 1))
        for j in range(i + 1, nv):
            for _ in range(mat[i][j]):
                edges.append((i + 1, j + 1))
    w = tuple(weights) if weights is not None else (0,) * nv
    return Graph(w, tuple(edges))

def _min_weight(degree: int) -> int:
    """Least weight of a stable vertex of this degree."""
    return 2 if degree == 0 else 1 if degree < 3 else 0


def _weightings(degs: tuple[int, ...], total: int, i: int = 0,
                acc: list[int] | None = None) -> Iterator[tuple[int, ...]]:
    acc = [] if acc is None else acc
    if i == len(degs):
        if total == 0:
            yield tuple(acc)
        return
    for w in range(_min_weight(degs[i]), total + 1):
        acc.append(w)
        yield from _weightings(degs, total - w, i + 1, acc)
        acc.pop()


def _connected_multigraphs(nv: int, ne: int, min_deg: int, max_mult: int,
                           allow_loops: bool) -> list[Graph]:
    """All connected multigraphs up to isomorphism, deduplicated."""
    seen: dict[tuple, Graph] = {}
    for degs in _degree_sequences(nv, 2 * ne, min_deg):
        if not allow_loops and max_mult == 1 and degs[0] > nv - 1:
            continue
        for mat in _fill_matrices(degs, max_mult, allow_loops):
            g = _matrix_to_graph(mat)
            if not g.is_connected:
                continue
            rep, _ = canonical_form(g)
            seen.setdefault(_graph_key(rep), rep)
    return [seen[k] for k in sorted(seen)]


def _vertex_splits(g: Graph, v: int) -> Iterator[Graph]:
    """All graphs obtained by splitting vertex v into two vertices of degree
    >= 3 joined by a new edge (the inverse of edge contraction)."""
    slots = []  # (edge index, which endpoint)
    for k, (a, b) in enumerate(g.edges):
        if a == v:
            slots.append((k, 0))
        if b == v:
            slots.append((k, 1))
    d = len(slots)
    if d < 4:
        return
    w = g.nv + 1  # the new vertex
    # unordered bipartitions with both sides >= 2; fix slots[0] on side A
    for r in range(1, d - 2):
        for rest in itertools.combinations(range(1, d), r):
            stay = {0} | set(rest)
            if not 2 <= len(stay) <= d - 2:
                continue
            edges = [list(e) for e in g.edges]
            for idx, (k, side) in enumerate(slots):
                if idx not in stay:
                    edges[k][side] = w
            edges.append([v, w])
            yield Graph(g.weights + (0,), tuple(tuple(e) for e in edges))


def _all_parallel_gc_graphs(loops: int, edges: int) -> list[Graph]:
    """Min-degree-3 loopless multigraphs in which *every* parallel class has
    multiplicity >= 2.  These force edges <= 2*loops, so the underlying
    simple graph is tiny and can be enumerated directly."""
    if edges > 2 * loops:
        return []
    nv = edges - loops + 1
    out: dict[tuple, Graph] = {}
    for ne_s in range(nv - 1, edges // 2 + 1):
        for skel in _connected_multigraphs(nv, ne_s, 1, 1, allow_loops=False):
            pairs = skel.edges
            for mults in _compositions(edges, len(pairs), 2):
                edge_list = []
                for (u, v), m in zip(pairs, mults):
                    edge_list.extend([(u, v)] * m)
                g = Graph((0,) * nv, tuple(edge_list))
                if g.min_degree() < 3:
                    continue
                rep, _ = canonical_form(g)
                out.setdefault(_graph_key(rep), rep)
    return list(out.values())


def _compositions(total: int, parts: int, lo: int) -> Iterator[tuple[int, ...]]:
    if parts == 0:
        if total == 0:
            yield ()
        return
    for first in range(lo, total - lo * (parts - 1) + 1):
        for rest in _compositions(total - first, parts - 1, lo):
            yield (first,) + rest


_GC_CACHE: dict[int, dict[int, list[tuple]]] = {}


def _gc_level(loops: int, edges: int) -> list[tuple]:
    """Canonical keys of all GC multigraphs at the bigrade, built bottom-up
    and cached per loop order in ``_GC_CACHE``."""
    levels = _GC_CACHE.setdefault(loops, {})
    if edges in levels:
        return levels[edges]
    n0 = loops + 1
    if n0 not in levels:
        rep, _ = canonical_form(banana(n0))
        levels[n0] = [_graph_key(rep)]
    n = max(k for k in levels if k <= edges)
    while n < edges:
        nxt: set[tuple] = set()
        for key in levels[n]:
            g = Graph(*key)
            for v in range(1, g.nv + 1):
                for h in _vertex_splits(g, v):
                    rep, _ = canonical_form(h)
                    nxt.add(_graph_key(rep))
        for g in _all_parallel_gc_graphs(loops, n + 1):
            nxt.add(_graph_key(g))
        n += 1
        levels[n] = sorted(nxt)
    return levels[edges]


def gc_multigraphs(loops: int, edges: int,
                   simple_only: bool = False) -> list[Graph]:
    """Connected loopless multigraphs of minimum degree 3 at the bigrade, up
    to isomorphism, in canonical key order; ``simple_only`` drops those with
    parallel edges.  Same bigrade checks as ``enumerate_gc_graphs``."""
    if loops < 2:
        raise GraphError("graph complex enumeration needs loops >= 2")
    if not loops <= edges <= 3 * loops - 3:
        raise GraphError(
            f"edge count {edges} outside feasible band [{loops}, {3 * loops - 3}]")
    if edges - loops + 1 < 2:
        return []
    out = [Graph(*k) for k in _gc_level(loops, edges)]
    if simple_only:
        out = [g for g in out if not g.has_parallel_edges()]
    return out


def stable_by_every_contraction(genus: int) -> list[Graph]:
    """Stable graphs of the genus as the contraction closure of the trivalent
    ones, contracting every edge of every class rather than one edge per
    automorphism orbit, in canonical key order."""
    level = {_graph_key(g): g for g, _, _ in _trivalent_graphs(genus)}
    out: dict[tuple, Graph] = {}
    while level:
        out.update(level)
        nxt: dict[tuple, Graph] = {}
        for g in level.values():
            for e in g.edge_ids:
                rep, _ = canonical_form(g.contract_edge(e))
                nxt.setdefault(_graph_key(rep), rep)
        level = nxt
    return [out[k] for k in sorted(out)]
