"""Multigraph level builder for the graph complex, kept as a test oracle.

Level ``loops + 1`` is the (loops + 1)-fold banana.  Every graph one level
up either has an edge in a parallel class of size one -- and is then a
vertex split of the level below -- or has every parallel class of size at
least two, which forces edges <= 2 * loops and is enumerated directly.  The
levels hold all connected loopless multigraphs of minimum degree 3, so the
simple ones among them are an independent check on
``graphs.enumerate_gc_graphs``.
"""

from __future__ import annotations

import itertools
from typing import Iterator

from periodforge.canonical import canonical_form
from periodforge.graphs import (Graph, GraphError, banana, _degree_sequences,
                                _fill_matrices, _graph_key, _matrix_to_graph)


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
