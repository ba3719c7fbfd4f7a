"""Canonical labeling and automorphisms of weighted multigraphs.

Iterative colour refinement (weight, degree, self-edge count, then
neighbour-colour multisets with edge multiplicities) followed by
individualisation backtracking.  Exact and deterministic; meant for desk
scale (up to ~20 edges), not for large graphs.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from .graphs import Graph, EdgePermutation, GraphError


def _adjacency(g: Graph):
    """adj[v] = {u: multiplicity} for u != v; loops[v] = #self-edges."""
    adj = [dict() for _ in range(g.nv + 1)]
    loops = [0] * (g.nv + 1)
    for u, v in g.edges:
        if u == v:
            loops[u] += 1
        else:
            adj[u][v] = adj[u].get(v, 0) + 1
            adj[v][u] = adj[v].get(u, 0) + 1
    return adj, loops


def _refine(g: Graph, colors: list[int], adj, loops) -> list[int]:
    """Stable colour refinement; colours are dense ints ordered by signature."""
    nv = g.nv
    while True:
        sigs = []
        for v in range(1, nv + 1):
            nb = sorted((colors[u], m) for u, m in adj[v].items())
            sigs.append((colors[v], tuple(nb)))
        order = sorted(set(sigs))
        remap = {s: i for i, s in enumerate(order)}
        newc = [0] + [remap[s] for s in sigs]
        if newc == colors:
            return colors
        colors = newc


def _initial_colors(g: Graph, adj, loops) -> list[int]:
    degs = g.degrees()
    sigs = [(g.weights[v - 1], degs[v - 1], loops[v])
            for v in range(1, g.nv + 1)]
    order = sorted(set(sigs))
    remap = {s: i for i, s in enumerate(order)}
    return [0] + [remap[s] for s in sigs]


def _certificate_for_order(g: Graph, pos: dict[int, int]):
    weights = tuple(g.weights[v - 1] for v in
                    sorted(range(1, g.nv + 1), key=lambda v: pos[v]))
    pairs = sorted((min(pos[a], pos[b]), max(pos[a], pos[b]))
                   for a, b in g.edges)
    return (weights, tuple(pairs))


def _cells(colors, nv):
    cells: dict[int, list[int]] = {}
    for v in range(1, nv + 1):
        cells.setdefault(colors[v], []).append(v)
    return [cells[c] for c in sorted(cells)]


def _descend(g: Graph, adj, loops, colors, best: list) -> None:
    """Individualisation search below ``colors``; keeps the least
    certificate and its vertex positions in ``best``.

    Module level rather than a closure: a recursive closure refers to
    itself, and that cycle would keep each call's graph data alive until
    the cyclic collector runs.
    """
    nv = g.nv
    cells = _cells(colors, nv)
    target = None
    for cell in cells:
        if len(cell) > 1:
            target = cell
            break
    if target is None:
        pos = {}
        for rank, cell in enumerate(cells):
            pos[cell[0]] = rank + 1
        cert = _certificate_for_order(g, pos)
        if best[0] is None or cert < best[0]:
            best[0], best[1] = cert, pos
        return
    for v in target:
        # individualise v: give it a colour just below its cell
        bumped = [0] + [c * 2 for c in colors[1:]]
        bumped[v] -= 1
        _descend(g, adj, loops, _refine(g, _normalise(bumped, nv), adj, loops),
                 best)


def canonical_form(g: Graph) -> tuple[Graph, EdgePermutation]:
    """Isomorphism-class representative plus the edge permutation onto it.

    Two graphs are isomorphic iff their representatives are equal.  The
    returned permutation sends g's edge ids to the representative's; among
    parallel edges it preserves the original id order, so its parity is
    well defined exactly up to automorphisms of the class.
    """
    adj, loops = _adjacency(g)
    colors0 = _refine(g, _initial_colors(g, adj, loops), adj, loops)
    nv = g.nv
    best: list = [None, None]  # certificate, pos
    _descend(g, adj, loops, colors0, best)
    pos = best[1]
    order = sorted(g.edge_ids,
                   key=lambda e: (min(pos[g.edges[e - 1][0]], pos[g.edges[e - 1][1]]),
                                  max(pos[g.edges[e - 1][0]], pos[g.edges[e - 1][1]]),
                                  e))
    mapping = [0] * g.ne
    for new_id, e in enumerate(order, start=1):
        mapping[e - 1] = new_id
    weights = tuple(g.weights[v - 1] for v in
                    sorted(range(1, nv + 1), key=lambda v: pos[v]))
    rep_edges = tuple(
        (min(pos[g.edges[e - 1][0]], pos[g.edges[e - 1][1]]),
         max(pos[g.edges[e - 1][0]], pos[g.edges[e - 1][1]]))
        for e in order)
    rep = Graph(weights, rep_edges)
    return rep, EdgePermutation(tuple(mapping))


def _normalise(colors, nv):
    order = sorted(set(colors[1:]))
    remap = {c: i for i, c in enumerate(order)}
    return [0] + [remap[c] for c in colors[1:]]


def are_isomorphic(g: Graph, h: Graph) -> bool:
    if (g.nv, g.ne, sorted(g.weights), sorted(g.degrees())) != \
            (h.nv, h.ne, sorted(h.weights), sorted(h.degrees())):
        return False
    rg, _ = canonical_form(g)
    rh, _ = canonical_form(h)
    return rg == rh


# ---------------------------------------------------------------------------
# automorphisms
# ---------------------------------------------------------------------------

def _extend_automorphism(adj, loops, colors, verts, cap: int,
                         out: list, i: int, img: dict[int, int],
                         used: set[int]) -> None:
    """Append to ``out`` every automorphism extending ``img`` on verts[:i]
    (module level, so the recursion leaves no reference cycle)."""
    if len(out) > cap:
        raise GraphError("automorphism group exceeds enumeration cap")
    nv = len(verts)
    if i == nv:
        out.append(dict(img))
        return
    v = verts[i]
    for t in range(1, nv + 1):
        if t in used or colors[t] != colors[v]:
            continue
        if loops[t] != loops[v]:
            continue
        ok = True
        for u, m in adj[v].items():
            if u in img and adj[t].get(img[u], 0) != m:
                ok = False
                break
        if ok:
            # also check mapped neighbours agree in reverse
            for u in img:
                if adj[v].get(u, 0) != adj[t].get(img[u], 0):
                    ok = False
                    break
        if ok:
            img[v] = t
            _extend_automorphism(adj, loops, colors, verts, cap, out, i + 1,
                                 img, used | {t})
            del img[v]


def vertex_automorphisms(g: Graph, cap: int = 200000) -> list[dict[int, int]]:
    """All weight- and adjacency-preserving vertex bijections."""
    adj, loops = _adjacency(g)
    colors = _refine(g, _initial_colors(g, adj, loops), adj, loops)
    verts = sorted(range(1, g.nv + 1), key=lambda v: (colors[v], v))
    out: list[dict[int, int]] = []
    _extend_automorphism(adj, loops, colors, verts, cap, out, 0, {}, set())
    return out


def _induced_edge_perm(g: Graph, vperm: dict[int, int]) -> EdgePermutation:
    """Edge permutation induced by a vertex automorphism; parallel classes
    are matched in ascending id order."""
    classes: dict[tuple[int, int], list[int]] = {}
    for e in g.edge_ids:
        u, v = g.endpoints(e)
        key = (u, v) if u <= v else (v, u)
        classes.setdefault(key, []).append(e)
    mapping = [0] * g.ne
    for (u, v), ids in classes.items():
        a, b = vperm[u], vperm[v]
        key = (a, b) if a <= b else (b, a)
        target = classes[key]
        for e, f in zip(ids, target):
            mapping[e - 1] = f
    return EdgePermutation(tuple(mapping))


@dataclass(frozen=True)
class EdgeGroup:
    """Image of Aut(G) in the symmetric group on edge ids."""

    generators: tuple[EdgePermutation, ...]
    order: int
    has_odd: bool


def automorphism_edge_group(g: Graph, cap: int = 500000) -> EdgeGroup:
    """Generators, order and parity content of the edge-permutation image
    of the automorphism group (weights respected)."""
    if not g.is_connected:
        raise GraphError("automorphism_edge_group needs a connected graph")
    gens: set[tuple[int, ...]] = set()
    for vp in vertex_automorphisms(g):
        gens.add(_induced_edge_perm(g, vp).mapping)
    # permutations of parallel edges (and of self-edges at a vertex)
    classes: dict[tuple[int, int], list[int]] = {}
    for e in g.edge_ids:
        u, v = g.endpoints(e)
        key = (u, v) if u <= v else (v, u)
        classes.setdefault(key, []).append(e)
    ident = tuple(range(1, g.ne + 1))
    for ids in classes.values():
        for a, b in zip(ids, ids[1:]):
            m = list(ident)
            m[a - 1], m[b - 1] = b, a
            gens.add(tuple(m))
    gens.discard(ident)
    order = _closure_order(gens, g.ne, cap)
    perms = tuple(EdgePermutation(m) for m in sorted(gens))
    has_odd = any(p.parity == -1 for p in perms)
    return EdgeGroup(perms, order, has_odd)


def _closure_order(gens: set[tuple[int, ...]], n: int, cap: int) -> int:
    ident = tuple(range(1, n + 1))
    seen = {ident}
    frontier = [ident]
    while frontier:
        nxt = []
        for p in frontier:
            for q in gens:
                r = tuple(p[q[i] - 1] for i in range(n))
                if r not in seen:
                    if len(seen) >= cap:
                        raise GraphError("edge group exceeds closure cap")
                    seen.add(r)
                    nxt.append(r)
        frontier = nxt
    return len(seen)
