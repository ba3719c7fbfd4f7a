"""Canonical labeling and automorphisms of weighted multigraphs.

One individualisation-refinement search gives both.  Colour refinement
starts from (weight, degree, self-edge count) and splits cells by the
multiset of (neighbour colour, edge multiplicity) pairs; colours are dense
ranks ordered by signature.  The search individualises each vertex of the
first non-singleton cell in turn; a leaf (a discrete colouring) orders the
vertices, and the least certificate (weights, then sorted edge pairs) over
the leaves picks the representative.

A leaf whose certificate equals the best one so far gives an automorphism,
which is recorded, and the search backs up to where its path left the best
leaf's path (the rest of that subtree is the image of one already seen).
At each node a vertex is skipped when the automorphisms found so far that
fix the individualised prefix map an explored sibling onto it (McKay and
Piperno, *Practical graph isomorphism II*, arXiv:1301.1493).  The recorded
automorphisms generate the whole group.

Pruning only skips subtrees whose certificates repeat earlier ones, so the
first least leaf is the one the unpruned search finds.  That holds because
the colour numbering, the cell order and the vertex order inside a cell are
those of a plain search; with them, every representative and every edge
permutation returned is the same as without pruning.  Exact and
deterministic; meant for desk scale (up to ~20 edges), not for large graphs.

One search serves every use of a class: ``_Search.form`` gives the label
and the edge permutation, and ``_Search.symmetry`` the parity and the edge
orbits of the automorphism group, read off ``_Search.edge_maps``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

from .graphs import Graph, EdgePermutation, GraphError, _root


def _refine(colors: list[int], ncells: int, nbrs, mult: int):
    """Stable colour refinement of dense ``colors`` (index 0 unused).

    ``nbrs[v]`` lists (u, multiplicity) for u != v; a pair is keyed as
    ``colour * mult + multiplicity``, which orders like the pair itself.
    A vertex alone in its cell cannot split, so its signature is its colour
    alone, which sorts the same.  Returns the colours and their count; stops
    once no cell splits.
    """
    nv = len(colors) - 1
    while ncells < nv:
        size = [0] * ncells
        for c in colors:
            size[c] += 1
        size[0] -= 1                  # colors[0] is not a vertex
        sigs = [(c, tuple(sorted([colors[u] * mult + m for u, m in nbrs[v]])))
                if size[c] > 1 else (c,)
                for v, c in enumerate(colors) if v]
        distinct = set(sigs)
        if len(distinct) == ncells:
            break
        rank = {s: i for i, s in enumerate(sorted(distinct))}
        colors = [0] + [rank[s] for s in sigs]
        ncells = len(distinct)
    return colors, ncells


class _Search:
    """State of one search: the graph's tables, the best leaf so far and
    the vertex automorphisms found (lists indexed by vertex, 0 unused)."""

    def __init__(self, g: Graph):
        nv = g.nv
        adj = [{} for _ in range(nv + 1)]
        loops = [0] * (nv + 1)
        deg = [0] * (nv + 1)
        for u, v in g.edges:
            deg[u] += 1
            deg[v] += 1
            if u == v:
                loops[u] += 1
            else:
                a = adj[u]
                a[v] = a.get(v, 0) + 1
                a = adj[v]
                a[u] = a.get(u, 0) + 1
        self.nbrs = [tuple(a.items()) for a in adj]
        self.mult = g.ne + 1          # above every edge multiplicity
        self.weights = (0,) + g.weights
        self.edges = g.edges
        self.cert = None
        self.best: list[int] = []
        self.best_prefix: list[int] = []
        self.gens: list[list[int]] = []
        sigs = [(w, deg[v], loops[v]) for v, w in enumerate(g.weights, 1)]
        distinct = sorted(set(sigs))
        rank = {s: i for i, s in enumerate(distinct)}
        colors, ncells = _refine([0] + [rank[s] for s in sigs],
                                 len(distinct), self.nbrs, self.mult)
        self._descend(colors, ncells, [])

    def form(self) -> tuple[Graph, EdgePermutation]:
        """The class representative and the edge permutation onto it (see
        ``canonical_form``)."""
        pos = self.best
        keyed = []
        for e, (a, b) in enumerate(self.edges, 1):
            a, b = pos[a] + 1, pos[b] + 1
            keyed.append(((a, b) if a <= b else (b, a), e))
        keyed.sort()
        mapping = [0] * len(keyed)
        for new_id, (_, e) in enumerate(keyed, 1):
            mapping[e - 1] = new_id
        rep = Graph(self.cert[0], tuple([ends for ends, _ in keyed]))
        return rep, EdgePermutation(tuple(mapping))

    def edge_maps(self) -> list[list[int]]:
        """The automorphisms found, lifted to edge permutations (parallel
        classes matched in ascending id order), and the transpositions of
        neighbouring ids in each parallel class: together they generate the
        edge-permutation image of the automorphism group."""
        ne = len(self.edges)
        classes: dict[tuple[int, int], list[int]] = {}
        for e, (u, v) in enumerate(self.edges, 1):
            classes.setdefault((u, v) if u <= v else (v, u), []).append(e)
        maps = []
        for s in self.gens:
            m = [0] * ne
            for (u, v), ids in classes.items():
                a, b = s[u], s[v]
                for e, f in zip(ids, classes[(a, b) if a <= b else (b, a)]):
                    m[e - 1] = f
            maps.append(m)
        for ids in classes.values():
            for a, b in zip(ids, ids[1:]):
                m = list(range(1, ne + 1))
                m[a - 1], m[b - 1] = b, a
                maps.append(m)
        return maps

    def symmetry(self, perm: EdgePermutation
                 ) -> tuple[bool, tuple[tuple[int, int], ...]]:
        """Whether an automorphism permutes the edges oddly, and (least edge
        id, orbit size) per edge orbit of the automorphism group, the ids
        renamed by ``perm``, ordered by least id."""
        maps = self.edge_maps()
        odd = any(EdgePermutation(tuple(m)).parity == -1 for m in maps)
        parent = list(range(len(self.edges) + 1))
        for m in maps:
            for e, f in enumerate(m, 1):
                parent[_root(parent, e)] = _root(parent, f)
        orbits: dict[int, list[int]] = {}
        for e in range(1, len(parent)):
            orbits.setdefault(_root(parent, e), []).append(perm(e))
        return odd, tuple(sorted((min(o), len(o)) for o in orbits.values()))

    def _leaf(self, colors: list[int], prefix: list[int]) -> int:
        """Keep a leaf below the best, record the automorphism onto an equal
        one; returns the depth the search resumes at."""
        nv = len(colors) - 1
        inv = [0] * nv
        for v in range(1, nv + 1):
            inv[colors[v]] = v
        weights = self.weights
        n = nv + 1
        pairs = []     # position pair (a, b), a <= b, as a * n + b
        for a, b in self.edges:
            a, b = colors[a], colors[b]
            pairs.append(a * n + b if a <= b else b * n + a)
        pairs.sort()
        cert = (tuple([weights[v] for v in inv]), tuple(pairs))
        if self.cert is None or cert < self.cert:
            self.cert, self.best, self.best_prefix = cert, colors, prefix
            return len(prefix)
        if cert != self.cert:
            return len(prefix)
        best = self.best
        self.gens.append([0] + [inv[best[u]] for u in range(1, nv + 1)])
        common = 0
        for a, b in zip(prefix, self.best_prefix):
            if a != b:
                break
            common += 1
        return common

    def _descend(self, colors: list[int], ncells: int,
                 prefix: list[int]) -> int:
        """Search below a node; returns the depth the search resumes at.

        A leaf equal to the best one returns the length of its common
        prefix with the best leaf, and every node deeper than that returns
        at once; otherwise a node returns its own depth.
        """
        nv = len(colors) - 1
        if ncells == nv:
            return self._leaf(colors, prefix)
        depth = len(prefix)
        count = [0] * ncells
        for v in range(1, nv + 1):
            count[colors[v]] += 1
        c = 0
        while count[c] == 1:
            c += 1
        target = [v for v in range(1, nv + 1) if colors[v] == c]
        gens = self.gens
        explored: list[int] = []
        fixing: list[list[int]] = []   # found automorphisms fixing prefix
        seen = 0                       # of ``gens``, already sorted out
        orbit: set[int] = set()        # orbits of the explored vertices
        for v in target:
            if len(gens) > seen:
                fixing += [s for s in gens[seen:]
                           if all(s[p] == p for p in prefix)]
                seen = len(gens)
                orbit = _orbit(explored, fixing)
            if v in orbit:
                continue
            child = [x + 1 if x > c else x for x in colors]
            for u in target:
                child[u] = c + 1
            child[v] = c
            child, k = _refine(child, ncells + 1, self.nbrs, self.mult)
            resume = self._descend(child, k, prefix + [v])
            if resume < depth:
                return resume
            explored.append(v)
            orbit |= _orbit([v], fixing)
        return depth


def _orbit(points: list[int], gens: list[list[int]]) -> set[int]:
    """Union of the orbits of ``points`` under the group ``gens`` generate."""
    orbit = set(points)
    stack = list(points)
    while stack:
        x = stack.pop()
        for s in gens:
            y = s[x]
            if y not in orbit:
                orbit.add(y)
                stack.append(y)
    return orbit


def canonical_form(g: Graph) -> tuple[Graph, EdgePermutation]:
    """Isomorphism-class representative plus the edge permutation onto it.

    Two graphs are isomorphic iff their representatives are equal.  The
    returned permutation sends g's edge ids to the representative's; among
    parallel edges it preserves the original id order, so its parity is
    well defined exactly up to automorphisms of the class.
    """
    return _Search(g).form()


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

@dataclass(frozen=True)
class EdgeGroup:
    """Image of Aut(G) in the symmetric group on edge ids.

    ``order`` is the size of the closure over the generators, computed on
    first use and capped at ``cap`` elements.
    """

    generators: tuple[EdgePermutation, ...]
    has_odd: bool
    cap: int = field(default=500000, repr=False, compare=False)

    @cached_property
    def order(self) -> int:
        return _closure_order(self.generators, self.cap)


def automorphism_edge_group(g: Graph, cap: int = 500000) -> EdgeGroup:
    """Generators and parity content of the edge-permutation image of the
    automorphism group (weights respected).

    The generators are the search's vertex automorphisms lifted to edges
    (parallel classes matched in ascending id order) and the transpositions
    of neighbouring ids in each parallel class.  Parity is a homomorphism,
    so the group has an odd element iff some generator is odd.
    """
    if not g.is_connected:
        raise GraphError("automorphism_edge_group needs a connected graph")
    gens = {tuple(m) for m in _Search(g).edge_maps()}
    gens.discard(tuple(range(1, g.ne + 1)))
    perms = tuple(EdgePermutation(m) for m in sorted(gens))
    return EdgeGroup(perms, any(p.parity == -1 for p in perms), cap)


def symmetry(g: Graph) -> tuple[tuple[int, int], ...] | None:
    """None if an automorphism of g permutes its edges oddly; else one
    (least edge id, orbit size) per edge orbit of Aut(g), by least id."""
    odd, orbits = _Search(g).symmetry(EdgePermutation(tuple(g.edge_ids)))
    return None if odd else orbits


def _closure_order(gens: tuple[EdgePermutation, ...], cap: int) -> int:
    if not gens:
        return 1
    n = len(gens[0].mapping)
    maps = [p.mapping for p in gens]
    ident = tuple(range(1, n + 1))
    seen = {ident}
    frontier = [ident]
    while frontier:
        nxt = []
        for p in frontier:
            for q in maps:
                r = tuple([p[i - 1] for i in q])
                if r not in seen:
                    if len(seen) >= cap:
                        raise GraphError(
                            f"edge group of a {n}-edge graph exceeds the "
                            f"closure cap of {cap} elements")
                    seen.add(r)
                    nxt.append(r)
        frontier = nxt
    return len(seen)
