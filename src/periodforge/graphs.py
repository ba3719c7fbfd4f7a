"""Exact multigraphs with vertex weights.

Vertices are numbered 1..nv, edges 1..ne; the edge *order* is part of the
data (it carries the orientation used by the graph complex).  Self-edges and
parallel edges are allowed everywhere; a self-edge contributes 2 to the
degree of its vertex.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence

# largest edge count for tables over all 2^|E| edge subsets (subset loop
# numbers, the tropical measure, the numeric form DP)
MAX_SUBSET_EDGES = 16


class GraphError(ValueError):
    pass


def _root(parent: list[int], x: int) -> int:
    while parent[x] != x:
        parent[x] = parent[parent[x]]
        x = parent[x]
    return x


@dataclass(frozen=True)
class Graph:
    """Finite multigraph with non-negative integer vertex weights.

    ``weights[i]`` is the weight of vertex ``i+1``; ``edges[k]`` is the pair
    of endpoints of edge ``k+1`` (``u == v`` encodes a self-edge).
    """

    weights: tuple[int, ...]
    edges: tuple[tuple[int, int], ...]

    def __post_init__(self):
        nv = len(self.weights)
        if nv == 0:
            raise GraphError("graph needs at least one vertex")
        for w in self.weights:
            if w < 0:
                raise GraphError("vertex weights must be non-negative")
        for u, v in self.edges:
            if not (1 <= u <= nv and 1 <= v <= nv):
                raise GraphError("edge endpoint out of range")

    # -- basic data -------------------------------------------------------

    @property
    def nv(self) -> int:
        return len(self.weights)

    @property
    def ne(self) -> int:
        return len(self.edges)

    @property
    def edge_ids(self) -> range:
        return range(1, self.ne + 1)

    def endpoints(self, e: int) -> tuple[int, int]:
        if not 1 <= e <= self.ne:
            raise GraphError(f"unknown edge id {e}")
        return self.edges[e - 1]

    def degrees(self) -> tuple[int, ...]:
        d = [0] * self.nv
        for u, w in self.edges:
            d[u - 1] += 1
            d[w - 1] += 1
        return tuple(d)

    # -- connectivity -----------------------------------------------------

    def component_count(self) -> int:
        parent = list(range(self.nv + 1))
        for u, v in self.edges:
            ru, rv = _root(parent, u), _root(parent, v)
            if ru != rv:
                parent[ru] = rv
        return len({_root(parent, v) for v in range(1, self.nv + 1)})

    @property
    def is_connected(self) -> bool:
        return self.component_count() == 1

    def loop_number(self) -> int:
        """First Betti number |E| - |V| + #components."""
        return self.ne - self.nv + self.component_count()

    def genus(self) -> int:
        """Loop number plus total vertex weight (connected graphs only)."""
        if not self.is_connected:
            raise GraphError("genus requires a connected graph")
        return self.loop_number() + sum(self.weights)

    def is_stable(self) -> bool:
        """Weight-0 vertices need degree >= 3, weight-1 vertices degree >= 1."""
        degs = self.degrees()
        for v in range(1, self.nv + 1):
            w = self.weights[v - 1]
            if w == 0 and degs[v - 1] < 3:
                return False
            if w == 1 and degs[v - 1] < 1:
                return False
        return True

    # -- structure queries --------------------------------------------------

    def has_self_edge(self) -> bool:
        return any(u == v for u, v in self.edges)

    def has_parallel_edges(self) -> bool:
        seen = set()
        for u, v in self.edges:
            key = (u, v) if u <= v else (v, u)
            if key in seen:
                return True
            seen.add(key)
        return False

    def min_degree(self) -> int:
        return min(self.degrees())

    # -- surgery ------------------------------------------------------------

    def delete_edge(self, e: int) -> "Graph":
        """Remove edge e; vertices untouched, remaining edge order inherited.

        The result may be disconnected; check ``component_count``.
        """
        self.endpoints(e)
        return Graph(self.weights, self.edges[: e - 1] + self.edges[e:])

    def contract_edge(self, e: int) -> "Graph":
        """Contract edge e.

        A non-self edge merges its endpoints (weights add); a self-edge is
        removed and its vertex's weight goes up by one, so the genus is
        kept.
        """
        u, v = self.endpoints(e)
        rest = self.edges[: e - 1] + self.edges[e:]
        if u == v:
            weights = list(self.weights)
            weights[u - 1] += 1
            return Graph(tuple(weights), rest)
        # merge v into u, then renumber vertices above v down by one
        lo, hi = (u, v) if u < v else (v, u)
        weights = list(self.weights)
        weights[lo - 1] += weights[hi - 1]
        del weights[hi - 1]

        def ren(x: int) -> int:
            if x == hi:
                return lo
            return x - 1 if x > hi else x

        edges = tuple((ren(a), ren(b)) for a, b in rest)
        return Graph(tuple(weights), edges)

    def delete_vertex(self, v: int) -> "Graph":
        """Remove vertex v together with all incident edges."""
        if not 1 <= v <= self.nv:
            raise GraphError(f"unknown vertex {v}")
        if self.nv == 1:
            raise GraphError("cannot delete the only vertex")
        weights = self.weights[: v - 1] + self.weights[v:]

        def ren(x: int) -> int:
            return x - 1 if x > v else x

        edges = tuple((ren(a), ren(b)) for a, b in self.edges
                      if a != v and b != v)
        return Graph(weights, edges)

    def permuted_vertices(self, perm: dict[int, int]) -> "Graph":
        """Relabel vertices by the bijection perm (edge order kept)."""
        if sorted(perm) != list(range(1, self.nv + 1)) or \
                sorted(perm.values()) != list(range(1, self.nv + 1)):
            raise GraphError("perm is not a vertex bijection")
        weights = [0] * self.nv
        for v, t in perm.items():
            weights[t - 1] = self.weights[v - 1]
        edges = tuple((perm[a], perm[b]) for a, b in self.edges)
        return Graph(tuple(weights), edges)

    def reordered_edges(self, order: Sequence[int]) -> "Graph":
        """New graph whose k-th edge is the old edge order[k]."""
        if sorted(order) != list(self.edge_ids):
            raise GraphError("order is not a permutation of the edge ids")
        return Graph(self.weights, tuple(self.edges[e - 1] for e in order))

    # -- misc ----------------------------------------------------------------

    def __repr__(self):
        ws = "" if not any(self.weights) else f", weights={self.weights}"
        return f"Graph(nv={self.nv}, edges={list(self.edges)}{ws})"


@dataclass(frozen=True)
class EdgePermutation:
    """Bijection on edge ids 1..n; mapping[i-1] is the image of edge i."""

    mapping: tuple[int, ...]

    def __post_init__(self):
        if sorted(self.mapping) != list(range(1, len(self.mapping) + 1)):
            raise GraphError("not a permutation of 1..n")

    def __call__(self, e: int) -> int:
        return self.mapping[e - 1]

    @property
    def parity(self) -> int:
        """Sign of the permutation."""
        n = len(self.mapping)
        seen = [False] * n
        sign = 1
        for i in range(n):
            if seen[i]:
                continue
            j, clen = i, 0
            while not seen[j]:
                seen[j] = True
                j = self.mapping[j] - 1
                clen += 1
            if clen % 2 == 0:
                sign = -sign
        return sign

    def compose(self, other: "EdgePermutation") -> "EdgePermutation":
        """self after other: (self.compose(other))(e) = self(other(e))."""
        return EdgePermutation(tuple(self(other(e))
                                     for e in range(1, len(self.mapping) + 1)))


# ---------------------------------------------------------------------------
# operations mirroring the module surface
# ---------------------------------------------------------------------------

def two_vertex_join(g1: Graph, e1: int, g2: Graph, e2: int) -> Graph:
    """Glue g1 and g2 along the endpoints of e1 and e2, dropping both edges.

    The endpoints of e1 = (v1, w1) are identified with those of e2 =
    (v2, w2), v1 with v2.  Edge order: g1's edges (minus e1) followed by
    g2's (minus e2).
    """
    v1, w1 = g1.endpoints(e1)
    v2, w2 = g2.endpoints(e2)
    if v1 == w1 or v2 == w2:
        raise GraphError("two_vertex_join needs edges with distinct endpoints")
    # vertices: g1's 1..n1, then g2's except v2, w2
    n1 = g1.nv
    ren2: dict[int, int] = {v2: v1, w2: w1}
    nxt = n1 + 1
    for x in range(1, g2.nv + 1):
        if x not in ren2:
            ren2[x] = nxt
            nxt += 1
    weights = list(g1.weights) + [0] * (g2.nv - 2)
    for x in range(1, g2.nv + 1):
        weights[ren2[x] - 1] += g2.weights[x - 1] if x not in (v2, w2) else 0
    weights[v1 - 1] += g2.weights[v2 - 1]
    weights[w1 - 1] += g2.weights[w2 - 1]
    edges = [g1.edges[k] for k in range(g1.ne) if k != e1 - 1]
    edges += [(ren2[a], ren2[b]) for k, (a, b) in enumerate(g2.edges)
              if k != e2 - 1]
    return Graph(tuple(weights), tuple(edges))


def completion(g: Graph) -> Graph:
    """Join a new apex vertex to the four degree-3 vertices of g.

    Requires exactly four vertices of degree 3 and all others of degree 4.
    """
    degs = g.degrees()
    three = [v for v in range(1, g.nv + 1) if degs[v - 1] == 3]
    four = [v for v in range(1, g.nv + 1) if degs[v - 1] == 4]
    if len(three) != 4 or len(three) + len(four) != g.nv:
        raise GraphError("completion needs degree profile (3,3,3,3,4,...,4)")
    apex = g.nv + 1
    edges = g.edges + tuple((v, apex) for v in three)
    return Graph(g.weights + (0,), edges)


def decompletions(gh: Graph) -> list[Graph]:
    """Canonical forms of gh minus each vertex, deduplicated.

    gh must be 4-regular.
    """
    if any(d != 4 for d in gh.degrees()):
        raise GraphError("decompletions needs a 4-regular graph")
    deleted = (gh.delete_vertex(v) for v in range(1, gh.nv + 1))
    return [g for g, _, _ in _classes(h for h in deleted if h.is_connected)]


def _graph_key(g: Graph) -> tuple:
    return (g.weights, g.edges)


# ---------------------------------------------------------------------------
# builders
# ---------------------------------------------------------------------------

def wheel(n: int) -> Graph:
    """Wheel with n spokes: rim vertices 1..n, hub n+1.

    Edges 1..n are the spokes (vertex i to the hub), edges n+1..2n the rim.
    """
    if n < 3:
        raise GraphError("wheel needs n >= 3")
    hub = n + 1
    edges = [(i, hub) for i in range(1, n + 1)]
    edges += [(i, i % n + 1) for i in range(1, n + 1)]
    return Graph((0,) * (n + 1), tuple(edges))


def zigzag(n: int) -> Graph:
    """Zig-zag with n loops: a chain of triangles on vertices 1..n+1 closed
    by an edge joining the two ends of the chain."""
    if n < 3:
        raise GraphError("zigzag needs n >= 3")
    edges = [(i, i + 1) for i in range(1, n + 1)]
    edges += [(i, i + 2) for i in range(1, n)]
    edges.append((1, n + 1))
    return Graph((0,) * (n + 1), tuple(edges))


def cycle(n: int) -> Graph:
    if n < 1:
        raise GraphError("cycle needs n >= 1")
    if n == 1:
        return Graph((0,), ((1, 1),))
    edges = tuple((i, i % n + 1) for i in range(1, n + 1))
    return Graph((0,) * n, edges)


def banana(n: int) -> Graph:
    """Two vertices joined by n parallel edges (n=3 is the sunrise)."""
    if n < 1:
        raise GraphError("banana needs n >= 1")
    return Graph((0, 0), tuple((1, 2) for _ in range(n)))


def complete(n: int) -> Graph:
    if n < 1:
        raise GraphError("complete needs n >= 1")
    edges = tuple((i, j) for i in range(1, n + 1) for j in range(i + 1, n + 1))
    return Graph((0,) * n, edges)


def complete_bipartite(a: int, b: int) -> Graph:
    if a < 1 or b < 1:
        raise GraphError("complete_bipartite needs positive part sizes")
    edges = tuple((i, a + j) for i in range(1, a + 1) for j in range(1, b + 1))
    return Graph((0,) * (a + b), edges)


def dumbbell() -> Graph:
    """Two self-loops joined by a bridge."""
    return Graph((0, 0), ((1, 1), (1, 2), (2, 2)))


_FAMILIES = {
    "wheel": (wheel, 1),
    "zigzag": (zigzag, 1),
    "cycle": (cycle, 1),
    "sunrise": (banana, 1),
    "banana": (banana, 1),
    "complete": (complete, 1),
    "complete_bipartite": (complete_bipartite, 2),
}


def builtin_graph(name: str, *sizes: int) -> Graph:
    """Deterministic labeled instance of a named family."""
    if name not in _FAMILIES:
        raise GraphError(f"unknown family {name!r}; have {sorted(_FAMILIES)}")
    fn, arity = _FAMILIES[name]
    if len(sizes) != arity:
        raise GraphError(f"{name} takes {arity} size argument(s)")
    return fn(*sizes)


# ---------------------------------------------------------------------------
# enumeration
# ---------------------------------------------------------------------------

def enumerate_gc_graphs(loops: int, edges: int) -> list[Graph]:
    """Connected simple graphs of the bigrade with minimum degree 3 up to
    isomorphism, as canonical representatives in key order (``gc_levels``):
    the graph-complex generators that parallel edges do not make zero."""
    for level, _ in gc_levels(loops, edges):
        pass
    return [rep for rep, _, _ in level]


def _check_band(loops: int, edges: int) -> None:
    if loops < 2:
        raise GraphError("graph complex enumeration needs loops >= 2")
    if not loops <= edges <= 3 * loops - 3:
        raise GraphError(
            f"edge count {edges} outside feasible band [{loops}, {3 * loops - 3}]")


def gc_levels(loops: int, stop: int
              ) -> Iterator[tuple[list[tuple], list[list[tuple[int, int]]]]]:
    """The classes of ``enumerate_gc_graphs`` at the loop order as
    ``_record_class`` files them, zero classes included, in key order, level
    by level from the cubic top (3*loops - 3 edges) down to ``stop`` edges;
    with each, the (position, entry) pairs of the ``_contractions`` of every
    class of the level above.  Every simple graph of minimum degree 3 below
    the top is a contraction of one with an edge more (split a vertex of
    degree >= 4 into two that keep two or more neighbours each, joined by a
    new edge), so one edge per orbit of every class reaches the level below."""
    _check_band(loops, stop)
    found: dict[tuple, tuple] = {}
    _augment(2 * loops - 2, (), [0, 0], [], found)     # the cubic top
    images: list[list] = []
    for edges in range(3 * loops - 3, stop - 1, -1):
        level = [found[k] for k in sorted(found)]
        # an image holds the class filed in ``found``, so identity finds it
        at = {id(cls): i for i, cls in enumerate(level)}
        yield level, [[(at[id(cls)], x) for cls, x in img] for img in images]
        if edges > stop:
            found = {}
            images = [_contractions(rep, orbits, found)
                      for rep, _, orbits in level]


def _record_class(search, found: dict) -> tuple[tuple, EdgePermutation]:
    """The class (representative, odd, orbits) of the graph ``search`` ran
    on, as filed in ``found`` by key (see ``_Search.symmetry``), and the
    edge permutation onto its representative."""
    rep, perm = search.form()
    key = _graph_key(rep)
    cls = found.get(key)
    if cls is None:
        cls = found[key] = (rep, *search.symmetry(perm))
    return cls, perm


def _contractions(g: Graph, orbits: Iterable[tuple[int, int]],
                  found: dict[tuple, tuple]) -> list[tuple[tuple, int]]:
    """(class filed in ``found``, entry of d) per contraction without
    parallel edges of an edge e of g taken from (e, orbit size) pairs; the
    entry is (-1)^e * parity of the permutation onto the class * size, as
    an even automorphism carries an edge's signed term onto its image's."""
    from .canonical import _Search

    out = []
    for e, size in orbits:
        h = g.contract_edge(e)
        if not h.has_parallel_edges():
            cls, perm = _record_class(_Search(h), found)
            out.append((cls, (-1) ** e * perm.parity * size))
    return out


def _augment(nv: int, edges: tuple[tuple[int, int], ...], deg: list[int],
             gens: list[list[int]], found: dict[tuple, tuple]) -> None:
    """File in ``found`` the connected cubic graphs on nv vertices grown
    from the graph on 1..k with these edges and degrees (``deg[0]``
    unused), whose automorphism group ``gens`` generate, by canonical
    augmentation (McKay, *Isomorph-free exhaustive generation*, J.
    Algorithms 26, 1998): vertex k+1 joins a set S of 1..k taken up to
    those automorphisms, and the child is kept iff the new vertex is in the
    orbit of its canonical deletion vertex, the last in canonical order of
    the least-degree vertices with the greatest sorted neighbour degrees
    (an invariant that settles many rejections without a search).  A child
    whose degrees can no longer all reach 3 is dropped unsearched.
    """
    from .canonical import _Search, _orbit

    k = len(deg) - 1
    new = k + 1
    left = nv - new                       # vertices still to add after this
    room = 3 * nv // 2 - len(edges)       # edges still to add, S included
    need = 3 - left                       # least degree of the child
    least = min(deg[1:])
    hi = min(room, k, 3, least + 1)
    lo = room if left == 0 else max(0, need)
    seen: set[tuple[int, ...]] = set()
    for s in range(lo, hi + 1):
        # below degree s or need a vertex must join the new one, and it can
        # gain at most one edge
        floor = max(s, need)
        if least < floor - 1:
            continue
        # the i-th vertex still to add has degree at most s + i
        if room - s > sum(min(new + i - 1, s + i, 3)
                          for i in range(1, left + 1)):
            continue
        must = [u for u in range(1, new) if deg[u] < floor]
        free = [u for u in range(1, new) if floor <= deg[u] < 3]
        if len(must) > s:
            continue
        for extra in itertools.combinations(free, s - len(must)):
            nbrs = tuple(sorted(must + list(extra)))
            if gens:
                if nbrs in seen:
                    continue
                seen |= _set_orbit(nbrs, gens)
            child = edges + tuple([(u, new) for u in nbrs])
            cdeg = list(deg)
            for u in nbrs:
                cdeg[u] += 1
            cdeg.append(s)
            ends = [v for v in range(1, new + 1) if cdeg[v] == s]
            if len(ends) > 1:
                nbr_degs = [[] for _ in range(new + 1)]
                for a, b in child:
                    nbr_degs[a].append(cdeg[b])
                    nbr_degs[b].append(cdeg[a])
                inv = {v: sorted(nbr_degs[v]) for v in ends}
                top = max(inv.values())
                if inv[new] != top:
                    continue
                ends = [v for v in ends if inv[v] == top]
            g = Graph((0,) * new, child)
            if left == 0 and not g.is_connected:
                continue
            search = _Search(g)
            last = max(ends, key=search.best.__getitem__)
            if last != new and new not in _orbit([last], search.gens):
                continue
            if left:
                _augment(nv, child, cdeg, search.gens, found)
            else:
                _record_class(search, found)


def _set_orbit(nbrs: tuple[int, ...],
               gens: list[list[int]]) -> set[tuple[int, ...]]:
    """Orbit of a sorted vertex tuple under the group ``gens`` generate."""
    orbit = {nbrs}
    stack = [nbrs]
    while stack:
        t = stack.pop()
        for p in gens:
            img = tuple(sorted([p[u] for u in t]))
            if img not in orbit:
                orbit.add(img)
                stack.append(img)
    return orbit


def enumerate_stable_weighted(genus_: int) -> list[Graph]:
    """All stable weighted graphs of the given genus up to isomorphism, as
    canonical representatives in key order.

    These are the cells of the moduli space of tropical curves, and its
    faces are edge contractions.  Two facts make the cells the contraction
    closure of the trivalent weight-0 graphs of the genus:

    * every connected trivalent graph of genus >= 3 reduces by an inverse
      handle move to one of genus one less.  Delete and smooth an edge that
      is neither a self-edge nor a bridge; if there is none, the graph is a
      tree with a self-edge at each leaf, and a leaf goes instead.  So
      ``_trivalent_graphs`` reaches every class from genus 2;
    * the space is pure (Brannetti, Melo, Viviani, *On the tropical Torelli
      map*, arXiv:0907.3324): every stable graph of genus g >= 2 is a
      weighted contraction of a trivalent one.  Contraction keeps
      stability, so the closure holds nothing else.

    Each level of the closure has one edge fewer than the one before.  See
    also Maggiolo and Pagani, *Generating stable modular graphs*,
    arXiv:1012.4777.
    """
    if genus_ < 0:
        raise GraphError("genus must be non-negative")
    if genus_ < 2:
        return []
    level = _trivalent_graphs(genus_)
    out: list[Graph] = []
    while level:
        out += [g for g, _, _ in level]
        level = _classes(g.contract_edge(e) for g, _, orbits in level
                         for e, _ in orbits)
    return sorted(out, key=_graph_key)


def _trivalent_graphs(genus_: int) -> list[tuple]:
    """Connected trivalent weight-0 graphs of genus >= 2 up to isomorphism,
    as ``_classes`` gives them, grown from genus 2 one handle at a time."""
    level = _classes([banana(3), dumbbell()])
    for _ in range(2, genus_):
        level = _classes(h for g, _, orbits in level
                         for h in _handles(g, orbits))
    return level


def _handles(g: Graph, orbits: Iterable[tuple[int, int]]) -> Iterator[Graph]:
    """The graphs one handle up from g, up to isomorphism: new points a, b
    on edge i and on another edge j (or both on edge i) joined by a new
    edge, or a new self-edge at b hung from a new point a on edge i.  An
    automorphism moves any edge to the least edge of its orbit, so i runs
    over those, the least ids of ``orbits``; a pair of two of them is
    taken once, from the smaller."""
    a, b = g.nv + 1, g.nv + 2
    weights = g.weights + (0, 0)
    firsts = {e - 1 for e, _ in orbits}
    for i in sorted(firsts):
        u, v = g.edges[i]
        rest = g.edges[:i] + g.edges[i + 1:]
        yield Graph(weights, rest + ((u, a), (a, b), (b, v), (a, b)))
        yield Graph(weights, rest + ((u, a), (a, v), (a, b), (b, b)))
        for j, (x, y) in enumerate(g.edges):
            if j == i or (j < i and j in firsts):
                continue
            others = tuple(e for k, e in enumerate(g.edges) if k not in (i, j))
            yield Graph(weights, others
                        + ((u, a), (a, v), (x, b), (b, y), (a, b)))


def _classes(graphs: Iterable[Graph]) -> list[tuple]:
    """The classes of the graphs, as ``_record_class`` files them, in key
    order.  A graph equal to one already labelled is not searched again."""
    from .canonical import _Search

    found: dict[tuple, tuple] = {}
    seen: set[Graph] = set()
    for g in graphs:
        if g not in seen:
            seen.add(g)
            _record_class(_Search(g), found)
    return [found[k] for k in sorted(found)]
