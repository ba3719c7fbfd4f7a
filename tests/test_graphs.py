import gc
import random

import pytest

from periodforge.graphs import (Graph, GraphError, banana, builtin_graph,
                                complete, complete_bipartite, completion,
                                cycle, decompletions, dumbbell,
                                enumerate_gc_graphs, enumerate_stable_weighted,
                                two_vertex_join, wheel, zigzag,
                                _classes, _trivalent_graphs)
from periodforge.canonical import (_Search, are_isomorphic,
                                   automorphism_edge_group, canonical_form,
                                   symmetry)
from conftest import dunce_graph, random_connected_graph, small_corpus
from gc_oracle import (_GC_CACHE, _connected_multigraphs, _degree_sequences,
                       _fill_matrices, _matrix_to_graph, _min_weight,
                       _weightings, gc_multigraphs,
                       stable_by_every_contraction)


def test_loop_numbers():
    assert banana(3).loop_number() == 2
    assert wheel(5).loop_number() == 5
    assert cycle(7).loop_number() == 1
    # trees
    assert Graph((0, 0, 0), ((1, 2), (2, 3))).loop_number() == 0


def test_genus():
    assert Graph((2,), ()).genus() == 2
    assert banana(3).genus() == 2
    assert dumbbell().genus() == 2
    g = Graph((1, 1), ((1, 2),))
    assert g.genus() == 2


def test_genus_preserved_by_weighted_contraction(corpus):
    for g in corpus:
        for e in g.edge_ids:
            h = g.contract_edge(e)
            assert h.genus() == g.genus(), (g, e)


def test_stability():
    assert Graph((2,), ()).is_stable()
    assert not Graph((0,), ()).is_stable()
    assert Graph((1, 1), ((1, 2),)).is_stable()
    assert not Graph((1, 0), ((1, 2),)).is_stable()
    assert banana(3).is_stable()
    # isolated weight-1 vertex is excluded by the degree >= 1 rule
    assert not Graph((1,), ()).is_stable()


def test_contraction_modes():
    s = banana(3)
    r = s.contract_edge(2)
    assert r.nv == 1 and r.ne == 2 and r.has_self_edge()
    # a self-edge is removed and bumps its vertex's weight
    g = Graph((3,), ((1, 1),))
    assert g.contract_edge(1).weights == (4,)
    with pytest.raises(GraphError):
        s.contract_edge(9)


def test_deletion():
    s = banana(3)
    d = s.delete_edge(2)
    assert d.ne == 2 and d.is_connected
    bridge = Graph((0, 0), ((1, 2),))
    assert bridge.delete_edge(1).component_count() == 2
    w = wheel(3).delete_edge(4)  # a rim edge
    assert w.ne == 5 and w.is_connected


def test_contraction_commutes(corpus):
    for g in corpus:
        if g.ne > 8:
            continue
        for ei in g.edge_ids:
            for ej in g.edge_ids:
                if ei == ej:
                    continue
                a = g.contract_edge(ei)
                b = g.contract_edge(ej)
                # renumbering: contracting by original ids needs care; use
                # positional order after the first contraction
                ei2 = ei if ei < ej else ei - 1
                ej2 = ej if ej < ei else ej - 1
                ga = a.contract_edge(ej2)
                gb = b.contract_edge(ei2)
                assert are_isomorphic(ga, gb), (g, ei, ej)


def test_canonical_form_invariance(corpus, rng):
    for g in corpus:
        rep0, _ = canonical_form(g)
        for _ in range(100):
            vp = list(range(1, g.nv + 1))
            rng.shuffle(vp)
            perm = {i + 1: vp[i] for i in range(g.nv)}
            h = g.permuted_vertices(perm)
            order = list(h.edge_ids)
            rng.shuffle(order)
            h = h.reordered_edges(order)
            rep1, _ = canonical_form(h)
            assert rep1 == rep0


def test_canonical_search_leaves_no_reference_cycles():
    """Each call's graph data is freed when the call returns, not whenever
    the cyclic collector next runs."""
    g = wheel(5)
    gc.collect()
    gc.disable()
    try:
        canonical_form(g)
        automorphism_edge_group(g)
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_enumeration_leaves_no_reference_cycles(monkeypatch):
    """The handle, contraction and augmentation steps and the oracle's
    degree-sequence, matrix and weighting recursions hold no references to
    themselves, so enumeration frees its state on return."""
    monkeypatch.setitem(_GC_CACHE, 4, {})
    gc.collect()
    gc.disable()
    try:
        enumerate_stable_weighted(3)
        _brute_stable(2)
        enumerate_gc_graphs(5, 10)
        gc_multigraphs(4, 6)
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_canonical_form_idempotent(corpus):
    for g in corpus:
        rep, _ = canonical_form(g)
        rep2, perm = canonical_form(rep)
        assert rep2 == rep
        assert perm.mapping == tuple(range(1, g.ne + 1))


def test_canonical_permutation_parity():
    s = banana(3)
    _, p = canonical_form(s)
    rotated = s.reordered_edges([2, 3, 1])
    _, p2 = canonical_form(rotated)
    # 3-cycles are even; both parities agree
    assert p.parity == p2.parity


def _inverse(p):
    """The inverse of an edge permutation."""
    from periodforge.graphs import EdgePermutation

    inv = [0] * len(p.mapping)
    for i, m in enumerate(p.mapping):
        inv[m - 1] = i + 1
    return EdgePermutation(tuple(inv))


def test_edge_permutation_parity_and_compose():
    from periodforge.graphs import EdgePermutation

    p = EdgePermutation((2, 1, 3))
    assert p.parity == -1
    q = EdgePermutation((2, 3, 1))
    assert q.parity == 1
    assert p.compose(p).mapping == (1, 2, 3)
    assert _inverse(q).compose(q).mapping == (1, 2, 3)


def test_automorphism_groups():
    eg = automorphism_edge_group(banana(3))
    assert eg.order == 6  # sigma_3 on the three parallel edges
    eg = automorphism_edge_group(dumbbell())
    assert eg.order == 2  # swap the two petals
    eg = automorphism_edge_group(wheel(4))
    assert eg.has_odd
    eg = automorphism_edge_group(wheel(3))
    assert eg.order == 24 and not eg.has_odd
    import math

    for g in (wheel(5), banana(4)):
        eg = automorphism_edge_group(g)
        assert math.factorial(g.ne) % eg.order == 0
        for p in eg.generators:
            h = g.reordered_edges([_inverse(p)(e) for e in g.edge_ids])
            assert are_isomorphic(h, g)


def test_builtin_graphs():
    w3 = builtin_graph("wheel", 3)
    assert (w3.nv, w3.ne) == (4, 6)
    kb = builtin_graph("complete_bipartite", 3, 4)
    assert (kb.nv, kb.ne) == (7, 12)
    assert kb.loop_number() == 6
    assert builtin_graph("cycle", 4).ne == 4
    assert builtin_graph("sunrise", 3) == banana(3)
    with pytest.raises(GraphError):
        builtin_graph("moebius", 3)
    with pytest.raises(GraphError):
        builtin_graph("wheel", 2)


def test_zigzag_shape():
    z5 = zigzag(5)
    assert (z5.nv, z5.ne) == (6, 10)
    assert z5.loop_number() == 5
    assert sorted(z5.degrees()) == [3, 3, 3, 3, 4, 4]
    assert are_isomorphic(zigzag(3), wheel(3))


def test_two_vertex_join():
    j = two_vertex_join(banana(2), 1, banana(2), 1)
    assert j.ne == 2 and j.nv == 2
    jw = two_vertex_join(wheel(3), 4, wheel(3), 4)
    assert jw.ne == 10
    assert jw.loop_number() == wheel(3).loop_number() * 2 - 1
    # loop number of a two-vertex join: h1 + h2 - 1 + 1 = h1 + h2
    # (two identifications, two edges removed): check by direct count
    assert jw.loop_number() == 5
    with pytest.raises(GraphError):
        two_vertex_join(dumbbell(), 1, banana(2), 1)


def test_completion_decompletion():
    k5 = completion(wheel(3))
    assert are_isomorphic(k5, complete(5))
    dec = decompletions(complete(5))
    assert len(dec) == 1 and are_isomorphic(dec[0], wheel(3))
    g = wheel(4)
    hat = completion(g)
    reps = decompletions(hat)
    rep, _ = canonical_form(g)
    assert rep in reps
    with pytest.raises(GraphError):
        completion(complete(5))  # 4-regular already, no degree-3 vertices


def test_stable_weighted_genus2():
    graphs = enumerate_stable_weighted(2)
    assert len(graphs) == 7
    for g in graphs:
        assert g.is_stable() and g.genus() == 2
    for a in graphs:
        assert sum(1 for b in graphs if are_isomorphic(a, b)) == 1


def test_stable_weighted_small_genera():
    assert enumerate_stable_weighted(0) == []
    assert enumerate_stable_weighted(1) == []


def _brute_stable(genus):
    """Stable graphs of the genus over every degree sequence, fill matrix and
    weighting, in canonical key order."""
    out = {}
    # one vertex beyond the bound v <= 2*genus - 2, so the bound is checked
    # rather than assumed
    for w_total in range(genus + 1):
        h = genus - w_total
        for nv in range(1, max(1, 2 * genus - 2) + 2):
            ne = h + nv - 1
            if ne < 0:
                continue
            for degs in _degree_sequences(nv, 2 * ne, 0):
                if degs and degs[-1] == 0 and nv > 1:
                    continue
                if sum(map(_min_weight, degs)) > w_total:
                    continue  # no stable weighting
                for mat in _fill_matrices(degs, max(1, ne), allow_loops=True):
                    g0 = _matrix_to_graph(mat)
                    if not g0.is_connected:
                        continue
                    for ws in _weightings(g0.degrees(), w_total):
                        g = Graph(ws, g0.edges)
                        if not g.is_stable() or g.genus() != genus:
                            continue
                        rep, _ = canonical_form(g)
                        out.setdefault((rep.weights, rep.edges), rep)
    return [out[k] for k in sorted(out)]


@pytest.mark.parametrize("genus_", [2, 3, 4])
def test_stable_weighted_against_brute_force(genus_):
    assert enumerate_stable_weighted(genus_) == _brute_stable(genus_)


def test_trivalent_seed_counts():
    # connected cubic multigraphs with loops on 2g - 2 vertices (OEIS A005967)
    assert [len(_trivalent_graphs(g)) for g in range(2, 6)] == [2, 5, 17, 71]


def test_trivalent_seeds_are_trivalent_of_their_genus():
    for genus_ in range(2, 6):
        for g, _, _ in _trivalent_graphs(genus_):
            assert g.is_connected and set(g.degrees()) == {3}, g
            assert not any(g.weights) and g.genus() == genus_, g


def _every_handle(g):
    """Every handle of g: on each edge, and on each pair of edges."""
    a, b = g.nv + 1, g.nv + 2
    weights = g.weights + (0, 0)
    for i, (u, v) in enumerate(g.edges):
        rest = g.edges[:i] + g.edges[i + 1:]
        yield Graph(weights, rest + ((u, a), (a, b), (b, v), (a, b)))
        yield Graph(weights, rest + ((u, a), (a, v), (a, b), (b, b)))
        for j in range(i, g.ne - 1):
            x, y = rest[j]
            yield Graph(weights, rest[:j] + rest[j + 1:]
                        + ((u, a), (a, v), (x, b), (b, y), (a, b)))


def test_trivalent_handles_over_edge_orbits_match_every_handle():
    """Handles taken once per edge orbit reach the same classes, with the
    same representatives and orbits, as handles on every edge and pair."""
    level = _classes([banana(3), dumbbell()])
    for genus_ in range(2, 6):
        assert _trivalent_graphs(genus_) == level
        level = _classes(h for g, _, _ in level for h in _every_handle(g))


def test_gc_enumeration_counts():
    assert len(gc_multigraphs(2, 3)) == 1
    assert len(gc_multigraphs(3, 6)) == 2
    g36 = gc_multigraphs(3, 6)
    assert any(are_isomorphic(g, wheel(3)) for g in g36)
    assert any(g.has_parallel_edges() for g in g36)
    assert enumerate_gc_graphs(2, 3) == []
    assert enumerate_gc_graphs(3, 6) == [canonical_form(wheel(3))[0]]
    for enumerate_ in (enumerate_gc_graphs, gc_multigraphs):
        with pytest.raises(GraphError):
            enumerate_(3, 7)
        with pytest.raises(GraphError):
            enumerate_(1, 1)


def test_gc_enumeration_against_brute_force():
    for loops, edges in [(3, 4), (3, 5), (3, 6), (4, 6), (4, 7), (4, 8),
                         (4, 9)]:
        levels = gc_multigraphs(loops, edges)
        nv = edges - loops + 1
        brute = _connected_multigraphs(nv, edges, 3, edges, allow_loops=False)
        assert len(levels) == len(brute), (loops, edges)
    # simple graphs straight from degree sequences and fill matrices (the
    # cubic graphs on 8 vertices take seconds this way, so loop 5 stops at 11)
    for loops, top in [(3, 6), (4, 9), (5, 11)]:
        for edges in range(loops, top + 1):
            nv = edges - loops + 1
            brute = _connected_multigraphs(nv, edges, 3, 1, allow_loops=False)
            assert enumerate_gc_graphs(loops, edges) == brute, (loops, edges)


def test_gc_enumeration_matches_level_builder():
    """The augmentation generator returns the level builder's simple graphs,
    element by element and in order, at every bigrade of loops 2-6."""
    for loops in range(2, 7):
        for edges in range(loops, 3 * loops - 2):
            assert enumerate_gc_graphs(loops, edges) == \
                gc_multigraphs(loops, edges, simple_only=True), (loops, edges)


def test_gc_enumeration_filters():
    for loops, edges in [(3, 6), (4, 8), (5, 9)]:
        simple = enumerate_gc_graphs(loops, edges)
        for gs in (gc_multigraphs(loops, edges), simple):
            for g in gs:
                assert not g.has_self_edge()
                assert g.min_degree() >= 3
                assert g.is_connected
                assert g.loop_number() == loops and g.ne == edges
            # pairwise non-isomorphic by construction of the canonical keys
            keys = {(g.weights, g.edges) for g in gs}
            assert len(keys) == len(gs)
        assert not any(g.has_parallel_edges() for g in simple)


def test_gc_simple_top_level_count():
    # connected cubic simple graphs on 10 vertices
    assert len(enumerate_gc_graphs(6, 15)) == 19


def test_random_relabel_consistency(rng):
    for _ in range(25):
        g = random_connected_graph(rng)
        rep, _ = canonical_form(g)
        vp = list(range(1, g.nv + 1))
        rng.shuffle(vp)
        h = g.permuted_vertices({i + 1: vp[i] for i in range(g.nv)})
        rep2, _ = canonical_form(h)
        assert rep == rep2


# ---------------------------------------------------------------------------
# reference: the unpruned individualisation search and the brute-force
# vertex automorphism enumeration that the pruned search replaced
# ---------------------------------------------------------------------------

def _ref_adjacency(g):
    adj = [dict() for _ in range(g.nv + 1)]
    loops = [0] * (g.nv + 1)
    for u, v in g.edges:
        if u == v:
            loops[u] += 1
        else:
            adj[u][v] = adj[u].get(v, 0) + 1
            adj[v][u] = adj[v].get(u, 0) + 1
    return adj, loops


def _ref_refine(g, colors, adj):
    while True:
        sigs = []
        for v in range(1, g.nv + 1):
            nb = sorted((colors[u], m) for u, m in adj[v].items())
            sigs.append((colors[v], tuple(nb)))
        remap = {s: i for i, s in enumerate(sorted(set(sigs)))}
        newc = [0] + [remap[s] for s in sigs]
        if newc == colors:
            return colors
        colors = newc


def _ref_initial_colors(g, loops):
    degs = g.degrees()
    sigs = [(g.weights[v - 1], degs[v - 1], loops[v])
            for v in range(1, g.nv + 1)]
    remap = {s: i for i, s in enumerate(sorted(set(sigs)))}
    return [0] + [remap[s] for s in sigs]


def _ref_normalise(colors):
    remap = {c: i for i, c in enumerate(sorted(set(colors[1:])))}
    return [0] + [remap[c] for c in colors[1:]]


def _ref_descend(g, adj, colors, best):
    cells = {}
    for v in range(1, g.nv + 1):
        cells.setdefault(colors[v], []).append(v)
    cells = [cells[c] for c in sorted(cells)]
    target = next((cell for cell in cells if len(cell) > 1), None)
    if target is None:
        pos = {cell[0]: rank + 1 for rank, cell in enumerate(cells)}
        weights = tuple(g.weights[v - 1] for v in
                        sorted(range(1, g.nv + 1), key=lambda v: pos[v]))
        pairs = sorted((min(pos[a], pos[b]), max(pos[a], pos[b]))
                       for a, b in g.edges)
        cert = (weights, tuple(pairs))
        if best[0] is None or cert < best[0]:
            best[0], best[1] = cert, pos
        return
    for v in target:
        bumped = [0] + [c * 2 for c in colors[1:]]
        bumped[v] -= 1
        _ref_descend(g, adj, _ref_refine(g, _ref_normalise(bumped), adj),
                     best)


def _ref_canonical_form(g):
    adj, loops = _ref_adjacency(g)
    best = [None, None]
    _ref_descend(g, adj, _ref_refine(g, _ref_initial_colors(g, loops), adj),
                 best)
    pos = best[1]

    def ends(e):
        a, b = pos[g.edges[e - 1][0]], pos[g.edges[e - 1][1]]
        return (min(a, b), max(a, b))

    order = sorted(g.edge_ids, key=lambda e: (ends(e), e))
    mapping = [0] * g.ne
    for new_id, e in enumerate(order, start=1):
        mapping[e - 1] = new_id
    weights = tuple(g.weights[v - 1] for v in
                    sorted(range(1, g.nv + 1), key=lambda v: pos[v]))
    return Graph(weights, tuple(ends(e) for e in order)), tuple(mapping)


def _ref_vertex_automorphisms(g):
    adj, loops = _ref_adjacency(g)
    colors = _ref_refine(g, _ref_initial_colors(g, loops), adj)
    verts = sorted(range(1, g.nv + 1), key=lambda v: (colors[v], v))
    out = []

    def extend(i, img, used):
        if i == len(verts):
            out.append(dict(img))
            return
        v = verts[i]
        for t in range(1, g.nv + 1):
            if t in used or colors[t] != colors[v] or loops[t] != loops[v]:
                continue
            if all(adj[v].get(u, 0) == adj[t].get(img[u], 0) for u in img):
                img[v] = t
                extend(i + 1, img, used | {t})
                del img[v]

    extend(0, {}, set())
    return out


def _ref_has_odd(g):
    """Some automorphism or parallel-edge swap permutes the edges oddly."""
    from periodforge.graphs import EdgePermutation

    classes = {}
    for e in g.edge_ids:
        u, v = g.endpoints(e)
        classes.setdefault((min(u, v), max(u, v)), []).append(e)
    if any(len(ids) > 1 for ids in classes.values()):
        return True
    for vp in _ref_vertex_automorphisms(g):
        mapping = [0] * g.ne
        for (u, v), ids in classes.items():
            a, b = vp[u], vp[v]
            for e, f in zip(ids, classes[(min(a, b), max(a, b))]):
                mapping[e - 1] = f
        if EdgePermutation(tuple(mapping)).parity == -1:
            return True
    return False


def _ref_edge_orbits(g):
    """(least id, size) per edge orbit of Aut(g), for g without parallel
    edges, from every vertex automorphism."""
    ids = {}
    for e in g.edge_ids:
        u, v = g.endpoints(e)
        ids[(min(u, v), max(u, v))] = e
    orbits = {e: {e} for e in g.edge_ids}
    for vp in _ref_vertex_automorphisms(g):
        for (u, v), e in ids.items():
            a, b = vp[u], vp[v]
            orbits[e].add(ids[(min(a, b), max(a, b))])
    return tuple(sorted({(min(o), len(o)) for o in orbits.values()}))


def _vertex_group_order(gens, nv):
    ident = tuple(range(nv + 1))
    seen, frontier = {ident}, [ident]
    while frontier:
        nxt = []
        for p in frontier:
            for s in gens:
                r = tuple(s[x] for x in p)
                if r not in seen:
                    seen.add(r)
                    nxt.append(r)
        frontier = nxt
    return len(seen)


def _oracle_graphs():
    """Corpus, relabelled random graphs with self-edges, every cached GC
    level graph at loops <= 5 with its edges reversed, stable genus 3."""
    rng = random.Random(4242)
    out = list(small_corpus())
    for _ in range(200):
        g = random_connected_graph(rng)
        vp = list(range(1, g.nv + 1))
        rng.shuffle(vp)
        order = list(g.edge_ids)
        rng.shuffle(order)
        out.append(g.permuted_vertices({i + 1: vp[i] for i in range(g.nv)})
                   .reordered_edges(order))
    for loops in range(2, 6):
        gc_multigraphs(loops, 3 * loops - 3)
        for keys in _GC_CACHE[loops].values():
            for key in keys:
                g = Graph(*key)
                out.append(g.reordered_edges(list(reversed(g.edge_ids))))
    out += enumerate_stable_weighted(3)
    return out


def test_canonical_form_matches_unpruned_search():
    graphs = _oracle_graphs()
    assert len(graphs) > 400
    for g in graphs:
        rep, perm = canonical_form(g)
        assert (rep, perm.mapping) == _ref_canonical_form(g), g


def test_search_generators_give_the_whole_group():
    for g in _oracle_graphs():
        gens = _Search(g).gens
        assert _vertex_group_order(gens, g.nv) == \
            len(_ref_vertex_automorphisms(g)), g
        if g.is_connected:
            assert automorphism_edge_group(g).has_odd == _ref_has_odd(g), g
        sym = symmetry(g)
        assert (sym is None) == _ref_has_odd(g), g
        if sym is not None:
            assert sum(size for _, size in sym) == g.ne, g
            assert sym == _ref_edge_orbits(g), g


def test_k9_parity_needs_no_group_enumeration():
    # |Aut(K9)| = 9! = 362,880; parity comes from a few generators
    eg = automorphism_edge_group(complete(9))
    assert eg.has_odd is True
    assert all(len(p.mapping) == 36 for p in eg.generators)


def test_closure_cap_names_cap_and_edge_count():
    eg = automorphism_edge_group(banana(4), cap=5)
    assert eg.has_odd
    with pytest.raises(GraphError, match=r"4-edge graph .* cap of 5"):
        eg.order
    assert automorphism_edge_group(banana(4)).order == 24


def test_stable_weighted_genus4_count():
    assert len(enumerate_stable_weighted(4)) == 379


def test_stable_weighted_genus5_count():
    assert len(enumerate_stable_weighted(5)) == 4555


def test_stable_orbit_contractions_match_every_contraction_genus5():
    """Contracting one edge per automorphism orbit reaches every class that
    contracting every edge reaches."""
    graphs = enumerate_stable_weighted(5)
    assert len(graphs) == 4555
    assert graphs == stable_by_every_contraction(5)
