import os
import random
from fractions import Fraction

import numpy as np
import pytest

from periodforge import canonical
from periodforge.graphs import Graph, banana, wheel, zigzag
from periodforge.canonical import are_isomorphic, canonical_form
from periodforge.graphcomplex import (ChainVector, ComplexError,
                                      OrientedClass, differential,
                                      differential_matrix, gc_basis,
                                      homology_dims, homology_report,
                                      differential_of_class, is_zero_class,
                                      matrix_rank, reduce_to_basis)


def eleven_edge_example() -> Graph:
    """7 vertices, 11 edges; contracting its three no-triangle edges hits a
    5-wheel once and a 5-loop zig-zag twice."""
    return Graph((0,) * 7, (
        (1, 2), (1, 3), (1, 4), (2, 3), (2, 4),
        (3, 6), (4, 7), (6, 7), (5, 7), (5, 6),
        (2, 5),
    ))


def test_zero_classes():
    assert is_zero_class(wheel(4))
    assert not is_zero_class(wheel(3))
    assert not is_zero_class(wheel(5))
    assert not is_zero_class(zigzag(5))
    doubled = Graph((0, 0, 0, 0),
                    ((1, 2), (1, 2), (1, 3), (1, 4), (2, 3), (2, 4),
                     (3, 4), (3, 4)))
    assert is_zero_class(doubled)
    with pytest.raises(ComplexError):
        is_zero_class(banana(2))  # degree 2 < 3
    with pytest.raises(ComplexError):
        is_zero_class(Graph((0,), ((1, 1), (1, 1))))  # self-edges


def test_reduce_to_basis_signs():
    w3 = wheel(3)
    base = reduce_to_basis(w3)
    assert base is not None
    rot = w3.reordered_edges([2, 3, 1, 4, 5, 6])   # even permutation
    swap = w3.reordered_edges([2, 1, 3, 4, 5, 6])  # odd permutation
    b1 = reduce_to_basis(rot)
    b2 = reduce_to_basis(swap)
    assert b1[0] == base[0] == b2[0]
    assert b1[1] == base[1]
    assert b2[1] == -base[1]
    # multigraph: zero
    theta_like = Graph((0, 0, 0), ((1, 2), (1, 2), (1, 3), (2, 3), (1, 3),
                                   (2, 3)))
    assert reduce_to_basis(theta_like) is None


def test_zero_class_consistency():
    for g in (wheel(3), wheel(4), wheel(5), zigzag(4), zigzag(5)):
        assert is_zero_class(g) == (reduce_to_basis(g) is None)


def test_chain_vector_algebra():
    c = ChainVector.from_graph(wheel(3))
    assert not c.is_zero()
    assert (c - c).is_zero()
    assert c.scale(2).coeffs != c.coeffs
    assert (c + c) == c.scale(2)
    with pytest.raises(ComplexError):
        ChainVector({OrientedClass(canonical_form(wheel(3))[0]): Fraction(1),
                     OrientedClass(canonical_form(wheel(5))[0]): Fraction(1)})


def test_wheel_differentials_vanish():
    for n in (3, 5):
        assert differential(ChainVector.from_graph(wheel(n))).is_zero()


def test_triangle_rule_random_apexed_graphs(rng):
    """Graphs in which every edge lies in a triangle have d = 0: starting
    from a wheel, repeatedly glue an apex onto a random triangle."""
    for trial in range(20):
        g = wheel(3)
        for _ in range(rng.randint(1, 2)):
            # find triangles
            tris = []
            adj = {v: set() for v in range(1, g.nv + 1)}
            for u, v in g.edges:
                adj[u].add(v)
                adj[v].add(u)
            for a in range(1, g.nv + 1):
                for b in adj[a]:
                    if b <= a:
                        continue
                    for c in adj[a] & adj[b]:
                        if c > b:
                            tris.append((a, b, c))
            a, b, c = tris[rng.randrange(len(tris))]
            apex = g.nv + 1
            g = Graph(g.weights + (0,),
                      g.edges + ((a, apex), (b, apex), (c, apex)))
        assert differential(ChainVector.from_graph(g)).is_zero(), g


def test_eleven_edge_differential():
    ex = eleven_edge_example()
    assert ex.ne == 11 and ex.loop_number() == 5
    d = differential(ChainVector.from_graph(ex))
    w5 = ChainVector({OrientedClass(canonical_form(wheel(5))[0]): Fraction(1)})
    z5 = ChainVector({OrientedClass(canonical_form(zigzag(5))[0]): Fraction(1)})
    target = w5 - z5.scale(2)
    assert d == target or d == target.scale(-1)


def test_gc_basis_small():
    b36 = gc_basis(3, 6)
    assert len(b36) == 1
    assert are_isomorphic(b36[0].graph, wheel(3))
    assert gc_basis(2, 3) == []
    b510 = gc_basis(5, 10)
    assert len(b510) == 2
    names = {True: 0, False: 0}
    for oc in b510:
        names[are_isomorphic(oc.graph, wheel(5))] += 1
    assert names[True] == 1


def test_differential_matrix_shapes():
    m = differential_matrix(3, 6)
    assert m == {}  # d[W3] = 0
    # (6,15) -> (6,14) has the rank that gives H3 = 1 downstream


def test_differential_matrix_matches_every_edge_differential():
    """At every bigrade of loops 3-6 the matrix of d equals the one that the
    sum over every edge gives (each contraction reduced on its own through
    ``ChainVector.from_graph``), rows and columns in gc_basis order.  Every
    image lies in the target basis and every entry is an integer."""
    for loops in (3, 4, 5, 6):
        top = 3 * loops - 3
        bases = {n: gc_basis(loops, n) for n in range(loops, top + 1)}
        for n in range(loops + 1, top + 1):
            row = {oc: i for i, oc in enumerate(bases[n - 1])}
            expect = {}
            for j, oc in enumerate(bases[n]):
                for cls, c in _differential_by_every_edge(oc).coeffs.items():
                    assert c.denominator == 1, (oc.graph, cls.graph)
                    expect[row[cls], j] = c.numerator
            assert differential_matrix(loops, n) == expect, (loops, n)
        assert differential_matrix(loops, loops) == {}


def test_d_squared_zero_matrices():
    for loops in (3, 4, 5, 6):
        top = 3 * loops - 3
        sizes = {n: len(gc_basis(loops, n)) for n in range(loops, top + 1)}
        for n in range(loops + 2, top + 1):
            if not (sizes[n] and sizes[n - 1] and sizes[n - 2]):
                continue
            m1 = differential_matrix(loops, n)
            m0 = differential_matrix(loops, n - 1)
            a = np.zeros((sizes[n - 1], sizes[n]), dtype=object)
            b = np.zeros((sizes[n - 2], sizes[n - 1]), dtype=object)
            for (i, j), v in m1.items():
                a[i, j] = v
            for (i, j), v in m0.items():
                b[i, j] = v
            assert not (b @ a).any(), (loops, n)


def test_d_squared_on_random_chains(rng):
    for loops in (4, 5):
        for edges in range(loops + 2, 3 * loops - 2):
            basis = gc_basis(loops, edges)
            if not basis:
                continue
            coeffs = {oc: Fraction(rng.randint(-3, 3)) for oc in basis}
            c = ChainVector(coeffs)
            assert differential(differential(c)).is_zero(), (loops, edges)


def test_matrix_rank_cross_check():
    mat = {(0, 0): 2, (0, 1): 4, (1, 0): 1, (1, 1): 2, (2, 2): 7}
    assert matrix_rank(mat, 3, 3) == 2
    assert matrix_rank({}, 5, 5) == 0


def test_homology_table():
    assert homology_dims(3) == {0: 1}
    assert homology_dims(4) == {}
    assert homology_dims(5) == {0: 1}


def test_loop_seven_homology():
    """Loop 7: the basis sizes the multigraph level builder gives, and
    homology only in degree 0, where sigma_7 of grt_1 is the one class.
    Dimensions are read off one report, as ``homology_dims`` reads them."""
    rows = homology_report(7, max_loops=7)
    sizes = {r["edges"]: r["basis"] for r in rows}
    assert sizes == {**{e: 0 for e in range(7, 13)},
                     13: 10, 14: 75, 15: 170, 16: 186, 17: 109, 18: 29}
    assert {r["degree"]: r["homology"] for r in rows if r["homology"]} == \
        {0: 1}


@pytest.mark.skipif(os.environ.get("PERIODFORGE_STRETCH") != "1",
                    reason="set PERIODFORGE_STRETCH=1 to run loop 8 (minutes)")
def test_loop_eight_homology():
    """Loop 8 at 14-21 edges: homology in degree 0, the class [sigma_3,
    sigma_5], and in degree 3."""
    rows = homology_report(8, max_loops=8)
    by_edges = {r["edges"]: r for r in rows if r["edges"] >= 14}
    assert [by_edges[n]["basis"] for n in range(14, 22)] == \
        [16, 179, 879, 2328, 3491, 2926, 1261, 214]
    assert [by_edges[n]["rank"] for n in range(15, 22)] == \
        [16, 163, 715, 1613, 1878, 1047, 214]
    assert {r["degree"]: r["homology"] for r in rows if r["homology"]} == \
        {0: 1, 3: 1}


def test_homology_loop_bound():
    with pytest.raises(ComplexError):
        homology_dims(7)
    with pytest.raises(ComplexError):
        homology_dims(1)


def test_w3_spans_kernel_at_3_loops():
    rows = homology_report(3)
    top = [r for r in rows if r["edges"] == 6][0]
    assert top["basis"] == 1 and top["kernel"] == 1 and top["homology"] == 1


# _Search runs of one homology_report (138 and 1,336 while every bigrade
# grew its own augmentation tree and the differential searched every
# contraction again)
LOOP5_REPORT_SEARCHES = 92
LOOP6_REPORT_SEARCHES = 788


def test_homology_report_searches_each_graph_once(monkeypatch):
    """One pass down from the cubic top: the search that labels a
    contraction also gives its entry in d, so loop 5 searches no graph
    twice and the counts stay those of the pass."""
    searched: list[Graph] = []
    init = canonical._Search.__init__

    def counting(self, g):
        searched.append(g)
        init(self, g)

    monkeypatch.setattr(canonical._Search, "__init__", counting)
    homology_report(5)
    assert len(set(searched)) == len(searched)
    assert len(searched) <= LOOP5_REPORT_SEARCHES
    searched.clear()
    homology_report(6)
    assert len(searched) <= LOOP6_REPORT_SEARCHES


def _differential_by_every_edge(oc):
    """The alternating sum over every edge, with no orbit reduction."""
    out = ChainVector()
    for i in oc.graph.edge_ids:
        contracted = oc.graph.contract_edge(i)
        if not contracted.has_self_edge():
            out = out + ChainVector.from_graph(contracted, (-1) ** i)
    return out


@pytest.mark.parametrize("loops", [4, 5, 6])
def test_orbit_differential_matches_every_edge(loops):
    for n in range(loops + 1, 3 * loops - 2):
        for oc in gc_basis(loops, n):
            assert differential_of_class(oc) == \
                _differential_by_every_edge(oc), oc.graph
