import random
from fractions import Fraction

import pytest

from periodforge.graphs import (Graph, _root, banana, complete,
                                complete_bipartite, cycle, dumbbell, wheel,
                                zigzag)
from periodforge.polynomials import (CycleBasis, LinearFormMatrix, Poly,
                                     PolynomialError,
                                     contraction_deletion_split, cycle_basis,
                                     det_poly, divergent_subgraphs,
                                     generic_2x2, generic_symmetric,
                                     graph_polynomial, laplacian, explicit_basis,
                                     spanning_trees, validate_cycle_basis)
from conftest import dunce_graph, labelled_w3, random_connected_graph


def ml(nvars, *monomials):
    """Sum of the unit monomials over the given edge-id sets."""
    return sum((Poly.monomial(nvars, m) for m in monomials), Poly.zero(nvars))


def lin(nvars, coeffs):
    """The linear form sum c x_e over {e: c}."""
    return sum((Poly.var(nvars, e).scale(c) for e, c in coeffs.items()),
               Poly.zero(nvars))


def test_psi_sunrise():
    assert graph_polynomial(banana(3)) == ml(3, {1, 2}, {1, 3}, {2, 3})


def test_psi_dunce():
    got = graph_polynomial(dunce_graph())
    assert got == ml(4, {3, 4}, {2, 4}, {1, 4}, {2, 3}, {1, 3})


def test_psi_ngon():
    for n in range(1, 11):
        assert graph_polynomial(cycle(n)) == \
            ml(n, *({i} for i in range(1, n + 1)))


def test_psi_w3():
    p = graph_polynomial(wheel(3))
    assert len(p.coeffs) == 16
    assert all(c == 1 for c in p.coeffs.values())
    assert p.degrees() == {3}


def test_psi_zero_cases():
    disconnected = Graph((0, 0, 0, 0), ((1, 2), (3, 4)))
    assert graph_polynomial(disconnected).is_zero()
    tree = Graph((0, 0), ((1, 2),))
    assert graph_polynomial(tree) == Poly.const(1, 1)


def test_homogeneity(corpus):
    for g in corpus:
        p = graph_polynomial(g)
        if not p.is_zero():
            assert p.degrees() == {g.loop_number()}, g


def test_psi_term_counts_match_closed_forms():
    """Psi has one unit term per spanning tree; count the trees by formula."""
    for n in range(3, 8):                       # Cayley: n^(n-2)
        assert len(graph_polynomial(complete(n)).coeffs) == n ** (n - 2)
    lucas = [2, 1]
    while len(lucas) <= 16:
        lucas.append(lucas[-1] + lucas[-2])
    for n in range(3, 9):                       # wheels: L_2n - 2
        assert len(graph_polynomial(wheel(n)).coeffs) == lucas[2 * n] - 2
    for m, n in ((3, 3), (4, 4)):               # K_m,n: m^(n-1) n^(m-1)
        p = graph_polynomial(complete_bipartite(m, n))
        assert len(p.coeffs) == m ** (n - 1) * n ** (m - 1)


def test_cycle_basis_shapes():
    b = cycle_basis(banana(2))
    assert b.rank == 1
    (vec,) = b.as_dicts()
    assert sorted(vec.values(), key=abs) in ([1, -1], [-1, 1]) or \
        sorted(map(abs, vec.values())) == [1, 1]
    assert cycle_basis(banana(3)).rank == 2
    tree = Graph((0, 0, 0), ((1, 2), (2, 3)))
    assert cycle_basis(tree).rank == 0
    # self-edges form their own cycles
    b = cycle_basis(dumbbell())
    assert {tuple(v.items()) for v in b.as_dicts()} == {((1, 1),), ((3, 1),)}


def test_cycle_basis_validation():
    g = banana(3)
    validate_cycle_basis(g, cycle_basis(g))
    with pytest.raises(PolynomialError):
        validate_cycle_basis(g, explicit_basis([{1: 1, 2: 1}], 3))  # not a cycle
    with pytest.raises(PolynomialError):
        validate_cycle_basis(g, explicit_basis([{1: 1, 2: -1}], 3))  # rank 1 < 2


def test_sunrise_laplacian_display():
    # basis c1 = e1 - e2, c2 = e2 - e3 reproduces the worked 2x2 matrix
    g = banana(3)
    b = explicit_basis([{1: 1, 2: -1}, {2: 1, 3: -1}], 3)
    lam = laplacian(g, b)
    assert lam.entries[0][0] == lin(3, {1: 1, 2: 1})
    assert lam.entries[0][1] == lin(3, {2: -1})
    assert lam.entries[1][1] == lin(3, {2: 1, 3: 1})
    # the (2,2) entry is x2 + x3: with x1 + x3 there the determinant would
    # not reproduce the graph polynomial
    assert det_poly(lam) == graph_polynomial(g)
    wrong = ((lin(3, {1: 1, 2: 1}), lin(3, {2: -1})),
             (lin(3, {2: -1}), lin(3, {1: 1, 3: 1})))
    bad = LinearFormMatrix(wrong, 3, symmetric=True)
    psi_as_poly = Poly(3, {(1, 1, 0): 1, (1, 0, 1): 1, (0, 1, 1): 1})
    assert det_poly(bad) != psi_as_poly


def test_w3_laplacian_display():
    g = labelled_w3()
    b = explicit_basis([{1: 1, 2: -1, 6: -1},
                     {1: -1, 3: 1, 5: 1},
                     {2: 1, 3: -1, 4: -1}], 6)
    lam = laplacian(g, b)
    assert lam.entries[0][0] == lin(6, {1: 1, 2: 1, 6: 1})
    assert lam.entries[1][1] == lin(6, {1: 1, 3: 1, 5: 1})
    assert lam.entries[2][2] == lin(6, {2: 1, 3: 1, 4: 1})
    assert lam.entries[0][1] == lin(6, {1: -1})
    assert lam.entries[0][2] == lin(6, {2: -1})
    assert lam.entries[1][2] == lin(6, {3: -1})
    d = det_poly(lam)
    assert d == graph_polynomial(g)
    assert len(d.coeffs) == 16


def test_bubble_laplacian():
    lam = laplacian(banana(2))
    assert lam.size == 1
    assert det_poly(lam) == ml(2, {1}, {2})


def test_det_1x1():
    m = LinearFormMatrix(((lin(2, {1: 1, 2: 1}),),), 2)
    assert det_poly(m) == ml(2, {1}, {2})
    with pytest.raises(PolynomialError):
        LinearFormMatrix(((Poly.monomial(2, (1, 2)),),), 2)  # degree 2
    with pytest.raises(PolynomialError):
        LinearFormMatrix(((Poly.var(3, 1),),), 2)  # wrong variable count


def test_det_poly_general_swaps_rows_on_a_zero_pivot():
    """det [[0, x1], [x2, x3]] = -x1 x2, and a zero on the diagonal only
    after the first Bareiss step: det [[x1, 0, 0], [0, 0, x2], [0, x3, 0]]
    = -x1 x2 x3."""
    def mat(rows, nvars):
        return LinearFormMatrix(tuple(tuple(lin(nvars, {v: 1} if v else {})
                                            for v in row) for row in rows),
                                nvars)

    assert det_poly(mat(((0, 1), (2, 3)), 3)) == \
        Poly(3, {(1, 1, 0): -1})
    assert det_poly(mat(((1, 0, 0), (0, 0, 2), (0, 3, 0)), 3)) == \
        Poly(3, {(1, 1, 1): -1})


def test_matrix_tree_on_corpus(corpus):
    for g in corpus:
        assert det_poly(laplacian(g)) == graph_polynomial(g), g


def test_matrix_tree_random_graphs(rng):
    for _ in range(60):
        g = random_connected_graph(rng)
        assert det_poly(laplacian(g)) == graph_polynomial(g), g


def test_matrix_tree_unimodular_basis_changes(rng):
    for g in (wheel(3), wheel(4), banana(4), zigzag(4)):
        b = cycle_basis(g)
        h = b.rank
        for _ in range(10):
            p = [[1 if i == j else 0 for j in range(h)] for i in range(h)]
            for _ in range(5):
                i, j = rng.sample(range(h), 2)
                c = rng.choice([-2, -1, 1, 2])
                for r in range(h):
                    p[r][j] += c * p[r][i]
            b2 = b.transformed(p)
            lam2 = laplacian(g, b2)
            assert det_poly(lam2) == graph_polynomial(g)


def test_laplacian_congruence(rng):
    """laplacian transforms as P^T Lambda P under basis change."""
    g = wheel(4)
    b = cycle_basis(g)
    h = b.rank
    p = [[1 if i == j else 0 for j in range(h)] for i in range(h)]
    for _ in range(4):
        i, j = rng.sample(range(h), 2)
        for r in range(h):
            p[r][j] += p[r][i]
    lam = laplacian(g, b)
    lam2 = laplacian(g, b.transformed(p))
    point = [Fraction(rng.randint(1, 30), rng.randint(1, 7))
             for _ in g.edge_ids]
    a = lam.evaluate(point)
    a2 = lam2.evaluate(point)
    ptap = [[sum(p[k][i] * a[k][l] * p[l][j] for k in range(h)
                 for l in range(h)) for j in range(h)] for i in range(h)]
    assert a2 == ptap


def test_contraction_deletion_split_examples():
    g = banana(3)
    d, c = contraction_deletion_split(g, 2)
    assert d == ml(3, {1}, {3})
    assert c == ml(3, {1, 3})
    # bridge deletion disconnects: first component zero
    bridge = Graph((0, 0, 0), ((1, 2), (2, 3), (2, 3)))
    d, c = contraction_deletion_split(bridge, 1)
    assert d.is_zero()
    # self-edge contraction is the zero graph
    d, c = contraction_deletion_split(dumbbell(), 1)
    assert c.is_zero()


def test_contraction_deletion_identity(corpus, rng):
    graphs = list(corpus) + [random_connected_graph(rng, max_edges=8)
                             for _ in range(30)]
    for g in graphs:
        if g.ne > 10:
            continue
        psi = graph_polynomial(g)
        for e in g.edge_ids:
            d, c = contraction_deletion_split(g, e)
            assert d * Poly.var(g.ne, e) + c == psi, (g, e)
            # psi is linear in x_e
            assert psi.derivative(e) == d, (g, e)


def test_positivity(rng):
    for g in (wheel(3), banana(4), zigzag(4)):
        psi = graph_polynomial(g)
        for _ in range(20):
            point = [Fraction(rng.randint(1, 50), rng.randint(1, 9))
                     for _ in g.edge_ids]
            assert psi.evaluate(point) > 0


def test_divergent_subgraphs():
    assert (3, 4) in divergent_subgraphs(dunce_graph())
    assert len(divergent_subgraphs(banana(3))) == 3
    assert divergent_subgraphs(wheel(3)) == []
    assert divergent_subgraphs(wheel(4)) == []
    assert divergent_subgraphs(zigzag(5)) == []


def _reference_loop_number(g, edge_subset):
    """Loop number of one edge subset by union-find."""
    verts = set()
    for e in edge_subset:
        verts.update(g.endpoints(e))
    idx = {v: i for i, v in enumerate(verts)}
    parent = list(range(len(verts)))
    comps = len(verts)
    for e in edge_subset:
        u, v = g.endpoints(e)
        ru, rv = _root(parent, idx[u]), _root(parent, idx[v])
        if ru != rv:
            parent[ru] = rv
            comps -= 1
    return len(edge_subset) - len(verts) + comps


def _reference_divergent_subgraphs(g):
    out = []
    for mask in range(1, (1 << g.ne) - 1):
        subset = [e for e in g.edge_ids if mask >> (e - 1) & 1]
        if len(subset) <= 2 * _reference_loop_number(g, subset):
            out.append(tuple(subset))
    out.sort(key=lambda s: (len(s), s))
    return out


def test_divergent_subgraphs_match_reference():
    chain = Graph((0, 0, 0), ((1, 2), (1, 2), (2, 3), (2, 3)))
    self_edges = Graph((0, 0), ((1, 1), (1, 2), (1, 2), (2, 2)))
    for g in (dunce_graph(), banana(3), wheel(4), zigzag(5), chain,
              self_edges, complete(5)):
        assert divergent_subgraphs(g) == _reference_divergent_subgraphs(g)


def test_poly_division_and_derivative():
    p = Poly(3, {(1, 1, 0): 2, (0, 0, 2): 1})
    q = Poly(3, {(1, 0, 0): 1, (0, 1, 0): 3})
    assert (p * q).divide_exact(q) == p
    assert (p * q).divide_exact(p) == q
    assert (p * q + Poly.const(3, 1)).divide_exact(q) is None
    d = p.derivative(3)
    assert d == Poly(3, {(0, 0, 1): 2})


def test_poly_arithmetic_needs_one_ring():
    """+, - and * of polynomials in different numbers of variables raise
    PolynomialError; - takes a scalar on either side, as + does."""
    x1, x3 = Poly.var(2, 1), Poly.var(3, 3)
    for op in (lambda a, b: a + b, lambda a, b: a - b, lambda a, b: a * b):
        with pytest.raises(PolynomialError, match="2 and 3 variables"):
            op(x1, x3)
        with pytest.raises(PolynomialError, match="3 and 2 variables"):
            op(x3, x1)
    assert x1 - 1 == Poly(2, {(1, 0): 1, (0, 0): -1})
    assert 1 - x1 == Poly(2, {(1, 0): -1, (0, 0): 1})
    assert Fraction(1, 2) - x1 + x1 == Poly.const(2, Fraction(1, 2))
    assert 2 * x1 - x1 * 2 == Poly.zero(2)


def test_poly_evaluate_floats():
    import numpy as np

    xs = np.array([[0.3, 1.7, 0.9], [2.5, 0.1, 1e-3]])
    p = Poly(3, {(2, 0, 1): 3, (0, 1, 0): Fraction(-1, 2), (0, 0, 0): 5})
    for x, got in zip(xs, p.evaluate_floats(xs)):
        want = p.evaluate([Fraction(c) for c in x])
        assert got == pytest.approx(float(want), rel=1e-14)
    # a term multiplies its variables in ascending order, one factor per power
    mono = Poly.monomial(3, [3, 1, 1], 12)
    assert mono.evaluate_floats(xs).tolist() == \
        [12.0 * x[0] * x[0] * x[2] for x in xs.tolist()]
    # an index outside x1..x3 would otherwise wrap round to another variable
    for bad in (0, 4):
        with pytest.raises(PolynomialError):
            Poly.var(3, bad)


def test_multilinear_output_formats():
    p = graph_polynomial(banana(3))
    assert p.to_text() == "x1*x2 + x1*x3 + x2*x3"
    assert p.to_json() == [[1, [1, 2]], [1, [1, 3]], [1, [2, 3]]]
    assert Poly.zero(1).to_text() == "0"
    assert Poly.monomial(1, [1], 2).to_text() == "2*x1"
    q = Poly(3, {(0, 0, 0): Fraction(1, 2), (0, 2, 1): -3, (1, 0, 0): -1})
    assert q.to_text() == "1/2 - x1 - 3*x2^2*x3"
    assert repr(q) == "Poly(1/2 - x1 - 3*x2^2*x3)"
    assert q.terms() == [(Fraction(1, 2), ()), (-1, (1,)), (-3, (2, 2, 3))]
    assert q.degrees() == {0, 1, 3}


def test_generic_det_not_multilinear():
    x = generic_2x2()
    det = det_poly(x)
    # x1 x2 - x3 x4
    assert det == Poly(4, {(1, 1, 0, 0): 1, (0, 0, 1, 1): -1})
    assert det_poly(generic_symmetric(2)).to_text() == "x1*x2 - x3^2"
