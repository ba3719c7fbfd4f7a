import gc
import itertools
from fractions import Fraction

import numpy as np
import pytest

from periodforge.graphs import Graph, banana, wheel
from periodforge.polynomials import (Poly, PolynomialError, cycle_basis,
                                     generic_2x2, generic_matrix,
                                     generic_symmetric, graph_polynomial,
                                     laplacian)
from periodforge.forms import (BatchedGraphFormEvaluator, CycleIncidence,
                               FormError, FormEvaluator, FormSpec,
                               RationalForm, _PathArrays, _cycle_coefficients,
                               _invert_exact, _rank_one_terms,
                               _top_cycle_coefficient, _wedge_total,
                               canonical_form_numeric,
                               canonical_form_symbolic, graph_canonical_form)
from forms_oracle import dense_coefficients


def _display_form(nvars, n, coeff, det):
    """coeff * sum_i (-1)^i x_i dx_1 ^ ... omit i ... ^ dx_nvars / det^2."""
    numer = {}
    allv = frozenset(range(1, nvars + 1))
    for i in range(1, nvars + 1):
        numer[allv - {i}] = Poly.var(nvars, i).scale(coeff * (-1) ** i)
    return RationalForm(nvars, n, 2, numer, det, reduce=False)


def test_formspec_validation():
    FormSpec((5,))
    FormSpec((5, 9))
    with pytest.raises(FormError):
        FormSpec((3,))
    with pytest.raises(FormError):
        FormSpec((7,))
    with pytest.raises(FormError):
        FormSpec((9, 5))
    with pytest.raises(FormError):
        FormSpec(())
    assert FormSpec((5, 9, 13)).degree == 27
    assert FormSpec([np.int64(9)]).components == (9,)


@pytest.mark.parametrize("components, message", [
    ([9.9], "component 9.9 is not an integer"),
    (["5"], "component '5' is not an integer"),
    ([5, 9.0], "component 9.0 is not an integer"),
    ("59", "component '5' is not an integer"),
    (5, "must be a sequence of integers, got 5"),
    (None, "must be a sequence of integers, got None")])
def test_formspec_rejects_what_is_not_a_word(components, message):
    """A component that is not an integer is rejected, not rounded or
    parsed into another word, and a bare number is the layer's error, not
    a TypeError."""
    with pytest.raises(FormError, match=message):
        FormSpec(components)


def test_omega3_2x2_display():
    x = generic_2x2()
    f = canonical_form_symbolic(x, 3)
    assert f.k == 2
    assert f == _display_form(4, 3, 3, f.det)


def test_zero_form_has_k_zero_unreduced():
    """A form scaled to zero is the zero form, k = 0, though ``scale``
    skips the reduction."""
    f = canonical_form_symbolic(generic_symmetric(2), 1)
    assert f.k == 1
    zero = f.scale(0)
    assert zero.is_zero() and zero.k == 0
    assert zero == RationalForm(f.nvars, 1, 0, {}, f.det)


def test_omega5_symmetric_3x3_display_up_to_sign():
    """The trace form equals the worked display times -1; the overall sign
    of such displays is orientation convention (see the decisions notes),
    the coefficient 10 and the k = 2 reduction are the content."""
    x = generic_symmetric(3)
    f = canonical_form_symbolic(x, 5)
    assert f.k == 2
    display = _display_form(6, 5, 10, f.det)
    assert f == display.scale(-1)
    assert f != display


def test_omega5_sign_adjudicated_by_brute_force():
    """Antisymmetrised trace products, no shared wedge code."""
    x = generic_symmetric(3)
    f = canonical_form_symbolic(x, 5)
    pt = [Fraction(k, 7) for k in (9, 12, 5, 3, 2, 4)]
    from periodforge.forms import _coefficient_matrices, _invert_exact

    xp = x.evaluate(pt)
    xinv = _invert_exact(xp)
    mats = _coefficient_matrices(x)

    def mat_mul(a, b):
        return [[sum(a[i][k] * b[k][j] for k in range(3)) for j in range(3)]
                for i in range(3)]

    bmats = {v: mat_mul(xinv, mats[v]) for v in mats}
    subset = (1, 2, 3, 4, 5)
    total = Fraction(0)
    for sigma in itertools.permutations(range(5)):
        sgn, seen = 1, [False] * 5
        for i in range(5):
            if seen[i]:
                continue
            j, ln = i, 0
            while not seen[j]:
                seen[j] = True
                j = sigma[j]
                ln += 1
            if ln % 2 == 0:
                sgn = -sgn
        prod = [[Fraction(i == j) for j in range(3)] for i in range(3)]
        for k in range(5):
            prod = mat_mul(prod, bmats[subset[sigma[k]]])
        total += sgn * (prod[0][0] + prod[1][1] + prod[2][2])
    expected = f.evaluate_coefficient(subset, pt)
    assert total == expected


def test_even_vanishing():
    """The symbolic path returns the zero form for even n without
    computing it; the dense oracle's exterior-algebra products check that
    the rule holds."""
    cases = [(generic_2x2(), [Fraction(k, 3) for k in (4, 5, 1, 2)]),
             (generic_symmetric(3), [Fraction(k, 7) for k in (9, 12, 5, 3,
                                                               2, 4)])]
    for x, pt in cases:
        assert dense_coefficients(x, 1, pt)
        for n in (2, 4, 6):
            assert canonical_form_symbolic(x, n).is_zero()
            assert dense_coefficients(x, n, pt) == {}


def test_omega3_symmetric_vanishes():
    assert canonical_form_symbolic(generic_symmetric(2), 3).is_zero()
    assert canonical_form_symbolic(generic_symmetric(3), 3).is_zero()


def test_omega7_symmetric_4x4_vanishes_at_exact_points():
    """Degree 7 on 10 variables: full symbolic expansion is beyond desk
    budget, so the identity is checked exactly at deterministic rational
    points, over every one of the 120 wedge coefficients."""
    x = generic_symmetric(4)
    ev = FormEvaluator(x, chart=0)  # keep all ten differentials
    pts = [[Fraction(3 + ((7 * i + p) % 11), 4) for i in range(10)]
           for p in (0, 5)]
    for pt in pts:
        coeffs = ev.coefficients(7, pt)
        assert coeffs and all(c == 0 for c in coeffs.values())


def test_transpose_rule_symbolic():
    x2 = generic_2x2()
    f3 = canonical_form_symbolic(x2, 3)
    f3t = canonical_form_symbolic(x2.transpose(), 3)
    assert f3t == f3.scale(-1)  # (-1)^{3*2/2} = -1
    x3 = generic_matrix(3)
    f5 = canonical_form_symbolic(x3, 5)
    f5t = canonical_form_symbolic(x3.transpose(), 5)
    assert f5t == f5  # (-1)^{5*4/2} = +1


def test_closedness_symbolic():
    assert canonical_form_symbolic(generic_2x2(), 3).is_closed()
    assert canonical_form_symbolic(generic_symmetric(3), 5).is_closed()
    assert canonical_form_symbolic(generic_matrix(3), 5).is_closed()


def test_wedge_algebra():
    x = generic_symmetric(3)
    f = canonical_form_symbolic(x, 5)
    assert f.wedge(f).is_zero()  # odd degree
    g3 = canonical_form_symbolic(generic_2x2(), 3)
    sq = g3.wedge(g3)
    assert sq.is_zero()
    # degree additivity on a non-trivial wedge
    one_form = RationalForm(6, 1, 0,
                            {frozenset({1}): Poly.const(6, 1)}, f.det,
                            reduce=False)
    w = f.wedge(one_form)
    assert w.degree == 6
    with pytest.raises(FormError):
        f.wedge(canonical_form_symbolic(generic_2x2(), 3))


def test_graph_canonical_form_w3():
    w3 = wheel(3)
    f = graph_canonical_form(w3, FormSpec((5,)))
    assert f.k == 2
    # equals +10 * Omega-numerator / Psi^2 in this labelling
    psi_poly = f.det
    display = _display_form(6, 5, 10, psi_poly)
    assert f == display
    # and det is the graph polynomial
    from periodforge.polynomials import det_poly

    assert det_poly(laplacian(w3)) == graph_polynomial(w3)


def test_graph_form_degree_overflow():
    # sunrise has 3 edges; a 5-form on 3 variables is identically zero
    f = graph_canonical_form(banana(3), FormSpec((5,)))
    assert f.is_zero()
    # a tree has the empty Laplacian, so no differentials at all
    tree = Graph((0, 0), ((1, 2),))
    assert graph_canonical_form(tree, FormSpec((5,))).is_zero()


def test_numeric_matches_symbolic_exact():
    w3 = wheel(3)
    f = graph_canonical_form(w3, FormSpec((5,)))
    lam = laplacian(w3)
    pts = [[Fraction(2, 3), Fraction(5, 4), Fraction(1, 2), Fraction(3),
            Fraction(7, 5), Fraction(1)],
           [Fraction(1), Fraction(1), Fraction(1), Fraction(1), Fraction(1),
            Fraction(1)]]
    for pt in pts:
        sym = f.chart_top_coefficient(pt)
        num = canonical_form_numeric(lam, FormSpec((5,)), pt)
        assert sym == num


def test_numeric_at_float_point_is_its_exact_rational_value():
    lam = laplacian(wheel(3))
    coords = [0.7, 1.3, 0.4, 2.2, 0.9, 1.0]
    value = canonical_form_numeric(lam, FormSpec((5,)), coords)
    assert isinstance(value, Fraction)
    assert value == canonical_form_numeric(lam, FormSpec((5,)),
                                           [Fraction(c) for c in coords])


def test_bridge_word_is_zero_on_every_route():
    """Edge 3 is a bridge: it lies in no cycle, so no coefficient carries
    its differential and the top chart coefficient of omega5 is 0."""
    g = Graph((0, 0, 0, 0), ((1, 2), (1, 2), (2, 3), (1, 2), (3, 4), (3, 4)))
    spec = FormSpec((5,))
    pt = [Fraction(k, 7) for k in (3, 5, 2, 6, 4, 7)]
    assert canonical_form_numeric(laplacian(g), spec, pt) == 0
    assert graph_canonical_form(g, spec).chart_top_coefficient(pt) == 0
    batched = BatchedGraphFormEvaluator(g, spec)
    assert batched.evaluate(np.array([[float(c) for c in pt]]))[0] == 0


@pytest.mark.parametrize("bad", [float("inf"), float("nan")],
                         ids=["inf", "nan"])
def test_non_finite_coordinate_is_a_polynomial_error(bad):
    """A coordinate the Laplacian uses that is not finite raises the
    layer's error, naming the coordinate, not a bare OverflowError or
    ValueError from Fraction."""
    with pytest.raises(PolynomialError, match="x4 = (inf|nan)"):
        canonical_form_numeric(laplacian(wheel(3)), FormSpec((5,)),
                               [1, 1, 1, bad, 1, 1])


def test_symbolic_matches_dense_oracle():
    """Every coefficient of the symbolic form, at exact points, against the
    exterior-algebra products, which share no code with the subset DP."""
    cases = [
        (generic_2x2(), 3, [Fraction(k, 3) for k in (4, 5, 1, 2)]),
        (generic_matrix(3), 5, [Fraction(k, 3) for k in (5, 1, 2, 7, 4, -1,
                                                         3, 2, 8)]),
        (laplacian(wheel(3)), 5, [Fraction(k, 5) for k in (7, 3, 11, 4, 6,
                                                           5)]),
    ]
    for x, n, pt in cases:
        f = canonical_form_symbolic(x, n)
        dense = dense_coefficients(x, n, pt)
        keys = set(f.numer) | set(dense)
        assert dense and {s: f.evaluate_coefficient(s, pt) for s in keys} \
            == {s: dense.get(s, 0) for s in keys}


def test_numeric_matches_dense_oracle():
    """Graph Laplacian (one atom per variable), the symmetric family (two
    atoms per off-diagonal variable) and the general 3x3 family (a != b)."""
    sym_pt = [Fraction(k, 7) for k in (9, 12, 5, 3, 2, 4)]
    cases = [
        (laplacian(wheel(3)), 6, [Fraction(k, 5) for k in (7, 3, 11, 4, 6, 5)]),
        (generic_symmetric(3), 0, sym_pt),
        (generic_matrix(3), 0, [Fraction(k, 3) for k in (5, 1, 2, 7, 4, -1,
                                                         3, 2, 8)]),
    ]
    nonzero = []
    for x, chart, pt in cases:
        dense = dense_coefficients(x, 5, pt)
        mine = FormEvaluator(x, chart=chart).coefficients(5, pt)
        for s, val in mine.items():
            assert dense.get(s, Fraction(0)) == val
        for s, val in dense.items():
            if chart not in s:
                assert mine.get(s, Fraction(0)) == val
        nonzero.append({s: v for s, v in mine.items() if v})
    assert [len(c) for c in nonzero[1:]] == [6, 81]
    f = canonical_form_symbolic(generic_symmetric(3), 5)
    for s, val in nonzero[1].items():
        assert f.evaluate_coefficient(s, sym_pt) == val


def test_degree_one_matches_dense_oracle():
    """n = 1 has no extension step: each anchor atom's path closes at
    once.  The exact point evaluator and the symbolic form against the
    exterior-algebra oracle."""
    cases = [
        (generic_2x2(), [Fraction(k, 3) for k in (4, 5, 1, 2)]),
        (generic_symmetric(3), [Fraction(k, 7) for k in (9, 12, 5, 3, 2, 4)]),
        (laplacian(wheel(3)), [Fraction(k, 5) for k in (7, 3, 11, 4, 6, 5)]),
    ]
    for x, pt in cases:
        dense = dense_coefficients(x, 1, pt)
        mine = FormEvaluator(x, chart=0).coefficients(1, pt)
        assert dense and {s: v for s, v in mine.items() if v} == dense
        f = canonical_form_symbolic(x, 1)
        keys = set(f.numer) | set(dense)
        assert {s: f.evaluate_coefficient(s, pt) for s in keys} \
            == {s: dense.get(s, 0) for s in keys}


def test_projective_invariance_numeric(rng):
    lam = laplacian(wheel(3))
    ev = FormEvaluator(lam, chart=6)
    spec = FormSpec((5,))
    for _ in range(100):
        pt = [Fraction(rng.uniform(0.2, 3.0)) for _ in range(6)]
        lamb = Fraction(rng.uniform(0.3, 4.0))
        v1 = ev.word_top_coefficient(spec, pt)
        v2 = ev.word_top_coefficient(spec, [lamb * x for x in pt])
        # the top coefficient is homogeneous of degree -(nvars - 1)
        assert v2 == v1 / lamb ** 5


def test_bi_invariance_numeric(rng):
    """omega_{P^T X P} = omega_X for integer P with det +-1."""
    g = wheel(3)
    b = cycle_basis(g)
    spec = FormSpec((5,))
    base = FormEvaluator(laplacian(g, b), chart=6)
    h = b.rank
    for _ in range(10):
        p = [[1 if i == j else 0 for j in range(h)] for i in range(h)]
        for _ in range(4):
            i, j = rng.sample(range(h), 2)
            c = rng.choice([-1, 1, 2])
            for r in range(h):
                p[r][j] += c * p[r][i]
        ev2 = FormEvaluator(laplacian(g, b.transformed(p)), chart=6)
        for _ in range(10):
            pt = [rng.uniform(0.2, 2.5) for _ in range(6)]
            v1 = base.word_top_coefficient(spec, pt)
            v2 = ev2.word_top_coefficient(spec, pt)
            assert v1 == v2


def test_basis_independence_of_graph_form(rng):
    """The batched evaluator, on the fundamental basis, against the scalar
    evaluator on integer transforms of that basis, at the same point."""
    spec = FormSpec((5,))
    g = wheel(3)
    b = cycle_basis(g)
    h = b.rank
    pt = [0.7, 1.3, 0.4, 2.2, 0.9, 1.0]
    batched = float(BatchedGraphFormEvaluator(g, spec).evaluate(
        np.array([pt]))[0])
    bases = [b]
    for _ in range(4):
        p = [[1 if i == j else 0 for j in range(h)] for i in range(h)]
        for _ in range(3):
            i, j = rng.sample(range(h), 2)
            for r in range(h):
                p[r][j] += rng.choice([-1, 1]) * p[r][i]
        bases.append(b.transformed(p))
    for basis in bases:
        scalar = FormEvaluator(laplacian(g, basis)).word_top_coefficient(
            spec, pt)
        assert abs(scalar - batched) <= 1e-12 * abs(batched)


def test_incidence_kernels_are_unit(rng):
    """Every entry of the Laplacian and Gram kernels of the fundamental
    basis is 0 or +-1, so each product with a coordinate is exact."""
    from conftest import random_connected_graph, small_corpus
    from periodforge.graphs import complete, two_vertex_join, zigzag

    graphs = small_corpus() + [
        wheel(5), zigzag(8), complete(6), banana(6),
        two_vertex_join(wheel(3), 4, wheel(3), 4)]
    graphs += [random_connected_graph(rng, max_edges=12) for _ in range(40)]
    for g in graphs:
        inc = CycleIncidence(g)
        assert np.isin(inc.lap, (-1.0, 0.0, 1.0)).all(), g
        assert np.isin(inc.pair, (-1.0, 0.0, 1.0)).all(), g


def test_w5_omega9_two_term_display():
    """Pointwise: the degree-9 wheel form is 18(1/Psi^2 + 12 x1..x5/Psi^3)
    times the chart volume coefficient, up to the recorded overall sign."""
    g = wheel(5)
    ev = BatchedGraphFormEvaluator(g, FormSpec((9,)))
    rng = np.random.default_rng(11)
    xs = rng.uniform(0.3, 1.8, size=(8, 10))
    xs[:, 9] = 1.0
    vals = ev.evaluate(xs)
    psi = graph_polynomial(g).evaluate_floats(xs)
    spokes = xs[:, :5].prod(axis=1)
    display = 18.0 * (1.0 / psi ** 2 + 12.0 * spokes / psi ** 3)
    ratio = vals / display
    assert np.allclose(ratio, -1.0, rtol=1e-9)


def test_batched_matches_scalar_on_w5():
    g = wheel(5)
    spec = FormSpec((9,))
    batched = BatchedGraphFormEvaluator(g, spec)
    scalar = FormEvaluator(laplacian(g), chart=10)
    rng = np.random.default_rng(3)
    xs = rng.uniform(0.2, 2.0, size=(3, 10))
    xs[:, 9] = 1.0
    vals = batched.evaluate(xs)
    for i in range(3):
        ref = scalar.word_top_coefficient(spec, list(xs[i]))
        assert abs(vals[i] - ref) < 1e-9 * abs(ref)


def _dp_word(ev, xs):
    """The word at the rows of ``xs`` by the Gram, the subset DP of each
    component and the wedge split, whatever route ``ev.evaluate`` takes."""
    per = {n: _cycle_coefficients(n, ev.inc.gram(xs), ev.chart_vars,
                                  ev.atoms_of, _PathArrays(float))
           for n in set(ev.spec.components)}
    return _wedge_total(list(ev.spec.components), per,
                        frozenset(ev.chart_vars), np.zeros(xs.shape[0]))


def test_k6_wedge_identity_pointwise():
    """omega^5 ^ omega^9 on the K6 Laplacian, by the subset DP, equals
    (9!/8) prod x / Psi^3 times the chart volume coefficient, up to overall
    orientation."""
    from math import factorial

    from periodforge.graphs import complete

    k6 = complete(6)
    ev = BatchedGraphFormEvaluator(k6, FormSpec((5, 9)))
    rng = np.random.default_rng(4)
    xs = rng.uniform(0.4, 1.6, size=(3, 15))
    xs[:, 14] = 1.0
    vals = _dp_word(ev, xs)
    psi = graph_polynomial(k6).evaluate_floats(xs)
    prod = xs.prod(axis=1)
    display = factorial(9) / 8 * prod / psi ** 3
    ratio = vals / display
    assert np.allclose(np.abs(ratio), 1.0, rtol=1e-8)
    assert np.allclose(ratio, ratio[0], rtol=1e-8)  # consistent sign


def test_form_word_computes_for_wrong_loop_order():
    """A degree-9 word on a 10-edge graph with h != 5 evaluates without
    error (the integral vanishes downstream)."""
    g = banana(10)
    ev = BatchedGraphFormEvaluator(g, FormSpec((9,)))
    xs = np.full((2, 10), 1.0)
    xs[1, :5] = 0.4
    vals = ev.evaluate(xs)
    assert np.isfinite(vals).all()


def _reference_component_coefficients(chart_vars, n, gram, atoms_of):
    """The dict subset DP over a (sample, atom, atom) Gram tensor, with a
    fresh array per term, paths keyed by (mask, last atom) and extended
    one source path at a time: the oracle for the in-place
    destination-major DP."""
    B = gram.shape[0]
    out = {}
    for ai, anchor in enumerate(chart_vars):
        bigger = chart_vars[ai + 1:]
        if len(bigger) < n - 1:
            continue
        for alpha in atoms_of[anchor]:
            paths = {(0, alpha): np.ones(B)}
            for _ in range(n - 1):
                nxt = {}
                for (mask, last), val in paths.items():
                    for wi, w in enumerate(bigger):
                        bitw = 1 << wi
                        if mask & bitw:
                            continue
                        flips = bin(mask >> (wi + 1)).count("1")
                        for beta in atoms_of[w]:
                            term = val * gram[:, last, beta]
                            if flips % 2:
                                term = -term
                            key = (mask | bitw, beta)
                            if key in nxt:
                                nxt[key] = nxt[key] + term
                            else:
                                nxt[key] = term
                paths = nxt
            for (mask, last), val in paths.items():
                s = frozenset({anchor}) | {bigger[i]
                                           for i in range(len(bigger))
                                           if mask >> i & 1}
                acc = val * gram[:, last, alpha] * n
                if s in out:
                    out[s] = out[s] + acc
                else:
                    out[s] = acc
    return out


def _assert_gram_dp_matches_reference(variables, atoms_of, n, gt):
    ref = _reference_component_coefficients(variables, n,
                                            gt.transpose(2, 0, 1), atoms_of)
    got = _cycle_coefficients(n, gt, variables, atoms_of,
                              _PathArrays(gt.dtype))
    # the key order is not part of the result
    assert set(got) == set(ref)
    for s in ref:
        assert np.array_equal(got[s], ref[s]), sorted(s)


def _assert_dp_matches_reference(ev, n, xs):
    _assert_gram_dp_matches_reference(ev.chart_vars, ev.atoms_of, n,
                                      ev.inc.gram(xs))


def test_batched_dp_bit_identical_to_reference():
    """The sample-contiguous in-place DP repeats the oracle's floating-point
    operations element by element, so the coefficients agree exactly."""
    from periodforge.graphs import complete

    rng = np.random.default_rng(17)
    w3 = BatchedGraphFormEvaluator(wheel(3), FormSpec((5,)))
    xs = rng.dirichlet(np.ones(6), size=40)
    xs = np.vstack([xs, [[1, 1, 1, 1e-300, 1e-300, 1e-300]]])
    _assert_dp_matches_reference(w3, 5, xs)
    w5 = BatchedGraphFormEvaluator(wheel(5), FormSpec((9,)))
    _assert_dp_matches_reference(w5, 9, rng.dirichlet(np.ones(10), size=40))
    k6 = BatchedGraphFormEvaluator(complete(6), FormSpec((5, 9)))
    xs = rng.uniform(0.05, 2.0, size=(3, 15))
    _assert_dp_matches_reference(k6, 5, xs)
    _assert_dp_matches_reference(k6, 9, xs)


def test_float_dp_with_two_atoms_bit_identical_to_reference():
    """omega5 on the symmetric family (two atoms per off-diagonal
    variable) and the general 3x3 family (a != b), in floats on the
    rounded exact Gram at a batch of points: the same coefficients, bit for
    bit, as the reference."""
    rng = np.random.default_rng(19)
    for x in (generic_symmetric(3), generic_matrix(3)):
        ev = FormEvaluator(x, chart=0)
        _assert_gram_dp_matches_reference(ev.variables, ev.atoms_of, 5,
                                          _float_gram(ev, rng, 16))


def _float_gram(ev, rng, count):
    """The rounded exact Gram of ``ev`` at ``count`` random points, in
    (atom, atom, sample) layout."""
    x = ev.x
    pts = [list(rng.uniform(0.2, 2.0, x.nvars)) for _ in range(count)]
    return np.concatenate([ev._object_gram(_invert_exact(x.evaluate(pt)))
                           .astype(float) for pt in pts], axis=2)


@pytest.mark.parametrize("n", [1, 3])
def test_short_words_bit_identical_to_reference(n):
    """n = 1 closes each anchor path at once; n = 3 extends only the start
    mask before closing.  On the symmetric family, with two atoms per
    off-diagonal variable, the float DP repeats the reference bit for bit,
    and the exact DP matches the exterior-algebra oracle, whose omega3 is
    0 here: every term cancels exactly."""
    x = generic_symmetric(3)
    ev = FormEvaluator(x, chart=0)
    _assert_gram_dp_matches_reference(ev.variables, ev.atoms_of, n,
                                      _float_gram(ev, np.random.default_rng(
                                          37 + n), 16))
    pt = [Fraction(k, 7) for k in (9, 12, 5, 3, 2, 4)]
    mine = ev.coefficients(n, pt)
    assert {s: v for s, v in mine.items() if v} == dense_coefficients(x, n,
                                                                      pt)


def _hex_table(table):
    return {s: [float.hex(v) for v in val.tolist()] for s, val in
            table.items()}


@pytest.mark.parametrize("graph", ["W3", "W5", "K6"])
def test_depth_driver_bit_identical_to_stream(graph, monkeypatch):
    """On 5, 9 and 14 chart variables, at 1, 2 and ``_DEPTH_ROWS`` rows and
    for n = 1, 3, 5, 9, the depth-major driver gives ``_stream``'s
    coefficients bit for bit: on Dirichlet Grams, and on Grams of -1, -0.0,
    0 and 1, whose cancellations leave signed zeros."""
    from periodforge import forms
    from periodforge.graphs import complete

    g, spec = {"W3": (wheel(3), (5,)), "W5": (wheel(5), (9,)),
               "K6": (complete(6), (5, 9))}[graph]
    ev = BatchedGraphFormEvaluator(g, FormSpec(spec))
    rng = np.random.default_rng(53)
    for rows in (1, 2, forms._DEPTH_ROWS):
        signed = rng.integers(-1, 2, size=(g.ne, g.ne, rows)).astype(float)
        signed[rng.random(signed.shape) < 0.2] = -0.0
        for gt in (ev.inc.gram(rng.dirichlet(np.ones(g.ne), size=rows)),
                   signed):
            for n in (1, 3, 5, 9):
                depth = _cycle_coefficients(n, gt, ev.chart_vars,
                                            ev.atoms_of, _PathArrays(float))
                with monkeypatch.context() as m:
                    m.setattr(forms, "_DEPTH_ROWS", 0)
                    stream = _cycle_coefficients(n, gt, ev.chart_vars,
                                                 ev.atoms_of,
                                                 _PathArrays(float))
                assert _hex_table(depth) == _hex_table(stream), (rows, n)
                assert _hex_table(forms._by_depth(
                    n, gt, ev.chart_vars, ev.atoms_of)) == _hex_table(depth)


def test_top_word_constants_are_pinned():
    """The constants ``_top_word`` measures, as bits: K6, K6 with its edges
    reversed, and W3."""
    from periodforge.graphs import complete

    k6 = complete(6)
    got = [float.hex(BatchedGraphFormEvaluator(g, FormSpec(spec)).top[0])
           for g, spec in [(k6, (5, 9)),
                           (Graph(k6.weights, k6.edges[::-1]), (5, 9)),
                           (wheel(3), (5,))]]
    assert got == ["-0x1.6260000000021p+15", "0x1.6260000000014p+15",
                   "0x1.3fffffffffffdp+3"]


def test_k6_top_word_check_runs_by_depth(monkeypatch):
    """The two-row check of K6 omega5 ^ omega9 runs the DP one depth at a
    time, never ``_stream``, and leaves no path array in the evaluator's
    free list."""
    from periodforge import forms
    from periodforge.graphs import complete

    def refuse(*args):
        raise AssertionError("_stream entered")

    monkeypatch.setattr(forms, "_stream", refuse)
    ev = BatchedGraphFormEvaluator(complete(6), FormSpec((5, 9)))
    assert ev.top is not None
    assert ev.arrays.spare == []


def test_k6_evaluate_peak_memory():
    """The DP extends each mask as soon as its sources are done, so one
    500-row K6 omega5 ^ omega9 block by the DP holds a few thousand path
    arrays at once, not all 12,012 paths of a depth: about 23.5 MB traced
    peak, against 53.3 MB depth by depth."""
    import tracemalloc

    from periodforge.graphs import complete

    ev = BatchedGraphFormEvaluator(complete(6), FormSpec((5, 9)))
    xs = np.random.default_rng(41).dirichlet(np.ones(15), size=500)
    tracemalloc.start()
    try:
        _dp_word(ev, xs)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 30e6, peak


def test_non_finite_row_gets_nan_gram():
    """A flagged row with an infinite or NaN coordinate has no exact Gram:
    its value is NaN, not a rational repair or a 0, and the other rows of
    the batch are unaffected."""
    ev = BatchedGraphFormEvaluator(wheel(3), FormSpec((5,)))
    good = [0.2, 0.3, 0.1, 0.15, 0.15, 0.1]
    for bad in (np.inf, np.nan):
        xs = np.array([good, [1, 1, 1, bad, 1, 1.0], good])
        values = ev.evaluate(xs)
        assert np.isnan(values[1])
        assert np.isfinite(values[[0, 2]]).all()
        assert values[0] == values[2] == ev.evaluate(xs[:1])[0]


def test_non_finite_row_gets_nan_on_w5():
    """The same for omega9 on W5, whose half-path join reads every Gram
    entry of the row: NaN there, and elsewhere the values of a batch of the
    same length with no bad row.  (The Gram's matrix product may round
    differently for a batch of one to four rows, so the lengths match.)"""
    ev = BatchedGraphFormEvaluator(wheel(5), FormSpec((9,)))
    good = list(np.linspace(0.1, 0.3, 10))
    clean = ev.evaluate(np.array([good] * 3))
    for bad in (np.inf, np.nan):
        row = [1.0] * 10
        row[6] = bad
        values = ev.evaluate(np.array([good, row, good]))
        assert np.isnan(values[1])
        assert np.isfinite(values[[0, 2]]).all()
        assert values[0] == values[2] == clean[0]


@pytest.mark.parametrize("k, rows", [(3, 40), (5, 40), (7, 16)])
def test_half_path_join_matches_the_dp(k, rows):
    """omega_{2k-1} on the wheel W_k has one component, so its cycles can
    be closed by joining half paths: on the same Gram tensor that agrees
    with the full subset DP to rounding, on Dirichlet rows and, on W3, on a
    corner row that takes the exact Gram."""
    n = 2 * k - 1
    ev = BatchedGraphFormEvaluator(wheel(k), FormSpec((n,)))
    xs = np.random.default_rng(31 + k).dirichlet(np.ones(2 * k), size=rows)
    if k == 3:
        xs = np.vstack([xs, [[1, 1, 1, 1e-300, 1e-300, 1e-300]]])
    gt = ev.inc.gram(xs)
    dp = _cycle_coefficients(n, gt, ev.chart_vars, ev.atoms_of,
                             _PathArrays(float))
    want = dp[frozenset(ev.chart_vars)]
    got = _top_cycle_coefficient(n, gt, _PathArrays(float))
    assert np.all(np.abs(got - want) <= 1e-9 * np.abs(want))


def test_half_path_join_sum_order_is_pinned():
    """The W5 omega9 join on Grams computed exactly and rounded once (no
    BLAS), against golden bits: the half tables and the splits keep one
    sum order, which a change in mask order would move."""
    inc = CycleIncidence(wheel(5))
    rows = [[(e + r) / 16 for e in range(1, 11)] for r in range(4)]
    rows.append([2.0 ** (-3 * e) for e in range(1, 11)])
    gt = np.stack([inc._gram_exact(np.array(x)) for x in rows], axis=2)
    got = _top_cycle_coefficient(9, gt, _PathArrays(float))
    assert [float.hex(float(v)) for v in got] == [
        "-0x1.80f4e76f76797p+6", "-0x1.ebe62b45ac66ap+3",
        "-0x1.b590193cb0ceap+1", "-0x1.e7994c2c05811p-1",
        "-0x1.89003d36c80bbp+75"]


@pytest.mark.parametrize("k", [3, 5])
def test_half_path_join_matches_exact_evaluator(k):
    """The join against the exact evaluator's Fraction DP at three dyadic
    points, which floats hold exactly."""
    g = wheel(k)
    spec = FormSpec((2 * k - 1,))
    ev = BatchedGraphFormEvaluator(g, spec)
    exact = FormEvaluator(laplacian(g), chart=g.ne)
    pts = [[Fraction(1 + (3 * i + j) % 7, 8) for i in range(g.ne)]
           for j in range(3)]
    got = ev.evaluate(np.array(pts, dtype=float))
    for value, pt in zip(got, pts):
        want = exact.word_top_coefficient(spec, pt)
        assert abs(value - want) <= 1e-9 * abs(want), pt


def test_gram_matches_exact_gram():
    """The (edge, edge, sample) Gram from the batched inverse and the
    incidence product agrees with the rational Gram of each row.  The
    tolerance is relative to the row's largest entry: entries that are
    small by cancellation carry the conditioning of the Laplacian, whatever
    the order of the contraction."""
    from periodforge.graphs import complete

    rng = np.random.default_rng(23)
    for g, spec in [(wheel(3), (5,)), (wheel(5), (9,)),
                    (complete(6), (5, 9))]:
        ev = BatchedGraphFormEvaluator(g, FormSpec(spec))
        xs = rng.dirichlet(np.ones(g.ne), size=12)
        gt = ev.inc.gram(xs)
        assert gt.shape == (g.ne, g.ne, 12)
        for i in range(12):
            exact = ev.inc._gram_exact(xs[i])
            assert np.allclose(gt[:, :, i], exact, rtol=1e-12,
                               atol=1e-12 * np.abs(exact).max())


def test_log_psi_matches_exact_psi():
    """log Psi from the guarded LDL^T against the spanning-tree Psi at the
    same (float) points, on Dirichlet rows and on the tropical sampler's
    most skewed rows, where the Laplacian is worst conditioned."""
    import math

    from periodforge.graphs import two_vertex_join, zigzag
    from periodforge.tropical import (TropicalSampler, build_measure,
                                      simplex_sample)

    rng = np.random.default_rng(29)
    for g in [wheel(3), zigzag(5), zigzag(8),
              two_vertex_join(wheel(3), 4, wheel(3), 4)]:
        inc = CycleIncidence(g)
        psi = graph_polynomial(g)
        sampler = TropicalSampler(build_measure(g, k=2))
        drawn, _ = simplex_sample(rng, 2000, sampler)
        logs = np.log(drawn)
        skewed = np.argsort(logs.max(axis=1) - logs.min(axis=1))[-5:]
        xs = np.vstack([rng.dirichlet(np.ones(g.ne), size=20),
                        drawn[skewed]])
        logpsi, inv, bad = inc.factor(xs)
        assert inv is None and not bad.any()
        for x, got in zip(xs, logpsi):
            exact = psi.evaluate([Fraction(float(c)) for c in x])
            want = math.log(exact.numerator) - math.log(exact.denominator)
            assert abs(math.expm1(got - want)) <= 1e-9


def test_batched_exact_gram_row():
    """A corner row whose Laplacian is singular in floats goes through the
    exact Gram and still yields finite coefficients by the half-path
    join."""
    ev = BatchedGraphFormEvaluator(wheel(3), FormSpec((5,)))
    xs = np.array([[0.2, 0.3, 0.1, 0.15, 0.15, 0.1],
                   [1, 1, 1, 1e-300, 1e-300, 1e-300]])
    calls = []
    exact = ev.inc._gram_exact
    ev.inc._gram_exact = lambda x: calls.append(x) or exact(x)
    vals = _top_cycle_coefficient(5, ev.inc.gram(xs), _PathArrays(float))
    assert len(calls) == 1
    assert np.isfinite(vals).all()


@pytest.mark.parametrize("which", ["W3", "K6", "K6 reversed"])
def test_top_word_closed_form_matches_the_dp(which):
    """W3 omega5 and K6 omega5 ^ omega9 are top words, evaluated as c x_|E|
    (prod x)^p / Psi^k: on random and Dirichlet rows that agrees with the
    subset DP to 1e-10.  Reversing K6's edge order flips the orientation,
    so its constant is the opposite of K6's."""
    from periodforge.graphs import complete

    k6 = complete(6)
    g, spec = {"W3": (wheel(3), (5,)), "K6": (k6, (5, 9)),
               "K6 reversed": (Graph(k6.weights, k6.edges[::-1]),
                               (5, 9))}[which]
    ev = BatchedGraphFormEvaluator(g, FormSpec(spec))
    assert ev.top is not None
    rng = np.random.default_rng(43)
    xs = np.vstack([rng.uniform(0.05, 2.0, size=(20, g.ne)),
                    rng.dirichlet(np.ones(g.ne), size=20)])
    want = _dp_word(ev, xs)
    got = ev.evaluate(xs)
    assert np.all(np.abs(got - want) <= 1e-10 * np.abs(want))
    if which == "K6 reversed":
        forward = BatchedGraphFormEvaluator(k6, FormSpec(spec))
        assert ev.top[0] == pytest.approx(-forward.top[0], rel=1e-12)


def test_top_word_corner_and_non_finite_rows():
    """The closed form is finite on the corner row where Psi^2 alone
    overflows, raises no warning, and is NaN on rows with an infinite or
    NaN coordinate."""
    import warnings

    ev = BatchedGraphFormEvaluator(wheel(3), FormSpec((5,)))
    xs = np.array([[1, 1, 1, 1e-300, 1e-300, 1e-300],
                   [1, 1, 1, np.inf, 1, 1.0], [1, 1, 1, np.nan, 1, 1.0],
                   [0.2, 0.3, 0.1, 0.15, 0.15, 0.1]])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        values = ev.evaluate(xs)
    assert np.isfinite(values[[0, 3]]).all()
    assert np.isnan(values[[1, 2]]).all()
    assert values[0] == pytest.approx(_dp_word(ev, xs[:1])[0], rel=1e-10)


def test_zero_top_words_keep_the_dp():
    """C4 with two doubled edges and K6 with one edge doubled pass the edge
    and vertex count of a top word, but the word is identically zero: the
    DP leaves only rounding noise at the two constant rows, whose ratios
    disagree, so both keep the DP.  Its values stay at rounding size
    against the nonzero top word of the same shape, 10 / Psi^2 and 45,360
    x_|E| prod x / Psi^3."""
    from periodforge.graphs import complete

    c4 = Graph((0,) * 4, ((1, 2), (1, 2), (2, 3), (2, 3), (3, 4), (4, 1)))
    k6 = complete(6)
    doubled = Graph(k6.weights, (k6.edges[1],) + k6.edges[1:])
    rng = np.random.default_rng(47)
    for g, spec in [(c4, (5,)), (doubled, (5, 9))]:
        ev = BatchedGraphFormEvaluator(g, FormSpec(spec))
        assert ev.top is None, g
        xs = rng.dirichlet(np.ones(g.ne), size=8)
        psi = graph_polynomial(g).evaluate_floats(xs)
        scale = (10 / psi ** 2 if g.ne == 6 else
                 45360 * xs[:, -1] * xs.prod(axis=1) / psi ** 3)
        got = ev.evaluate(xs)
        assert np.all(np.abs(got) <= 1e-9 * scale)


def test_rank_one_terms_sum_to_the_matrix():
    """The split has one term per rank and its outer products add up to
    the matrix, exactly."""
    rng = np.random.default_rng(5)
    for m, rank in ((1, 1), (3, 1), (3, 2), (4, 4), (4, 0)):
        prod = np.zeros((m, m), dtype=int)
        while np.linalg.matrix_rank(prod) < rank:
            prod = (rng.integers(-3, 4, size=(m, rank))
                    @ rng.integers(-3, 4, size=(rank, m)))
        mat = [[Fraction(int(v)) for v in row] for row in prod]
        terms = _rank_one_terms(mat)
        assert len(terms) == rank
        assert [[sum(col[i] * row[j] for col, row in terms)
                 for j in range(m)] for i in range(m)] == mat


def test_batched_evaluate_leaves_no_reference_cycles():
    """The word split holds the coefficient tables of every component; a
    cycle through it would keep them alive until the cyclic collector runs."""
    ev = BatchedGraphFormEvaluator(wheel(3), FormSpec((5,)))
    xs = np.random.default_rng(2).dirichlet(np.ones(6), size=64)
    gc.collect()
    gc.disable()
    try:
        ev.evaluate(xs)
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_scalar_word_leaves_no_reference_cycles():
    x = laplacian(wheel(3), cycle_basis(wheel(3)))
    point = [0.2, 0.3, 0.1, 0.15, 0.15, 0.1]
    gc.collect()
    gc.disable()
    try:
        canonical_form_numeric(x, FormSpec((5,)), point)
        assert gc.collect() == 0
    finally:
        gc.enable()
