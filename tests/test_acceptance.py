"""Acceptance suite.

One test per criterion; each prints a PASS/FAIL line (run with -s to see
them).  Monte-Carlo criteria use fixed seeds, 3 standard errors plus a
0.5% systematic floor; exact criteria are equality checks.
"""

import math
import random
from fractions import Fraction

import mpmath as mp
import numpy as np
import pytest

from periodforge.graphs import (Graph, banana, complete, completion, cycle,
                                decompletions, enumerate_stable_weighted,
                                two_vertex_join, wheel, zigzag)
from periodforge.canonical import are_isomorphic
from periodforge.polynomials import (Poly, cycle_basis,
                                     det_poly, divergent_subgraphs,
                                     generic_2x2, generic_symmetric,
                                     graph_polynomial, laplacian, explicit_basis)
from periodforge.forms import (FormEvaluator, FormSpec, RationalForm,
                               canonical_form_symbolic)
from periodforge.engine import (Integrand, integrate, integrate_canonical,
                                integrate_residue, monomial_integrand,
                                residue_integrand, tolerance)
from periodforge.graphcomplex import (differential_matrix, gc_basis,
                                      homology_dims, matrix_rank)
from periodforge.voronoi import (cone_membership, minimal_vectors,
                                 principal_form_g2, torelli_point,
                                 voronoi_cell)
from periodforge.zeta import zeta, zeta2, pi
from conftest import dunce_graph, random_connected_graph


def report(name: str, ok: bool, detail: str = ""):
    print(f"{'PASS' if ok else 'FAIL'}  {name}" + (f"  ({detail})" if detail else ""))
    assert ok, f"{name}: {detail}"


def _mc_check(name, est, target, use_abs=True):
    mean = abs(est.mean) if use_abs and target > 0 else est.mean
    tol = tolerance(target, est.stderr)
    detail = f"{mean:.6g} vs {target:.6g}, tol {tol:.3g}"
    report(name, abs(mean - target) <= tol, detail)


def ml(nvars, *monomials):
    """Sum of the unit monomials over the given edge-id sets."""
    return sum((Poly.monomial(nvars, m) for m in monomials), Poly.zero(nvars))


# -- 1. graph polynomial identities -----------------------------------------

def test_criterion_01_psi_identities():
    ok = graph_polynomial(banana(3)) == ml(3, {1, 2}, {1, 3}, {2, 3})
    ok &= graph_polynomial(dunce_graph()) == \
        ml(4, {3, 4}, {2, 4}, {1, 4}, {2, 3}, {1, 3})
    for n in range(1, 11):
        ok &= graph_polynomial(cycle(n)) == \
            ml(n, *({i} for i in range(1, n + 1)))
    p3 = graph_polynomial(wheel(3))
    ok &= len(p3.coeffs) == 16 and all(c == 1 for c in p3.coeffs.values())
    report("criterion 1: psi identities (sunrise, dunce, n-gons, W3)", ok)


# -- 2/3. matrix-tree, contraction-deletion, restriction --------------------

def _acceptance_corpus():
    graphs = [banana(n) for n in range(2, 8)]
    graphs += [cycle(n) for n in range(1, 9)]
    graphs += [wheel(3), wheel(4), zigzag(3), zigzag(4), complete(4),
               dunce_graph()]
    from periodforge.graphs import complete_bipartite, dumbbell

    graphs += [complete_bipartite(2, 2), complete_bipartite(2, 3),
               complete_bipartite(3, 3), dumbbell()]
    graphs = [g for g in graphs if g.ne <= 9]
    rng = random.Random(424242)
    graphs += [random_connected_graph(rng, max_edges=9) for _ in range(500)]
    return graphs


def test_criterion_02_matrix_tree():
    corpus = _acceptance_corpus()
    bad = 0
    for g in corpus:
        if det_poly(laplacian(g)) != graph_polynomial(g):
            bad += 1
    report("criterion 2: det Laplacian = psi on builders + 500 random graphs",
           bad == 0, f"{len(corpus)} graphs, {bad} failures")


def test_criterion_03_contraction_deletion_and_restriction():
    from periodforge.polynomials import contraction_deletion_split

    corpus = _acceptance_corpus()
    bad = 0
    for g in corpus:
        psi = graph_polynomial(g)
        for e in g.edge_ids:
            d, c = contraction_deletion_split(g, e)
            # psi = d x_e + c, and setting x_e = 0 leaves c
            at_zero = Poly(g.ne, {k: v for k, v in psi.coeffs.items()
                                  if not k[e - 1]})
            if d * Poly.var(g.ne, e) + c != psi or at_zero != c:
                bad += 1
    report("criterion 3: contraction-deletion + restriction exact",
           bad == 0, f"{len(corpus)} graphs")


# -- 4. symbolic canonical forms ---------------------------------------------

def test_criterion_04_symbolic_forms():
    x2 = generic_2x2()
    f3 = canonical_form_symbolic(x2, 3)
    disp3 = {}
    for i in range(1, 5):
        disp3[frozenset({1, 2, 3, 4}) - {i}] = Poly.var(4, i).scale(3 * (-1) ** i)
    ok3 = f3.k == 2 and f3 == RationalForm(4, 3, 2, disp3, f3.det, reduce=False)

    s3 = generic_symmetric(3)
    f5 = canonical_form_symbolic(s3, 5)
    disp5 = {}
    for i in range(1, 7):
        disp5[frozenset(range(1, 7)) - {i}] = Poly.var(6, i).scale(10 * (-1) ** i)
    display5 = RationalForm(6, 5, 2, disp5, f5.det, reduce=False)
    # the trace form equals the display times -1 (recorded sign convention)
    ok5 = f5.k == 2 and f5 == display5.scale(-1)

    ok_even = all(canonical_form_symbolic(x2, n).is_zero() and
                  canonical_form_symbolic(s3, n).is_zero() for n in (2, 4, 6))
    ok_sym3 = canonical_form_symbolic(s3, 3).is_zero() and \
        canonical_form_symbolic(generic_symmetric(2), 3).is_zero()
    # omega^7 of a symmetric 4x4: exact vanishing at deterministic points
    ev7 = FormEvaluator(generic_symmetric(4), chart=0)
    pts = [[Fraction(3 + ((7 * i + p) % 11), 4) for i in range(10)]
           for p in (0, 5)]
    ok7 = all(all(c == 0 for c in ev7.coefficients(7, pt).values())
              for pt in pts)
    ok_t = canonical_form_symbolic(x2.transpose(), 3) == f3.scale(-1)
    from periodforge.polynomials import generic_matrix

    x3 = generic_matrix(3)
    g5 = canonical_form_symbolic(x3, 5)
    ok_t &= canonical_form_symbolic(x3.transpose(), 5) == g5
    ok_c = f3.is_closed() and f5.is_closed() and g5.is_closed()
    report("criterion 4: omega3/omega5 displays (coefficients 3, 10)",
           ok3 and ok5)
    report("criterion 4: omega^even = 0, omega^3/omega^7 symmetric = 0",
           ok_even and ok_sym3 and ok7)
    report("criterion 4: transpose + closedness identities", ok_t and ok_c)


# -- 5. graph complex ---------------------------------------------------------

def test_criterion_05_graph_complex():
    for loops in (3, 4, 5, 6):
        top = 3 * loops - 3
        sizes = {n: len(gc_basis(loops, n)) for n in range(loops, top + 1)}
        for n in range(loops + 2, top + 1):
            if not (sizes[n] and sizes[n - 1] and sizes[n - 2]):
                continue
            m1 = differential_matrix(loops, n)
            m0 = differential_matrix(loops, n - 1)
            # compose sparsely
            by_col = {}
            for (i, j), v in m1.items():
                by_col.setdefault(j, []).append((i, v))
            bad = {}
            m0_by_col = {}
            for (i, j), v in m0.items():
                m0_by_col.setdefault(j, []).append((i, v))
            for j, col in by_col.items():
                acc = {}
                for (mid, v) in col:
                    for (i, v2) in m0_by_col.get(mid, []):
                        acc[i] = acc.get(i, 0) + v2 * v
                for i, v in acc.items():
                    if v:
                        bad[(i, j)] = v
            assert not bad, (loops, n)
    report("criterion 5: d^2 = 0 as exact matrices, loops <= 6", True)
    expected = {3: {0: 1}, 4: {}, 5: {0: 1}, 6: {3: 1}}
    got = {l: homology_dims(l) for l in (3, 4, 5, 6)}
    report("criterion 5: homology dims match the known table, loops 3..6",
           got == expected, f"{got}")


# -- 6. stable weighted graphs -----------------------------------------------

def test_criterion_06_stable_genus_2():
    graphs = enumerate_stable_weighted(2)
    report("criterion 6: exactly 7 stable weighted graphs of genus 2",
           len(graphs) == 7, f"found {len(graphs)}")


# -- 7. Voronoi ---------------------------------------------------------------

def test_criterion_07_voronoi():
    q = principal_form_g2()
    vecs = set(minimal_vectors(q))
    ok_v = vecs == {(1, 0), (-1, 0), (0, 1), (0, -1), (1, -1), (-1, 1)}
    cell = voronoi_cell(q)
    ok_c = set(cell.generators) == {((1, 0), (0, 0)), ((1, -1), (-1, 1)),
                                    ((0, 0), (0, 1))}
    lengths = [Fraction(3, 2), Fraction(1, 3), Fraction(5)]
    basis = explicit_basis([{1: 1, 2: -1}, {2: 1, 3: -1}], 3)
    tp = torelli_point(banana(3), lengths, basis=basis)
    cert = cone_membership(tp, cell)
    # generators are sorted by vector: (0,1) ~ x3, (1,-1) ~ x2, (1,0) ~ x1
    ok_m = cert.inside and cert.coefficients == (lengths[2], lengths[1],
                                                 lengths[0])
    report("criterion 7: principal form minimal vectors + cell", ok_v and ok_c)
    report("criterion 7: sunrise Torelli point in the cell, lambda = lengths",
           ok_m)


# -- 8..13: Monte Carlo -------------------------------------------------------

def test_criterion_08_bubble():
    est = integrate_residue(banana(2), 200000, seed=101)
    _mc_check("criterion 8: I_res(bubble) = 1", est, 1.0)


def test_criterion_09_wheel_residues():
    for n, samples, seed in ((3, 400000, 102), (4, 400000, 103),
                             (5, 400000, 104)):
        est = integrate_residue(wheel(n), samples, seed=seed)
        target = float(math.comb(2 * (n - 1), n - 1) * zeta(2 * n - 3))
        _mc_check(f"criterion 9: I_res(W{n}) = C(2({n}-1),{n}-1) zeta({2*n-3})",
                  est, target)


def test_criterion_10_canonical_wheels():
    est = integrate_canonical(wheel(3), FormSpec((5,)), 300000, seed=105)
    _mc_check("criterion 10: I_W3(omega5) = 60 zeta(3)", est,
              float(60 * zeta(3)))
    est = integrate_canonical(wheel(5), FormSpec((9,)), 300000, seed=106)
    _mc_check("criterion 10: I_W5(omega9) = 1260 zeta(5)", est,
              float(1260 * zeta(5)))
    # the two bracketed terms of omega9_W5, separately
    est = integrate_residue(wheel(5), 400000, seed=107)
    _mc_check("criterion 10: W5 split, residue bracket = 70 zeta(7)", est,
              float(70 * zeta(7)))
    est = integrate(monomial_integrand(wheel(5), [1, 2, 3, 4, 5], 3, 12),
                    400000, seed=108)
    _mc_check("criterion 10: W5 split, spoke bracket = 70(zeta(5)-zeta(7))",
              est, float(70 * (zeta(5) - zeta(7))))


def test_criterion_11_two_vertex_join():
    j = two_vertex_join(wheel(3), 4, wheel(3), 4)
    assert divergent_subgraphs(j) == []
    est = integrate_residue(j, 500000, seed=109)
    _mc_check("criterion 11: I_res(W3 : W3) = (6 zeta(3))^2", est,
              float((6 * zeta(3)) ** 2))


def test_criterion_12_zigzag():
    z5 = zigzag(5)
    assert divergent_subgraphs(z5) == []
    est = integrate_residue(z5, 500000, seed=110)
    coeff = Fraction(4) * Fraction(math.factorial(8),
                                   math.factorial(5) * math.factorial(4)) \
        * (1 - Fraction(1 - (-1) ** 5, 2 ** 7))
    assert coeff == Fraction(441, 8)
    _mc_check("criterion 12: I_res(Z5) = (441/8) zeta(7)", est,
              float(Fraction(441, 8)) * float(zeta(7)))


def test_criterion_13_vanishing():
    for g, name in ((banana(6), "banana(6), h=5"),
                    (Graph((0, 0, 0), ((1, 2), (1, 2), (2, 3), (2, 3),
                                       (1, 3), (1, 3))), "tripled theta, h=4")):
        est = integrate_canonical(g, FormSpec((5,)), 100000, seed=111)
        ok = abs(est.mean) <= 3 * est.stderr + 1e-10
        report(f"criterion 13: I(omega5) vanishes for {name}", ok,
               f"{est.mean:.3g} +- {est.stderr:.3g}")


def test_completion_invariance_property():
    """Supporting property: non-isomorphic decompletions of one 4-regular
    completion have equal residues."""
    cyc = {(1, 2), (2, 3), (1, 3), (4, 5), (5, 6), (6, 7), (4, 7)}
    edges = tuple((i, j) for i in range(1, 8) for j in range(i + 1, 8)
                  if (i, j) not in cyc)
    hat = Graph((0,) * 7, edges)
    decs = decompletions(hat)
    assert len(decs) == 2
    assert not are_isomorphic(decs[0], decs[1])
    e1 = integrate_residue(decs[0], 400000, seed=112)
    e2 = integrate_residue(decs[1], 400000, seed=113)
    comb = math.hypot(e1.stderr, e2.stderr)
    ok = abs(e1.mean - e2.mean) <= 3 * comb + 0.005 * abs(e1.mean)
    report("property: completion invariance of residues", ok,
           f"{e1.mean:.4f} vs {e2.mean:.4f}")


def test_wheel_nontriviality_cross_certificate():
    """[W3] spans the kernel at (3,6), no incoming rank, and its canonical
    integral is nonzero: the homology class is non-trivial."""
    basis = gc_basis(3, 6)
    ok = len(basis) == 1 and differential_matrix(3, 6) == {}
    est = integrate_canonical(wheel(3), FormSpec((5,)), 100000, seed=114)
    ok &= abs(est.mean) > 10 * est.stderr
    report("property: odd wheel class non-zero (kernel + integral)", ok)


def test_stretch_k6_wedge_value():
    """K6 canonical wedge via the pointwise-verified integrand identity.

    The double zeta in the known value matches the m^-5 n^-3 nesting
    (outer exponent 5) of this artifact's zeta2(5,3).
    """
    k6 = complete(6)
    num = Poly.monomial(15, range(1, 16))
    est = integrate(Integrand(k6, numerator=num, psi_power=3), 600000,
                    seed=115).scaled(math.factorial(9) / 8)
    with mp.workdps(40):
        target = float(mp.mpf(math.factorial(9)) / 16 *
                       (360 * zeta2(5, 3) + 690 * zeta(3) * zeta(5)
                        - mp.mpf(29) / 315 * pi() ** 8))
        wrong = float(mp.mpf(math.factorial(9)) / 16 *
                      (360 * zeta2(3, 5) + 690 * zeta(3) * zeta(5)
                       - mp.mpf(29) / 315 * pi() ** 8))
    ok = abs(est.mean - target) <= max(3 * est.stderr, 0.05 * target)
    preferred = "zeta2(5,3)" if abs(est.mean - target) < abs(est.mean - wrong) \
        else "zeta2(3,5)"
    report("stretch: I_K6(omega5^omega9) matches the known evaluation",
           ok, f"{est.mean:.1f} vs {target:.1f}; matching convention "
               f"{preferred}")


def test_stretch_k6_direct_form_route():
    k6 = complete(6)
    est = integrate_canonical(k6, FormSpec((5, 9)), 60000, seed=116,
                              shard_size=2000)
    with mp.workdps(40):
        target = float(mp.mpf(math.factorial(9)) / 16 *
                       (360 * zeta2(5, 3) + 690 * zeta(3) * zeta(5)
                        - mp.mpf(29) / 315 * pi() ** 8))
    ok = abs(abs(est.mean) - target) <= max(3 * est.stderr, 0.05 * target)
    report("stretch: K6 by direct canonical-form evaluation", ok,
           f"{est.mean:.1f} vs {target:.1f}")
