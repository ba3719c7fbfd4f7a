import gc
from fractions import Fraction

import numpy as np
import pytest

from periodforge.graphs import banana, wheel
from periodforge.polynomials import cycle_basis, explicit_basis
from periodforge.voronoi import (ConeCertificate, QuadraticForm, VoronoiError,
                                 cone_membership, frobenius, minimal_vectors,
                                 minimum, principal_form_g2, short_vectors,
                                 torelli_point, voronoi_cell)


SUNRISE_BASIS = explicit_basis([{1: 1, 2: -1}, {2: 1, 3: -1}], 3)


def test_principal_form_minimal_vectors():
    q = principal_form_g2()
    vecs = minimal_vectors(q)
    assert set(vecs) == {(1, 0), (-1, 0), (0, 1), (0, -1), (1, -1), (-1, 1)}
    assert minimum(q) == 2


def test_lattice_enumeration_leaves_no_reference_cycles():
    """The Fincke-Pohst recursion holds no reference to itself, so the
    enumeration frees its state on return."""
    q = principal_form_g2()
    gc.collect()
    gc.disable()
    try:
        minimal_vectors(q)
        voronoi_cell(q)
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_identity_form():
    q = QuadraticForm([[1, 0], [0, 1]])
    assert set(minimal_vectors(q)) == {(1, 0), (-1, 0), (0, 1), (0, -1)}
    assert len(voronoi_cell(q).generators) == 2


def test_minimal_vectors_closed_under_negation():
    for rows in ([[2, 1], [1, 2]], [[3, 1], [1, 5]],
                 [[2, 0, 1], [0, 3, 0], [1, 0, 4]]):
        q = QuadraticForm(rows)
        vecs = set(minimal_vectors(q))
        assert {tuple(-c for c in v) for v in vecs} == vecs


def test_no_enumerated_point_beats_minimum():
    q = QuadraticForm([[2, 1, 0], [1, 3, 1], [0, 1, 2]])
    m = minimum(q)
    for v in short_vectors(q, m + 2):
        assert q.value(v) >= m


def test_positive_definite_guard():
    with pytest.raises(VoronoiError):
        minimal_vectors(QuadraticForm([[1, 1], [1, 1]]))
    with pytest.raises(VoronoiError):
        minimal_vectors(QuadraticForm([[1, 0], [0, -1]]))


def test_cell_generators_match_display():
    cell = voronoi_cell(principal_form_g2())
    gens = set(cell.generators)
    assert gens == {
        ((1, 0), (0, 0)),
        ((1, -1), (-1, 1)),
        ((0, 0), (0, 1)),
    }
    assert len(cell.generators) == len(minimal_vectors(principal_form_g2())) // 2


def test_torelli_examples():
    tp = torelli_point(banana(3), [1, 1, 1], basis=SUNRISE_BASIS)
    assert tp.matrix == ((Fraction(2), Fraction(-1)),
                         (Fraction(-1), Fraction(2)))
    bub = torelli_point(banana(2), [Fraction(3, 2), Fraction(1, 3)])
    assert bub.matrix == ((Fraction(11, 6),),)
    w3 = torelli_point(wheel(3), [1] * 6)
    assert w3.is_positive_definite()
    with pytest.raises(Exception):
        torelli_point(banana(2), [1, -1])


def test_torelli_positive_semidefinite_for_positive_lengths(rng):
    for g in (wheel(3), wheel(4), banana(4)):
        for _ in range(5):
            lengths = [Fraction(rng.randint(1, 20), rng.randint(1, 5))
                       for _ in range(g.ne)]
            q = torelli_point(g, lengths)
            assert q.is_positive_definite()


def test_sunrise_lands_in_principal_cell_with_length_certificate():
    cell = voronoi_cell(principal_form_g2())
    lengths = [Fraction(3, 2), Fraction(1, 3), Fraction(5)]
    tp = torelli_point(banana(3), lengths, basis=SUNRISE_BASIS)
    cert = cone_membership(tp, cell)
    assert cert.inside
    # generators sorted by their vectors: (0,1), (1,-1), (1,0) correspond to
    # edges 3, 2, 1 respectively
    assert cert.coefficients == (lengths[2], lengths[1], lengths[0])
    # exact reconstruction
    n = 2
    recon = [[sum(cert.coefficients[k] * cell.generators[k][i][j]
                  for k in range(3)) for j in range(n)] for i in range(n)]
    assert tuple(tuple(r) for r in recon) == tp.matrix


def test_cone_membership_certificates():
    cell = voronoi_cell(principal_form_g2())
    for gen in cell.generators:
        assert cone_membership(QuadraticForm(gen), cell).inside
    # the hexagonal form itself needs a negative coefficient: outside, with
    # an exact separating functional
    cert = cone_membership(principal_form_g2(), cell)
    assert not cert.inside
    y = cert.separating
    assert frobenius(y, principal_form_g2().matrix) > 0
    for gen in cell.generators:
        assert frobenius(y, gen) <= 0


def test_gl_equivariance(rng):
    for dim in (2, 3, 4):
        base_rows = [[2 if i == j else (1 if abs(i - j) == 1 else 0)
                      for j in range(dim)] for i in range(dim)]
        base = QuadraticForm(base_rows)
        mv_base = set(minimal_vectors(base))
        for _ in range(8 if dim < 4 else 4):
            p = [[1 if i == j else 0 for j in range(dim)] for i in range(dim)]
            for _ in range(4):
                i, j = rng.sample(range(dim), 2)
                c = rng.choice([-1, 1, 2])
                for r in range(dim):
                    p[r][j] += c * p[r][i]
            q = base.transformed(p)
            pinv = np.linalg.inv(np.array(p, dtype=float))
            mapped = set()
            for v in mv_base:
                w = pinv @ np.array(v, dtype=float)
                mapped.add(tuple(int(round(c)) for c in w))
            assert set(minimal_vectors(q)) == mapped


def test_transformed_det_invariance():
    q = principal_form_g2()
    p = [[1, 2], [0, -1]]
    q2 = q.transformed(p)
    assert q2.leading_minors()[-1] == q.leading_minors()[-1]


def test_w3_image_is_a_six_generated_voronoi_cell():
    """g = 3: the rank-one terms of the W3 Laplacian are exactly the cell
    generators of a positive form with twelve minimal vectors, and every
    W3 Torelli point lies in that cell with lambda = lengths."""
    q3 = QuadraticForm([[2, 1, -1], [1, 2, -1], [-1, -1, 2]])
    assert q3.is_positive_definite()
    assert len(minimal_vectors(q3)) == 12
    cell = voronoi_cell(q3)
    assert len(cell.generators) == 6
    b = cycle_basis(wheel(3))
    outers = []
    for e in range(1, 7):
        vec = [v.get(e, 0) for v in b.as_dicts()]
        for c in vec:
            if c:
                if c < 0:
                    vec = [-x for x in vec]
                break
        outers.append(tuple(tuple(a * bb for bb in vec) for a in vec))
    assert set(outers) == set(cell.generators)
    lengths = [Fraction(2, 3), Fraction(5, 2), Fraction(1), Fraction(7, 3),
               Fraction(1, 2), Fraction(4)]
    cert = cone_membership(torelli_point(wheel(3), lengths), cell)
    assert cert.inside
    by_gen = dict(zip(cell.generators, cert.coefficients))
    assert [by_gen[g] for g in outers] == lengths
