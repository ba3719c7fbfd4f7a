import math
from fractions import Fraction

import mpmath as mp
import numpy as np
import pytest

from periodforge.graphs import Graph, GraphError, banana, cycle, wheel
from periodforge.polynomials import MultilinearPoly, graph_polynomial
from periodforge.forms import FormSpec
from periodforge.tropical import (DivergentIntegrandError, TropicalSampler,
                                  build_measure, tropical_sample)
from periodforge.engine import (Integrand, IntegralEstimate, IntegrationError,
                                canonical_integrand, integrate,
                                integrate_canonical,
                                integrate_chain, integrate_residue,
                                monomial_integrand, residue_integrand,
                                tolerance)
from periodforge.graphcomplex import ChainVector
from periodforge.zeta import bernoulli_fraction, zeta, zeta2
from conftest import dunce_graph


def test_tropical_period_bubble():
    m = build_measure(banana(2), k=2)
    assert m.tropical_period == 2


def test_tropical_period_is_exact_rational():
    m = build_measure(wheel(3), k=2)
    assert isinstance(m.tropical_period, Fraction)
    assert m.tropical_period > 0


def test_tropical_period_triangle_closed_form():
    """For the 3-gon at exponent 3 the chart integral splits into four
    regions with total 1 + 1/2 + 1/2 + 1 = 3, computable by hand."""
    m = build_measure(cycle(3), k=3)
    assert m.tropical_period == 3


def test_tropical_sample_bubble_weights():
    xs, w = tropical_sample(banana(2), 2, seed=11, count=50000)
    assert np.all(xs > 0) and np.allclose(xs.sum(axis=1), 1.0)
    # weight = 2 max^2 / 1 on the simplex: bounded in [1/2, 2]
    assert w.min() > 0.5 - 1e-9 and w.max() < 2.0 + 1e-9
    psi = xs.sum(axis=1)
    est = (w / psi ** 2).mean()
    assert abs(est - 1.0) < 0.01


def test_tropical_sample_uniform():
    xs, w = tropical_sample(cycle(3), 0, seed=5, count=80000)
    assert np.allclose(w, 0.5)  # 1/(n-1)! = 1/2
    assert abs(xs[:, 0].mean() - 1 / 3) < 0.006


def test_tropical_sample_w3_interior():
    xs, w = tropical_sample(wheel(3), 2, seed=1, count=100000)
    assert np.isfinite(w).all()
    assert (w > 0).all()
    assert (xs > 0).all()


def test_divergence_detection():
    with pytest.raises(DivergentIntegrandError) as exc:
        build_measure(dunce_graph(), k=2)
    assert exc.value.subset == (3, 4)
    # chain of two bubbles: the first bubble is a divergent subgraph
    chain = Graph((0, 0, 0), ((1, 2), (1, 2), (2, 3), (2, 3)))
    with pytest.raises(DivergentIntegrandError):
        build_measure(chain, k=2)


def test_build_measure_validation():
    with pytest.raises(GraphError):
        build_measure(wheel(3), k=3)  # not projective
    with pytest.raises(GraphError):
        build_measure(Graph((0, 0), ((1, 2),)), k=1)


def test_integrand_validation():
    with pytest.raises(GraphError):
        residue_integrand(banana(3))  # |E| = 3 != 2h = 4
    with pytest.raises(GraphError):
        Integrand(wheel(3), numerator=MultilinearPoly.one(), psi_power=3)
    with pytest.raises(GraphError):
        canonical_integrand(wheel(3), FormSpec((9,)))
    ig = residue_integrand(dunce_graph())  # constructed fine, diverges later
    with pytest.raises(DivergentIntegrandError):
        integrate(ig, 1000, seed=0)


def test_bubble_residue():
    est = integrate_residue(banana(2), 100000, seed=1)
    assert abs(est.z(1.0)) <= 3


def test_determinism_and_threads():
    e1 = integrate_residue(wheel(3), 60000, seed=9)
    e2 = integrate_residue(wheel(3), 60000, seed=9)
    assert (e1.mean, e1.stderr) == (e2.mean, e2.stderr)
    e3 = integrate_residue(wheel(3), 60000, seed=9, threads=4)
    assert (e1.mean, e1.stderr) == (e3.mean, e3.stderr)
    e4 = integrate_residue(wheel(3), 60000, seed=10)
    assert e4.mean != e1.mean


def test_chart_independence():
    ig1 = Integrand(wheel(3), numerator=MultilinearPoly.one(), psi_power=2,
                    chart=1)
    e1 = integrate(ig1, 150000, seed=21)
    e2 = integrate_residue(wheel(3), 150000, seed=22)
    comb = math.hypot(e1.stderr, e2.stderr)
    assert abs(e1.mean - e2.mean) <= 3 * comb


def test_dirichlet_sampler_on_bubble():
    est = integrate_residue(banana(2), 50000, seed=3, sampler="dirichlet")
    assert abs(est.z(1.0)) <= 3.5


def test_z_score_and_tolerance():
    est = IntegralEstimate(10.0, 0.5, 100, 0, "tropical")
    assert est.z(10.0) == 0.0
    assert est.z(9.0) == 2.0
    exact = IntegralEstimate(5.0, 0.0, 10, 0, "tropical")
    assert exact.z(5.0) == 0.0
    with pytest.raises(IntegrationError):
        exact.z(4.0)
    assert tolerance(100.0, 0.1) == pytest.approx(3 * 0.1 + 0.5)


def test_integrate_chain_linearity():
    w3 = wheel(3)
    c = ChainVector.from_graph(w3)
    spec = FormSpec((5,))
    est = integrate_chain(c, spec, 60000, seed=4)
    tgt = float(60 * zeta(3))
    assert abs(abs(est.mean) - tgt) <= tolerance(tgt, est.stderr)
    # zero chain and cancelling chain
    zero = integrate_chain(ChainVector.zero(), spec, 1000, seed=0)
    assert zero.mean == 0.0 and zero.stderr == 0.0
    cancel = integrate_chain(c - c, spec, 1000, seed=0)
    assert cancel.mean == 0.0


def test_form_word_determinism_and_threads():
    """Shards of a form-word integral share one evaluator across threads;
    the estimate is bit-identical at one and two threads."""
    spec = FormSpec((5,))
    e1 = integrate_canonical(wheel(3), spec, 20000, seed=12, threads=1,
                             shard_size=4096)
    e2 = integrate_canonical(wheel(3), spec, 20000, seed=12, threads=2,
                             shard_size=4096)
    assert (e1.mean, e1.stderr) == (e2.mean, e2.stderr)


def test_integrate_chain_class_streams_and_sampler(monkeypatch):
    """Per-class seeds come from SeedSequence spawn keys, so (seed 0,
    class 1) no longer shares a stream with (seed 7919, class 0); the
    estimate reports the sampler that was used."""
    import periodforge.engine as engine
    from periodforge.graphcomplex import gc_basis

    basis = gc_basis(5, 10)
    assert len(basis) >= 2
    chain = ChainVector({basis[0]: 1, basis[1]: 1})
    seeds = []

    def fake(g, spec, samples, seed, **kw):
        seeds.append(seed)
        return IntegralEstimate(1.0, 0.1, samples, seed, kw["sampler"])

    monkeypatch.setattr(engine, "integrate_canonical", fake)
    spec = FormSpec((9,))
    est = integrate_chain(chain, spec, 100, seed=0, sampler="dirichlet")
    assert est.sampler == "dirichlet"
    integrate_chain(chain, spec, 100, seed=7919, sampler="dirichlet")
    assert len(seeds) == 4 and len(set(seeds)) == 4
    for seed, idx, got in [(0, 0, seeds[0]), (0, 1, seeds[1]),
                           (7919, 0, seeds[2]), (7919, 1, seeds[3])]:
        ss = np.random.SeedSequence(seed, spawn_key=(idx,))
        assert got == int(ss.generate_state(1, np.uint64)[0])
    zero = integrate_chain(ChainVector.zero(), spec, 100, seed=0,
                           sampler="dirichlet")
    assert zero.sampler == "dirichlet"


def test_nonfinite_abort_reports_point():
    from periodforge.engine import NonFinitePointError

    err = NonFinitePointError(np.array([0.0, 1.0]))
    assert "x = [0.0, 1.0]" in str(err)
    assert list(err.point) == [0.0, 1.0]


# ---------------------------------------------------------------------------
# zeta constants
# ---------------------------------------------------------------------------

def test_bernoulli():
    assert bernoulli_fraction(2) == Fraction(1, 6)
    assert bernoulli_fraction(4) == Fraction(-1, 30)
    assert bernoulli_fraction(12) == Fraction(-691, 2730)


def test_zeta_values():
    with mp.workdps(45):
        assert abs(zeta(2) - mp.pi ** 2 / 6) < mp.mpf(10) ** -35
        assert mp.nstr(zeta(3), 20) == "1.2020569031595942854"
        for s in (2, 3, 5, 7, 8, 9, 11):
            assert abs(zeta(s) - mp.zeta(s)) < mp.mpf(10) ** -35


def test_zeta_against_direct_summation():
    """Independent oracle: direct partial sum plus an integral tail bound."""
    with mp.workdps(40):
        n_terms = 200000
        partial = mp.fsum(mp.mpf(1) / mp.mpf(k) ** 3
                          for k in range(1, n_terms + 1))
        lo = partial + mp.mpf(1) / (2 * (n_terms + 1) ** 2)
        hi = partial + mp.mpf(1) / (2 * n_terms ** 2)
        assert lo < zeta(3) < hi


def test_zeta2_stuffle_identities():
    with mp.workdps(45):
        for a, b in [(5, 3), (3, 5), (2, 2), (4, 3)]:
            lhs = zeta2(a, b) + zeta2(b, a) + zeta(a + b)
            assert abs(lhs - zeta(a) * zeta(b)) < mp.mpf(10) ** -32


def test_zeta2_against_double_sum():
    with mp.workdps(30):
        acc = mp.mpf(0)
        for n in range(1, 700):
            inner = mp.zeta(5) - mp.fsum(mp.mpf(1) / mp.mpf(m) ** 5
                                         for m in range(1, n + 1))
            acc += inner / mp.mpf(n) ** 3
        assert abs(zeta2(5, 3) - acc) < mp.mpf(10) ** -10
