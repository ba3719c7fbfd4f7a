import math
import re
from fractions import Fraction

import mpmath as mp
import numpy as np
import pytest

from periodforge.graphs import (Graph, GraphError, _root, banana, complete,
                                cycle, wheel, zigzag)
from periodforge.polynomials import Poly, graph_polynomial, spanning_trees
from periodforge import engine
from periodforge.forms import FormSpec
from periodforge.tropical import (DivergentIntegrandError, RowWindow,
                                  TropicalSampler, build_measure,
                                  simplex_sample, subset_loop_numbers)
from periodforge.engine import (Integrand, IntegralEstimate, IntegrationError,
                                canonical_integrand, integrate,
                                integrate_canonical,
                                integrate_chain, integrate_residue,
                                monomial_integrand, residue_integrand,
                                tolerance)
from periodforge.graphcomplex import ChainVector
from periodforge.zeta import zeta, zeta2
from conftest import dunce_graph, tropical_sample


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


@pytest.mark.parametrize("nu, message", [
    ([0.5] * 6, "nu entry 0.5 is not an integer"),
    ([0] * 5 + [Fraction(1, 2)],
     r"nu entry Fraction\(1, 2\) is not an integer"),
    ([1.0] * 6, "nu entry 1.0 is not an integer"),
    ([0] * 5 + [-1], "one non-negative exponent per edge"),
    ([0] * 5, "one non-negative exponent per edge")],
    ids=["half", "fraction", "integral-float", "negative", "short"])
def test_build_measure_rejects_bad_nu(nu, message, monkeypatch):
    """An exponent that is not a non-negative integer is refused, naming a
    non-integer entry instead of truncating it, before any table is
    built."""
    import periodforge.tropical as tropical

    built = []
    monkeypatch.setattr(tropical, "subset_loop_numbers",
                        lambda g: built.append(g))
    with pytest.raises(GraphError, match=message):
        build_measure(wheel(3), nu=nu)
    assert built == []


def test_build_measure_validation():
    with pytest.raises(GraphError):
        build_measure(wheel(3), k=3)  # not projective
    with pytest.raises(GraphError):
        build_measure(Graph((0, 0), ((1, 2),)), k=1)


# ---------------------------------------------------------------------------
# exact preprocessing against the per-mask reference
# ---------------------------------------------------------------------------

def _reference_loop_numbers(g):
    """One union-find per edge subset."""
    h = np.zeros(1 << g.ne, dtype=np.int8)
    for mask in range(1, 1 << g.ne):
        parent = list(range(g.nv + 1))
        loops = 0
        for i, (u, v) in enumerate(g.edges):
            if not mask >> i & 1:
                continue
            ru, rv = _root(parent, u), _root(parent, v)
            if ru == rv:
                loops += 1
            else:
                parent[ru] = rv
        h[mask] = loops
    return h


def _reference_measure(g, nu, k):
    """(tropical period, omega table, T-table) in Fractions, or the
    (subset, omega) of the first divergent subset in mask order."""
    n = g.ne
    nu = nu or [0] * n
    k = Fraction(k)
    h = _reference_loop_numbers(g)
    full = (1 << n) - 1
    omegas = [Fraction(0)] * (1 << n)
    for mask in range(1, 1 << n):
        bits = [i for i in range(n) if mask >> i & 1]
        om = sum(nu[i] for i in bits) + len(bits) - k * int(h[mask])
        omegas[mask] = om
        if mask != full and om <= 0:
            return tuple(i + 1 for i in bits), om
    T = [Fraction(1)] + [Fraction(0)] * full
    for mask in range(1, 1 << n):
        acc = sum((T[mask & ~(1 << i)] for i in range(n) if mask >> i & 1),
                  Fraction(0))
        T[mask] = acc if mask == full else acc / omegas[mask]
    return T[full], omegas, T


def _reference_sampler_tables(n, h, omegas, T):
    """(cum, bit, hdrop, omega_f) with one Python loop per mask."""
    size = 1 << n
    cum = np.zeros((size, n))
    bit = np.zeros((size, n), dtype=np.int8)
    hdrop = np.zeros((size, n), dtype=np.int8)
    omega_f = np.ones(size)
    for mask in range(1, size):
        bits = [i for i in range(n) if mask >> i & 1]
        weights = [float(T[mask & ~(1 << i)]) for i in bits]
        # left to right, as sum() did before Python 3.12 compensated it
        total = 0.0
        for w in weights:
            total += w
        acc = 0.0
        for j, (i, w) in enumerate(zip(bits, weights)):
            acc += w / total
            cum[mask, j] = acc
            bit[mask, j] = i
            hdrop[mask, j] = h[mask] - h[mask & ~(1 << i)]
        cum[mask, len(bits):] = 1.0
        omega_f[mask] = float(omegas[mask])
    return cum, bit, hdrop, omega_f


_SPOKES = [1, 1, 1, 1, 1, 0, 0, 0, 0, 0]
_MEASURE_CASES = [
    ("W3", wheel(3), None, None),
    ("W5", wheel(5), None, None),
    ("W5 spokes", wheel(5), _SPOKES, 3),
    ("Z5", zigzag(5), None, None),
    ("Z7", zigzag(7), None, None),
    ("K6", complete(6), None, Fraction(3, 2)),
    ("C3", cycle(3), None, 3),
    ("B2", banana(2), None, 2),
    # q * omega beyond 2^53, where a float no longer holds it exactly
    ("B2 wide", banana(2), [2 ** 60, 0], None),
]


def test_subset_loop_numbers_match_union_find():
    self_edges = Graph((0, 0, 0), ((1, 1), (1, 2), (2, 3), (3, 3), (1, 3),
                                   (2, 2), (1, 2)))
    for g in (self_edges, wheel(4), zigzag(5), banana(3), dunce_graph()):
        assert np.array_equal(subset_loop_numbers(g),
                              _reference_loop_numbers(g))


@pytest.mark.parametrize("name,g,nu,k", _MEASURE_CASES,
                         ids=[c[0] for c in _MEASURE_CASES])
def test_tables_match_fraction_reference(name, g, nu, k):
    m = build_measure(g, nu, k)
    period, omegas, T = _reference_measure(g, nu, m.k)
    assert isinstance(m.tropical_period, Fraction)
    assert m.tropical_period == period
    h = _reference_loop_numbers(g)
    assert np.array_equal(m.h, h)
    s = TropicalSampler(m)
    cum, bit, hdrop, omega_f = _reference_sampler_tables(g.ne, h, omegas, T)
    assert np.array_equal(s.cum, cum)
    assert np.array_equal(s.bit, bit)
    assert np.array_equal(s.hdrop, hdrop)
    assert np.array_equal(s.omega_f, omega_f)


def _column_sampler_tables(m):
    """(cum, bit, hdrop) built column by column over every mask: column j
    holds each mask's j-th lowest edge, so each sum adds its terms in
    increasing edge order."""
    n = m.n
    size = 1 << n
    h, T = m.h, m.subset_weights()
    masks = np.arange(size, dtype=np.int32)
    bitno = np.zeros(size, dtype=np.int8)
    bitno[1 << np.arange(n)] = np.arange(n)

    def columns():
        rest = masks
        for _ in range(n):
            low = rest & -rest
            rest = rest ^ low
            yield low

    total = np.zeros(size)
    for low in columns():
        total += np.where(low != 0, T[masks ^ low], 0.0)
    total[0] = 1.0
    cum = np.ones((size, n))
    bit = np.zeros((size, n), dtype=np.int8)
    hdrop = np.zeros((size, n), dtype=np.int8)
    acc = np.zeros(size)
    for j, low in enumerate(columns()):
        sub = masks ^ low
        acc += np.where(low != 0, T[sub] / total, 0.0)
        cum[:, j] = np.where(low != 0, acc, 1.0)
        bit[:, j] = bitno[low]
        hdrop[:, j] = h - h[sub]
    cum[0] = 0.0
    return cum, bit, hdrop


@pytest.mark.parametrize("g", [zigzag(8), complete(6), wheel(5)],
                         ids=["Z8", "K6", "W5"])
def test_tables_match_column_reference(g):
    """The edge-by-edge tables against the column-by-column build, also at
    the 16-edge cap (Z8), where the flat table index passes 2^20 and the
    Fraction reference is too slow to run."""
    m = build_measure(g)
    s = TropicalSampler(m)
    cum, bit, hdrop = _column_sampler_tables(m)
    assert np.array_equal(s.cum, cum)
    assert np.array_equal(s.bit, bit)
    assert np.array_equal(s.hdrop, hdrop)


def test_divergent_subset_matches_reference():
    chain = Graph((0, 0, 0), ((1, 2), (1, 2), (2, 3), (2, 3)))
    for g in (dunce_graph(), chain):
        with pytest.raises(DivergentIntegrandError) as exc:
            build_measure(g, k=2)
        subset, omega = _reference_measure(g, None, 2)
        assert exc.value.subset == subset
        assert exc.value.omega == omega
        assert isinstance(exc.value.omega, Fraction)


def test_sample_matches_full_width_gather():
    s = TropicalSampler(build_measure(zigzag(5)))
    logxs, logpsitr = s.sample(np.random.default_rng(17), 3000)
    rng = np.random.default_rng(17)
    n, count = s.n, 3000
    state = np.full(count, (1 << n) - 1, dtype=np.int64)
    logx = np.zeros(count)
    ref = np.zeros((count, n))
    ref_psi = np.zeros(count)
    for step in range(n):
        if step > 0:
            logx = logx + np.log(rng.random(count)) / s.omega_f[state]
        r = rng.random(count)
        idx = (r[:, None] > s.cum[state]).sum(axis=1)
        e = s.bit[state, idx].astype(np.int64)
        ref[np.arange(count), e] = logx
        ref_psi += np.where(s.hdrop[state, idx] == 1, logx, 0.0)
        state = state & ~(1 << e)
    assert np.array_equal(logxs, ref)
    assert np.array_equal(logpsitr, ref_psi)


class _TopRng:
    """Stub generator whose every draw is the largest float below 1."""

    def random(self, count):
        return np.full(count, np.nextafter(1.0, 0.0))


@pytest.mark.parametrize("g", [wheel(5), zigzag(8)], ids=["W5", "Z8"])
def test_sample_draws_every_edge_once_at_top_of_range(g):
    """With r just below 1 each state drops its last live edge, the highest
    one.  On these paths some states have a last cum just below r, and the
    last live edge must still take it."""
    s = TropicalSampler(build_measure(g))
    logxs, _ = s.sample(_TopRng(), 4)
    # log(u) < 0, so each step after the first writes a new, lower logx:
    # the edges are drawn from the highest down, each exactly once
    for row in logxs:
        assert len(set(row.tolist())) == g.ne
        assert row[-1] == 0.0
        assert (np.diff(row) > 0).all()


def test_simplex_sample_matches_inline_weights():
    """Points and log weights against the formula written out term by term."""
    nu = [1, 1, 1, 1, 1, 0, 0, 0, 0, 0]
    m = build_measure(wheel(5), nu, 3)
    s = TropicalSampler(m)
    xs, logw = simplex_sample(np.random.default_rng(4), 2000, s)
    logxs, logpsitr = s.sample(np.random.default_rng(4), 2000)
    ex = np.exp(logxs)
    total = ex.sum(axis=1, keepdims=True)
    assert np.array_equal(xs, ex / total)
    logpsitr = logpsitr + wheel(5).loop_number() * -np.log(total[:, 0])
    ref = math.log(float(m.tropical_period)) + 3.0 * logpsitr
    assert np.array_equal(logw, ref)


def test_simplex_sample_zero_nu_weight_is_tropical_term():
    """With nu = 0 the log weight is log_period + kf * logpsitr, bit for
    bit: no x^nu term is formed."""
    s = TropicalSampler(build_measure(wheel(3), k=2))
    _, logw = simplex_sample(np.random.default_rng(4), 2000, s)
    logxs, logpsitr = s.sample(np.random.default_rng(4), 2000)
    total = np.exp(logxs).sum(axis=1, keepdims=True)
    logpsitr = logpsitr + wheel(3).loop_number() * -np.log(total[:, 0])
    ref = s.log_period + s.kf * logpsitr
    assert logw.tobytes() == ref.tobytes()


def _windowed(draw, count, block):
    """``draw(rng, m)`` over blocks of ``block`` rows of the stream of
    ``PCG64(9)``, each through a ``RowWindow``, concatenated output by
    output."""
    gen = np.random.Generator(np.random.PCG64(9))
    start = gen.bit_generator.state
    parts = [draw(RowWindow(gen, start, lo, count), min(block, count - lo))
             for lo in range(0, count, block)]
    return [np.concatenate(col) for col in zip(*parts)]


def _block_draws():
    """The draws a shard makes, by name, as ``draw(rng, rows)``."""
    z5 = TropicalSampler(build_measure(zigzag(5), k=2))
    w5 = TropicalSampler(build_measure(wheel(5), [1] * 5 + [0] * 5, 3))
    return {"sample-Z5": z5.sample, "sample-W5-nu": w5.sample,
            "simplex-W5-nu": lambda rng, m: simplex_sample(rng, m, w5)}


@pytest.mark.parametrize("case",
                         ["sample-Z5", "sample-W5-nu", "simplex-W5-nu"])
def test_row_window_equals_whole_shard(case):
    """Blocks of 1, 7, 4,096 and all the rows, each drawn through a row
    window of the shard's stream, concatenate to the whole-shard draw."""
    draw = _block_draws()[case]
    count = 4100
    whole = draw(np.random.Generator(np.random.PCG64(9)), count)
    for block in (1, 7, 4096, count):
        got = _windowed(draw, count, block)
        assert all(np.array_equal(a, b) for a, b in zip(got, whole)), block


def test_subset_tables_capped():
    big = Graph((0, 0), ((1, 2),) * 17)
    with pytest.raises(GraphError, match="capped at 16 edges"):
        subset_loop_numbers(big)
    with pytest.raises(GraphError, match="capped at 16 edges"):
        build_measure(big)


def test_integrand_validation():
    with pytest.raises(GraphError):
        residue_integrand(banana(3))  # |E| = 3 != 2h = 4
    with pytest.raises(GraphError):
        Integrand(wheel(3), numerator=Poly.const(6, 1), psi_power=3)
    with pytest.raises(GraphError, match="edge variables"):
        Integrand(wheel(3), numerator=Poly.const(5, 1), psi_power=2)
    # two terms of the projective degree: each would need its own density
    two = Poly.monomial(6, [1, 2, 3]) + Poly.monomial(6, [4, 5, 6])
    for num in (two, Poly.zero(6)):
        with pytest.raises(GraphError, match="one monomial"):
            Integrand(wheel(3), numerator=num, psi_power=3)
    for edges in ([0, 1], [1, 7]):
        with pytest.raises(GraphError, match="must lie in 1..6"):
            monomial_integrand(wheel(3), edges, 3)
    with pytest.raises(GraphError):
        canonical_integrand(wheel(3), FormSpec((9,)))
    path = Graph((0,) * 7, tuple((i, i + 1) for i in range(1, 7)))
    with pytest.raises(GraphError, match="at least one loop"):
        canonical_integrand(path, FormSpec((5,)))
    ig = residue_integrand(dunce_graph())  # constructed fine, diverges later
    with pytest.raises(DivergentIntegrandError):
        integrate(ig, 1000, seed=0)


@pytest.mark.parametrize("g, edges, k, c", [
    (wheel(5), [1, 2, 3, 4, 5], 3, 12),
    (zigzag(8), [], 2, 1),
    (complete(6), list(range(1, 16)), 3, 1)], ids=["W5-spokes", "Z8", "K6"])
def test_monomial_weights_lie_in_the_tropical_band(g, edges, k, c):
    """A sample of c x^nu / Psi^k weighs c T (Psi^tr/Psi)^k, and Psi^tr <=
    Psi <= N Psi^tr with N = Psi(1, ..., 1) the spanning-tree count, so
    every weight of a block lies in [c T / N^k, c T]."""
    ig = (monomial_integrand(g, edges, k, c) if edges
          else residue_integrand(g))
    nu, kf = ig.sampler_parameters()
    measure = build_measure(g, nu, kf)
    xs, logw = simplex_sample(np.random.default_rng(8), engine._BLOCK,
                              TropicalSampler(measure))
    w = engine._Evaluator(ig).values(xs, logw)
    top = c * float(measure.tropical_period)
    trees = len(spanning_trees(g))
    assert trees == {10: 121, 16: 2919, 15: 1296}[g.ne]
    assert (w >= top / trees ** k * (1 - 1e-12)).all()
    assert (w <= top * (1 + 1e-12)).all()


def test_singular_form_row_reports_its_point(monkeypatch):
    """A form-word row whose Laplacian is singular (the W3 triangle of
    edges 1, 2 and 4 at zero) aborts with its point, as the residue path
    reports the same row."""
    xs = np.array([[0.2, 0.3, 0.1, 0.15, 0.15, 0.1],
                   [0.0, 0.0, 0.25, 0.0, 0.25, 0.5]])
    monkeypatch.setattr(engine, "simplex_sample",
                        lambda rng, count, s: (xs, np.zeros(2)))
    for run in (lambda: integrate_canonical(wheel(3), FormSpec((5,)), 2, 0),
                lambda: integrate_residue(wheel(3), 2, 0)):
        with pytest.raises(engine.NonFinitePointError) as info:
            run()
        assert list(info.value.point) == list(xs[1])


def test_bubble_residue():
    est = integrate_residue(banana(2), 100000, seed=1)
    assert abs(est.z(1.0)) <= 3


def test_residue_integrate_leaves_gram_kernel_unbuilt(monkeypatch):
    """Only form words read CycleIncidence.pair; a residue never builds it."""
    built = []

    class Recording(engine._Evaluator):
        def __init__(self, ig):
            super().__init__(ig)
            built.append(self)

    monkeypatch.setattr(engine, "_Evaluator", Recording)
    integrate_residue(wheel(3), 1000, seed=1)
    integrate_canonical(wheel(3), FormSpec((5,)), 1000, seed=1)
    residue, form = built
    assert "pair" not in vars(residue.inc)
    assert "pair" in vars(form.inc)


def test_determinism_and_threads():
    e1 = integrate_residue(wheel(3), 60000, seed=9)
    e2 = integrate_residue(wheel(3), 60000, seed=9)
    assert (e1.mean, e1.stderr) == (e2.mean, e2.stderr)
    e4 = integrate_residue(wheel(3), 60000, seed=10)
    assert e4.mean != e1.mean


@pytest.mark.parametrize("threads", [0, -3, 2, 1.5, "2"],
                         ids=["0", "-3", "2", "1.5", "str2"])
def test_integrate_rejects_non_positive_threads(threads, monkeypatch):
    """The engine runs in one thread: any thread count but 1 fails before
    any preprocessing, and a divergent integrand reports the thread count,
    not its divergence."""
    built = []
    monkeypatch.setattr(engine, "build_measure",
                        lambda *a: built.append(a))
    message = re.escape(f"threads must be 1, got {threads!r}")
    for g in (wheel(3), dunce_graph()):
        with pytest.raises(IntegrationError, match=message):
            integrate(residue_integrand(g), 1000, seed=0, threads=threads)
    assert built == []


@pytest.mark.parametrize("shard_size", [0, -5, 2.5, 1000.0])
def test_integrate_rejects_non_positive_shard_size(shard_size, monkeypatch):
    """A shard size that is not a positive integer fails before any
    preprocessing, naming the value, instead of dividing by zero or
    failing in ``range`` after the preprocessing."""
    built = []
    monkeypatch.setattr(engine, "build_measure",
                        lambda *a: built.append(a))
    with pytest.raises(IntegrationError,
                       match=re.escape("shard_size must be an integer of at "
                                       f"least 1, got {shard_size!r}")):
        integrate(residue_integrand(wheel(3)), 1000, seed=0,
                  shard_size=shard_size)
    assert built == []


_BAD_CASES = [
    ({"samples": 10.5}, "samples must be an integer of at least 2, got 10.5"),
    ({"samples": 1}, "samples must be an integer of at least 2, got 1"),
    ({"seed": -1}, "seed must be a non-negative integer, got -1"),
    ({"seed": 2.5}, "seed must be a non-negative integer, got 2.5")]
_BAD_IDS = ["fractional-samples", "one-sample", "negative-seed",
            "fractional-seed"]


@pytest.mark.parametrize("kw, message", _BAD_CASES, ids=_BAD_IDS)
def test_integrate_rejects_bad_samples_and_seed(kw, message, monkeypatch):
    """A sample count or seed the streams cannot use fails before any
    preprocessing, naming the value, as the thread and shard checks do."""
    built = []
    monkeypatch.setattr(engine, "build_measure",
                        lambda *a: built.append(a))
    args = {"samples": 1000, "seed": 0, **kw}
    with pytest.raises(IntegrationError, match=message):
        integrate(canonical_integrand(wheel(3), FormSpec((5,))),
                  args["samples"], args["seed"])
    assert built == []


@pytest.mark.parametrize("kw, error, message", [
    (kw, IntegrationError, message) for kw, message in _BAD_CASES] + [
    ({"shard_size": 0}, IntegrationError,
     "shard_size must be an integer of at least 1, got 0"),
    ({"threads": 2}, IntegrationError, "threads must be 1, got 2"),
    ({"shard": 10}, TypeError,
     r"integrate_chain\(\) got an unexpected keyword argument 'shard'")],
    ids=_BAD_IDS + ["zero-shard-size", "two-threads", "unknown-keyword"])
def test_integrate_chain_rejects_bad_samples_and_seed(kw, error, message,
                                                      monkeypatch):
    """``integrate_chain`` makes ``integrate``'s checks with the same
    messages before it derives a class seed, for a zero chain too, so a
    negative seed no longer reaches numpy's SeedSequence and a bad option
    or an unknown keyword is not ignored."""
    calls = []
    monkeypatch.setattr(engine, "integrate_canonical",
                        lambda *a, **k: calls.append(a))
    args = {"samples": 1000, "seed": 0, **kw}
    samples, seed = args.pop("samples"), args.pop("seed")
    for chain in (ChainVector.from_graph(wheel(3)), ChainVector.zero()):
        with pytest.raises(error, match=message):
            integrate_chain(chain, FormSpec((5,)), samples, seed, **args)
    assert calls == []


def test_z_score_and_tolerance():
    est = IntegralEstimate(10.0, 0.5, 100, 0)
    assert est.z(10.0) == 0.0
    assert est.z(9.0) == 2.0
    exact = IntegralEstimate(5.0, 0.0, 10, 0)
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


@pytest.mark.parametrize("g, spec", [(wheel(3), (5,)), (complete(6), (5, 9))],
                         ids=["W3", "K6"])
def test_top_word_estimate_independent_of_threads_and_block(g, spec,
                                                            monkeypatch):
    """A top word's closed form treats each row on its own: its estimate
    is bit-identical at blocks of 7 and of 8,192 samples."""
    def estimate():
        e = integrate_canonical(g, FormSpec(spec), 1500, seed=17,
                                shard_size=400)
        return e.mean, e.stderr

    one = estimate()
    monkeypatch.setattr(engine, "_BLOCK", 7)
    assert estimate() == one


@pytest.mark.parametrize("block, samples, shard_size", [
    (7, 600, 250), (10 ** 6, 20000, 12000)], ids=["block7", "block1e6"])
def test_estimates_independent_of_block_size(block, samples, shard_size,
                                             monkeypatch):
    """The engine evaluates each shard in blocks of ``engine._BLOCK``
    samples; a form word and a residue give bit-identical estimates with
    many small blocks, with one block per shard, and with the default
    (which splits the 12,000-sample shard in two)."""
    def estimates():
        w5 = integrate_canonical(wheel(5), FormSpec((9,)), samples, seed=6,
                                 shard_size=shard_size)
        z5 = integrate_residue(zigzag(5), samples, seed=6,
                               shard_size=shard_size)
        return [(e.mean, e.stderr) for e in (w5, z5)]

    default = estimates()
    monkeypatch.setattr(engine, "_BLOCK", block)
    assert estimates() == default


def test_form_shard_peak_memory():
    """One 65,536-sample W3 omega5 shard is evaluated block by block, so
    the shard never holds the Gram tensor or Lambda^-1 of all its samples:
    about 11 MB traced peak, against about 27 MB for the whole shard."""
    import tracemalloc

    tracemalloc.start()
    try:
        integrate_canonical(wheel(3), FormSpec((5,)), 65536, seed=4)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 18e6, peak


def test_residue_shard_peak_memory():
    """One 65,536-sample Z8 residue shard reads each block's points from
    its stream through a row window, so only its weights are shard-sized:
    about 10 MB traced peak, against about 27 MB when the shard drew its
    (65,536, 16) points whole."""
    import tracemalloc

    g = zigzag(8)
    ev = engine._Evaluator(residue_integrand(g))
    sampler = TropicalSampler(build_measure(g, k=2))
    tracemalloc.start()
    try:
        engine._run_shard(ev, sampler, 4, 0, 65536)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 12e6, peak


def test_non_finite_sample_aborts_form_integral(monkeypatch):
    """A sampled form-word row with an infinite coordinate gets a NaN
    Gram, so the shard reports the point instead of failing inside the
    exact repair."""
    xs = np.full((4, 6), 1 / 6)
    xs[2, 3] = np.inf
    monkeypatch.setattr(engine, "simplex_sample",
                        lambda rng, count, s: (xs, np.zeros(4)))
    with pytest.raises(engine.NonFinitePointError) as info:
        integrate_canonical(wheel(3), FormSpec((5,)), 4, seed=0)
    assert info.value.point[3] == np.inf


def test_small_block_two_component_word_matches_stream(monkeypatch):
    """omega5 ^ omega9 on the first convergent generator of GC at loop 6
    with 15 edges is not a top word, so every block runs the subset DP.
    ``_DEPTH_ROWS`` samples make one block, which the depth-major driver
    takes without entering ``_stream``; its mean and stderr are the bits
    of the same integral with every block on ``_stream``."""
    from periodforge import forms
    from periodforge.graphcomplex import gc_basis

    def refuse(*args):
        raise AssertionError("_stream entered")

    spec = FormSpec((5, 9))
    for gen in gc_basis(6, 15):
        try:
            build_measure(gen.graph)
        except DivergentIntegrandError:
            continue
        break
    g = gen.graph
    assert forms.BatchedGraphFormEvaluator(g, spec).top is None
    rows = forms._DEPTH_ROWS
    with monkeypatch.context() as m:
        m.setattr(forms, "_stream", refuse)
        depth = integrate_canonical(g, spec, rows, seed=3)
    monkeypatch.setattr(forms, "_DEPTH_ROWS", 0)
    stream = integrate_canonical(g, spec, rows, seed=3)
    assert depth.samples == stream.samples == rows
    assert depth.stderr > 0
    assert ([float.hex(depth.mean), float.hex(depth.stderr)]
            == [float.hex(stream.mean), float.hex(stream.stderr)])


def test_integrate_chain_class_streams(monkeypatch):
    """Per-class seeds come from SeedSequence spawn keys, so (seed 0,
    class 1) no longer shares a stream with (seed 7919, class 0)."""
    import periodforge.engine as engine
    from periodforge.graphcomplex import gc_basis

    basis = gc_basis(5, 10)
    assert len(basis) >= 2
    chain = ChainVector({basis[0]: 1, basis[1]: 1})
    seeds = []

    def fake(g, spec, samples, seed, **kw):
        seeds.append(seed)
        return IntegralEstimate(1.0, 0.1, samples, seed)

    monkeypatch.setattr(engine, "integrate_canonical", fake)
    spec = FormSpec((9,))
    integrate_chain(chain, spec, 100, seed=0)
    integrate_chain(chain, spec, 100, seed=7919)
    assert len(seeds) == 4 and len(set(seeds)) == 4
    for seed, idx, got in [(0, 0, seeds[0]), (0, 1, seeds[1]),
                           (7919, 0, seeds[2]), (7919, 1, seeds[3])]:
        ss = np.random.SeedSequence(seed, spawn_key=(idx,))
        assert got == int(ss.generate_state(1, np.uint64)[0])
    zero = integrate_chain(ChainVector.zero(), spec, 100, seed=0)
    assert (zero.mean, zero.stderr, zero.samples) == (0.0, 0.0, 0)


def test_shard_variance_merge_is_stable(monkeypatch):
    """Weights 1e9 + U(0, 1): a variance from sum(w^2)/n - mean^2 loses
    every digit, the merged per-shard M2 keeps them."""
    import periodforge.engine as engine

    rng = np.random.default_rng(8)
    shards = [1e9 + rng.random(c) for c in (5000, 4096, 1, 777)]
    by_count = {w.size: w for w in shards}
    # points are the weights themselves, with log importance weight 0
    monkeypatch.setattr(engine, "simplex_sample", lambda rng, count, s:
                        (by_count[count], np.zeros(count)))

    class Ev:
        ig = residue_integrand(banana(2))

        def values(self, xs, logw):
            return xs * np.exp(logw)

    parts = [engine._run_shard(Ev(), None, 0, i, w.size)
             for i, w in enumerate(shards)]
    n, mean, m2 = engine._merge_moments(parts)
    allw = np.concatenate(shards)
    assert n == allw.size
    assert mean == math.fsum(w.sum() for w in shards) / n
    assert m2 / n == pytest.approx(np.var(allw), rel=1e-9)
    naive = math.fsum((w * w).sum() for w in shards) / n - mean * mean
    assert abs(naive - np.var(allw)) > np.var(allw)


def test_residue_exact_psi_row(monkeypatch):
    """A residue corner row that the float LDL^T flags takes the exact Psi
    once, and its weight is the exact one, rounded; a row whose exact Psi
    is zero still aborts the shard."""
    ev = engine._Evaluator(residue_integrand(wheel(3)))
    calls = []
    exact = ev.inc.psi_exact
    monkeypatch.setattr(ev.inc, "psi_exact",
                        lambda y: calls.append(y) or exact(y))
    xs = np.array([[0.2, 0.3, 0.1, 0.15, 0.15, 0.1],
                   [1, 1, 1, 1e-20, 1e-20, 1e-20]])
    xs /= xs.sum(axis=1, keepdims=True)
    assert ev.inc.factor(xs / xs[:, 5:])[2].tolist() == [False, True]
    w = ev.values(xs, np.zeros(2))
    assert len(calls) == 1
    assert np.isfinite(w).all()
    xc = Fraction(xs[1, 5])
    ys = [Fraction(float(y)) for y in xs[1] / xs[1, 5]]
    psi = graph_polynomial(wheel(3)).evaluate(ys)
    assert w[1] == pytest.approx(float(1 / (psi ** 2 * xc ** 6)), rel=1e-12)

    # the triangle of edges 1, 2, 4 at zero: every spanning-tree
    # complement meets it, so Psi = 0 exactly
    zero = np.array([[0.0, 0.0, 0.25, 0.0, 0.25, 0.5]])
    monkeypatch.setattr(engine, "simplex_sample",
                        lambda rng, count, s: (zero, np.zeros(1)))
    calls.clear()
    with pytest.raises(engine.NonFinitePointError):
        engine._run_shard(ev, None, 0, 0, 1)
    assert len(calls) == 1


def test_residue_weight_at_cancelling_rows():
    """At the rows (1, 1, 1, t, t, t) of W3 the LDL^T pivots cancel: the
    float Psi was off by 9e-5, 5% and 147% relative at these t.  Their
    scaled pivots are below the guard, so the rows take the exact Psi and
    each weight is the exact one, rounded."""
    ev = engine._Evaluator(residue_integrand(wheel(3)))
    psi = graph_polynomial(wheel(3))
    xs = np.array([[1, 1, 1, t, t, t] for t in (1e-12, 1e-14, 3e-16)])
    xs /= xs.sum(axis=1, keepdims=True)
    assert ev.inc.factor(xs / xs[:, 5:])[2].all()
    w = ev.values(xs, np.zeros(3))
    for x, got in zip(xs, w):
        xc = Fraction(x[5])
        ys = [Fraction(float(y)) for y in x / x[5]]
        want = 1 / (psi.evaluate(ys) ** 2 * xc ** 6)
        assert got == pytest.approx(float(want), rel=1e-12)


def test_corner_rows_raise_no_warning():
    """The corner row of the exact-Gram test, through the form word and
    the residue, under warnings as errors."""
    import warnings

    from periodforge.forms import BatchedGraphFormEvaluator

    xs = np.array([[0.2, 0.3, 0.1, 0.15, 0.15, 0.1],
                   [1, 1, 1, 1e-300, 1e-300, 1e-300]])
    form = BatchedGraphFormEvaluator(wheel(3), FormSpec((5,)))
    residue = engine._Evaluator(residue_integrand(wheel(3)))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert np.isfinite(form.evaluate(xs)).all()
        residue.values(xs, np.zeros(2))
        residue.values(xs / xs.sum(axis=1, keepdims=True), np.zeros(2))


def test_nonfinite_abort_reports_point():
    from periodforge.engine import NonFinitePointError

    err = NonFinitePointError(np.array([0.0, 1.0]))
    assert "x = [0.0, 1.0]" in str(err)
    assert list(err.point) == [0.0, 1.0]


# ---------------------------------------------------------------------------
# zeta constants
# ---------------------------------------------------------------------------

def test_zeta_values():
    with mp.workdps(45):
        assert abs(zeta(2) - mp.pi ** 2 / 6) < mp.mpf(10) ** -35
        assert mp.nstr(zeta(3), 20) == "1.2020569031595942854"
    with pytest.raises(ValueError):
        zeta(0)
    with mp.workdps(70):
        pi, tol = mp.pi, mp.mpf(10) ** -58
        assert abs(zeta(4) - pi ** 4 / 90) < tol
        assert abs(zeta(6) - pi ** 6 / 945) < tol
        assert abs(zeta(8) - pi ** 8 / 9450) < tol
        # Euler's evaluations of double zeta values
        assert abs(zeta2(2, 1) - zeta(3)) < tol
        assert abs(zeta2(3, 1) - pi ** 4 / 360) < tol
        assert abs(zeta2(2, 2) - pi ** 4 / 120) < tol


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
