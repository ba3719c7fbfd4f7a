"""Monte-Carlo evaluation of Feynman residues and canonical integrals.

Estimates are importance-weighted means under the tropical measure, split
into shards with independently seeded streams; the shards run one after
another and are reduced in index order, so results are bit-identical for a
given (seed, samples, shard size).  A shard is drawn and evaluated one block
at a time, each block reading its rows of the shard's stream, so results do
not depend on the block size either, with one exception: the matrix product
of ``CycleIncidence.gram`` rounds differently in blocks of 1-4 rows, so a
form-word estimate over such blocks can differ in its last bits.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

# The pure-Python layers load before numpy (tropical loads it): in the other
# order a cold `import periodforge.engine` with no cached bytecode peaks
# 1.9 MB higher (30.2 against 28.3 MB ru_maxrss, Python 3.11 and numpy 2.4
# on x86-64 Linux).
from .graphs import Graph, GraphError
from .polynomials import Poly, PolynomialError
from .forms import BatchedGraphFormEvaluator, CycleIncidence, FormSpec
from .graphcomplex import ChainVector
from .tropical import (RowWindow, TropicalSampler, build_measure,
                       simplex_sample)

import numpy as np

_SHARD = 65536
# samples per block: it bounds the points, Laplacians, Gram tensor and DP
# path arrays alive at once, which a shard never holds for all its samples
_BLOCK = 8192


class IntegrationError(ValueError):
    pass


class NonFinitePointError(IntegrationError):
    """A sampled point produced NaN/overflow; carries the point."""

    def __init__(self, point):
        self.point = point
        super().__init__(
            "non-finite integrand value at x = "
            f"{[float(c) for c in point]}")


@dataclass(frozen=True)
class Integrand:
    """c x^nu / Psi(x)^k against the projective volume form, or a form word.

    The numerator c x^nu is a one-term Poly over the |E| edge variables
    and must be projectively homogeneous: |nu| - k*h = -|E|.  It fixes the
    matched tropical density x^nu / (Psi^tr)^k, so each sample weighs
    c T (Psi^tr / Psi)^k with T the tropical period.  Form-word integrands
    evaluate pointwise through the batched Laplacian evaluator.
    """

    graph: Graph
    numerator: Poly | None = None
    psi_power: int = 0
    form_spec: FormSpec | None = None

    def __post_init__(self):
        g = self.graph
        if not g.is_connected:
            raise GraphError("integrands need a connected graph")
        if (self.numerator is None) == (self.form_spec is None):
            raise GraphError("integrand is either polynomial or a form word")
        if self.numerator is not None:
            if self.numerator.nvars != g.ne:
                raise GraphError("numerator must be a polynomial in the "
                                 f"{g.ne} edge variables")
            if len(self.numerator.coeffs) != 1:
                raise GraphError("numerator must be one monomial")
            (nu,) = self.numerator.coeffs
            if sum(nu) - self.psi_power * g.loop_number() != -g.ne:
                raise GraphError(
                    "non-projective integrand: deg N - k h != -|E|")
        else:
            # the matched density's exponent |E|/h needs a loop
            if g.loop_number() == 0:
                raise GraphError("form-word integrands need a graph with "
                                 "at least one loop")
            if self.form_spec.degree != g.ne - 1:
                raise GraphError("form degree must be |E| - 1")

    def sampler_parameters(self) -> tuple[tuple[int, ...], Fraction]:
        """(nu, k) of the matched tropical density."""
        if self.form_spec is None:
            (nu,) = self.numerator.coeffs
            return nu, Fraction(self.psi_power)
        g = self.graph
        return (0,) * g.ne, Fraction(g.ne, g.loop_number())


def residue_integrand(g: Graph) -> Integrand:
    """1/Psi^2 against Omega; requires the projective count |E| = 2h."""
    if g.ne != 2 * g.loop_number():
        raise GraphError(
            f"non-projective residue: |E| = {g.ne} != 2h = {2 * g.loop_number()}")
    return Integrand(g, numerator=Poly.const(g.ne, 1), psi_power=2)


def canonical_integrand(g: Graph, spec: FormSpec) -> Integrand:
    return Integrand(g, form_spec=spec)


def monomial_integrand(g: Graph, edge_ids: Sequence[int], psi_power: int,
                       coeff: int = 1) -> Integrand:
    try:
        num = Poly.monomial(g.ne, edge_ids, coeff)
    except PolynomialError as exc:
        raise GraphError(f"edge ids must lie in 1..{g.ne}: {exc}") from None
    return Integrand(g, numerator=num, psi_power=psi_power)


@dataclass(frozen=True)
class IntegralEstimate:
    mean: float
    stderr: float
    samples: int
    seed: int

    def z(self, target: float) -> float:
        if self.stderr == 0:
            if self.mean == target:
                return 0.0
            raise IntegrationError("zero standard error with mean != target")
        return (self.mean - target) / self.stderr

    def abs_z(self, target: float) -> float:
        """z-score of |mean| against a positive target (the orientation of
        a single-graph integral is a convention)."""
        if self.stderr == 0:
            return 0.0 if abs(self.mean) == target else math.inf
        return (abs(self.mean) - target) / self.stderr

    def scaled(self, c: float) -> "IntegralEstimate":
        return IntegralEstimate(c * self.mean, abs(c) * self.stderr,
                                self.samples, self.seed)

    def to_json(self) -> dict:
        return {"mean": self.mean, "stderr": self.stderr,
                "samples": self.samples, "seed": self.seed}


class _Evaluator:
    """Shared per-integrand state: Laplacian incidence + form evaluator."""

    def __init__(self, ig: Integrand):
        self.ig = ig
        g = ig.graph
        self.form = None
        if ig.form_spec is not None:
            self.form = BatchedGraphFormEvaluator(g, ig.form_spec)
        self.inc = self.form.inc if self.form else CycleIncidence(g)

    def values(self, xs, logw):
        """Weights f * exp(logw) at simplex points, where I = integral of
        f * Omega and ``logw`` is the sampler's log importance weight.

        For c x^nu / Psi^k the sampler's density carries x^nu, so the
        weight is c exp(logw - k log Psi(x)) = c T (Psi^tr / Psi)^k at the
        simplex point itself; log Psi comes from the incidence, which
        repairs the rows its float factorisation cannot trust.
        """
        ig = self.ig
        if ig.form_spec is not None:
            return self.form.integrand_values(xs) * np.exp(logw)
        (c,) = ig.numerator.coeffs.values()
        # a non-finite weight is reported by _run_shard, not warned about
        with np.errstate(all="ignore"):
            logw = logw - ig.psi_power * self.inc.log_psi(xs)
            return float(c) * np.exp(logw, out=logw)


def _run_shard(ev: _Evaluator, sampler: TropicalSampler, seed: int,
               shard_index: int, count: int):
    """(count, weight sum, M2) of one shard, drawn, evaluated and checked
    one block at a time: each block reads its rows of the shard's stream
    through a ``RowWindow``, so only the weights are shard-sized."""
    rng = np.random.Generator(np.random.PCG64(
        np.random.SeedSequence(entropy=seed, spawn_key=(shard_index,))))
    start = rng.bit_generator.state
    w = np.empty(count)
    for lo in range(0, count, _BLOCK):
        m = min(_BLOCK, count - lo)
        xs, logw = simplex_sample(RowWindow(rng, start, lo, count), m, sampler)
        blk = w[lo:lo + m]
        blk[...] = ev.values(xs, logw)
        bad = ~np.isfinite(blk)
        if bad.any():
            raise NonFinitePointError(xs[int(np.argmax(bad))])
    # (count, sum, M2 about the shard's own mean), in two passes
    total = float(w.sum())
    dev = w - total / count
    dev *= dev
    return count, total, float(dev.sum())


def _merge_moments(parts):
    """(n, mean, M2) of the concatenated shards: M2 = sum_i M2_i +
    sum_i n_i (mean_i - mean)^2 (Chan, Golub and LeVeque), which never
    subtracts two large second moments."""
    n = sum(p[0] for p in parts)
    mean = math.fsum(p[1] for p in parts) / n
    m2 = math.fsum(p[2] for p in parts) + math.fsum(
        p[0] * (p[1] / p[0] - mean) ** 2 for p in parts)
    return n, mean, m2


def _check_arguments(samples, seed, threads=1, shard_size=_SHARD) -> None:
    """Rejects, naming the value, an argument ``integrate`` cannot use; an
    unknown keyword raises TypeError."""
    if not isinstance(samples, numbers.Integral) or samples < 2:
        raise IntegrationError(
            f"samples must be an integer of at least 2, got {samples!r}")
    if not isinstance(seed, numbers.Integral) or seed < 0:
        raise IntegrationError(
            f"seed must be a non-negative integer, got {seed!r}")
    if not isinstance(threads, numbers.Integral) or threads != 1:
        raise IntegrationError(f"threads must be 1, got {threads!r}")
    if not isinstance(shard_size, numbers.Integral) or shard_size < 1:
        raise IntegrationError(
            f"shard_size must be an integer of at least 1, got {shard_size!r}")


def integrate(ig: Integrand, samples: int, seed: int, threads: int = 1,
              shard_size: int = _SHARD) -> IntegralEstimate:
    """Importance-weighted estimate of the projective integral of ig under
    its matched tropical measure.

    Deterministic for fixed (seed, samples, shard_size); shards have
    independent substreams and are reduced in index order.  ``threads``
    accepts only 1: the engine runs in one thread, and the parameter stays
    because the benchmark worker passes ``threads=1``.
    """
    _check_arguments(samples, seed, threads, shard_size)
    nu, k = ig.sampler_parameters()
    samp = TropicalSampler(build_measure(ig.graph, nu, k))
    ev = _Evaluator(ig)
    shards = [(i, min(shard_size, samples - i * shard_size))
              for i in range((samples + shard_size - 1) // shard_size)]
    n, mean, m2 = _merge_moments(
        [_run_shard(ev, samp, seed, i, c) for i, c in shards])
    return IntegralEstimate(mean, math.sqrt(m2 / n / (n - 1)), n, seed)


def integrate_residue(g: Graph, samples: int, seed: int, **kw) -> IntegralEstimate:
    return integrate(residue_integrand(g), samples, seed, **kw)


def integrate_canonical(g: Graph, spec: FormSpec, samples: int, seed: int,
                        **kw) -> IntegralEstimate:
    """Canonical integral of the form word, in the orientation of the chart
    of the last edge.

    The sign is a convention (the simplex is oriented so single-graph
    integrals come out positive); compare against positive targets with
    ``abs_z``.  The matched sampler runs at exponent |E|/h, so graphs whose
    subgraphs defeat that tropical density raise DivergentIntegrandError
    even though canonical integrals are always finite; such cases need a
    hand-picked nu.
    """
    return integrate(canonical_integrand(g, spec), samples, seed, **kw)


def integrate_chain(chain: ChainVector, spec: FormSpec, samples: int,
                    seed: int, threads: int = 1,
                    shard_size: int = _SHARD) -> IntegralEstimate:
    """Coefficient-weighted sum of canonical integrals over a chain.

    Each class is integrated over its canonical representative in the
    chart orientation; the chain coefficients already carry the edge-order
    parities relative to those representatives.  Class ``i`` is seeded
    from ``SeedSequence(seed, spawn_key=(i,))``, so no two (seed, class)
    pairs share a stream.  The arguments are checked as in ``integrate``,
    also for a zero chain; ``threads`` and ``shard_size`` go on to each
    class's ``integrate_canonical``.
    """
    _check_arguments(samples, seed, threads, shard_size)
    if chain.is_zero():
        return IntegralEstimate(0.0, 0.0, 0, seed)
    for cls in chain.coeffs:
        if cls.graph.ne != spec.degree + 1:
            raise GraphError("chain graphs must have degree + 1 edges")
    mean = 0.0
    var = 0.0
    n = 0
    for idx, (cls, coeff) in enumerate(
            sorted(chain.coeffs.items(), key=lambda t: t[0].key())):
        ss = np.random.SeedSequence(seed, spawn_key=(idx,))
        est = integrate_canonical(cls.graph, spec, samples,
                                  int(ss.generate_state(1, np.uint64)[0]),
                                  threads=threads, shard_size=shard_size)
        mean += float(coeff) * est.mean
        var += float(coeff) ** 2 * est.stderr ** 2
        n += est.samples
    return IntegralEstimate(mean, math.sqrt(var), n, seed)


def tolerance(target: float, stderr: float) -> float:
    """Acceptance tolerance: 3 standard errors plus a 0.5% systematic floor."""
    return 3.0 * stderr + 0.005 * abs(target)
