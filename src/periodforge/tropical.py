"""Tropical importance sampling on the projective simplex of a graph.

The tropical graph polynomial max_T prod_{e not in T} x_e is piecewise
monomial on the simplicial sectors x_{pi(1)} >= ... >= x_{pi(n)}.  The
normalisation of the density x^nu / (Psi^tr)^k against the projective
volume form decomposes over sectors into products of 1/omega(gamma) over
the tails gamma of pi, where

    omega(gamma) = nu(gamma) + |gamma| - k * h(gamma)

and h is the loop number of the edge subset.  A subset table of these
partial sums both computes the normalisation exactly (a rational, the
tropical period) and drives the sampler: sectors are drawn by walking the
subset lattice, the coordinates by power-law draws.

Positivity of omega on proper nonempty subsets is exactly the convergence
criterion; for nu = 0 and k = 2 it is subdivergence-freeness.

The subset table is kept in integers.  With k = p/q in lowest terms,
q * omega(S) = q * (nu(S) + |S|) - p * h(S) is an integer for every subset.
The table T(empty) = 1, T(S) = sum_{i in S} T(S - i) / omega(S) for proper
S and T(E) = sum_{i in E} T(E - i) becomes, scaled by N(S) = T(S) * L^|S|
with L the lcm of q * omega over the proper nonempty subsets,

    N(S) = q * (L // (q * omega(S))) * sum_{i in S} N(S - i),
    N(E) = L * sum_{i in E} N(E - i).

Every L // (q * omega(S)) is an exact quotient, so N is a table of
integers and the tropical period is the rational N(E) / L^|E| exactly, with
no fraction built per subset.  The sampler's floats N(S) / L^|S| come from
Python's correctly rounded integer division, so they equal float(T(S)).
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

import numpy as np

from .graphs import MAX_SUBSET_EDGES, Graph, GraphError


class DivergentIntegrandError(ValueError):
    """The tropical normalisation diverges; carries one offending subset."""

    def __init__(self, subset, omega):
        self.subset = tuple(subset)
        self.omega = omega
        super().__init__(
            f"edge subset {self.subset} has omega = {omega} <= 0; "
            "the tropical measure diverges")


def _popcounts(n: int) -> np.ndarray:
    """Number of edges of every subset, indexed by bitmask."""
    pc = np.zeros(1 << n, dtype=np.int8)
    for i in range(n):
        pc[1 << i:2 << i] = pc[:1 << i] + 1
    return pc


def _mask_edges(mask: int, n: int) -> tuple[int, ...]:
    """Edge ids of a bitmask: bit i is edge i + 1."""
    return tuple(i + 1 for i in range(n) if mask >> i & 1)


def subset_loop_numbers(g: Graph) -> np.ndarray:
    """Loop number of every edge subset, indexed by bitmask.

    Bit i of the mask is edge i + 1.  The table is built one edge at a
    time: the subsets whose highest edge is i take the vertex component
    labels of the subset without i.  Edge i closes a loop when its
    endpoints already share a label (always for a self-edge); otherwise it
    merges the two labels.
    """
    n = g.ne
    if n > MAX_SUBSET_EDGES:
        raise GraphError(f"subset tables capped at {MAX_SUBSET_EDGES} edges")
    h = np.zeros(1 << n, dtype=np.int8)
    # component label of every vertex, for each subset of the edges so far
    labels = np.empty((1 << max(n - 1, 0), g.nv + 1),
                      dtype=np.min_scalar_type(g.nv))
    labels[0] = np.arange(g.nv + 1)
    for i, (u, v) in enumerate(g.edges):
        lo = 1 << i
        below = labels[:lo]
        lu, lv = below[:, u], below[:, v]
        h[lo:2 * lo] = h[:lo] + (lu == lv)
        if i + 1 < n:
            labels[lo:2 * lo] = np.where(below == lv[:, None], lu[:, None],
                                         below)
    return h


@dataclass
class TropicalMeasure:
    """Exact subset tables for one density x^nu / (Psi^tr)^k."""

    graph: Graph
    nu: tuple[int, ...]
    k: Fraction
    tropical_period: Fraction
    h: np.ndarray                 # loop number by bitmask
    omega_num: np.ndarray         # q * omega by bitmask, k = p/q; ints
    scale: int                    # L, the lcm of q * omega on proper subsets
    scaled_weights: np.ndarray    # N = T * L^|S| by bitmask, Python ints

    @property
    def n(self) -> int:
        return self.graph.ne

    def subset_weights(self) -> np.ndarray:
        """Float T-table by bitmask, each entry correctly rounded."""
        lpow = np.array([self.scale ** j for j in range(self.n + 1)],
                        dtype=object)
        return (self.scaled_weights / lpow[_popcounts(self.n)]).astype(float)


def build_measure(g: Graph, nu: Sequence[int] | None = None,
                  k: Fraction | int | None = None) -> TropicalMeasure:
    """Exact preprocessing pass; k defaults to the projective exponent.

    Raises DivergentIntegrandError when some proper subset makes the
    tropical measure infinite (the subset of smallest bitmask is reported),
    and GraphError when the density is not projectively homogeneous.
    """
    n = g.ne
    if n < 2:
        raise GraphError("need at least two edges to integrate")
    nu = tuple(nu if nu is not None else [0] * n)
    for x in nu:
        if not isinstance(x, numbers.Integral):
            raise GraphError(f"nu entry {x!r} is not an integer")
    nu = tuple(map(int, nu))
    if len(nu) != n or any(x < 0 for x in nu):
        raise GraphError("nu needs one non-negative exponent per edge")
    h = subset_loop_numbers(g)
    hloop = g.loop_number()
    if k is None:
        k = Fraction(sum(nu) + n, hloop)
    k = Fraction(k)
    full = (1 << n) - 1
    if Fraction(sum(nu) + n) - k * int(h[full]) != 0:
        raise GraphError(
            f"density x^nu/(Psi^tr)^{k} is not projectively homogeneous")
    p, q = k.numerator, k.denominator
    # q * omega by bitmask, as Python integers
    qom = np.zeros(1 << n, dtype=object)
    for i in range(n):
        qom[1 << i:2 << i] = qom[:1 << i] + q * (nu[i] + 1)
    qom -= p * h.astype(object)
    bad = np.flatnonzero(qom[1:full] <= 0)
    if bad.size:
        mask = int(bad[0]) + 1
        raise DivergentIntegrandError(_mask_edges(mask, n),
                                      Fraction(qom[mask], q))
    scale = math.lcm(*set(qom[1:full].tolist()))
    coef = np.empty(1 << n, dtype=object)
    coef[1:full] = q * (scale // qom[1:full])
    coef[full] = scale
    # N level by level: a subset of size l needs every subset of size l - 1
    pc = _popcounts(n)
    order = np.argsort(pc, kind="stable")
    ends = np.cumsum(np.bincount(pc, minlength=n + 1))
    N = np.zeros(1 << n, dtype=object)
    N[0] = 1
    for size in range(1, n + 1):
        masks = order[ends[size - 1]:ends[size]]
        acc = np.zeros(masks.size, dtype=object)
        for i in range(n):
            has = (masks >> i & 1).astype(bool)
            acc[has] += N[masks[has] ^ (1 << i)]
        N[masks] = coef[masks] * acc
    period = Fraction(N[full], scale ** n)
    return TropicalMeasure(g, nu, k, period, h, qom, scale, N)


class TropicalSampler:
    """Vectorised sampler for a tropical measure.

    Draws are deterministic functions of the numpy Generator handed in;
    points come back as log-coordinates normalised to max log x = 0,
    together with log Psi^tr at the point.

    Row ``mask`` of the tables lists the edges of the subset in increasing
    order: ``bit`` the edge, ``cum`` the cumulative probability of dropping
    it (T(mask - edge) over the sum of these, added left to right), and
    ``hdrop`` the loop number lost with it.  Columns past the size of the
    subset hold 1.0 in ``cum`` and 0 elsewhere.  The tables are built edge
    by edge in increasing order, each edge over strided views that pair
    every mask holding it with its partner without it, and scattered into
    each mask's column for the edge, so every sum adds its terms left to
    right.
    """

    def __init__(self, measure: TropicalMeasure):
        n = measure.n
        size = 1 << n
        self.n = n
        h = measure.h
        T = measure.subset_weights()
        pc = _popcounts(n)
        total = np.zeros(size)
        acc = np.zeros(size)
        self.cum = np.ones((size, n))
        self.bit = np.zeros((size, n), dtype=np.int8)
        self.hdrop = np.zeros((size, n), dtype=np.int8)
        cum, bit, hdrop = self.cum.ravel(), self.bit.ravel(), self.hdrop.ravel()

        def split(a, i):
            """(masks above edge i, without / with i, masks below i): a mask
            holding i and its partner without it sit at the same place."""
            return a.reshape(-1, 2, 1 << i)

        # edge by edge, so each sum adds its terms in increasing edge order
        for i in range(n):
            split(total, i)[:, 1] += split(T, i)[:, 0]
        total[0] = 1.0  # the empty subset drops no edge; avoids 0 / 0
        masks = np.arange(size, dtype=np.int32)
        for i in range(n):
            held = split(acc, i)[:, 1]
            held += split(T, i)[:, 0] / split(total, i)[:, 1]
            # edge i's column in a mask is the number of its edges below i
            at = split(masks, i)[:, 1] * n + pc[:1 << i]
            cum[at] = held
            bit[at] = i
            hdrop[at] = split(h, i)[:, 1] - split(h, i)[:, 0]
        self.cum[0] = 0.0
        # int / int division of Python integers is correctly rounded
        self.omega_f = (measure.omega_num
                        / measure.k.denominator).astype(float)
        self.omega_f[0] = 1.0
        self.kf = float(measure.k)
        self.log_period = math.log(float(measure.tropical_period))
        self.hfull = int(h[size - 1])

    def sample(self, rng: np.random.Generator, count: int):
        """Returns (logx (count, n), log_psi_tr (count,)).

        A state of w edges drops the edge of its first column with cum >= r,
        found by a branchless lower-bound search over the first w - 1
        columns: the last live edge takes every r above them, also where
        its cum, a rounded sum, is just below 1.
        """
        n = self.n
        cum, bit, hdrop = self.cum.ravel(), self.bit.ravel(), self.hdrop.ravel()
        state = np.full(count, (1 << n) - 1, dtype=np.int64)
        logx = np.zeros(count)
        logxs = np.zeros((count, n))
        logpsitr = np.zeros(count)
        rows = np.arange(count)
        for step in range(n):
            if step > 0:
                u = rng.random(count)
                logx = logx + np.log(u) / self.omega_f[state]
            r = rng.random(count)
            at = state * n
            length = n - step - 1
            while length > 1:
                half = length // 2
                at += (cum[at + half] < r) * half
                length -= half
            if length:
                at += cum[at] < r
            e = bit[at].astype(np.int64)
            logxs[rows, e] = logx
            logpsitr += np.where(hdrop[at] == 1, logx, 0.0)
            state = state & ~(1 << e)
        return logxs, logpsitr


class RowWindow:
    """Rows ``lo .. lo + m`` of every draw of a shard that has ``total`` rows.

    An rng-like view for ``TropicalSampler.sample``: ``random(m)`` returns
    exactly those rows of the array that ``random(total)`` returns on the
    shard's generator ``gen``.  ``Generator.random`` reads one 64-bit output
    per double, so the call whose whole-shard draw starts at output ``base``
    of the stream resets ``gen`` to ``start``, the shard's start state, and
    advances it to ``base + lo``; the next call's draw starts at ``base +
    total``.  A shard thus never draws all its rows at once, and its points
    do not depend on how its rows are split into windows.
    """

    def __init__(self, gen: np.random.Generator, start: dict, lo: int,
                 total: int):
        self.gen = gen
        self.start = start
        self.lo = lo
        self.total = total
        self.base = 0

    def random(self, count: int):
        bits = self.gen.bit_generator
        bits.state = self.start
        bits.advance(self.base + self.lo)
        self.base += self.total
        return self.gen.random(count)


def simplex_sample(rng: np.random.Generator, count: int,
                   sampler: TropicalSampler):
    """(points on the simplex (count, n), log importance weights (count,)).

    Points are normalised to sum 1.  The log weight of a point x is log of
    tropical_period * (Psi^tr(x))^k, the reciprocal density times x^nu: for
    an integrand c x^nu / Psi^k the mean of c * exp(logw) / Psi(x)^k
    estimates its projective integral, and x^nu is never formed.  Every
    draw is an ``rng.random`` call, so ``rng`` may be a ``RowWindow``.
    """
    logxs, logpsitr = sampler.sample(rng, count)
    xs = np.exp(logxs)
    total = xs.sum(axis=1, keepdims=True)
    xs = xs / total
    # psi_tr is homogeneous of degree h: shift its log to the simplex scale
    scale = -np.log(total[:, 0])
    logpsitr = logpsitr + sampler.hfull * scale
    return xs, sampler.log_period + sampler.kf * logpsitr
