import random
from typing import Sequence

import numpy as np
import pytest

from periodforge.graphs import (Graph, banana, complete, complete_bipartite,
                                cycle, dumbbell, wheel, zigzag)
from periodforge.tropical import TropicalSampler, build_measure, simplex_sample


def dunce_graph() -> Graph:
    """3 vertices, 4 edges, with a doubled edge between vertices 2 and 3."""
    return Graph((0, 0, 0), ((1, 2), (1, 3), (2, 3), (2, 3)))


def labelled_w3() -> Graph:
    """W3 with the labelling used in the worked Laplacian example:
    rim 1,2,3, hub 4; spokes are edges 1..3, rim edges 4=(2,3), 5=(1,3),
    6=(1,2)."""
    return Graph((0, 0, 0, 0), ((1, 4), (2, 4), (3, 4), (2, 3), (1, 3), (1, 2)))


def random_connected_graph(rng: random.Random, max_edges: int = 9,
                           allow_loops: bool = True) -> Graph:
    nv = rng.randint(2, 6)
    edges = []
    for v in range(2, nv + 1):
        edges.append((rng.randint(1, v - 1), v))
    extra = rng.randint(0, max(0, max_edges - len(edges)))
    for _ in range(extra):
        u = rng.randint(1, nv)
        v = rng.randint(1, nv)
        if u == v and not allow_loops:
            v = u % nv + 1
        edges.append((u, v))
    rng.shuffle(edges)
    return Graph((0,) * nv, tuple(edges))


def small_corpus() -> list[Graph]:
    """Builders at small size plus the worked examples."""
    out = [banana(2), banana(3), banana(4), dunce_graph(), labelled_w3(),
           wheel(3), wheel(4), cycle(1), cycle(2), cycle(5), dumbbell(),
           complete(4), zigzag(3), zigzag(4), complete_bipartite(2, 3)]
    return out


@pytest.fixture
def corpus():
    return small_corpus()


@pytest.fixture
def rng():
    return random.Random(20240817)


def tropical_sample(g: Graph, k, seed: int, count: int,
                    nu: Sequence[int] | None = None):
    """Convenience wrapper: (points on the simplex, importance weights)
    under the tropical measure of (nu, k); see ``simplex_sample``."""
    sampler = TropicalSampler(build_measure(g, nu, k))
    rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence(seed)))
    xs, logw = simplex_sample(rng, count, sampler)
    return xs, np.exp(logw)
