"""The sparse elimination kernel against oracles that share none of its code:
Leibniz determinants with their own permutation sign, exact matrix
products, and ranks read off the largest non-zero minor."""

import itertools
import random
from fractions import Fraction

import pytest

from periodforge.forms import FormError, FormEvaluator, _invert_exact
from periodforge.graphcomplex import ComplexError, matrix_rank
from periodforge.graphs import wheel
from periodforge.polynomials import echelon, laplacian, pivot
from periodforge.voronoi import QuadraticForm

_P = 7  # small, so ranks mod p often fall below ranks over Q


def _sign(perm):
    """(-1)^inversions."""
    inv = sum(1 for i, j in itertools.combinations(range(len(perm)), 2)
              if perm[i] > perm[j])
    return -1 if inv % 2 else 1


def _leibniz(a):
    n = len(a)
    total = Fraction(0)
    for perm in itertools.permutations(range(n)):
        term = Fraction(_sign(perm))
        for i in range(n):
            term *= a[i][perm[i]]
        total += term
    return total


def _minor_rank(a, ncols, p=None):
    """Largest k with a k x k minor that is non-zero (mod p when given)."""
    for k in range(min(len(a), ncols), 0, -1):
        for rs in itertools.combinations(range(len(a)), k):
            for cs in itertools.combinations(range(ncols), k):
                d = _leibniz([[a[r][c] for c in cs] for r in rs])
                if (d % p if p else d):
                    return k
    return 0


def _random_matrix(rng, nrows, ncols, rational):
    """Entries often zero; sometimes a dependent row, sometimes a zero
    leading entry (which forces the elimination off the diagonal)."""
    def entry():
        if rng.random() < 0.4:
            return Fraction(0)
        num = rng.randint(-6, 6)
        return Fraction(num, rng.randint(1, 5)) if rational else Fraction(num)

    a = [[entry() for _ in range(ncols)] for _ in range(nrows)]
    if nrows >= 2 and rng.random() < 0.3:
        f = Fraction(rng.randint(-3, 3), rng.randint(1, 3) if rational else 1)
        a[-1] = [f * x + y for x, y in zip(a[0], a[1])]
    if nrows and ncols and rng.random() < 0.5:
        a[0][0] = Fraction(0)
    return a


def _sparse(a, p=None):
    if p:
        return [{j: int(v) % p for j, v in enumerate(r) if int(v) % p}
                for r in a]
    return [{j: v for j, v in enumerate(r) if v} for r in a]


def _matrices(rational, count=60, seed=11):
    rng = random.Random(seed + rational)
    for _ in range(count):
        n = rng.randint(0, 5)
        yield _random_matrix(rng, n, n, rational)


@pytest.mark.parametrize("rational", [False, True])
def test_echelon_determinant_matches_leibniz(rational):
    singular = 0
    for a in _matrices(rational):
        pivots = echelon(_sparse(a))
        det = Fraction(0)
        if len(pivots) == len(a):
            det = Fraction(_sign([c for _, c, _ in sorted(pivots)]))
            for _, _, v in pivots:
                det *= v
        assert det == _leibniz(a)
        singular += det == 0
    assert 0 < singular < 60


def test_echelon_clears_only_the_rows_not_yet_pivoted():
    """Row echelon form, not reduced: the row pivoted first keeps its entry
    in the column pivoted second."""
    rows = [{0: Fraction(1), 1: Fraction(1)},
            {0: Fraction(1), 1: Fraction(2), 2: Fraction(1)}]
    (r0, c0, _), (r1, c1, _) = echelon(rows)
    assert (r0, c0, r1, c1) == (0, 0, 1, 1)
    assert rows[r0].get(c1) == 1


def test_echelon_pivots_on_the_column_in_fewest_rows():
    rows = [{0: 3, 1: 1}, {0: 1, 2: 1, 3: 1}]
    assert echelon(rows, _P)[0] == (0, 1, 1)


def _echelon_by_rescan(rows, p=None, limit=None):
    """The pivot rule of ``echelon`` with every candidate column counted by
    a scan of the remaining rows: the oracle for its kept-up-to-date
    counts."""
    def live(i):
        return [c for c in rows[i] if limit is None or c < limit]

    pivots = []
    rest = list(range(len(rows)))
    while True:
        rest = [i for i in rest if live(i)]
        if not rest:
            return pivots
        r = min(rest, key=lambda i: len(rows[i]))
        rest.remove(r)
        others = [rows[i] for i in rest]
        c = min(live(r), key=lambda j: (sum(1 for o in others if j in o), j))
        pivots.append((r, c, rows[r][c]))
        pivot([rows[r]] + others, 0, c, p)


def _sparse_sum(x, y, p):
    out = dict(x)
    for c, v in y.items():
        t = out.get(c, 0) + v
        if p:
            t %= p
        if t:
            out[c] = t
        else:
            out.pop(c, None)
    return out


@pytest.mark.parametrize("p", [None, 2 ** 31 - 1])
def test_echelon_pivots_match_rescan_rule(p):
    """Seeded sparse matrices, some with dependent rows, over Q and mod a
    large prime, and with a column limit: the same pivots in the same
    order, and the same rows left behind."""
    rng = random.Random(31 if p else 37)
    for _ in range(40):
        nrows, ncols = rng.randint(1, 40), rng.randint(1, 40)
        density = rng.choice([0.05, 0.1, 0.3])
        a = [{j: (rng.randint(1, p - 1) if p else
                  Fraction(rng.choice([-3, -2, -1, 1, 2, 3]),
                           rng.randint(1, 4)))
              for j in range(ncols) if rng.random() < density}
             for _ in range(nrows)]
        for _ in range(rng.randint(0, 3)):
            i, j = rng.randrange(nrows), rng.randrange(nrows)
            a.append(dict(a[i]) if i == j else _sparse_sum(a[i], a[j], p))
        limit = rng.choice([None, None, max(1, ncols // 2)])
        got, want = [dict(r) for r in a], [dict(r) for r in a]
        assert echelon(got, p, limit) == _echelon_by_rescan(want, p, limit)
        assert got == want


def test_leading_minors_match_leibniz():
    rng = random.Random(5)
    for _ in range(40):
        n = rng.randint(1, 5)
        b = _random_matrix(rng, n, n, rational=True)
        a = [[b[i][j] + b[j][i] for j in range(n)] for i in range(n)]
        minors = QuadraticForm(a).leading_minors()
        assert minors == [_leibniz([r[:k] for r in a[:k]])
                          for k in range(1, n + 1)]


@pytest.mark.parametrize("rational", [False, True])
def test_exact_inverse_is_exact(rational):
    inverted = singular = 0
    for a in _matrices(rational, seed=23):
        n = len(a)
        if _leibniz(a) == 0:
            with pytest.raises(FormError):
                _invert_exact(a)
            singular += 1
            continue
        inv = _invert_exact(a)
        assert [[sum(a[i][k] * inv[k][j] for k in range(n)) for j in range(n)]
                for i in range(n)] == [[int(i == j) for j in range(n)]
                                       for i in range(n)]
        inverted += 1
    assert inverted >= 15 and singular >= 5


@pytest.mark.parametrize("p", [None, _P])
def test_echelon_rank_matches_largest_minor(p):
    rng = random.Random(31)
    below = 0
    for _ in range(50):
        nrows, ncols = rng.randint(0, 5), rng.randint(0, 5)
        a = _random_matrix(rng, nrows, ncols, rational=False)
        rank = len(echelon(_sparse(a, p), p))
        assert rank == _minor_rank(a, ncols, p)
        below += p is not None and rank < _minor_rank(a, ncols)
    if p:
        assert below  # the modular rank is not the rational one in disguise


def test_exact_form_evaluation_at_singular_point_raises():
    """Zero lengths on a triangle of W3 leave every spanning tree's
    complement with a zero edge, so the Laplacian is singular there, as it
    is at the origin."""
    g = wheel(3)
    lam = laplacian(g)
    for pt in ([Fraction(0)] * g.ne,
               [Fraction(0) if e in _triangle(g) else Fraction(e)
                for e in g.edge_ids]):
        assert _leibniz(lam.evaluate(pt)) == 0
        with pytest.raises(FormError):
            FormEvaluator(lam).coefficients(5, pt)


def _triangle(g):
    """Edge ids of one triangle of g."""
    for e, f, h in itertools.combinations(g.edge_ids, 3):
        ends = [set(g.endpoints(x)) for x in (e, f, h)]
        if len(ends[0] | ends[1] | ends[2]) == 3 and all(
                len(s) == 2 for s in ends):
            return {e, f, h}
    raise AssertionError("no triangle")


def test_matrix_rank_mismatch_raises():
    """2^31 - 1 has rank 1 over Q and rank 0 modulo itself."""
    with pytest.raises(ComplexError, match="rank mismatch"):
        matrix_rank({(0, 0): 2**31 - 1}, 1, 1)
