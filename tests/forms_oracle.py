"""Exterior-algebra oracle for the form-coefficient DP and the recursive
wedge split, used only by tests."""

from __future__ import annotations

import itertools
from fractions import Fraction

from periodforge.forms import _coefficient_matrices, _invert_exact, _merge_sign
from periodforge.polynomials import LinearFormMatrix


# ---------------------------------------------------------------------------
# dense oracle (slow, for cross-checks)
# ---------------------------------------------------------------------------

def dense_coefficients(x: LinearFormMatrix, n: int, point,
                       exact: bool = True) -> dict:
    """tr((X^-1 dX)^n) coefficients by direct exterior-algebra products.

    Entirely independent of the cycle-product evaluator: entries of
    X^-1 dX are expanded as 1-forms and multiplied with wedge bookkeeping.
    """
    m = x.size
    xp = x.evaluate([Fraction(p) for p in point])
    xinv = _invert_exact(xp)
    coeffs = _coefficient_matrices(x)
    base = [[dict() for _ in range(m)] for _ in range(m)]
    for v, av in coeffs.items():
        for i in range(m):
            for j in range(m):
                val = sum(xinv[i][k] * av[k][j] for k in range(m))
                if val:
                    base[i][j][frozenset({v})] = val

    def mul(a, b):
        out = [[dict() for _ in range(m)] for _ in range(m)]
        for i in range(m):
            for k in range(m):
                if not a[i][k]:
                    continue
                for j in range(m):
                    if not b[k][j]:
                        continue
                    dest = out[i][j]
                    for s1, c1 in a[i][k].items():
                        for s2, c2 in b[k][j].items():
                            if s1 & s2:
                                continue
                            key = s1 | s2
                            dest[key] = dest.get(key, Fraction(0)) + \
                                c1 * c2 * _merge_sign(s1, s2)
        return out

    acc = base
    for _ in range(n - 1):
        acc = mul(acc, base)
    tr: dict[frozenset, Fraction] = {}
    for i in range(m):
        for s, c in acc[i][i].items():
            tr[s] = tr.get(s, Fraction(0)) + c
    result = {s: c for s, c in tr.items() if c}
    if not exact:
        result = {s: float(c) for s, c in result.items()}
    return result


# ---------------------------------------------------------------------------
# recursive wedge (the split order and sign that ``forms._wedge`` keeps)
# ---------------------------------------------------------------------------

def wedge_splits(comps, per, rest: frozenset, idx: int = 0):
    """Ordered splits of ``rest`` into the parts of a wedge word.

    Yields (parts, product of their coefficients), skipping every split
    with a part that has no entry in ``per``.  The product is taken from
    the last part backwards.  A module-level generator, so no recursive
    closure holds the coefficient tables ``per`` in a reference cycle.
    """
    n = comps[idx]
    if idx == len(comps) - 1:
        if len(rest) == n and rest in per[n]:
            yield (rest,), per[n][rest]
        return
    for combo in itertools.combinations(sorted(rest), n):
        s = frozenset(combo)
        c1 = per[n].get(s)
        if c1 is None:
            continue
        for tail, cval in wedge_splits(comps, per, rest - s, idx + 1):
            yield (s,) + tail, c1 * cval


def recursive_wedge(comps, per, allvars: frozenset, total):
    """``total`` plus the signed products over the splits of ``allvars``,
    added one split at a time."""
    for parts, val in wedge_splits(comps, per, allvars):
        sign = 1
        placed: list[int] = []
        for s in parts:
            sign *= _merge_sign(frozenset(placed), s)
            placed.extend(s)
        total = total + sign * val
    return total
