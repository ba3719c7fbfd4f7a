"""High-precision zeta constants for target values.

Riemann and Hurwitz zeta values come from mpmath; double zeta values are a
tail-accelerated double sum over them.  Everything runs on mpmath
arbitrary-precision floats at ``_DPS`` digits.
"""

from __future__ import annotations

import mpmath as mp

_DPS = 60
# zeta2 sums the first _HEAD outer terms directly and the rest through
# _KORDER Euler-Maclaurin corrections of the inner Hurwitz zeta.
_HEAD = 60
_KORDER = 20


def zeta(s: int) -> mp.mpf:
    """zeta(s) for integer s >= 2, to well over 30 significant digits."""
    if s < 2:
        raise ValueError("zeta needs s >= 2")
    with mp.workdps(_DPS):
        return +mp.zeta(s)


def zeta2(a: int, b: int) -> mp.mpf:
    """Double zeta zeta(a,b) = sum_{m > n >= 1} m^-a n^-b, for a >= 2.

    Head sum over n <= _HEAD with exact inner tails, then the n-tail summed
    through the Euler-Maclaurin expansion of the inner Hurwitz zeta, which
    turns it into finitely many Hurwitz values.
    """
    if a < 2 or b < 1:
        raise ValueError("zeta2 needs a >= 2 (outer) and b >= 1 (inner)")
    with mp.workdps(_DPS):
        total = mp.mpf(0)
        inner = mp.zeta(a)
        for n in range(1, _HEAD + 1):
            inner -= mp.mpf(1) / mp.mpf(n) ** a   # now sum_{m > n} m^-a
            total += inner / mp.mpf(n) ** b
        x = _HEAD + 1
        # tail: sum_{n >= x} n^-b * H(a, n+1) with
        # H(a, n+1) = H(a, n) - n^-a expanded by Euler-Maclaurin at n:
        # H(a, n) = n^{1-a}/(a-1) + n^-a/2 + sum_k c_k n^{-a-2k+1}
        tail = mp.zeta(a + b - 1, x) / (a - 1)
        tail += mp.zeta(a + b, x) / 2
        poch = mp.mpf(a)
        for k in range(1, _KORDER + 1):
            coeff = mp.bernoulli(2 * k) / mp.factorial(2 * k)
            tail += coeff * poch * mp.zeta(a + b + 2 * k - 1, x)
            poch *= (a + 2 * k - 1) * (a + 2 * k)
        tail -= mp.zeta(a + b, x)                 # the -n^-a correction
        return +(total + tail)


def pi() -> mp.mpf:
    with mp.workdps(_DPS):
        return +mp.pi
