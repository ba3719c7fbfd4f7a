"""High-precision zeta constants for target values.

Euler-Maclaurin for zeta and Hurwitz zeta, and a tail-accelerated double
sum for double zeta values.  Everything runs on mpmath arbitrary-precision
floats; Bernoulli numbers are exact Fractions.
"""

from __future__ import annotations

import functools
import math
from fractions import Fraction

import mpmath as mp

_DPS = 60


@functools.lru_cache(maxsize=None)
def bernoulli_fraction(n: int) -> Fraction:
    """B_n with B_1 = -1/2, via the defining recurrence."""
    if n == 0:
        return Fraction(1)
    if n == 1:
        return Fraction(-1, 2)
    if n % 2:
        return Fraction(0)
    total = Fraction(0)
    for k in range(n):
        total += math.comb(n + 1, k) * bernoulli_fraction(k)
    return -total / (n + 1)


def hurwitz(s: int, a: int, terms: int = 40, korder: int = 25) -> mp.mpf:
    """sum_{m >= a} m^-s by Euler-Maclaurin, for integer s >= 2, a >= 1."""
    if s < 2 or a < 1:
        raise ValueError("hurwitz needs s >= 2 and a >= 1")
    with mp.workdps(_DPS):
        head = mp.mpf(0)
        for m in range(a, a + terms):
            head += mp.mpf(1) / mp.mpf(m) ** s
        x = mp.mpf(a + terms)
        tail = x ** (1 - s) / (s - 1) + x ** (-s) / 2
        poch = mp.mpf(s)
        for k in range(1, korder + 1):
            b = bernoulli_fraction(2 * k)
            coeff = mp.mpf(b.numerator) / b.denominator / mp.factorial(2 * k)
            tail += coeff * poch * x ** (-s - 2 * k + 1)
            poch *= (s + 2 * k - 1) * (s + 2 * k)
        return +(head + tail)


def zeta(s: int) -> mp.mpf:
    """zeta(s) for integer s >= 2, to well over 30 significant digits."""
    with mp.workdps(_DPS):
        return hurwitz(s, 1)


def zeta2(a: int, b: int, head: int = 60, korder: int = 20) -> mp.mpf:
    """Double zeta zeta(a,b) = sum_{m > n >= 1} m^-a n^-b, for a >= 2.

    Head sum over n <= head with exact inner tails, then the n-tail summed
    through the Euler-Maclaurin expansion of the inner Hurwitz zeta, which
    turns it into finitely many Hurwitz values.
    """
    if a < 2 or b < 1:
        raise ValueError("zeta2 needs a >= 2 (outer) and b >= 1 (inner)")
    with mp.workdps(_DPS):
        total = mp.mpf(0)
        inner = zeta(a)
        for n in range(1, head + 1):
            inner -= mp.mpf(1) / mp.mpf(n) ** a   # now sum_{m > n} m^-a
            total += inner / mp.mpf(n) ** b
        x = head + 1
        # tail: sum_{n >= x} n^-b * H(a, n+1) with
        # H(a, n+1) = H(a, n) - n^-a expanded by Euler-Maclaurin at n:
        # H(a, n) = n^{1-a}/(a-1) + n^-a/2 + sum_k c_k n^{-a-2k+1}
        tail = hurwitz(a + b - 1, x) / (a - 1)
        tail += hurwitz(a + b, x) / 2
        poch = mp.mpf(a)
        for k in range(1, korder + 1):
            bk = bernoulli_fraction(2 * k)
            coeff = mp.mpf(bk.numerator) / bk.denominator / mp.factorial(2 * k)
            tail += coeff * poch * hurwitz(a + b + 2 * k - 1, x)
            poch *= (a + 2 * k - 1) * (a + 2 * k)
        tail -= hurwitz(a + b, x)                 # the -n^-a correction
        return +(total + tail)


def pi() -> mp.mpf:
    with mp.workdps(_DPS):
        return +mp.pi
