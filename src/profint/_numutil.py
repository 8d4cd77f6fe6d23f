"""Small integer helpers: primality, valuations, integer roots.

Everything here is exact and deterministic.  Nothing is factored: questions
about the primes of an integer are answered from an ambient's stored table
(see :mod:`profint.supernatural`).
"""
from __future__ import annotations

import math
from functools import lru_cache

_MR_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin (exact for n < 3.3e24)."""
    if n < 2:
        return False
    for p in _MR_WITNESSES:
        if n % p == 0:
            return n == p
    d, r = n - 1, 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for a in _MR_WITNESSES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def valuation(n: int, p: int) -> int:
    """Exponent of p in n (n != 0)."""
    if n == 0:
        raise ValueError("valuation of zero is undefined")
    n = abs(n)
    e = 0
    while n % p == 0:
        n //= p
        e += 1
    return e


def primes_from(start: int = 2):
    """Ascending primes, starting at the first prime >= start."""
    n = max(2, start)
    while True:
        if is_prime(n):
            yield n
        n += 1


def iroot(n: int, k: int) -> int:
    """Floor of the k-th root of n >= 0."""
    if n < 2 or k == 1:
        return n
    if k == 2:
        return math.isqrt(n)
    lo, hi = 1, 1 << (n.bit_length() // k + 1)
    while lo < hi:
        mid = (lo + hi + 1) // 2
        if mid**k <= n:
            lo = mid
        else:
            hi = mid - 1
    return lo


@lru_cache(maxsize=65536)
def perfect_root(n: int) -> tuple[int, int]:
    """(root, k) with n = root**k and k maximal; (n, 1) if n is no power.

    Root extraction only, never factorization.  When a small prime divides
    n, its valuation v bounds the exponent (k must divide v), which keeps
    the common smooth-base case cheap.
    """
    if n < 4:
        return n, 1
    for p in _MR_WITNESSES:
        if n % p == 0:
            v, m = 0, n
            while m % p == 0:
                m //= p
                v += 1
            for k in sorted(_divisors(v), reverse=True):
                if k == 1:
                    break
                r = iroot(n, k)
                if r**k == n:
                    return r, k
            return n, 1
    best = (n, 1)
    for k in range(2, n.bit_length() + 1):
        r = iroot(n, k)
        if r < 2:
            break
        if r**k == n:
            best = (r, k)
    return best


def _divisors(n: int) -> list[int]:
    out = []
    d = 1
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            if d != n // d:
                out.append(n // d)
        d += 1
    return out
