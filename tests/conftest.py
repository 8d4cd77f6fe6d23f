"""Shared randomized generators for the property suites.

All randomness is seeded per test, so failures reproduce exactly.
"""
from __future__ import annotations

import itertools
import random
from functools import lru_cache

from profint import INFINITY, Pseudonumber, ResourceError, Supernatural
from profint.oracle import MAX_ASSIGNMENTS

PRIME_POOL = (2, 3, 5, 7, 11, 13)


def random_supernatural(rng: random.Random, max_exp: int = 4) -> Supernatural:
    """A random table over the small-prime pool with a random default."""
    table = {}
    for p in PRIME_POOL:
        roll = rng.random()
        if roll < 0.35:
            continue  # fall through to the default
        if roll < 0.55:
            table[p] = INFINITY
        else:
            table[p] = rng.randint(0, max_exp)
    default = INFINITY if rng.random() < 0.3 else 0
    return Supernatural(table, default)


@lru_cache(maxsize=65536)
def factorint(n: int) -> tuple[tuple[int, int], ...]:
    """Prime factorization of n >= 1 as a sorted tuple of (prime, exponent),
    by trial division: an independent reference for the table-driven code."""
    if n < 1:
        raise ValueError(f"cannot factor {n}")
    out = []
    for p in (2, 3):
        if n % p == 0:
            e = 0
            while n % p == 0:
                n //= p
                e += 1
            out.append((p, e))
    d, step = 5, 2
    while d * d <= n:
        if n % d == 0:
            e = 0
            while n % d == 0:
                n //= d
                e += 1
            out.append((d, e))
        d += step
        step = 6 - step
    if n > 1:
        out.append((n, 1))
    return tuple(out)


def finite_base_pool(pi: Supernatural, limit: int = 30) -> list[int]:
    """Admissible term bases up to the limit: every prime exponent finite."""
    return [
        n
        for n in range(2, limit + 1)
        if all(pi.is_finite_at(p) for p, _ in factorint(n))
    ]


def random_pseudonumber(
    rng: random.Random,
    pi: Supernatural,
    max_terms: int = 3,
    base_limit: int = 30,
    coeff_limit: int = 50,
    offset_limit: int = 3,
) -> Pseudonumber:
    pool = finite_base_pool(pi, base_limit)
    terms = []
    if pool:
        for _ in range(rng.randint(0, max_terms)):
            coeff = rng.randint(1, coeff_limit) * rng.choice((1, -1))
            terms.append((rng.choice(pool), rng.randint(1, offset_limit), coeff))
    const = rng.randint(-coeff_limit, coeff_limit)
    return Pseudonumber(const, terms, pi)


def sample_moduli(pi: Supernatural, count: int, bound: int = 10**6, seed: int = 0):
    """Divisors of pi used as cross-check quotients."""
    return pi.sample_divisors(bound, count, seed=seed)


def linear_solution_exists(rows, rhs, modulus: int) -> bool:
    """Whether the integer-residue system rows @ X = rhs (mod modulus) has a
    solution, by exhaustive search; checks refuting moduli."""
    cols = len(rows[0]) if rows else 0
    if cols and modulus ** cols > MAX_ASSIGNMENTS:
        raise ResourceError("search space too large")
    for x in itertools.product(range(modulus), repeat=cols):
        if all(
            sum(a * v for a, v in zip(row, x)) % modulus == b % modulus
            for row, b in zip(rows, rhs)
        ):
            return True
    return False
