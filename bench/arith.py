"""Arithmetic the benchmark does on its own, without calling profint.

Inputs are generated, and answers are checked, with these helpers only, so
a check compares the program against the definition rather than against
itself.  A value ``const + sum coeff*[base^(w-offset)]`` is a :class:`Value`
with terms ``(base, offset, coeff)``.  An ambient supernatural number is an
:class:`Ambient`: a table of prime -> exponent (``INF`` for infinity) and a
default of 0 or ``INF`` for every unlisted prime.
"""
from __future__ import annotations

import re
from math import gcd
from typing import NamedTuple

INF = None
SMALL_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47)


class Ambient(NamedTuple):
    table: tuple  # ((prime, exponent or INF), ...), ascending primes
    default_inf: bool

    def exponent(self, p: int):
        for q, e in self.table:
            if q == p:
                return e
        return INF if self.default_inf else 0

    def text(self) -> str:
        inner = ",".join(f"{p}^{'inf' if e is INF else e}" for p, e in self.table)
        default = "default=inf" if self.default_inf else "default=0"
        return f"{inner};{default}" if inner else default

    def divides(self, n: int) -> bool:
        """Whether the positive integer n divides this supernatural number."""
        rest = n
        for p in SMALL_PRIMES:
            v = 0
            while rest % p == 0:
                rest //= p
                v += 1
            e = self.exponent(p)
            if v and e is not INF and v > e:
                return False
        # any prime factor left over is above SMALL_PRIMES and unlisted
        return rest == 1 or self.default_inf

    def admissible(self, base: int) -> bool:
        """Whether every prime of base has finite exponent (base < 53**2)."""
        return all(self.exponent(p) is not INF for p, _ in factor(base))

    def divisors(self, rng, count: int) -> list[int]:
        """The largest-information divisor, then `count` random ones.

        The first is the whole finite part times the fourth power of every
        prime of infinite exponent among the small primes, so one residue
        check there covers every divisor of it.
        """
        primes = [p for p in SMALL_PRIMES[:9] if self.exponent(p) != 0]
        full = 1
        for p in primes:
            e = self.exponent(p)
            full *= p ** (4 if e is INF else e)
        out = [full]
        for _ in range(count):
            n = 1
            for p in primes:
                e = self.exponent(p)
                n *= p ** rng.randint(0, 3 if e is INF else e)
            out.append(n)
        return out


def factor(n: int) -> list[tuple[int, int]]:
    """Prime factorization by trial division over SMALL_PRIMES; the cofactor,
    if any, is returned as one factor (exact for n < 53**2)."""
    out = []
    for p in SMALL_PRIMES:
        if n % p == 0:
            e = 0
            while n % p == 0:
                n //= p
                e += 1
            out.append((p, e))
    if n > 1:
        out.append((n, 1))
    return out


class Value(NamedTuple):
    const: int
    terms: tuple  # ((base, offset, coeff), ...)


def term_residue(base: int, offset: int, n: int) -> int:
    """[base^(w-offset)] mod n: 0 on the part of n sharing primes with base,
    base^(-offset) on the coprime part."""
    shared, rest = 1, n
    g = gcd(rest, base)
    while g > 1:
        rest //= g
        shared *= g
        g = gcd(rest, base)
    if rest == 1:
        return 0
    return pow(base, -offset, rest) * shared * pow(shared, -1, rest) % n


def residue(value: Value, n: int) -> int:
    total = value.const
    for base, offset, coeff in value.terms:
        total += coeff * term_residue(base, offset, n)
    return total % n


def add(a: Value, b: Value) -> Value:
    return _merged(a.const + b.const, a.terms + b.terms)


def mul(a: Value, b: Value) -> Value:
    """Product by the term identities [n^(w-k)][n^(w-j)] = [n^(w-k-j)] and,
    for k >= j, [n1^(w-k)][n2^(w-j)] = n2^(k-j) [(n1 n2)^(w-k)]."""
    terms = [(base, k, c * b.const) for base, k, c in a.terms]
    terms += [(base, k, c * a.const) for base, k, c in b.terms]
    for n1, k1, c1 in a.terms:
        for n2, k2, c2 in b.terms:
            if n1 == n2:
                terms.append((n1, k1 + k2, c1 * c2))
            elif k1 >= k2:
                terms.append((n1 * n2, k1, c1 * c2 * n2 ** (k1 - k2)))
            else:
                terms.append((n1 * n2, k2, c1 * c2 * n1 ** (k2 - k1)))
    return _merged(a.const * b.const, terms)


def _merged(const: int, terms) -> Value:
    acc: dict = {}
    for base, k, c in terms:
        acc[(base, k)] = acc.get((base, k), 0) + c
    return Value(const, tuple((base, k, c) for (base, k), c in sorted(acc.items()) if c))


def text(summands) -> str:
    """Render summands, each an int or a (base, offset, coeff) triple."""
    out = []
    for s in summands:
        if isinstance(s, int):
            sign, body = ("-" if s < 0 else "+"), str(abs(s))
        else:
            base, offset, coeff = s
            sign, body = ("-" if coeff < 0 else "+"), f"{abs(coeff)}*[{base}^(w-{offset})]"
        out.append((sign, body))
    if not out:
        return "0"
    first_sign, first = out[0]
    parts = [first if first_sign == "+" else "-" + first]
    parts += [f"{sign} {body}" for sign, body in out[1:]]
    return " ".join(parts)


def value_text(value: Value) -> str:
    return text(([value.const] if value.const or not value.terms else []) + list(value.terms))


_SUMMAND = re.compile(r"([+-]?)(?:(\d+)\*)?\[(\d+)\^\(w-(\d+)\)\]|([+-]?)(\d+)")


def parse(printed: str) -> Value:
    """Read a value in the printed form ``3 + 2*[6^(w-2)] - [5^(w-1)]``."""
    compact = "".join(printed.split())
    const, terms, pos = 0, [], 0
    while pos < len(compact):
        m = _SUMMAND.match(compact, pos)
        if not m or (pos and not (m.group(1) or m.group(5))):
            raise ValueError(f"cannot read {printed[:80]!r} at {pos}")
        if m.group(3):
            coeff = int(m.group(2) or 1) * (-1 if m.group(1) == "-" else 1)
            terms.append((int(m.group(3)), int(m.group(4)), coeff))
        else:
            const += int(m.group(6)) * (-1 if m.group(5) == "-" else 1)
        pos = m.end()
    if not compact:
        raise ValueError("empty value")
    return Value(const, tuple(terms))


_DIGITS = re.compile(r"\d+")


def max_int_bits(printed) -> int:
    """Largest bit length of any integer written in the printed strings."""
    return max(
        (int(d).bit_length() for s in printed for d in _DIGITS.findall(s)),
        default=0,
    )
