"""Recursive supernatural numbers: prime-exponent maps with a default rule.

A supernatural number assigns to every prime an exponent in N ∪ {inf}.  It is
stored as a finite table of exceptional primes plus a default (0 or inf) for
all unlisted primes, which keeps equality, parsing and the arithmetic needed
by the decision procedures computable.  Text form: ``2^3,5^inf;default=0``.

Values are immutable; all operations are pure.
"""
from __future__ import annotations

import random

from ._numutil import is_prime, primes_from
from .errors import InputError

INFINITY = float("inf")

#: primes tried when sampling divisors of a table-free infinite default
_SAMPLE_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19)


def _check_exponent(e):
    if e == INFINITY:
        return INFINITY
    if isinstance(e, int) and not isinstance(e, bool) and e >= 0:
        return e
    raise InputError(f"exponent must be a natural number or INFINITY, got {e!r}")


class Supernatural:
    """A total function prime -> N ∪ {inf}, finitely described.

    `exponents` maps the exceptional primes; every other prime gets `default`.
    Canonical form: no stored exponent equals the default.
    """

    __slots__ = ("_table", "default")

    def __init__(self, exponents=None, default=0):
        if default not in (0, INFINITY):
            raise InputError("default exponent must be 0 or INFINITY")
        items = exponents.items() if isinstance(exponents, dict) else (exponents or ())
        table = {}
        for p, e in items:
            if not isinstance(p, int) or not is_prime(p):
                raise InputError(f"{p!r} is not a prime number")
            if p in table:
                raise InputError(f"duplicate prime {p}")
            e = _check_exponent(e)
            if e != default:
                table[p] = e
        object.__setattr__(self, "_table", tuple(sorted(table.items())))
        object.__setattr__(self, "default", default)

    def __setattr__(self, name, value):
        raise AttributeError("Supernatural is immutable")

    # -- basic queries -----------------------------------------------------

    def exponent_of(self, p: int):
        """The exponent of the prime p (respecting the default rule)."""
        if not isinstance(p, int) or not is_prime(p):
            raise InputError(f"{p!r} is not a prime number")
        for q, e in self._table:
            if q == p:
                return e
        return self.default

    def is_finite_at(self, p: int) -> bool:
        """True iff the exponent of p is a natural number (0 included)."""
        return self.exponent_of(p) != INFINITY

    def divisible_by(self, n: int) -> bool:
        """True iff the positive integer n divides this supernatural number.

        Table-driven, like :meth:`gcd`: only the stored primes are divided
        out, so n is never factored and may be arbitrarily large.
        """
        if n < 1:
            raise InputError(f"divisor must be positive, got {n}")
        rest = n
        for p, e in self._table:
            v = 0
            while rest % p == 0:
                rest //= p
                v += 1
            if v > e:
                return False
        return self.default == INFINITY or rest == 1

    def gcd(self, n: int) -> int:
        """gcd of the positive integer n with this supernatural number.

        Always a finite positive divisor of n.  n = 0 is rejected: the gcd
        would not be a natural number whenever the supernatural is infinite.
        """
        if n < 1:
            raise InputError(f"gcd argument must be positive, got {n}")
        out, rest = 1, n
        for p, e in self._table:
            v = 0
            while rest % p == 0:
                rest //= p
                v += 1
            out *= p ** min(v, e)
        # unlisted primes carry the default exponent
        return out * rest if self.default == INFINITY else out

    def infinite_part(self, n: int) -> int:
        """Largest divisor of |n| all of whose primes have infinite exponent
        (n != 0).  Computed from the stored table; |n| is never factored."""
        n = abs(n)
        if n == 0:
            raise InputError("the zero integer has no prime decomposition")
        if self.default == INFINITY:
            for p, e in self._table:
                while n % p == 0:  # stored exponents are finite here
                    n //= p
            return n
        part = 1
        for p, e in self._table:
            if e == INFINITY:
                while n % p == 0:
                    n //= p
                    part *= p
        return part

    def positive_finite_primes_of(self, n: int) -> list[int]:
        """Stored primes of positive finite exponent dividing |n| (n != 0)."""
        n = abs(n)
        if n == 0:
            raise InputError("the zero integer divides everything")
        return [
            p for p, e in self._table if 0 < e != INFINITY and n % p == 0
        ]

    def split(self, primes) -> tuple[int, "Supernatural"]:
        """Extract the listed primes: returns (M, rest) with M the finite part
        over `primes` and `rest` zero on them, so that self = M * rest."""
        primes = sorted(set(primes))
        m = 1
        for p in primes:
            e = self.exponent_of(p)
            if e == INFINITY:
                raise InputError(f"cannot split at prime {p} of infinite exponent")
            m *= p ** e
        kept = [(p, e) for p, e in self._table if p not in primes]
        return m, Supernatural(kept + [(p, 0) for p in primes], self.default)

    # -- global shape ------------------------------------------------------

    def is_finite(self) -> bool:
        """True iff this supernatural number is an ordinary positive integer."""
        return self.default == 0 and all(e != INFINITY for _, e in self._table)

    def as_integer(self) -> int:
        if not self.is_finite():
            raise InputError("not a finite supernatural number")
        out = 1
        for p, e in self._table:
            out *= p ** e
        return out

    def congruent(self, x: int, y: int) -> bool:
        """Whether the integers x and y coincide in every finite cyclic
        quotient whose order divides this supernatural number."""
        if self.is_finite():
            return (x - y) % self.as_integer() == 0
        return x == y

    def smallest_infinite_prime(self) -> int | None:
        """The least prime of infinite exponent, or None if all are finite."""
        if self.default == INFINITY:
            for q in primes_from(2):
                if self.exponent_of(q) == INFINITY:
                    return q
        stored_inf = [p for p, e in self._table if e == INFINITY]
        return min(stored_inf) if stored_inf else None

    # -- divisor sampling --------------------------------------------------

    def largest_divisor(self, bound: int) -> int:
        """The largest integer <= bound dividing this supernatural number."""
        if bound < 1:
            raise InputError(f"bound must be positive, got {bound}")
        if self.divisible_by(bound):
            return bound
        if self.default == INFINITY:
            # dense divisors: only the stored caps constrain, scan down
            n = bound
            while n > 1:
                if self.divisible_by(n):
                    return n
                n -= 1
            return 1
        choices = [(p, e) for p, e in self._table if e >= 1]
        best = 1

        def grow(idx, cur):
            nonlocal best
            # cur * (bound // cur) is the largest multiple of cur within the
            # bound: when it is no better, neither is any extension of cur
            if cur * (bound // cur) <= best:
                return
            best = max(best, cur)
            for j in range(idx, len(choices)):
                p, cap = choices[j]
                powers, v, k = [], cur * p, 1
                while v <= bound and k <= cap:
                    powers.append(v)
                    v *= p
                    k += 1
                for v in reversed(powers):  # largest exponent first
                    grow(j + 1, v)

        grow(0, 1)
        return best

    def sample_divisors(self, bound: int, count: int, seed: int = 0) -> list[int]:
        """Up to `count` distinct divisors of this supernatural number that
        are <= bound, biased toward large and prime-power values.

        Deterministic for a given seed; the largest divisor <= bound is
        always included when count >= 1.  Random draws are made divisors by
        :meth:`gcd`, so no draw is factored.
        """
        if bound < 1 or count < 1:
            raise InputError("bound and count must be positive")
        picks = [self.largest_divisor(bound)]
        powers = []
        pool = {p for p, e in self._table if e >= 1}
        if self.default == INFINITY:
            pool.update(_SAMPLE_PRIMES)
        for p in sorted(pool):
            cap = self.exponent_of(p)
            v, k = p, 1
            while v <= bound and k <= cap:
                powers.append(v)
                v *= p
                k += 1
        picks.extend(sorted(powers, reverse=True))
        rng = random.Random(seed)
        tries = 0
        while len(set(picks)) < count and tries < 8 * count:
            # cap every prime exponent to make the draw a divisor
            picks.append(self.gcd(rng.randint(1, bound)))
            tries += 1
        picks.append(1)
        seen, chosen = set(), []
        for n in picks:
            if n not in seen:
                seen.add(n)
                chosen.append(n)
            if len(chosen) == count:
                break
        return sorted(chosen)

    # -- text form ---------------------------------------------------------

    def __str__(self):
        inner = ",".join(
            f"{p}^{'inf' if e == INFINITY else e}" for p, e in self._table
        )
        default = "inf" if self.default == INFINITY else "0"
        return (inner + ";" if inner else "") + f"default={default}"

    def __repr__(self):
        return f"Supernatural({str(self)!r})"

    def __eq__(self, other):
        if not isinstance(other, Supernatural):
            return NotImplemented
        return self._table == other._table and self.default == other.default

    def __hash__(self):
        return hash((self._table, self.default))

    @property
    def table(self) -> tuple[tuple[int, object], ...]:
        return self._table


def parse_supernatural(text: str) -> Supernatural:
    """Parse ``p1^e1,p2^e2,...;default=0|inf`` (whitespace-insensitive).

    Primes must be distinct and ascending; exponents are naturals or ``inf``.
    The prime list may be empty (``default=inf`` alone is accepted).
    """
    if not isinstance(text, str):
        raise InputError(
            f"a supernatural number must be given as text, got {type(text).__name__}"
        )
    compact = "".join(text.split())
    if not compact:
        raise InputError("empty supernatural number")
    head, sep, tail = compact.rpartition(";")
    if not sep:
        head, tail = "", compact
    if not tail.startswith("default="):
        raise InputError(f"missing default clause in {text!r}")
    default_text = tail[len("default="):]
    if default_text == "0":
        default = 0
    elif default_text == "inf":
        default = INFINITY
    else:
        raise InputError(f"default must be 0 or inf, got {default_text!r}")
    pairs = []
    if head:
        for chunk in head.split(","):
            base, sep, exp = chunk.partition("^")
            if not sep:
                raise InputError(f"expected p^e, got {chunk!r}")
            try:
                if not base.isdecimal():  # int() also reads '_' and a sign
                    raise ValueError
                p = int(base)
            except ValueError:
                raise InputError(f"bad prime {base!r}") from None
            if exp == "inf":
                e = INFINITY
            else:
                try:
                    if not exp.isdecimal():
                        raise ValueError
                    e = int(exp)
                except ValueError:
                    raise InputError(f"bad exponent {exp!r}") from None
            pairs.append((p, e))
        listed = [p for p, _ in pairs]
        if listed != sorted(set(listed)):
            raise InputError("primes must be distinct and ascending")
    return Supernatural(pairs, default)


__all__ = ["INFINITY", "Supernatural", "parse_supernatural"]
