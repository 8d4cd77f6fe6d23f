"""Decide whether two sigma-expressible profinite integers coincide across
every finite abelian group whose exponent divides the ambient supernatural
number.

The decision splits the ambient at the stored primes of positive finite
exponent that divide some base of u or v.  On the extracted finite part M
both sides are compared as residues mod M.  On the remaining part every base
is a unit, so ``[b^(w-k)]`` is the rational ``b^(-k)`` and u - v is a
rational whose denominator d = lcm(b^k) is a unit there; the integer
d*(u - v) decides the rest.  Every NotEqual verdict carries a finite witness
modulus whose residues separate u and v.
"""
from __future__ import annotations

from dataclasses import dataclass
from math import lcm

from ._numutil import valuation
from .errors import InputError
from .pseudonumber import Pseudonumber, eval_mod, from_integer
from .supernatural import Supernatural


@dataclass(frozen=True)
class Verdict:
    """Outcome of an equality test, with a refuting quotient on failure."""

    equal: bool
    witness_modulus: int | None = None
    residue_u: int | None = None
    residue_v: int | None = None
    component: object = None

    def __bool__(self):
        return self.equal

    @classmethod
    def yes(cls):
        return cls(True)

    @classmethod
    def no(cls, modulus, residue_u, residue_v, component=None):
        return cls(False, modulus, residue_u, residue_v, component)


def _coerce(value) -> Pseudonumber:
    if isinstance(value, Pseudonumber):
        return value
    if isinstance(value, int):
        return from_integer(value)
    raise InputError(f"expected a pseudonumber or integer, got {value!r}")


def refuting_modulus(rest: Supernatural, delta: int) -> int:
    """A finite divisor of `rest` where the nonzero integer discrepancy
    `delta` survives reduction.

    For a finite `rest`, its integer value; otherwise a power q^k of the
    least prime q of infinite exponent with k > v_q(delta), which exists
    because a supernatural number that is not finite has such a prime.
    """
    if rest.is_finite():
        return rest.as_integer()
    q = rest.smallest_infinite_prime()
    return q ** (valuation(delta, q) + 1)


def _scale(values) -> int:
    """lcm of base^offset over the terms of the values: it has exactly the
    primes of their bases."""
    return lcm(*(t.base**t.offset for u in values for t in u.terms))


def _scaled_sum(u: Pseudonumber, d: int) -> int:
    """d*u on the part of the ambient where every base of u is a unit,
    for d a multiple of every base^offset of u."""
    if not u.terms:
        return d * u.const
    return d * u.const + sum(t.coeff * (d // t.base**t.offset) for t in u.terms)


def equal_in_ab(pi: Supernatural, u, v) -> Verdict:
    """Decide whether u = v holds in every finite quotient allowed by pi."""
    u, v = _coerce(u), _coerce(v)
    # primes of the bases of exponent 0 change neither side of the split
    d = _scale((u, v))
    finite_part, rest = pi.split(pi.positive_finite_primes_of(d))
    # eval_mod rejects a side whose ambient is not pi; both calls run before
    # any verdict
    residue_u = eval_mod(u, finite_part, pi)
    residue_v = eval_mod(v, finite_part, pi)
    if residue_u != residue_v:
        return Verdict.no(finite_part, residue_u, residue_v)
    delta = _scaled_sum(u, d) - _scaled_sum(v, d)
    if rest.congruent(delta, 0):
        return Verdict.yes()
    n = refuting_modulus(rest, delta)
    return Verdict.no(n, eval_mod(u, n, pi), eval_mod(v, n, pi))


def is_zero(pi: Supernatural, u) -> Verdict:
    return equal_in_ab(pi, u, from_integer(0))


def equal_vectors(pi: Supernatural, us, vs) -> Verdict:
    """Componentwise equality; reports the index of the first failing
    component."""
    us, vs = list(us), list(vs)
    if len(us) != len(vs):
        raise InputError(f"vector lengths differ: {len(us)} vs {len(vs)}")
    for index, (u, v) in enumerate(zip(us, vs)):
        verdict = equal_in_ab(pi, u, v)
        if not verdict:
            return Verdict.no(
                verdict.witness_modulus,
                verdict.residue_u,
                verdict.residue_v,
                component=index,
            )
    return Verdict.yes()


__all__ = [
    "Verdict",
    "equal_in_ab",
    "is_zero",
    "equal_vectors",
    "refuting_modulus",
]
