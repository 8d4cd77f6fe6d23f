"""Constructive solving of u*x = v and B*X = C over the sigma-expressible
profinite integers, with a solvability decision.

Single equation.  With clearing factors c_u, c_v and the integer value of
c_u*u split as sign * finite_part * infinite_part (primes of finite ambient
exponent versus infinite), the ambient splits at the primes of
c_u * c_v * finite_part into a finite modulus M and a coprime remainder.
A solution exists iff the congruence u*x = v (mod M) is solvable and
infinite_part divides c_u * value_v.  The witness glues the congruence
solution x1 with the remainder-side solution

    x2 = c_u * t * sign * [finite_part^(w-1)] * [(c_u c_v)^(w-1)]

(where t = c_u*value_v / infinite_part) through the idempotent G^w over the
product G of the split primes:  w = x1 + G^w * (x2 - x1).

Systems.  Entries of B are cleared to integers by a common factor, the
integer matrix is diagonalized (Smith), each diagonal equation is solved by
the single-equation routine, zero rows must vanish identically, and the
finite side is an ordinary congruence system; the two sides glue the same
way.  Refutations always name a finite modulus at which the original system
is already unsolvable.
"""
from __future__ import annotations

from dataclasses import dataclass
from math import lcm, prod

from ._numutil import valuation
from .errors import InputError
from .intlinalg import IntMatrix, smith_normal_form, solve_congruence, solve_congruences
from .pseudonumber import (
    Pseudonumber,
    clearing_factor,
    eval_mod,
    from_integer,
    omega_closure,
    omega_power,
)
from .supernatural import INFINITY, Supernatural
from .word_problem import Verdict, _coerce, equal_vectors, is_zero, refuting_modulus


class SigmaMatrix:
    """Matrix of pseudonumbers over a shared ambient supernatural number."""

    __slots__ = ("rows", "cols", "entries", "pi")

    def __init__(self, rows_of_entries, pi: Supernatural):
        entries = tuple(
            tuple(_coerce(x) for x in row) for row in rows_of_entries
        )
        if not entries or not entries[0]:
            raise InputError("matrix dimensions must be positive")
        cols = len(entries[0])
        if any(len(row) != cols for row in entries):
            raise InputError("ragged rows")
        for row in entries:
            for x in row:
                if x.pi is not None and x.pi != pi:
                    raise InputError("entry ambient differs from the matrix ambient")
        object.__setattr__(self, "rows", len(entries))
        object.__setattr__(self, "cols", cols)
        object.__setattr__(self, "entries", entries)
        object.__setattr__(self, "pi", pi)

    def __setattr__(self, name, value):
        raise AttributeError("SigmaMatrix is immutable")

    def mul_vec(self, vec) -> list[Pseudonumber]:
        vec = [_coerce(x) for x in vec]
        if len(vec) != self.cols:
            raise InputError(f"vector length {len(vec)} does not match {self.shape}")
        return [
            sum((a * x for a, x in zip(row, vec)), from_integer(0))
            for row in self.entries
        ]

    @property
    def shape(self):
        return (self.rows, self.cols)


@dataclass(frozen=True)
class SystemRefutation:
    """Unsolvability certificate: a finite modulus where the original system
    already has no solution."""

    modulus: int
    reason: str

    def __bool__(self):
        return False


def _infinite_part_refutation(pi: Supernatural, infinite_part: int, target: int) -> int:
    """A finite modulus dividing pi where d*x = target is unsolvable, given
    infinite_part = d does not divide target.

    Prefers a prime power p^v(d) over a stored prime; falls back to d itself
    (all its primes have infinite exponent, so d divides pi, and the gcd
    criterion fails at d by assumption)."""
    for p, e in pi.table:
        if e != INFINITY or infinite_part % p:
            continue
        v = valuation(infinite_part, p)
        if target % p**v:
            return p**v
    return infinite_part


def solve_single_with_refutation(pi: Supernatural, u, v):
    """(witness, None) if u*x = v is solvable over the completion, else
    (None, modulus) with a finite refuting modulus dividing the ambient."""
    u, v = _coerce(u), _coerce(v)
    if is_zero(pi, u):
        zero_v = is_zero(pi, v)
        if zero_v:
            return from_integer(0), None
        return None, zero_v.witness_modulus
    c_u, value_u = clearing_factor(pi, u)
    c_v, value_v = clearing_factor(pi, v)
    # primes of exponent 0 are units on the remainder side either way and
    # contribute nothing to the finite modulus, so only positive finite
    # exponents enter the split
    split_primes = set(pi.positive_finite_primes_of(c_u * c_v))
    if value_u:
        split_primes.update(pi.positive_finite_primes_of(value_u))
    finite_modulus, rest = pi.split(split_primes)

    # finite side: the congruence u*x = v (mod finite_modulus)
    x1 = solve_congruence(
        eval_mod(u, finite_modulus, pi), eval_mod(v, finite_modulus, pi), finite_modulus
    )
    if x1 is None:
        return None, finite_modulus

    # remainder side: coefficients clear to integers and c_u*c_v is a unit
    if value_u == 0:
        if not rest.congruent(value_v, 0):
            return None, refuting_modulus(rest, value_v)
        x2 = from_integer(0)
    else:
        sign = 1 if value_u > 0 else -1
        infinite_part = pi.infinite_part(value_u)
        finite_part = abs(value_u) // infinite_part
        target = c_u * value_v
        if target % infinite_part:
            return None, _infinite_part_refutation(pi, infinite_part, target)
        t = target // infinite_part
        x2 = (
            from_integer(c_u * t * sign)
            * omega_power(pi, finite_part, 1)
            * omega_power(pi, c_u * c_v, 1)
        )

    glue = omega_closure(pi, prod(split_primes))
    x1 = from_integer(x1)
    return x1 + glue * (x2 - x1), None


def solve_single(pi: Supernatural, u, v) -> Pseudonumber | None:
    """A sigma-expressible solution of u*x = v, or None when none exists
    over the completion."""
    u, v = _coerce(u), _coerce(v)
    if u == from_integer(1):
        return v
    if u == from_integer(-1):
        return -v
    witness, _ = solve_single_with_refutation(pi, u, v)
    return witness


def solve_system(pi: Supernatural, matrix: SigmaMatrix, rhs):
    """Solve matrix @ X = rhs over the completion, returning a vector of
    sigma-expressible witnesses or a :class:`SystemRefutation`."""
    if not isinstance(matrix, SigmaMatrix):
        matrix = SigmaMatrix(matrix, pi)
    if matrix.pi != pi:
        raise InputError("matrix ambient differs from the requested ambient")
    rhs = [_coerce(x) for x in rhs]
    if len(rhs) != matrix.rows:
        raise InputError(f"right side length {len(rhs)} does not match {matrix.shape}")
    for x in rhs:
        if x.pi is not None and x.pi != pi:
            raise InputError("right side ambient differs from the matrix ambient")

    cleared = [
        [clearing_factor(pi, entry) for entry in row] for row in matrix.entries
    ]
    common = 1
    for row in cleared:
        for c, _ in row:
            common = lcm(common, c)
    int_matrix = IntMatrix([
        [(common // c) * value for c, value in row] for row in cleared
    ])
    snf = smith_normal_form(int_matrix)
    transformed = snf.left.mul_vec([from_integer(common) * x for x in rhs])

    split_primes = pi.positive_finite_primes_of(common)
    finite_modulus, _ = pi.split(split_primes)

    # finite side: congruence system for the original entries
    x2 = solve_congruences(
        IntMatrix([
            [eval_mod(entry, finite_modulus, pi) for entry in row]
            for row in matrix.entries
        ]),
        [eval_mod(x, finite_modulus, pi) for x in rhs],
        finite_modulus,
    )
    if x2 is None:
        return SystemRefutation(finite_modulus, "congruence system unsolvable")

    # remainder side: diagonal equations and zero rows
    rank_bound = min(matrix.rows, matrix.cols)
    y = [from_integer(0)] * matrix.cols
    for i in range(matrix.rows):
        d = snf.diag.entries[i][i] if i < rank_bound else 0
        if d == 0:
            vanishes = is_zero(pi, transformed[i])
            if not vanishes:
                return SystemRefutation(
                    vanishes.witness_modulus, "zero row with nonzero right side"
                )
        else:
            witness, refuted = solve_single_with_refutation(
                pi, from_integer(d), transformed[i]
            )
            if witness is None:
                return SystemRefutation(refuted, "diagonal equation unsolvable")
            y[i] = witness

    x1 = [
        omega_closure(pi, common) * component
        for component in snf.right.mul_vec(y)
    ]
    glue = omega_closure(pi, prod(split_primes))
    return [
        from_integer(a) + glue * (b - from_integer(a)) for a, b in zip(x2, x1)
    ]


def verify_solution(pi: Supernatural, matrix: SigmaMatrix, rhs, solution) -> Verdict:
    """Check matrix @ solution = rhs componentwise."""
    if not isinstance(matrix, SigmaMatrix):
        matrix = SigmaMatrix(matrix, pi)
    return equal_vectors(pi, matrix.mul_vec(solution), rhs)
