"""The solver's core that glues at every split prime, kept as a reference.

`profint.solver._solve_split` solves the rest side, finds the prime powers
of the finite modulus M where that solution y fails, and eliminates and
glues only there.  Before that it solved the congruence system at every
prime power of M, built y by ring operations and glued the two halves with
the idempotent G^w of the product G of every split prime:
``x1 + G^w * (y - x1)``.  This is that core, for the differential tests.
"""
from __future__ import annotations

from math import gcd, lcm, prod

from profint import IntMatrix, from_integer, omega_closure, omega_power, smith_normal_form
from profint.intlinalg import solve_congruences, solve_nonsingular
from profint.solver import SystemRefutation
from profint.word_problem import refuting_modulus


def reference_rest_smith(pi, rest, integer_matrix, targets):
    """The rest side by the Smith form: each z_i built as its diagonal
    passes, then y = R*z multiplied out one ring operation at a time."""
    snf = smith_normal_form(integer_matrix)
    diagonal = snf.diagonal()
    z = [from_integer(0)] * integer_matrix.cols
    for i, t in enumerate(snf.left.mul_vec(targets)):
        d = diagonal[i] if i < len(diagonal) else 0
        if d == 0:
            if not rest.congruent(t, 0):
                return SystemRefutation(
                    refuting_modulus(rest, t), "zero row with nonzero right side"
                )
            continue
        g = rest.gcd(d)
        if t % g:
            return SystemRefutation(g, "diagonal equation unsolvable")
        z[i] = (t // g) * omega_power(pi, d // g, 1)
    return snf.right.mul_vec(z)


def reference_rest_rational(pi, rest, det, numerators):
    """The rest side of a nonsingular square system: each a_i/h_i built as
    the product a_i * [h_i^(w-1)]."""
    g = rest.gcd(abs(det))
    if any(n % g for n in numerators):
        return SystemRefutation(g, "diagonal equation unsolvable")
    y = []
    for n in numerators:
        f = gcd(n, det)
        a, h = n // f, det // f
        if h < 0:
            a, h = -a, -h
        y.append(from_integer(a) if h == 1 else a * omega_power(pi, h, 1))
    return y


def reference_solve_split(pi, rows):
    """The core: the finite side at every prime power of M first, then the
    rest side, and the glue x1 + G^w * (y - x1) by ring operations."""
    rational = (
        solve_nonsingular(rows.matrix, rows.targets)
        if rows.matrix.rows == rows.matrix.cols else None
    )
    det = rational[0] if rational else 1
    split_primes = pi.positive_finite_primes_of(lcm(*rows.scales) * det)
    finite_modulus, rest = pi.split(split_primes)
    residue_matrix, residue_rhs = rows.residues(finite_modulus)
    x1, refuted = solve_congruences(
        IntMatrix(residue_matrix), residue_rhs, [(p, pi.exponent_of(p)) for p in split_primes]
    )
    if x1 is None:
        return SystemRefutation(refuted, "congruence system unsolvable")
    if rest.is_finite() and rest.as_integer() == 1:
        return [from_integer(a) for a in x1]
    if rational:
        y = reference_rest_rational(pi, rest, *rational)
    else:
        y = reference_rest_smith(pi, rest, rows.matrix, rows.targets)
    if isinstance(y, SystemRefutation):
        return y
    glue = omega_closure(pi, prod(split_primes))
    return [from_integer(a) + glue * (b - from_integer(a)) for a, b in zip(x1, y)]
