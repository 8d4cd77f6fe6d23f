"""Constructive solving of u*x = v and B*X = C over the sigma-expressible
profinite integers, with a solvability decision.

One split, the one :mod:`profint.word_problem` decides equality with.  There
``[b^(w-k)]`` is the rational ``b^(-k)`` wherever b is a unit, so row i times
d_i = lcm(b^k) over its entries and its right side is an integer row A_i with
integer right side c_i.  When A is square and nonsingular, one Bareiss pass
over [A | c] gives D = det(A) and the integers n = D*x of its rational
solution x.  The ambient splits at its stored primes of positive finite
exponent that divide a base of some entry of B or C, or D, into a finite
modulus M and a remainder `rest`; there every base and every d_i is a unit,
and every prime of D has infinite exponent.

Front and core.  The front reads a pseudonumber system B*X = C into split
rows (:class:`SplitRows`): per row the scale d_i, the integer row A_i and
target c_i, and a way to reduce the original entries and right sides mod M
once M is known.  The core decides and solves from that data alone, as
below.  :func:`solve_system` takes either a pseudonumber system, which goes
through the front, or split rows built elsewhere, which go straight to the
core; :mod:`profint.reducibility` builds its rows from integers that way.

Finite side.  The residues of B and C mod M form a congruence system, solved
one prime power p^e of M at a time (the split primes with their exponents, so
nothing is factored) and glued by the Chinese remainder theorem.  When it has
no solution, the failing row of the elimination mod p^e names a p^(v+1)
dividing M that refutes the system.

Rest side, nonsingular square A.  The diagonal equations D * x_i = n_i hold
on the rest exactly when g = gcd(|D|, rest) divides every n_i; then
n_i / D = a_i / h_i with h_i a unit there, giving ``y_i = a_i * [h_i^(w-1)]``.
Otherwise g refutes, since adj(A)*A = det(A)*I makes n = adj(A)*c vanish
mod g for any solution.

Rest side, any other A.  With the Smith form L*A*R = D over Z and t = L*c,
each diagonal equation D_ii * z_i = t_i is decided by the gcd test, on
integers and in order: a zero D_ii needs t_i = 0 on the rest, and otherwise
g = gcd(D_ii, rest) must divide t_i.  The first failing equation names a
finite divisor of the rest where the system already fails.  Otherwise
``z_i = (t_i/g) * [(D_ii/g)^(w-1)]`` and y = R*z.  Either side returns the
integer pairs (h, a) of each ``y_j = sum a*[h^(w-1)]``, not pseudonumbers.

Glue.  With one image of each bracket mod M, delta_i = B_i*y - C_i mod M and
g = gcd(M, delta_1, ...), y fails exactly at the set P of the p^e of M that
do not divide g.  When P is empty, y is the witness.  Otherwise, with x1 the
congruence solution mod M_P = prod P and G the product of the primes of P,
G^w is 0 mod M_P and 1 at every other prime, and the witness is
``x1 + G^w * (y - x1)``.  Each component is built once, after every test has
passed; when the rest is trivial, the residues mod M are the witness.  A
single equation u*x = v is the 1x1 system.

Order.  A nonsingular square system takes its rest side first, as Bareiss
has run and it costs only gcds; any other its finite side at every p^e, so a
refuted system pays for no Smith form, then reduces x1 mod M_P.  The answers
do not depend on it: each p^e is solved alone, so x1 mod M_P is the solution
at P alone, and y solves every p^e outside P, so the first failing p^e lies
in P.  A refuting rest side is reported once the finite side has passed.

Verify.  A witness x is checked on one split, row by row, without
multiplying pseudonumbers out.  With e = lcm(b^k) over x, the ambient splits
once at the primes of lcm(d_i) * e; mod M each row's two sides are compared
as residues, and on the rest the integer ``sum_j A_ij*(e*x_j) - c_i*e`` is
d_i*e times the row's discrepancy, so it must vanish there.  The first
failing row is the refutation's component.  Each modulus is checked against
the ambient once, not once per residue.
"""
from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass
from math import gcd, lcm, prod

from .errors import InputError
from .intlinalg import IntMatrix, smith_normal_form, solve_congruences, solve_nonsingular
from ._numutil import perfect_root
from .pseudonumber import Pseudonumber, _residue, _term_residue, check_modulus, from_integer
from .supernatural import Supernatural
from .word_problem import (
    Verdict,
    _coerce,
    _scale,
    _scaled_sum,
    refuting_modulus,
)


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


def solve_single_with_refutation(pi: Supernatural, u, v):
    """(witness, None) if u*x = v is solvable over the completion, else
    (None, modulus) with a finite refuting modulus dividing the ambient."""
    u, v = _coerce(u), _coerce(v)
    outcome = solve_system(pi, SigmaMatrix([[u]], pi), [v])
    if outcome:
        return outcome[0], None
    return None, outcome.modulus


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


@dataclass(frozen=True)
class SplitRows:
    """A linear system as the solver's core reads it, one entry per row i:
    the scale d_i = lcm(b^k) over the bases of the row and its right side,
    the integer row A_i and target c_i, which are d_i times the row and its
    right side wherever every base is a unit, and `residues(n)`, which gives
    the residues mod n of the original entries and right sides (as a matrix
    and a vector) for an n already checked against the ambient."""

    scales: list[int]
    matrix: IntMatrix
    targets: list[int]
    residues: Callable[[int], tuple[list[list[int]], list[int]]]


def _split_rows(matrix: SigmaMatrix, rhs) -> SplitRows:
    """The front: a pseudonumber system's split rows, read term by term."""
    scales = [_scale(row + (c,)) for row, c in zip(matrix.entries, rhs)]

    def residues(n):
        return (
            [[_residue(entry, n) for entry in row] for row in matrix.entries],
            [_residue(c, n) for c in rhs],
        )

    return SplitRows(
        scales,
        IntMatrix([
            [_scaled_sum(entry, d) for entry in row]
            for row, d in zip(matrix.entries, scales)
        ]),
        [_scaled_sum(c, d) for c, d in zip(rhs, scales)],
        residues,
    )


def solve_system(pi: Supernatural, matrix, rhs=None):
    """Solve matrix @ X = rhs over the completion, returning a vector of
    sigma-expressible witnesses or a :class:`SystemRefutation`.

    `matrix` is a :class:`SigmaMatrix` (or its rows) with the right side
    `rhs`, or :class:`SplitRows`, which carry their own right side; those go
    to the core as they are."""
    if isinstance(matrix, SplitRows):
        return _solve_split(pi, matrix)
    if not isinstance(matrix, SigmaMatrix):
        matrix = SigmaMatrix(matrix, pi)
    if matrix.pi != pi:
        raise InputError("matrix ambient differs from the requested ambient")
    if rhs is None:
        raise InputError("a pseudonumber matrix needs a right side")
    rhs = [_coerce(x) for x in rhs]
    if len(rhs) != matrix.rows:
        raise InputError(f"right side length {len(rhs)} does not match {matrix.shape}")
    for x in rhs:
        if x.pi is not None and x.pi != pi:
            raise InputError("right side ambient differs from the matrix ambient")
    return _solve_split(pi, _split_rows(matrix, rhs))


def _solve_split(pi: Supernatural, rows: SplitRows):
    """The core: decide and solve the system of the split rows."""
    integer_matrix, targets = rows.matrix, rows.targets
    rational = (
        solve_nonsingular(integer_matrix, targets)
        if integer_matrix.rows == integer_matrix.cols else None
    )
    # primes of the bases of exponent 0 change neither side of the split; the
    # primes of det A are split off too, so those left on the rest are infinite
    det = rational[0] if rational else 1
    split_primes = pi.positive_finite_primes_of(lcm(*rows.scales) * det)
    finite_modulus, rest = pi.split(split_primes)
    check_modulus(finite_modulus, pi)
    residue_matrix, residue_rhs = rows.residues(finite_modulus)
    prime_powers = [(p, pi.exponent_of(p)) for p in split_primes]

    def finite_side(powers):  # the solution mod the powers, or the p^(v+1) where it fails
        x1, refuted = solve_congruences(IntMatrix(residue_matrix), residue_rhs, powers)
        return SystemRefutation(refuted, "congruence system unsolvable") if refuted else x1

    if rest.is_finite() and rest.as_integer() == 1:  # M is the whole ambient
        x1 = finite_side(prime_powers)
        return x1 and [from_integer(a) for a in x1]
    x1 = None if rational else finite_side(prime_powers)
    if isinstance(x1, SystemRefutation):
        return x1
    plan = _rest_rational(rest, *rational) if rational else _rest_smith(rest, integer_matrix, targets)
    if isinstance(plan, SystemRefutation):
        if x1 is None and not (x1 := finite_side(prime_powers)):
            return x1  # the finite side's failure comes first
        return plan

    images = {h: _term_residue(h, 1, finite_modulus) for component in plan for h, _ in component}
    y = [sum(c * images[h] for h, c in component) for component in plan]
    g = finite_modulus
    for row, c in zip(residue_matrix, residue_rhs):
        g = gcd(g, sum(a * b for a, b in zip(row, y)) - c)
    failing = [(p, e) for p, e in prime_powers if g % p**e]
    if not failing:
        return [Pseudonumber(0, [(h, 1, c) for h, c in component], pi) for component in plan]
    x1 = x1 or finite_side(failing)
    return x1 and _glue(pi, failing, x1, plan, prod(split_primes))


def _glue(pi, failing, x1, plan, every):
    """``x1 + G^w * (y - x1)``, G the product of the failing primes, x1 mod
    their powers.  A bracket ``[r^(w-m)]`` of y vanishes at the primes of r,
    so G^w times it is H^w times it, for H the primes of G prime to r with
    none or with all of the primes of r in `every`; each term is the shorter
    of these two ring products."""
    modulus, glue = prod(p**e for p, e in failing), prod(p for p, _ in failing)
    forms = {}
    for h in {h for component in plan for h, _ in component}:
        r, m = perfect_root(h)
        forms[h] = []
        for g in {glue // gcd(glue, r), glue // gcd(glue, r) * gcd(every, r)}:
            root, power = perfect_root(g * r)
            forms[h].append((g, m + 1, g) if r == g else (root, power * m, g**m))
    witness = []
    for a, component in zip(x1, plan):
        a %= modulus
        terms = [
            min(((b, o, c * f) for b, o, f in forms[h]), key=lambda t: len("%d%d%d" % t))
            for h, c in component
        ]
        witness.append(Pseudonumber(a, [(glue, 1, -a * glue), *terms], pi))
    return witness


def _rest_rational(rest, det, numerators):
    """The rest side of a nonsingular square system: its diagonal equations
    D * x_i = n_i, where x = n / D is the rational solution.

    Every prime of D on the rest has infinite exponent, so with g the part of
    |D| there, all of them are solvable exactly when g divides every n_i;
    then n_i / D = a_i / h_i with h_i a unit on the rest, and
    ``y_i = a_i * [h_i^(w-1)]``, given as the pairs (h_i, a_i).  Otherwise g
    refutes: adj(A)*A = det(A)*I makes n = adj(A)*c vanish mod g for any
    solution of A*x = c.
    """
    g = rest.gcd(abs(det))
    if any(n % g for n in numerators):
        return SystemRefutation(g, "diagonal equation unsolvable")
    plan = []
    for n in numerators:
        f = gcd(n, det)
        a, h = n // f, det // f
        plan.append([(abs(h), a if h > 0 else -a)] if a else [])
    return plan


def _rest_smith(rest, integer_matrix, targets):
    """The rest side of a singular or non-square system: with L*A*R = D and
    t = L*c, each diagonal equation D_ii * z_i = t_i is decided by the gcd
    test on integers, in order.  Once all of them hold,
    z_i = (t_i/g) * [(D_ii/g)^(w-1)], and y_j = sum_i R_ji * z_i is given as
    the pairs (D_ii/g, R_ji * t_i/g)."""
    snf = smith_normal_form(integer_matrix)
    diagonal = snf.diagonal()
    quotients = []
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
        if t:
            quotients.append((i, t // g, d // g))
    return [[(h, row[i] * a) for i, a, h in quotients if row[i]] for row in snf.right.entries]


def _residues(pi, values, n):
    """The eval_mod images of values over pi in Z/nZ, with n checked once."""
    check_modulus(n, pi)
    return [_residue(x, n) for x in values]


def _row_residues(row, c, n, solution_mod):
    """Both sides of row . x = c in Z/nZ, from the residues of x mod n, for
    an n already checked against the ambient."""
    lhs = sum(_residue(a, n) * x for a, x in zip(row, solution_mod))
    return lhs % n, _residue(c, n)


def verify_solution(pi: Supernatural, matrix: SigmaMatrix, rhs, solution) -> Verdict:
    """Check matrix @ solution = rhs row by row on the split image; a failing
    row is the verdict's component."""
    if not isinstance(matrix, SigmaMatrix):
        matrix = SigmaMatrix(matrix, pi)
    elif matrix.pi != pi:
        matrix = SigmaMatrix(matrix.entries, pi)  # rejects an entry over another ambient
    solution = [_coerce(x) for x in solution]
    if len(solution) != matrix.cols:
        raise InputError(f"vector length {len(solution)} does not match {matrix.shape}")
    rhs = [_coerce(c) for c in rhs]
    if len(rhs) != matrix.rows:
        raise InputError(f"vector lengths differ: {matrix.rows} vs {len(rhs)}")
    for x in solution + rhs:
        if x.pi is not None and x.pi != pi:
            raise InputError("witness or right side ambient differs from the requested ambient")

    e = _scale(solution)
    scaled_solution = [_scaled_sum(x, e) for x in solution]
    scales = [_scale(row + (c,)) for row, c in zip(matrix.entries, rhs)]
    m, rest = pi.split(pi.positive_finite_primes_of(lcm(*scales) * e))
    solution_mod = _residues(pi, solution, m)
    for i, (row, c, d) in enumerate(zip(matrix.entries, rhs, scales)):
        lhs, target = _row_residues(row, c, m, solution_mod)
        if lhs != target:
            return Verdict.no(m, lhs, target, component=i)
        # d*e times the row's discrepancy, and d*e is a unit on the rest
        delta = sum(
            _scaled_sum(a, d) * x for a, x in zip(row, scaled_solution)
        ) - _scaled_sum(c, d) * e
        if not rest.congruent(delta, 0):
            n = refuting_modulus(rest, delta)
            lhs, target = _row_residues(row, c, n, _residues(pi, solution, n))
            return Verdict.no(n, lhs, target, component=i)
    return Verdict.yes()
