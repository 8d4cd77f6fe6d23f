"""Exact integer linear algebra: fraction-free (Bareiss) elimination for
determinants and nonsingular square systems, Smith normal form with
unimodular witnesses, and congruence systems solved one prime power at a
time.

Matrices hold arbitrary-precision integers and are immutable after
construction; an entry or right side that is not an integer (a float, text)
is an InputError, never truncated or parsed.  Bareiss elimination keeps
every intermediate entry a minor of the input, so the integers of a
nonsingular system A*x = c stay the size of the minors of [A | c]; its
solution comes back as integers n with x = n / det(A).
The Smith reduction over Z pivots on the smallest nonzero absolute value
(ties broken lexicographically), so the witnesses L and R are reproducible
across runs; they can grow far past the input.

Finite side.  A congruence system mod M = prod p^e is solved locally: for
each p^e, row reduction mod p^e with pivots of least p-valuation leaves an
echelon form whose entries stay below p^e, and either a row that fails, which
refutes already mod p^(v+1) for the valuation v of its right side, or a
solution by back substitution.  The solutions mod each p^e are glued by the
Chinese remainder theorem.  The caller supplies the prime powers, so nothing
is factored.
"""
from __future__ import annotations

import operator
from dataclasses import dataclass
from math import gcd

from .errors import InputError


def _integers(values) -> tuple[int, ...]:
    """The values as a tuple of ints; a value that is not an integer (a
    float, text, None) is an InputError, not truncated or parsed."""
    try:
        return tuple(map(operator.index, values))
    except TypeError:
        raise InputError(f"expected integers, got {values!r}") from None


class IntMatrix:
    """Dense integer matrix, row-major, immutable."""

    __slots__ = ("rows", "cols", "entries")

    def __init__(self, rows_of_entries):
        entries = tuple(_integers(row) for row in rows_of_entries)
        if not entries or not entries[0]:
            raise InputError("matrix dimensions must be positive")
        cols = len(entries[0])
        if any(len(row) != cols for row in entries):
            raise InputError("ragged rows")
        object.__setattr__(self, "rows", len(entries))
        object.__setattr__(self, "cols", cols)
        object.__setattr__(self, "entries", entries)

    def __setattr__(self, name, value):
        raise AttributeError("IntMatrix is immutable")

    @classmethod
    def identity(cls, n: int) -> "IntMatrix":
        return cls([[int(i == j) for j in range(n)] for i in range(n)])

    def __getitem__(self, index):
        i, j = index
        return self.entries[i][j]

    def __eq__(self, other):
        if not isinstance(other, IntMatrix):
            return NotImplemented
        return self.entries == other.entries

    def __hash__(self):
        return hash(self.entries)

    def __matmul__(self, other: "IntMatrix") -> "IntMatrix":
        if self.cols != other.rows:
            raise InputError(f"cannot multiply {self.shape} by {other.shape}")
        return IntMatrix([
            [
                sum(self.entries[i][k] * other.entries[k][j] for k in range(self.cols))
                for j in range(other.cols)
            ]
            for i in range(self.rows)
        ])

    def mul_vec(self, vec):
        """Matrix times column vector; entries may be any ring elements that
        mix with integers (plain ints or pseudonumbers)."""
        vec = list(vec)
        if len(vec) != self.cols:
            raise InputError(f"vector length {len(vec)} does not match {self.shape}")
        out = []
        for row in self.entries:
            acc = row[0] * vec[0]
            for a, x in zip(row[1:], vec[1:]):
                acc = acc + a * x
            out.append(acc)
        return out

    @property
    def shape(self):
        return (self.rows, self.cols)

    def determinant(self) -> int:
        """Exact determinant by fraction-free (Bareiss) elimination."""
        if self.rows != self.cols:
            raise InputError("determinant needs a square matrix")
        return _bareiss([list(row) for row in self.entries], self.rows)

    def __str__(self):
        return ";".join(",".join(str(x) for x in row) for row in self.entries)

    def __repr__(self):
        return f"IntMatrix({str(self)!r})"


def _bareiss(m: list[list[int]], n: int) -> int:
    """Fraction-free (Bareiss) elimination of the first n columns of the n
    rows m, in place; the rows may be longer, as an augmented matrix is.

    Returns the determinant of the leading n x n block, 0 when it is singular
    (the elimination then stops).  Otherwise m is left upper triangular on
    that block, with the same solutions as the input, and every entry a minor
    of the row-permuted input: the exact division by the previous pivot keeps
    them there, so no entry grows past a minor.
    """
    sign, prev = 1, 1
    for k in range(n):
        if m[k][k] == 0:
            for i in range(k + 1, n):
                if m[i][k]:
                    m[k], m[i] = m[i], m[k]
                    sign = -sign
                    break
            else:
                return 0
        pivot_row = m[k]
        p, tail = pivot_row[k], pivot_row[k + 1:]
        for row in m[k + 1:n]:
            f = row[k]
            row[k + 1:] = [(x * p - f * y) // prev for x, y in zip(row[k + 1:], tail)]
        prev = p
    return sign * prev


def solve_nonsingular(matrix: IntMatrix, rhs) -> tuple[int, list[int]] | None:
    """(D, n) with D = det(matrix) and matrix @ (n / D) = rhs over the
    rationals, or None when the square matrix is singular.

    One Bareiss pass over [matrix | rhs] and a back substitution; n_i is the
    Cramer numerator det(matrix with column i replaced by rhs), so every
    division in the back substitution is exact.
    """
    n = matrix.rows
    if matrix.cols != n:
        raise InputError(f"a nonsingular solve needs a square matrix, got {matrix.shape}")
    rhs = _integers(rhs)
    if len(rhs) != n:
        raise InputError(f"right side length {len(rhs)} does not match {matrix.shape}")
    m = [list(row) + [c] for row, c in zip(matrix.entries, rhs)]
    det = _bareiss(m, n)
    if det == 0:
        return None
    numerators = [0] * n
    for i in range(n - 1, -1, -1):
        row = m[i]
        known = sum(a * x for a, x in zip(row[i + 1:n], numerators[i + 1:]))
        numerators[i] = (det * row[n] - known) // row[i]
    return det, numerators


@dataclass(frozen=True)
class SnfResult:
    """Diagonalization left @ source @ right = diag with unimodular witnesses,
    nonnegative diagonal and a divisibility chain."""

    left: IntMatrix
    diag: IntMatrix
    right: IntMatrix

    def diagonal(self) -> list[int]:
        return [
            self.diag.entries[i][i]
            for i in range(min(self.diag.rows, self.diag.cols))
        ]


def smith_normal_form(matrix: IntMatrix) -> SnfResult:
    """Smith form left @ matrix @ right = diag over Z."""
    s, t = matrix.rows, matrix.cols
    a = [list(row) for row in matrix.entries]
    left = [[int(i == j) for j in range(s)] for i in range(s)]
    right = [[int(i == j) for j in range(t)] for i in range(t)]

    def swap_rows(i, j):
        if i != j:
            a[i], a[j] = a[j], a[i]
            left[i], left[j] = left[j], left[i]

    def swap_cols(i, j):
        if i != j:
            for row in a:
                row[i], row[j] = row[j], row[i]
            for row in right:
                row[i], row[j] = row[j], row[i]

    def add_row(dst, src, q):
        if q:
            for m in (a, left):
                m[dst] = [x + q * y for x, y in zip(m[dst], m[src])]

    def add_col(dst, src, q):
        if q:
            for m in (a, right):
                for row in m:
                    row[dst] += q * row[src]

    for k in range(min(s, t)):
        while True:
            pivot, least = None, 0
            for i in range(k, s):
                for j, x in enumerate(a[i][k:], k):
                    if x and (not least or abs(x) < least):
                        pivot, least = (i, j), abs(x)
            if pivot is None:
                break
            swap_rows(k, pivot[0])
            swap_cols(k, pivot[1])
            p = a[k][k]
            dirty = False
            for i in range(k + 1, s):
                add_row(i, k, -(a[i][k] // p))
                dirty = dirty or bool(a[i][k])
            for j in range(k + 1, t):
                add_col(j, k, -(a[k][j] // p))
                dirty = dirty or bool(a[k][j])
            if dirty:
                continue
            offender = next(
                (
                    i
                    for i in range(k + 1, s)
                    for j in range(k + 1, t)
                    if a[i][j] % p
                ),
                None,
            )
            if offender is None:
                break
            add_row(k, offender, 1)
        if a[k][k] < 0:
            a[k] = [-x for x in a[k]]
            left[k] = [-x for x in left[k]]
    return SnfResult(IntMatrix(left), IntMatrix(a), IntMatrix(right))


def _echelon(rows, q: int):
    """Row-reduce the augmented rows [A | b] mod q = p^e, in place.

    Each pivot is an entry of least p-valuation in the rows and columns not
    yet reduced (its gcd with q is least), moved into place by a row and a
    column swap and scaled to that power of p.  It then divides every entry
    below it and to its right, so the rows under it clear without growing.
    Returns the column order (position -> original column) and the pivots;
    rows past the last pivot are zero mod q in every column of A.
    """
    cols = len(rows[0]) - 1
    order = list(range(cols))
    pivots = []
    for k in range(min(len(rows), cols)):
        best, least = None, q
        for i in range(k, len(rows)):
            row = rows[i]
            for j in range(k, cols):
                g = gcd(row[j], q)
                if g < least:
                    best, least = (i, j), g
                    if g == 1:
                        break
            if least == 1:
                break
        if best is None:
            break
        i, j = best
        rows[k], rows[i] = rows[i], rows[k]
        if j != k:
            for row in rows:
                row[k], row[j] = row[j], row[k]
            order[k], order[j] = order[j], order[k]
        pivot_row = rows[k]
        unit = pow(pivot_row[k] // least, -1, q)
        if unit != 1:
            pivot_row[k:] = [x * unit % q for x in pivot_row[k:]]
        tail = pivot_row[k:]
        for row in rows[k + 1:]:
            f = row[k] // least
            if f:
                row[k:] = [(x - f * y) % q for x, y in zip(row[k:], tail)]
        pivots.append(least)
    return order, pivots


def solve_congruences(matrix: IntMatrix, rhs, prime_powers):
    """Solve matrix @ X = rhs mod M = prod p^e over the pairs (p, e) of
    `prime_powers`, distinct primes with e >= 1.

    Returns (X, None) with components in [0, M), or (None, p^(v+1)) for a
    prime power dividing M modulo which the system already has no solution.

    Each p^e is solved alone (:func:`_echelon`): a row whose right side b has
    p-valuation v below its pivot's, or a zero row with b nonzero mod p^e,
    reads 0 = b mod p^(v+1), which refutes (the row operations stay
    invertible there).  The primes are tried in the order given, and the
    failing row of least v names the modulus: the least power of the first
    failing prime at which the system fails.  Otherwise the back
    substitution sets the free variables to 0, and the solutions mod each
    p^e are glued by the Chinese remainder theorem.
    """
    rhs = _integers(rhs)
    if len(rhs) != matrix.rows:
        raise InputError(f"right side length {len(rhs)} does not match {matrix.shape}")
    cols = matrix.cols
    solution, modulus = [0] * cols, 1
    for p, e in prime_powers:
        if e < 1:
            raise InputError(f"prime power exponent must be positive, got {p}^{e}")
        q = p**e
        rows = [[x % q for x in row] + [b % q] for row, b in zip(matrix.entries, rhs)]
        order, pivots = _echelon(rows, q)
        failing = [
            gcd(row[cols], q)
            for row, g in zip(rows, pivots + [q] * (len(rows) - len(pivots)))
            if row[cols] % g
        ]
        if failing:
            return None, min(failing) * p
        y = [0] * cols  # in pivot order; the free variables stay 0
        for k in range(len(pivots) - 1, -1, -1):
            row = rows[k]
            r = row[cols] - sum(a * z for a, z in zip(row[k + 1:len(pivots)], y[k + 1:]))
            y[k] = r % q // pivots[k]
        x = [0] * cols
        for k, z in zip(order, y):
            x[k] = z
        inverse = pow(modulus, -1, q)  # CRT: keep the residues mod `modulus`, add x's mod q
        solution = [w + modulus * ((z - w) * inverse % q) for w, z in zip(solution, x)]
        modulus *= q
    return solution, None
