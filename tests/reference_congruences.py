"""The congruence solver that diagonalizes mod M, kept as a reference.

`profint.intlinalg.solve_congruences` solves a congruence system one prime
power of M at a time.  Before that it took a Smith form mod the whole M and
refuted at M; these are that Smith form, its scalar step and that solver,
used by the differential tests.
"""
from __future__ import annotations

from math import gcd

from profint import IntMatrix, SnfResult


def smith_normal_form_mod(matrix: IntMatrix, modulus: int) -> SnfResult:
    """Smith form left @ matrix @ right = diag mod `modulus`.

    Every operation is followed by reduction mod M, so no entry of the
    matrix or of the witnesses leaves [0, M): the equation holds mod M, left
    and right are invertible mod M, and gcd(d_i, M) divides d_{i+1}.  The
    pivots and operations are those of the Smith form over Z.
    """
    s, t = matrix.rows, matrix.cols
    a = [[x % modulus for x in row] for row in matrix.entries]
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
                m[dst] = [(x + q * y) % modulus for x, y in zip(m[dst], m[src])]

    def add_col(dst, src, q):
        if q:
            for m in (a, right):
                for row in m:
                    row[dst] = (row[dst] + q * row[src]) % modulus

    for k in range(min(s, t)):
        while True:
            pivot, least = None, 0
            for i in range(k, s):
                for j, x in enumerate(a[i][k:], k):
                    if x and (not least or x < least):
                        pivot, least = (i, j), x
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
                (i for i in range(k + 1, s) for j in range(k + 1, t) if a[i][j] % p),
                None,
            )
            if offender is None:
                break
            add_row(k, offender, 1)
    return SnfResult(IntMatrix(left), IntMatrix(a), IntMatrix(right))


def solve_congruence(a: int, b: int, modulus: int) -> int | None:
    """The least x >= 0 with a*x = b (mod modulus), or None when
    gcd(a, modulus) does not divide b."""
    g = gcd(a, modulus)
    if b % g:
        return None
    reduced = modulus // g
    return (b // g) * pow(a // g, -1, reduced) % reduced if reduced > 1 else 0


def solve_congruences_mod(matrix: IntMatrix, rhs, modulus: int):
    """A vector X with matrix @ X = rhs (mod modulus), components in
    [0, modulus), or None when the system has no solution: diagonalize mod
    `modulus`, solve each scalar congruence, map back through the right
    witness."""
    rhs = [int(x) for x in rhs]
    if modulus == 1:
        return [0] * matrix.cols
    snf = smith_normal_form_mod(matrix, modulus)
    transformed = snf.left.mul_vec(rhs)
    rank_bound = min(matrix.rows, matrix.cols)
    y = [0] * matrix.cols
    for i in range(matrix.rows):
        d = snf.diag.entries[i][i] if i < rank_bound else 0
        x = solve_congruence(d, transformed[i] % modulus, modulus)
        if x is None:
            return None
        if d:  # zero rows past the column count have no unknown
            y[i] = x
    return [x % modulus for x in snf.right.mul_vec(y)]
