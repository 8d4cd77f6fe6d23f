import itertools
import random
from math import gcd

import pytest

from profint import (
    InputError,
    IntMatrix,
    Pseudonumber,
    Supernatural,
    eval_mod,
    from_integer,
    is_zero,
    omega_power,
    parse_supernatural,
    smith_normal_form,
    solve_congruences,
)
from profint.intlinalg import _echelon, solve_nonsingular
from conftest import factorint, linear_solution_exists, sample_moduli
from reference_congruences import smith_normal_form_mod, solve_congruences_mod


def check_snf(matrix):
    res = smith_normal_form(matrix)
    assert (res.left @ matrix @ res.right) == res.diag
    assert abs(res.left.determinant()) == 1
    assert abs(res.right.determinant()) == 1
    diag = res.diagonal()
    assert all(d >= 0 for d in diag)
    for a, b in zip(diag, diag[1:]):
        assert (a == 0 and b == 0) or (a != 0 and b % a == 0)
    for i in range(res.diag.rows):
        for j in range(res.diag.cols):
            if i != j:
                assert res.diag.entries[i][j] == 0
    return res


def test_snf_examples():
    res = check_snf(IntMatrix([[2, 4], [6, 8]]))
    assert res.diagonal() == [2, 4]
    res = check_snf(IntMatrix([[1]]))
    assert res.diagonal() == [1]
    assert res.left == IntMatrix([[1]]) and res.right == IntMatrix([[1]])
    res = check_snf(IntMatrix([[0, 0], [0, 0]]))
    assert res.diagonal() == [0, 0]
    assert res.left == IntMatrix.identity(2) and res.right == IntMatrix.identity(2)


def test_snf_random_matrices():
    rng = random.Random(32)
    for _ in range(120):
        rows = rng.randint(1, 6)
        cols = rng.randint(1, 6)
        matrix = IntMatrix(
            [[rng.randint(-20, 20) for _ in range(cols)] for _ in range(rows)]
        )
        check_snf(matrix)


def test_snf_diagonal_matches_sympy():
    sympy = pytest.importorskip("sympy")
    from sympy.matrices.normalforms import smith_normal_form as sympy_snf

    rng = random.Random(33)
    for _ in range(100):
        rows = rng.randint(1, 5)
        cols = rng.randint(1, 5)
        entries = [[rng.randint(-12, 12) for _ in range(cols)] for _ in range(rows)]
        if rng.random() < 0.3:  # rank deficient
            entries.append([2 * x for x in entries[0]])
        expected = sympy_snf(sympy.Matrix(entries), domain=sympy.ZZ)
        diagonal = [abs(int(expected[i, i])) for i in range(min(len(entries), cols))]
        assert smith_normal_form(IntMatrix(entries)).diagonal() == diagonal, entries


def test_snf_deterministic():
    matrix = IntMatrix([[6, 4, 2], [2, 8, 10]])
    first = smith_normal_form(matrix)
    second = smith_normal_form(matrix)
    assert first.left == second.left and first.right == second.right


def test_solve_congruences_examples():
    assert solve_congruences(IntMatrix([[2]]), [0], [(3, 1)]) == ([0], None)
    assert solve_congruences(IntMatrix([[2]]), [1], [(2, 2)]) == (None, 2)
    assert solve_congruences(IntMatrix([[1, 1], [0, 1]]), [5, 2], [(7, 1)]) == ([3, 2], None)
    assert solve_congruences(IntMatrix([[3, 5]]), [7], []) == ([0, 0], None)  # M = 1
    with pytest.raises(InputError):
        solve_congruences(IntMatrix([[1]]), [1, 2], [(2, 1)])
    with pytest.raises(InputError):
        solve_congruences(IntMatrix([[1]]), [1], [(2, 0)])


def brute_congruence_solvable(matrix, rhs, modulus):
    for x in itertools.product(range(modulus), repeat=matrix.cols):
        if all(
            sum(a * v for a, v in zip(row, x)) % modulus == b % modulus
            for row, b in zip(matrix.entries, rhs)
        ):
            return True
    return False


def test_solve_congruences_against_exhaustion():
    rng = random.Random(33)
    for _ in range(150):
        rows = rng.randint(1, 3)
        cols = rng.randint(1, 3)
        modulus = rng.randint(1, 30)
        matrix = IntMatrix(
            [[rng.randint(-9, 9) for _ in range(cols)] for _ in range(rows)]
        )
        rhs = [rng.randint(-9, 9) for _ in range(rows)]
        found, refuted = solve_congruences(matrix, rhs, factorint(modulus))
        if found is None:
            assert modulus % refuted == 0
            assert not brute_congruence_solvable(matrix, rhs, refuted)
            assert not brute_congruence_solvable(matrix, rhs, modulus)
        else:
            assert all(0 <= x < modulus for x in found)
            for row, b in zip(matrix.entries, rhs):
                assert sum(a * v for a, v in zip(row, found)) % modulus == b % modulus


def failure_kinds(matrix, rhs, prime_powers):
    """The kinds of failing rows the elimination mod the first failing p^e
    meets: "zero row" (zero mod p^e, right side not) or "pivot row" (right
    side of p-valuation below the pivot's)."""
    for p, e in prime_powers:
        q = p**e
        rows = [[x % q for x in row] + [b % q] for row, b in zip(matrix.entries, rhs)]
        _, pivots = _echelon(rows, q)
        kinds = set()
        for k, row in enumerate(rows):
            if k >= len(pivots) and row[-1]:
                kinds.add("zero row")
            elif k < len(pivots) and row[-1] % pivots[k]:
                kinds.add("pivot row")
        if kinds:
            return kinds
    return set()


def test_solve_congruences_matches_smith_reference():
    # the local solver against the Smith form mod the whole M, on moduli of
    # 1-3 prime powers and square, non-square, rank-deficient matrices with
    # zero rows
    rng = random.Random(38)
    kinds = {"zero row": 0, "pivot row": 0}
    exhausted = 0
    for round_ in range(600):
        primes = rng.sample((2, 3, 5, 7), rng.randint(1, 3))
        prime_powers = [(p, rng.randint(1, 3 if p < 5 else 2)) for p in primes]
        modulus = 1
        for p, e in prime_powers:
            modulus *= p**e
        rows, cols = rng.randint(1, 4), rng.randint(1, 4)
        entries = [[rng.randint(-12, 12) for _ in range(cols)] for _ in range(rows)]
        if round_ % 3 == 1 and rows > 1:  # rank deficient: a multiple of row 0
            entries[-1] = [rng.choice((2, 3, 6)) * x for x in entries[0]]
        if round_ % 3 == 2:  # entries sharing a prime of M, and a zero row
            p = prime_powers[0][0]
            entries = [[p * x for x in row] for row in entries]
            entries[rng.randrange(rows)] = [0] * cols
        matrix = IntMatrix(entries)
        rhs = [rng.randint(-12, 12) for _ in range(rows)]
        found, refuted = solve_congruences(matrix, rhs, prime_powers)
        expected = solve_congruences_mod(matrix, rhs, modulus)
        assert (found is None) == (expected is None), (entries, rhs, prime_powers)
        if found is not None:
            assert refuted is None
            assert all(0 <= x < modulus for x in found)
            for row, b in zip(entries, rhs):
                assert (sum(a * x for a, x in zip(row, found)) - b) % modulus == 0
            continue
        for kind in failure_kinds(matrix, rhs, prime_powers):
            kinds[kind] += 1
        assert modulus % refuted == 0
        assert any(refuted == p ** v for p, e in prime_powers for v in range(1, e + 1))
        if refuted**cols <= 5000:
            exhausted += 1
            assert not linear_solution_exists(entries, rhs, refuted)
    assert min(kinds.values()) > 10, kinds
    assert exhausted > 50


def solvable_in_completion(pi: Supernatural, a: int, b) -> bool:
    """Whether a*x = b is solvable over the completion restricted by pi.

    For nonzero a this is the gcd criterion: b must vanish modulo
    gcd(|a|, pi).  For a = 0 it degenerates to b vanishing everywhere.
    """
    b = b if isinstance(b, Pseudonumber) else from_integer(b)
    if a == 0:
        return bool(is_zero(pi, b))
    d = pi.gcd(abs(a))
    return eval_mod(b, d, pi) == 0


def test_solvable_in_completion_examples():
    pi = parse_supernatural("2^2,3^inf;default=0")
    assert not solvable_in_completion(pi, 4, 6)  # gcd(4, pi) = 4 does not divide 6
    assert solvable_in_completion(pi, 4, 8)
    assert solvable_in_completion(pi, 0, 0)


def test_solvable_agrees_with_quotient_exhaustion():
    rng = random.Random(34)
    from conftest import random_supernatural

    for _ in range(80):
        pi = random_supernatural(rng)
        a = rng.randint(-30, 30)
        b = rng.randint(-30, 30)
        verdict = solvable_in_completion(pi, a, b)
        moduli = sample_moduli(pi, 5, bound=10**4, seed=rng.randint(0, 99))
        per_quotient = [
            any((a * x - b) % n == 0 for x in range(n)) for n in moduli
        ]
        if verdict:
            assert all(per_quotient)
        elif a != 0:
            witness = pi.gcd(abs(a))
            assert not any((a * x - b) % witness == 0 for x in range(witness))


def test_pseudonumber_right_side():
    pi = parse_supernatural("2^2,3^inf;default=0")
    b = 4 * omega_power(pi, 5, 1)  # unit times 4: divisible by gcd(4, pi) = 4
    assert solvable_in_completion(pi, 4, b)
    assert not solvable_in_completion(pi, 4, b + 2)


def test_matrix_parsing_and_validation():
    with pytest.raises(InputError):
        IntMatrix([])
    with pytest.raises(InputError):
        IntMatrix([[1], [2, 3]])
    with pytest.raises(InputError):
        IntMatrix([[1, 2]]) @ IntMatrix([[1, 2]])


def test_determinant_matches_permutation_expansion():
    rng = random.Random(35)
    for _ in range(40):
        n = rng.randint(1, 4)
        m = IntMatrix([[rng.randint(-9, 9) for _ in range(n)] for _ in range(n)])
        expected = 0
        for perm in itertools.permutations(range(n)):
            sign = 1
            for i in range(n):
                for j in range(i + 1, n):
                    if perm[i] > perm[j]:
                        sign = -sign
            prod = sign
            for i in range(n):
                prod *= m.entries[i][perm[i]]
            expected += prod
        assert m.determinant() == expected


def test_snf_mod_m_properties():
    rng = random.Random(36)
    for _ in range(150):
        rows, cols = rng.randint(1, 5), rng.randint(1, 5)
        modulus = rng.choice([2, 8, 9, 12, 30, 72, 504, rng.randint(2, 1000)])
        matrix = IntMatrix([[rng.randint(-99, 99) for _ in range(cols)] for _ in range(rows)])
        res = smith_normal_form_mod(matrix, modulus)
        product = res.left @ matrix @ res.right
        assert all(
            (product[i, j] - res.diag[i, j]) % modulus == 0
            for i in range(rows)
            for j in range(cols)
        )
        assert all(
            0 <= x < modulus for m in (res.left, res.diag, res.right) for row in m.entries for x in row
        )
        assert all(res.diag[i, j] == 0 for i in range(rows) for j in range(cols) if i != j)
        assert gcd(res.left.determinant() * res.right.determinant(), modulus) == 1
        diag = res.diagonal()
        for a, b in zip(diag, diag[1:]):
            assert b % gcd(a, modulus) == 0


def test_snf_over_z_witnesses_pinned():
    # the integer Smith form keeps the witnesses of its pivot rule
    res = smith_normal_form(IntMatrix([[3, -7, 2], [5, 1, -4], [0, 6, 9]]))
    assert res.left == IntMatrix([[0, 1, 0], [-13, -61, -5], [-3063, -14373, -1178]])
    assert res.diagonal() == [1, 1, 474]
    assert res.right == IntMatrix([[0, -86, 173], [1, -254, 511], [0, -171, 344]])


def test_solve_nonsingular():
    rng = random.Random(37)
    singular = 0
    for _ in range(200):
        n = rng.randint(1, 6)
        entries = [[rng.randint(-5, 5) for _ in range(n)] for _ in range(n)]
        if n > 1 and rng.random() < 0.2:
            entries[-1] = [2 * x for x in entries[0]]
        matrix = IntMatrix(entries)
        rhs = [rng.randint(-50, 50) for _ in range(n)]
        outcome = solve_nonsingular(matrix, rhs)
        if outcome is None:
            singular += 1
            assert matrix.determinant() == 0
            continue
        det, numerators = outcome
        assert det == matrix.determinant() != 0
        assert matrix.mul_vec(numerators) == [det * c for c in rhs]
        for i in range(n):  # Cramer: n_i = det(matrix with column i := rhs)
            replaced = IntMatrix(
                [row[:i] + (c,) + row[i + 1:] for row, c in zip(matrix.entries, rhs)]
            )
            assert numerators[i] == replaced.determinant()
    assert singular > 5
    assert solve_nonsingular(IntMatrix([[0, 1], [1, 0]]), [2, 3]) == (-1, [-3, -2])
    with pytest.raises(InputError):
        solve_nonsingular(IntMatrix([[1, 2]]), [1])
    with pytest.raises(InputError):
        solve_nonsingular(IntMatrix([[1]]), [1, 2])



@pytest.mark.parametrize(
    "build",
    [
        lambda: IntMatrix([[1.5, 2.0]]),  # not truncated to 1,2
        lambda: IntMatrix([["7"]]),  # not parsed as 7
        lambda: IntMatrix([[None]]),  # not a TypeError
        lambda: solve_nonsingular(IntMatrix([[2]]), [3.9]),  # not truncated to (2, [3])
        lambda: solve_congruences(IntMatrix([[1]]), [1.5], [(2, 1)]),  # not truncated to ([1], None)
    ],
    ids=["float-entries", "text-entry", "none-entry", "float-rhs-nonsingular",
         "float-rhs-congruences"],
)
def test_non_integer_entries_are_rejected(build):
    with pytest.raises(InputError):
        build()


def test_integer_like_entries_read_as_integers():
    assert IntMatrix([[True, 0]]) == IntMatrix([[1, 0]])
    assert solve_nonsingular(IntMatrix([[2]]), (4,)) == (2, [4])
