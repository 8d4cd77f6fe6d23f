import random

import pytest

from profint import (
    InputError,
    SigmaMatrix,
    equal_in_ab,
    equal_vectors,
    eval_mod,
    from_integer,
    omega_closure,
    omega_power,
    parse_supernatural,
    solve_single,
    solve_system,
    verify_solution,
)
from profint.solver import solve_single_with_refutation
from conftest import linear_solution_exists, random_pseudonumber, random_supernatural

PI = parse_supernatural("3^1,5^inf;default=0")


def test_solve_single_examples():
    w = solve_single(PI, 2, omega_power(PI, 3, 1))
    assert w is not None
    assert equal_in_ab(PI, 2 * w, omega_power(PI, 3, 1))
    # 2 is invertible here, so the solution is unique: w = 6^(w-1)
    assert equal_in_ab(PI, w, omega_power(PI, 6, 1))

    pi = parse_supernatural("3^inf;default=0")
    assert solve_single(pi, 3, 1) is None
    assert solve_single_with_refutation(pi, 3, 1) == (None, 3)

    v = 5 + 2 * omega_power(PI, 6, 2)
    assert solve_single(PI, 1, v) == v
    assert solve_single(PI, -1, v) == -v


def test_solve_single_zero_coefficient():
    assert solve_single(PI, 0, 0) == from_integer(0)
    assert solve_single(PI, 0, 1) is None
    # zero only semantically: 4 vanishes when the ambient is the number 4
    pi4 = parse_supernatural("2^2;default=0")
    assert solve_single(pi4, 4, 8) == from_integer(0)
    assert solve_single(pi4, 4, 1) is None


def test_solve_single_torsion_coefficient():
    # u = 2^w - 1 is zero away from 2 but 1 (mod 2): solvable iff v matches
    pi = parse_supernatural("2^1,3^inf;default=0")
    u = 2 * omega_power(pi, 2, 1) - 1
    w = solve_single(pi, u, u)
    assert w is not None and equal_in_ab(pi, u * w, u)
    assert solve_single(pi, u, 1) is None


def test_solve_single_random_round_trip():
    rng = random.Random(41)
    for _ in range(120):
        pi = random_supernatural(rng)
        u = random_pseudonumber(rng, pi, max_terms=2, coeff_limit=12)
        x = random_pseudonumber(rng, pi, max_terms=2, coeff_limit=12)
        v = u * x
        w = solve_single(pi, u, v)
        assert w is not None  # solvable by construction
        assert equal_in_ab(pi, u * w, v)


def test_solve_single_refutations_are_finite_quotient_facts():
    rng = random.Random(42)
    refuted = 0
    for _ in range(200):
        pi = random_supernatural(rng)
        u = random_pseudonumber(rng, pi, max_terms=1, coeff_limit=12)
        v = random_pseudonumber(rng, pi, max_terms=1, coeff_limit=12)
        w, modulus = solve_single_with_refutation(pi, u, v)
        if w is not None:
            assert equal_in_ab(pi, u * w, v)
            continue
        refuted += 1
        assert modulus is not None and pi.divisible_by(modulus)
        if modulus <= 50:
            a, b = eval_mod(u, modulus, pi), eval_mod(v, modulus, pi)
            assert all((a * x - b) % modulus for x in range(modulus))
    assert refuted > 20


def test_glue_idempotent_identity():
    rng = random.Random(43)
    for _ in range(30):
        pi = random_supernatural(rng)
        primes = [p for p in (2, 3, 5, 7) if pi.is_finite_at(p)]
        if not primes:
            continue
        base = 1
        for p in primes:
            base *= p
        e = omega_closure(pi, base)
        assert equal_in_ab(pi, e * e, e)


def test_solve_system_examples():
    matrix = SigmaMatrix([[1, 1], [0, 1]], PI)
    outcome = solve_system(PI, matrix, [5, 2])
    assert outcome
    assert verify_solution(PI, matrix, [5, 2], outcome)
    assert equal_vectors(PI, outcome, [3, 2])

    matrix = SigmaMatrix([[2]], PI)
    rhs = [omega_power(PI, 3, 1)]
    outcome = solve_system(PI, matrix, rhs)
    assert outcome and verify_solution(PI, matrix, rhs, outcome)
    assert equal_in_ab(PI, outcome[0], omega_power(PI, 6, 1))

    pi = parse_supernatural("3^inf;default=0")
    refuted = solve_system(pi, SigmaMatrix([[3]], pi), [1])
    assert not refuted and refuted.modulus == 3


def test_verify_solution_examples():
    matrix = SigmaMatrix([[2]], PI)
    assert verify_solution(PI, matrix, [omega_power(PI, 3, 1)], [omega_power(PI, 6, 1)])
    one = SigmaMatrix([[1]], PI)
    assert verify_solution(PI, one, [0], [0])
    pi = parse_supernatural("2^inf;default=0")
    verdict = verify_solution(pi, SigmaMatrix([[1]], pi), [0], [1])
    assert not verdict and verdict.witness_modulus == 2


def test_solve_system_round_trip():
    rng = random.Random(44)
    for _ in range(100):
        pi = random_supernatural(rng)
        rows = rng.randint(1, 4)
        cols = rng.randint(1, 4)
        matrix = SigmaMatrix(
            [[rng.randint(-10, 10) for _ in range(cols)] for _ in range(rows)], pi
        )
        wanted = [random_pseudonumber(rng, pi, max_terms=2, coeff_limit=9) for _ in range(cols)]
        rhs = matrix.mul_vec(wanted)
        outcome = solve_system(pi, matrix, rhs)
        assert outcome, f"round trip lost a solution (refuted mod {outcome.modulus})"
        assert verify_solution(pi, matrix, rhs, outcome)


def test_solve_system_refutation_confirmed_by_exhaustion():
    rng = random.Random(45)
    refuted = 0
    for _ in range(150):
        pi = random_supernatural(rng)
        rows = rng.randint(1, 3)
        cols = rng.randint(1, 3)
        matrix = SigmaMatrix(
            [
                [random_pseudonumber(rng, pi, max_terms=1, coeff_limit=9) for _ in range(cols)]
                for _ in range(rows)
            ],
            pi,
        )
        rhs = [random_pseudonumber(rng, pi, max_terms=1, coeff_limit=9) for _ in range(rows)]
        outcome = solve_system(pi, matrix, rhs)
        if outcome:
            assert verify_solution(pi, matrix, rhs, outcome)
            continue
        refuted += 1
        n = outcome.modulus
        assert pi.divisible_by(n)
        if n <= 50:
            residue_rows = [
                [eval_mod(entry, n, pi) for entry in row] for row in matrix.entries
            ]
            residue_rhs = [eval_mod(x, n, pi) for x in rhs]
            assert not linear_solution_exists(residue_rows, residue_rhs, n)
    assert refuted > 20


def test_glue_two_sided_verification():
    # check a returned solution in quotients from each side of the split
    pi = parse_supernatural("2^2,3^1,5^inf,7^inf;default=0")
    matrix = SigmaMatrix([[6, omega_power(pi, 2, 1)]], pi)
    known = [4 + omega_power(pi, 3, 2), omega_power(pi, 6, 1)]
    rhs = matrix.mul_vec(known)
    outcome = solve_system(pi, matrix, rhs)
    assert outcome
    got = matrix.mul_vec(outcome)
    for n in (12, 4, 3, 35, 7, 5):  # finite-side divisors, then coprime side
        assert eval_mod(got[0], n, pi) == eval_mod(rhs[0], n, pi)


def test_negative_cleared_values():
    # the unit part of the decomposition is a sign; exercise both sides
    pi = parse_supernatural("2^inf,3^1;default=0")
    w = solve_single(pi, -6, 18)
    assert w is not None and equal_in_ab(pi, -6 * w, 18)
    assert solve_single(pi, -6, 9) is None  # odd right side, even coefficient
    w = solve_single(pi, -6, -2 * omega_power(pi, 3, 1))
    if w is not None:
        assert equal_in_ab(pi, -6 * w, -2 * omega_power(pi, 3, 1))
    u = -4 - 3 * omega_power(pi, 3, 1)
    x = 2 - omega_power(pi, 3, 2)
    v = u * x
    w = solve_single(pi, u, v)
    assert w is not None and equal_in_ab(pi, u * w, v)


def test_fully_infinite_ambient():
    # every prime infinite: values are plain integers, a*x = b needs a | b
    pi = parse_supernatural("default=inf")
    assert solve_single(pi, 6, 12) is not None
    assert solve_single(pi, 6, 3) is None
    _, modulus = solve_single_with_refutation(pi, 6, 3)
    assert modulus is not None and pi.divisible_by(modulus)
    a, b = 6 % modulus, 3 % modulus
    assert all((a * x - b) % modulus for x in range(modulus))


def test_trivial_ambient_everything_solvable():
    pi = parse_supernatural("default=0")
    w = solve_single(pi, 0, 7)  # 7 = 0 in the trivial ambient
    assert w is not None
    outcome = solve_system(pi, SigmaMatrix([[0, 0]], pi), [5])
    assert outcome and verify_solution(pi, SigmaMatrix([[0, 0]], pi), [5], outcome)


def test_finite_ambient_differential_against_congruence():
    # over a finite ambient N, u*x = v is solvable iff it is solvable mod N
    rng = random.Random(46)
    from profint import Supernatural

    for _ in range(200):
        table = {}
        for p in (2, 3, 5):
            if rng.random() < 0.7:
                table[p] = rng.randint(0, 3)
        pi = Supernatural(table, 0)
        modulus = pi.as_integer()
        u = random_pseudonumber(rng, pi, max_terms=2, coeff_limit=15)
        v = random_pseudonumber(rng, pi, max_terms=2, coeff_limit=15)
        a, b = eval_mod(u, modulus, pi), eval_mod(v, modulus, pi)
        expected = any((a * x - b) % modulus == 0 for x in range(modulus))
        w = solve_single(pi, u, v)
        assert (w is not None) == expected
        if w is not None:
            assert equal_in_ab(pi, u * w, v)


def test_dimension_and_ambient_validation():
    with pytest.raises(InputError):
        SigmaMatrix([], PI)
    with pytest.raises(InputError):
        SigmaMatrix([[1], [2, 3]], PI)
    other = parse_supernatural("2^1;default=0")
    with pytest.raises(InputError):
        SigmaMatrix([[omega_power(other, 2, 1)]], PI)
    matrix = SigmaMatrix([[1, 2]], PI)
    with pytest.raises(InputError):
        solve_system(PI, matrix, [1, 2])
