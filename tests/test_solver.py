import random
from math import gcd, lcm, prod

import pytest

from profint import (
    INFINITY,
    InputError,
    IntMatrix,
    Pseudonumber,
    SigmaMatrix,
    Supernatural,
    clearing_factor,
    equal_in_ab,
    equal_vectors,
    eval_mod,
    from_integer,
    is_zero,
    omega_closure,
    omega_power,
    parse_pseudonumber,
    parse_supernatural,
    smith_normal_form,
    solve_single,
    solve_system,
    verify_solution,
)
from profint import solver as solver_module
from profint._numutil import valuation
from profint.intlinalg import solve_congruences
from profint.solver import SystemRefutation, solve_single_with_refutation
from profint.word_problem import _scale, _scaled_sum, refuting_modulus
from conftest import (
    PRIME_POOL,
    linear_solution_exists,
    random_pseudonumber,
    random_supernatural,
)
from reference_congruences import solve_congruence, solve_congruences_mod
from reference_solver import reference_solve_split

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


def test_zero_coefficient_refutes_at_a_prime_power():
    # 0*x = v is a 1x1 system like any other: it is refuted at the first
    # failing prime power, where is_zero names the whole finite part of v's split
    pi = parse_supernatural("2^inf,3^2,7^2,11^inf,13^3;default=0")
    v = parse_pseudonumber("43 - 20*[21^(w-1)]", pi)
    assert is_zero(pi, v).witness_modulus == 441
    assert solve_single_with_refutation(pi, 0, v) == (None, 3)
    assert eval_mod(v, 3, pi) != 0  # 0*x = v has no solution mod 3
    rng = random.Random(2024)
    refuted = 0
    for _ in range(150):
        pi = random_supernatural(rng)
        v = random_pseudonumber(rng, pi, max_terms=2, coeff_limit=12)
        witness, modulus = solve_single_with_refutation(pi, 0, v)
        assert (witness is None) == (not is_zero(pi, v)), (pi, v)
        if witness is None:
            refuted += 1
            assert pi.divisible_by(modulus) and eval_mod(v, modulus, pi) != 0
        else:
            assert equal_in_ab(pi, witness, 0)
    assert refuted > 50


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


# -- differential check against the clearing-based solver ----------------------


def _reference_infinite_part_refutation(pi, infinite_part, target):
    """A modulus dividing pi where infinite_part*x = target fails: a power
    p^v(infinite_part) of a stored prime, else infinite_part itself."""
    for p, e in pi.table:
        if e != INFINITY or infinite_part % p:
            continue
        v = valuation(infinite_part, p)
        if target % p**v:
            return p**v
    return infinite_part


def reference_single(pi, u, v):
    """(witness, modulus) for u*x = v as the clearing-based solver found it:
    clear u and v to integers, split at the finite primes of the clearing
    factors and of the cleared u, solve the congruence on the finite part,
    divide by the infinite part of the cleared u on the rest, and glue."""
    u, v = (x if isinstance(x, Pseudonumber) else from_integer(x) for x in (u, v))
    if is_zero(pi, u):
        zero_v = is_zero(pi, v)
        return (from_integer(0), None) if zero_v else (None, zero_v.witness_modulus)
    c_u, value_u = clearing_factor(pi, u)
    c_v, value_v = clearing_factor(pi, v)
    split_primes = set(pi.positive_finite_primes_of(c_u * c_v))
    if value_u:
        split_primes.update(pi.positive_finite_primes_of(value_u))
    finite_modulus, rest = pi.split(split_primes)
    x1 = solve_congruence(
        eval_mod(u, finite_modulus, pi), eval_mod(v, finite_modulus, pi), finite_modulus
    )
    if x1 is None:
        return None, finite_modulus
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
            return None, _reference_infinite_part_refutation(pi, infinite_part, target)
        x2 = (
            from_integer(c_u * (target // infinite_part) * sign)
            * omega_power(pi, finite_part, 1)
            * omega_power(pi, c_u * c_v, 1)
        )
    glue = omega_closure(pi, prod(split_primes))
    return from_integer(x1) + glue * (x2 - from_integer(x1)), None


def reference_system(pi, matrix, rhs):
    """The clearing-based solver of matrix @ X = rhs: clear the entries by a
    common factor, take the Smith form over Z, and solve each diagonal
    equation with :func:`reference_single`."""
    rhs = [x if isinstance(x, Pseudonumber) else from_integer(x) for x in rhs]
    cleared = [[clearing_factor(pi, entry) for entry in row] for row in matrix.entries]
    common = lcm(*(c for row in cleared for c, _ in row))
    snf = smith_normal_form(
        IntMatrix([[(common // c) * value for c, value in row] for row in cleared])
    )
    transformed = snf.left.mul_vec([from_integer(common) * x for x in rhs])
    split_primes = pi.positive_finite_primes_of(common)
    finite_modulus, _ = pi.split(split_primes)
    x2 = solve_congruences_mod(
        IntMatrix(
            [[eval_mod(entry, finite_modulus, pi) for entry in row] for row in matrix.entries]
        ),
        [eval_mod(x, finite_modulus, pi) for x in rhs],
        finite_modulus,
    )
    if x2 is None:
        return SystemRefutation(finite_modulus, "congruence system unsolvable")
    diagonal = snf.diagonal()
    y = [from_integer(0)] * matrix.cols
    for i in range(matrix.rows):
        d = diagonal[i] if i < len(diagonal) else 0
        if d == 0:
            vanishes = is_zero(pi, transformed[i])
            if not vanishes:
                return SystemRefutation(
                    vanishes.witness_modulus, "zero row with nonzero right side"
                )
        else:
            witness, refuted = reference_single(pi, from_integer(d), transformed[i])
            if witness is None:
                return SystemRefutation(refuted, "diagonal equation unsolvable")
            y[i] = witness
    x1 = [omega_closure(pi, common) * component for component in snf.right.mul_vec(y)]
    glue = omega_closure(pi, prod(split_primes))
    return [from_integer(a) + glue * (b - from_integer(a)) for a, b in zip(x2, x1)]


def random_ambient(rng, kind):
    """A default-0 or default-inf ambient with infinite exponents (kind 0),
    or a finite one (kind 1)."""
    if kind == 0:
        return random_supernatural(rng)
    return Supernatural({p: rng.randint(0, 4) for p in PRIME_POOL if rng.random() < 0.7}, 0)


def assert_refutes(pi, matrix, rhs, modulus):
    assert pi.divisible_by(modulus)
    if modulus <= 50:
        rows = [[eval_mod(entry, modulus, pi) for entry in row] for row in matrix.entries]
        targets = [eval_mod(x, modulus, pi) for x in rhs]
        assert not linear_solution_exists(rows, targets, modulus)


def test_verdicts_match_clearing_reference():
    rng = random.Random(47)
    seen = dict.fromkeys(
        (
            "solvable",
            "congruence system unsolvable",
            "zero row with nonzero right side",
            "diagonal equation unsolvable",
        ),
        0,
    )
    for round_ in range(300):
        pi = random_ambient(rng, round_ % 2)
        rows, cols = rng.randint(1, 3), rng.randint(1, 3)
        if round_ % 4 < 2:  # integer entries
            entries = [[rng.randint(-9, 9) for _ in range(cols)] for _ in range(rows)]
        else:
            entries = [
                [random_pseudonumber(rng, pi, max_terms=1, base_limit=14, coeff_limit=9,
                                     offset_limit=2) for _ in range(cols)]
                for _ in range(rows)
            ]
        matrix = SigmaMatrix(entries, pi)
        if rng.random() < 0.4:
            wanted = [random_pseudonumber(rng, pi, max_terms=1, base_limit=14, coeff_limit=9,
                                          offset_limit=2) for _ in range(cols)]
            rhs = matrix.mul_vec(wanted)
        else:
            rhs = [random_pseudonumber(rng, pi, max_terms=1, base_limit=14, coeff_limit=9,
                                       offset_limit=2) for _ in range(rows)]
        outcome = solve_system(pi, matrix, rhs)
        assert bool(outcome) == bool(reference_system(pi, matrix, rhs)), (pi, matrix.entries, rhs)
        if outcome:
            seen["solvable"] += 1
            assert verify_solution(pi, matrix, rhs, outcome)
        else:
            seen[outcome.reason] += 1
            assert_refutes(pi, matrix, rhs, outcome.modulus)
    assert min(seen.values()) > 10, seen


def test_single_verdicts_match_clearing_reference():
    rng = random.Random(48)
    for round_ in range(300):
        pi = random_ambient(rng, round_ % 2)
        u = random_pseudonumber(rng, pi, max_terms=2, coeff_limit=12)
        v = random_pseudonumber(rng, pi, max_terms=2, coeff_limit=12)
        witness, modulus = solve_single_with_refutation(pi, u, v)
        expected, _ = reference_single(pi, u, v)
        assert (witness is None) == (expected is None), (pi, u, v)
        if witness is None:
            assert_refutes(pi, SigmaMatrix([[u]], pi), [v], modulus)
        else:
            assert equal_in_ab(pi, u * witness, v)


def test_small_witness_on_a_sigma_system():
    # a 3x3 system whose clearing-based witness has a coefficient of more than
    # 4300 digits, which str() refuses to print
    pi = parse_supernatural("2^3,3^2,5^inf,7^1;default=0")
    matrix = SigmaMatrix(
        [
            [parse_pseudonumber(x, pi) for x in row]
            for row in (
                ("8 + 9*[3^(w-2)] + 4*[4^(w-2)]", "-6", "1 + 7*[2^(w-2)]"),
                ("9 - 3*[2^(w-1)]", "7 - 2*[3^(w-1)]", "-3 - 9*[8^(w-1)] + 6*[12^(w-2)]"),
                ("4 - 4*[12^(w-2)]", "2", "2 + 9*[3^(w-2)]"),
            )
        ],
        pi,
    )
    rhs = [
        parse_pseudonumber(x, pi)
        for x in (
            "-21 - 39*[2^(w-2)] - 16*[12^(w-1)] + 64*[12^(w-2)] - 144*[36^(w-2)]"
            " - 64*[48^(w-2)]",
            "30 + 21*[2^(w-2)] - 6*[3^(w-1)] - 18*[6^(w-2)] + 27*[8^(w-1)]"
            " - 18*[12^(w-1)] + 54*[12^(w-2)] + 6*[24^(w-1)] - 48*[24^(w-2)]",
            "6*[2^(w-2)] - 27*[3^(w-2)] - 8*[12^(w-1)] + 32*[12^(w-2)] + 8*[12^(w-3)]"
            " - 32*[12^(w-4)]",
        )
    ]
    outcome = solve_system(pi, matrix, rhs)
    assert outcome and verify_solution(pi, matrix, rhs, outcome)
    assert all(str(x) for x in outcome)


def test_trivial_rest_returns_the_residues():
    # every stored prime divides a base, so M is the whole ambient and the
    # residues mod M are the witness
    pi = parse_supernatural("2^1,3^1,5^1;default=0")
    matrix = SigmaMatrix(
        [
            [parse_pseudonumber("7 + [2^(w-1)] + [3^(w-1)]", pi), 1],
            [1, parse_pseudonumber("[5^(w-1)]", pi)],
        ],
        pi,
    )
    outcome = solve_system(pi, matrix, [1, 2])
    assert [str(x) for x in outcome] == ["27", "7"]
    assert verify_solution(pi, matrix, [1, 2], outcome)


def test_congruence_refutation_at_failing_prime_power():
    # the finite side refutes at the p^(v+1) where its elimination fails, a
    # divisor of M; the whole M (8 and 72 here) refutes too
    for text, coefficient, target, modulus, refuting in (
        ("2^3;default=0", 2, 1, 8, 2),  # 2x = 1: the right side is odd
        ("2^3,3^2;default=0", 6, 3, 72, 2),  # 6x = 3 fails mod 2, holds mod 9
    ):
        pi = parse_supernatural(text)
        refuted = solve_system(pi, SigmaMatrix([[coefficient]], pi), [target])
        assert not refuted and refuted.reason == "congruence system unsolvable"
        assert refuted.modulus == refuting
        assert solve_congruences_mod(IntMatrix([[coefficient]]), [target], modulus) is None
        assert_refutes(pi, SigmaMatrix([[coefficient]], pi), [from_integer(target)], refuting)


# -- differential check of the verifier against expanded products -------------


def reference_verify(pi, matrix, rhs, solution):
    """The verifier that multiplies the rows out as pseudonumbers and
    decides each component with equal_in_ab."""
    return equal_vectors(pi, matrix.mul_vec(solution), rhs)


def ambient_of_kind(rng, kind):
    if kind == "finite":
        return random_ambient(rng, 1)
    table = dict(random_supernatural(rng).table)
    return Supernatural(table, 0 if kind == "default 0" else INFINITY)


def finite_primes(pi):
    return prod(p for p, e in pi.table if 0 < e != INFINITY)


def perturbations(pi):
    """(name, value) added to one witness component: G^w is 0 on every prime
    of positive finite exponent and 1 elsewhere, so adding it changes only
    the rest, and adding 1 - G^w only the finite side."""
    idempotent = omega_closure(pi, finite_primes(pi))
    return [
        ("0", from_integer(0)),
        ("G^w", idempotent),
        ("1 - G^w", 1 - idempotent),
        ("1", from_integer(1)),
    ]


def test_verify_solution_matches_expanded_products():
    rng = random.Random(49)
    refuted = {"0": 0, "G^w": 0, "1 - G^w": 0, "1": 0}
    for round_ in range(180):
        pi = ambient_of_kind(rng, ("finite", "default 0", "default inf")[round_ % 3])
        rows, cols = rng.randint(1, 3), rng.randint(1, 3)

        def entry():
            if round_ % 2:  # sigma entries
                return random_pseudonumber(rng, pi, max_terms=1, base_limit=14, coeff_limit=9,
                                           offset_limit=2)
            return from_integer(rng.randint(-9, 9))

        matrix = SigmaMatrix([[entry() for _ in range(cols)] for _ in range(rows)], pi)
        rhs = matrix.mul_vec([entry() for _ in range(cols)])
        outcome = solve_system(pi, matrix, rhs)
        assert outcome
        for name, shift in perturbations(pi):
            solution = list(outcome)
            j = rng.randrange(cols)
            solution[j] = solution[j] + shift
            verdict = verify_solution(pi, matrix, rhs, solution)
            expected = reference_verify(pi, matrix, rhs, solution)
            assert bool(verdict) == bool(expected), (pi, matrix.entries, rhs, solution)
            assert verdict.component == expected.component
            if verdict:
                continue
            refuted[name] += 1
            n, i = verdict.witness_modulus, verdict.component
            assert pi.divisible_by(n)
            lhs = matrix.mul_vec(solution)[i]
            assert verdict.residue_u == eval_mod(lhs, n, pi)
            assert verdict.residue_v == eval_mod(rhs[i], n, pi)
            assert verdict.residue_u != verdict.residue_v
            g = finite_primes(pi)
            if name == "G^w":
                assert gcd(n, g) == 1
            elif name == "1 - G^w":
                assert gcd(n, g**n.bit_length()) == n  # n divides a power of g
    assert refuted.pop("0") == 0  # the solver's witness itself verifies
    assert min(refuted.values()) > 10, refuted


def test_verify_solution_input_contract():
    matrix = SigmaMatrix([[1, 2], [0, 1]], PI)
    with pytest.raises(InputError, match=r"vector length 1 does not match \(2, 2\)"):
        verify_solution(PI, matrix, [5, 2], [1])
    with pytest.raises(InputError, match="vector lengths differ: 2 vs 1"):
        verify_solution(PI, matrix, [5], [1, 2])
    other = parse_supernatural("2^1;default=0")
    with pytest.raises(InputError):
        verify_solution(PI, matrix, [5, 2], [omega_power(other, 2, 1), 2])
    with pytest.raises(InputError):
        verify_solution(PI, matrix, [omega_power(other, 2, 1), 2], [1, 2])
    # plain integers and a matrix given as nested lists
    assert verify_solution(PI, [[1, 2], [0, 1]], [5, 2], [1, 2])
    verdict = verify_solution(PI, [[1, 2], [0, 1]], [5, 2], [1, 3])
    assert not verdict and verdict.component == 0


# -- nonsingular square systems: the rational path -----------------------------


def reference_smith_system(pi, matrix, rhs):
    """solve_system before nonsingular square systems took the rational path:
    split at the primes of the bases only, and decide the rest side by the
    Smith form over Z for every system."""
    rhs = [x if isinstance(x, Pseudonumber) else from_integer(x) for x in rhs]
    scales = [_scale(row + (c,)) for row, c in zip(matrix.entries, rhs)]
    split_primes = pi.positive_finite_primes_of(lcm(*scales))
    finite_modulus, rest = pi.split(split_primes)
    x1 = solve_congruences_mod(
        IntMatrix(
            [[eval_mod(entry, finite_modulus, pi) for entry in row] for row in matrix.entries]
        ),
        [eval_mod(x, finite_modulus, pi) for x in rhs],
        finite_modulus,
    )
    if x1 is None:
        return SystemRefutation(finite_modulus, "congruence system unsolvable")
    if rest.is_finite() and rest.as_integer() == 1:
        return [from_integer(a) for a in x1]
    snf = smith_normal_form(IntMatrix([
        [_scaled_sum(entry, d) for entry in row]
        for row, d in zip(matrix.entries, scales)
    ]))
    targets = snf.left.mul_vec([_scaled_sum(c, d) for c, d in zip(rhs, scales)])
    diagonal = snf.diagonal()
    y = [from_integer(0)] * matrix.cols
    for i, t in enumerate(targets):
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
        y[i] = (t // g) * omega_power(pi, d // g, 1)
    glue = omega_closure(pi, prod(split_primes))
    return [
        from_integer(a) + glue * (b - from_integer(a))
        for a, b in zip(x1, snf.right.mul_vec(y))
    ]


def count_smith_calls(monkeypatch):
    """A list that gets one entry per Smith form the solver takes over Z."""
    calls = []

    def counted(matrix):
        calls.append(matrix.shape)
        return smith_normal_form(matrix)

    monkeypatch.setattr(solver_module, "smith_normal_form", counted)
    return calls


def test_rational_path_edge_cases(monkeypatch):
    smith_calls = count_smith_calls(monkeypatch)
    # an infinite rest prime divides D = 5
    pi = parse_supernatural("5^inf;default=0")
    outcome = solve_system(pi, SigmaMatrix([[5]], pi), [10])
    assert [str(x) for x in outcome] == ["2"]
    refuted = solve_system(pi, SigmaMatrix([[5]], pi), [1])
    assert not refuted and refuted.modulus == 5
    assert refuted.reason == "diagonal equation unsolvable"
    # a finite prime of D is split off, so the finite side refutes at 7
    pi = parse_supernatural("7^1;default=0")
    refuted = solve_system(pi, SigmaMatrix([[7]], pi), [3])
    assert not refuted and refuted.modulus == 7
    assert refuted.reason == "congruence system unsolvable"
    # v_2(D) = 3 exceeds the exponent 2: left on the rest, 2 would pass the
    # divisibility test and x_2 = 1/2 would become a wrong witness
    pi = parse_supernatural("2^2;default=0")
    refuted = solve_system(pi, SigmaMatrix([[2, 0], [0, 4]], pi), [0, 2])
    assert not refuted and refuted.modulus == 4
    # an unstored prime has infinite exponent under default=inf
    pi = parse_supernatural("default=inf")
    refuted = solve_system(pi, SigmaMatrix([[3]], pi), [1])
    assert not refuted and refuted.modulus == 3
    # D = 7 is a unit on the rest: x = 3/7 = 3*[7^(w-1)]
    pi = parse_supernatural("5^inf;default=0")
    matrix = SigmaMatrix([[7]], pi)
    outcome = solve_system(pi, matrix, [3])
    assert [str(x) for x in outcome] == ["3*[7^(w-1)]"]
    assert verify_solution(pi, matrix, [3], outcome)
    assert smith_calls == []
    # a singular square system takes the Smith path
    pi = parse_supernatural("5^inf;default=0")
    matrix = SigmaMatrix([[1, 2], [2, 4]], pi)
    outcome = solve_system(pi, matrix, [3, 6])
    assert outcome and verify_solution(pi, matrix, [3, 6], outcome)
    refuted = solve_system(pi, matrix, [3, 5])
    assert not refuted and refuted.reason == "zero row with nonzero right side"
    assert smith_calls == [(2, 2), (2, 2)]


def test_rational_path_matches_smith_reference(monkeypatch):
    smith_calls = count_smith_calls(monkeypatch)
    rng = random.Random(50)
    seen = {"solvable": 0, "congruence system unsolvable": 0, "diagonal equation unsolvable": 0}
    for round_ in range(240):
        pi = ambient_of_kind(rng, ("finite", "default 0", "default inf")[round_ % 3])
        n = rng.randint(1, 6)

        def entry():
            if round_ % 2:
                return random_pseudonumber(rng, pi, max_terms=1, base_limit=14, coeff_limit=9,
                                           offset_limit=2)
            return from_integer(rng.randint(-9, 9))

        matrix = SigmaMatrix([[entry() for _ in range(n)] for _ in range(n)], pi)
        if rng.random() < 0.4:
            rhs = matrix.mul_vec([entry() for _ in range(n)])
        else:
            rhs = [entry() for _ in range(n)]
        scales = [_scale(row + (c,)) for row, c in zip(matrix.entries, rhs)]
        integer_matrix = IntMatrix(
            [[_scaled_sum(a, d) for a in row] for row, d in zip(matrix.entries, scales)]
        )
        if integer_matrix.determinant() == 0:
            continue
        del smith_calls[:]
        outcome = solve_system(pi, matrix, rhs)
        assert smith_calls == []
        expected = reference_smith_system(pi, matrix, rhs)
        assert bool(outcome) == bool(expected), (pi, matrix.entries, rhs)
        if outcome:
            seen["solvable"] += 1
            assert verify_solution(pi, matrix, rhs, outcome)
            continue
        seen[outcome.reason] += 1
        m = outcome.modulus
        assert pi.divisible_by(m)
        rows = [[eval_mod(a, m, pi) for a in row] for row in matrix.entries]
        targets = [eval_mod(x, m, pi) for x in rhs]
        if m**n <= 5000:
            assert not linear_solution_exists(rows, targets, m)
        else:
            assert solve_congruences_mod(IntMatrix(rows), targets, m) is None
    assert min(seen.values()) > 10, seen


def test_each_modulus_checked_once(monkeypatch):
    pi = parse_supernatural("2^3,3^2,5^inf,7^1;default=0")
    matrix = SigmaMatrix([[2, 1, omega_power(pi, 3, 1)], [1, 4, 1], [3, 0, 5]], pi)
    rhs = matrix.mul_vec([1, omega_power(pi, 2, 2), 3])
    checked = []
    divisible_by = Supernatural.divisible_by

    def counted(self, n):
        checked.append(n)
        return divisible_by(self, n)

    monkeypatch.setattr(Supernatural, "divisible_by", counted)
    outcome = solve_system(pi, matrix, rhs)
    assert outcome and len(checked) == 1
    del checked[:]
    assert verify_solution(pi, matrix, rhs, outcome)
    assert len(checked) == len(set(checked))  # once per distinct split


# -- the rest side decides on integers, then builds each component once -------


def count_constructions(monkeypatch):
    """A list that gets one entry per pseudonumber the solver's core builds."""
    calls = []
    for name in ("Pseudonumber", "from_integer"):
        def counted(*args, _original=getattr(solver_module, name)):
            calls.append(args)
            return _original(*args)

        monkeypatch.setattr(solver_module, name, counted)
    return calls


def test_rest_smith_builds_nothing_before_every_diagonal_holds(monkeypatch):
    calls = count_constructions(monkeypatch)
    pi = parse_supernatural("2^inf,3^inf;default=0")  # M = 1, the rest is pi
    # L*A*R = diag(1, 2) with L = R = I, so t = c: z_0 = 5 passes first
    matrix = SigmaMatrix([[1, 0], [0, 2], [0, 0]], pi)
    for rhs, reason, modulus in (
        ([5, 1, 0], "diagonal equation unsolvable", 2),  # then 2*z_1 = 1 fails
        ([5, 2, 3], "zero row with nonzero right side", 2),  # both pass, 0 = 3 fails
    ):
        refuted = solve_system(pi, matrix, rhs)
        assert not refuted and (refuted.reason, refuted.modulus) == (reason, modulus)
        assert calls == []
    solved = solve_system(pi, matrix, [5, 4, 0])
    assert [str(x) for x in solved] == ["5", "2"]
    assert len(calls) == 2  # one construction per component, and no glue

    rng = random.Random(1830)
    refuted = dict.fromkeys(
        ("congruence system unsolvable", "diagonal equation unsolvable",
         "zero row with nonzero right side"), 0,
    )
    for round_ in range(300):
        pi = ambient_of_kind(rng, ("finite", "default 0", "default inf")[round_ % 3])
        rows, cols = rng.sample(range(1, 5), 2)  # never square: always Smith
        matrix = SigmaMatrix(
            [[rng.randint(-6, 6) for _ in range(cols)] for _ in range(rows)], pi
        )
        if round_ % 2:  # a bracket on the right splits its base off: M > 1
            rhs = [random_pseudonumber(rng, pi, max_terms=1, base_limit=14, coeff_limit=20,
                                       offset_limit=2) for _ in range(rows)]
        else:
            rhs = [rng.randint(-20, 20) for _ in range(rows)]
        del calls[:]
        outcome = solve_system(pi, matrix, rhs)
        if outcome:
            assert len(calls) == cols
        else:
            refuted[outcome.reason] += 1
            assert calls == []
    assert min(refuted.values()) > 10, refuted


def integer_request_system(rng, pi, n):
    """An n x n system as the benchmark's integer_systems builds one: entries
    below 100 in absolute value, and the right side (B x0) * [b^(w-k)] for
    an integer vector x0 and a base b of 2-14 with finite exponents."""
    bases = [b for b in range(2, 15) if pi.infinite_part(b) == 1]
    matrix = [[rng.randint(-99, 99) for _ in range(n)] for _ in range(n)]
    x0 = [rng.randint(-9, 9) for _ in range(n)]
    bracket = omega_power(pi, rng.choice(bases), rng.randint(1, 3))
    return SigmaMatrix(matrix, pi), [sum(a * x for a, x in zip(row, x0)) * bracket for row in matrix]


def differential_systems(rng):
    """(pi, matrix, rhs): 400 systems of 1-4 rows and columns with sigma or
    integer entries over ambients of each kind, half of them solvable by
    construction, then 40 square integer systems of 5-8 rows."""
    for round_ in range(400):
        pi = ambient_of_kind(rng, ("finite", "default 0", "default inf")[round_ % 3])
        rows, cols = rng.randint(1, 4), rng.randint(1, 4)

        def entry():
            if rng.random() < 0.5:
                return random_pseudonumber(rng, pi, max_terms=2, base_limit=14,
                                           coeff_limit=9, offset_limit=2)
            return from_integer(rng.randint(-9, 9))

        matrix = SigmaMatrix([[entry() for _ in range(cols)] for _ in range(rows)], pi)
        if rng.random() < 0.5:
            rhs = matrix.mul_vec([entry() for _ in range(cols)])
        else:
            rhs = [entry() for _ in range(rows)]
        yield pi, matrix, rhs
    pi = parse_supernatural("2^3,3^2,5^inf,7^1;default=0")
    for round_ in range(40):
        yield (pi, *integer_request_system(rng, pi, 5 + round_ % 4))


def unique_mod(residue_matrix, p):
    """Whether a system with these residue rows has one solution mod p^e:
    square and invertible mod p."""
    matrix = IntMatrix(residue_matrix)
    return matrix.rows == matrix.cols and matrix.determinant() % p != 0


def test_rest_first_matches_the_reference_core(monkeypatch):
    glued = []
    glue = solver_module._glue
    monkeypatch.setattr(solver_module, "_glue", lambda *args: glued.append(args) or glue(*args))
    rng = random.Random(1831)
    seen = dict.fromkeys(
        ("smith", "rational", "refuted", "y alone", "glued", "shorter", "equal", "other solution"),
        0,
    )
    for pi, matrix, rhs in differential_systems(rng):
        split = solver_module._split_rows(matrix, rhs)
        del glued[:]
        outcome = solve_system(pi, split)
        expected = reference_solve_split(pi, split)
        square = split.matrix.rows == split.matrix.cols
        seen["rational" if square and split.matrix.determinant() else "smith"] += 1
        if not expected:
            assert not outcome
            assert (outcome.reason, outcome.modulus) == (expected.reason, expected.modulus)
            seen["refuted"] += 1
            continue
        assert outcome and len(outcome) == len(expected)
        assert verify_solution(pi, matrix, rhs, outcome)
        printed, before = (sum(len(str(x)) for x in v) for v in (outcome, expected))
        assert printed <= before, (pi, matrix.entries, rhs, outcome, expected)
        seen["shorter"] += printed < before
        seen["glued" if glued else "y alone"] += 1
        # both witnesses are y on the rest and x1 at the glued prime powers;
        # at another p^e of M the reference has x1 and this core y, both
        # solutions there, so they agree wherever the solution is unique
        det = split.matrix.determinant() if square else 0
        split_primes = pi.positive_finite_primes_of(lcm(*split.scales) * (det or 1))
        idempotent = omega_closure(pi, prod(split_primes))
        assert all(equal_in_ab(pi, idempotent * x, idempotent * y)
                   for x, y in zip(outcome, expected))
        failing = glued[0][1] if glued else []
        if glued:  # x1 is the solution mod M_P, whichever side ran first
            assert all(0 <= x.const < prod(p**e for p, e in failing) for x in outcome)
        residue_matrix, _ = split.residues(pi.split(split_primes)[0])
        agree = True
        for p in split_primes:
            q = p**pi.exponent_of(p)
            same = all(eval_mod(x, q, pi) == eval_mod(y, q, pi) for x, y in zip(outcome, expected))
            if (p, pi.exponent_of(p)) in failing or unique_mod(residue_matrix, p):
                assert same, (pi, matrix.entries, rhs, p)
            agree = agree and same
        components_equal = all(equal_in_ab(pi, x, y) for x, y in zip(outcome, expected))
        assert components_equal == agree
        seen["equal" if components_equal else "other solution"] += 1
    assert min(seen.values()) > 20, seen


def test_no_elimination_where_y_solves_every_prime_power(monkeypatch):
    calls = []

    def counted(matrix, rhs, prime_powers):
        calls.append(list(prime_powers))
        return solve_congruences(matrix, rhs, prime_powers)

    monkeypatch.setattr(solver_module, "solve_congruences", counted)
    pi = parse_supernatural("2^3,3^2,5^inf,7^1;default=0")
    # x0 = (1, 3*[11^(w-1)]) is the rational solution y itself; det = -2*11^2
    # splits M = 8 off, and y solves the system mod 8 too
    matrix = SigmaMatrix([[1, 2], [3, 4]], pi)
    x0 = [from_integer(1), 3 * omega_power(pi, 11, 1)]
    outcome = solve_system(pi, matrix, matrix.mul_vec(x0))
    assert calls == [] and outcome == x0
    assert [str(x) for x in outcome] == ["1", "3*[11^(w-1)]"]
    # 3x = 6*[2^(w-1)]: the rest side is 6x = 6, y = 1, which fails mod 8 and
    # holds mod 9, so x1 = 0 is solved mod 8 alone and glued with 2^w
    matrix = SigmaMatrix([[3]], pi)
    rhs = [6 * omega_power(pi, 2, 1)]
    outcome = solve_system(pi, matrix, rhs)
    assert calls == [[(2, 3)]]
    assert [str(x) for x in outcome] == ["2*[2^(w-1)]"]
    assert verify_solution(pi, matrix, rhs, outcome)
