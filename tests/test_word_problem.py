import random

import pytest

from profint import (
    INFINITY,
    InputError,
    Pseudonumber,
    SigmaMatrix,
    Supernatural,
    clearing_factor,
    equal_in_ab,
    equal_vectors,
    eval_mod,
    from_integer,
    is_zero,
    omega_power,
    parse_supernatural,
    solve_system,
)
from profint._numutil import valuation
from conftest import PRIME_POOL, random_pseudonumber, random_supernatural, sample_moduli

PI = parse_supernatural("3^1,5^inf;default=0")


def test_equal_examples():
    assert equal_in_ab(PI, 9 * omega_power(PI, 3, 1), 3)
    pi = parse_supernatural("3^inf;default=0")
    assert equal_in_ab(pi, 2 * omega_power(pi, 2, 1), 1)  # 2^w = 1 for exponent 0
    verdict = equal_in_ab(pi, 1, 2)
    assert not verdict
    assert verdict.witness_modulus == 3
    assert (verdict.residue_u, verdict.residue_v) == (1, 2)


def test_equal_cross_checked_on_divisors():
    # Equal verdict must agree with evaluation in each sampled quotient
    u, v = 9 * omega_power(PI, 3, 1), from_integer(3)
    assert equal_in_ab(PI, u, v)
    for n in (3, 5, 15, 75):
        assert eval_mod(u, n, PI) == eval_mod(v, n, PI)


def test_is_zero_examples():
    assert is_zero(PI, 9 * omega_power(PI, 3, 1) - 3)
    assert is_zero(PI, from_integer(0))
    verdict = is_zero(parse_supernatural("2^inf;default=0"), 1)
    assert not verdict and verdict.witness_modulus == 2


def test_equal_vectors_examples():
    assert equal_vectors(PI, [1, 2], [1, 2])
    assert equal_vectors(PI, [9 * omega_power(PI, 3, 1), 0], [3, 0])
    pi = parse_supernatural("3^inf;default=0")
    verdict = equal_vectors(pi, [1, 1], [1, 2])
    assert not verdict and verdict.component == 1
    with pytest.raises(InputError):
        equal_vectors(pi, [1], [1, 2])


def test_witness_reproduces_distinct_residues():
    rng = random.Random(21)
    found_unequal = 0
    for _ in range(150):
        pi = random_supernatural(rng)
        u = random_pseudonumber(rng, pi)
        v = random_pseudonumber(rng, pi)
        verdict = equal_in_ab(pi, u, v)
        if verdict:
            for n in sample_moduli(pi, 6, bound=10**5, seed=rng.randint(0, 99)):
                assert eval_mod(u, n, pi) == eval_mod(v, n, pi)
        else:
            found_unequal += 1
            n = verdict.witness_modulus
            assert n is not None and n > 1 and pi.divisible_by(n)
            ru, rv = eval_mod(u, n, pi), eval_mod(v, n, pi)
            assert ru != rv
            assert (ru, rv) == (verdict.residue_u, verdict.residue_v)
    assert found_unequal > 30  # the generator must exercise the NotEqual path


def test_equality_is_a_congruence():
    rng = random.Random(22)
    for _ in range(20):
        pi = random_supernatural(rng)
        u = random_pseudonumber(rng, pi, max_terms=2, coeff_limit=9)
        v = random_pseudonumber(rng, pi, max_terms=2, coeff_limit=9)
        w = random_pseudonumber(rng, pi, max_terms=2, coeff_limit=9)
        assert equal_in_ab(pi, u, u)
        if equal_in_ab(pi, u, v):
            assert equal_in_ab(pi, v, u)
            assert equal_in_ab(pi, u + w, v + w)
            assert equal_in_ab(pi, u * w, v * w)
        if equal_in_ab(pi, u, v) and equal_in_ab(pi, v, w):
            assert equal_in_ab(pi, u, w)


def test_cancellation_of_coprime_multipliers():
    rng = random.Random(23)
    checked = 0
    while checked < 60:
        pi = random_supernatural(rng)
        n = rng.randint(2, 40)
        if pi.gcd(n) != 1:
            continue
        u = random_pseudonumber(rng, pi, max_terms=2)
        v = random_pseudonumber(rng, pi, max_terms=2)
        assert bool(equal_in_ab(pi, n * u, n * v)) == bool(equal_in_ab(pi, u, v))
        checked += 1


def test_finite_ambient_integer_congruence():
    pi = parse_supernatural("2^2;default=0")  # the plain number 4
    assert equal_in_ab(pi, 1, 5)
    assert not equal_in_ab(pi, 1, 2)


def test_trivial_ambient_everything_equal():
    pi = parse_supernatural("default=0")
    assert equal_in_ab(pi, 17, -5)


def test_finite_ambient_differential_against_single_congruence():
    # over a finite ambient N the decision is exactly agreement mod N
    rng = random.Random(24)
    for _ in range(200):
        table = {}
        for p in (2, 3, 5):
            if rng.random() < 0.7:
                table[p] = rng.randint(0, 3)
        from profint import Supernatural

        pi = Supernatural(table, 0)
        modulus = pi.as_integer()
        u = random_pseudonumber(rng, pi, max_terms=3, coeff_limit=20)
        v = random_pseudonumber(rng, pi, max_terms=3, coeff_limit=20)
        expected = eval_mod(u, modulus, pi) == eval_mod(v, modulus, pi)
        assert bool(equal_in_ab(pi, u, v)) == expected


# -- differential check against the clearing-factor decision ------------------


def clearing_reference(pi, u, v):
    """The verdict fields (equal, witness_modulus, residue_u, residue_v),
    decided by clearing both sides to integers: split pi at the primes of
    c = c_u * c_v, compare residues on the finite part, and c_v*value_u with
    c_u*value_v on the rest, where c is a unit.  Also names the part that
    decided: "finite", "rest" or None for equal."""
    u, v = (x if isinstance(x, Pseudonumber) else from_integer(x) for x in (u, v))
    c_u, value_u = clearing_factor(pi, u)
    c_v, value_v = clearing_factor(pi, v)
    finite_part, rest = pi.split(pi.positive_finite_primes_of(c_u * c_v))
    residue_u, residue_v = eval_mod(u, finite_part, pi), eval_mod(v, finite_part, pi)
    if residue_u != residue_v:
        return (False, finite_part, residue_u, residue_v), "finite"
    lhs, rhs = c_v * value_u, c_u * value_v
    if rest.congruent(lhs, rhs):
        return (True, None, None, None), None
    if rest.is_finite():
        n = rest.as_integer()
    else:
        q = rest.smallest_infinite_prime()
        n = q ** (valuation(lhs - rhs, q) + 1)
    return (False, n, eval_mod(u, n, pi), eval_mod(v, n, pi)), "rest"


def verdict_fields(verdict):
    return verdict.equal, verdict.witness_modulus, verdict.residue_u, verdict.residue_v


def rewritten(u):
    """u with every term c*[b^(w-k)] written as c*b*[b^(w-k-1)]."""
    return Pseudonumber(
        u.const, [(t.base, t.offset + 1, t.coeff * t.base) for t in u.terms], u.pi
    )


def finite_table(rng):
    return {p: rng.randint(0, 4) for p in PRIME_POOL if rng.random() < 0.7}


def test_verdict_matches_clearing_reference():
    rng = random.Random(25)
    seen = {"inf_default": 0, "finite_rest": 0, None: 0, "finite": 0, "rest": 0}
    for round_ in range(240):
        kind = round_ % 3
        if kind == 0:
            pi = random_supernatural(rng)
        elif kind == 1:
            pi = Supernatural(finite_table(rng), INFINITY)
        else:
            pi = Supernatural(finite_table(rng), 0)  # every split leaves a finite rest
        seen["inf_default"] += pi.default == INFINITY
        seen["finite_rest"] += pi.is_finite()
        u = random_pseudonumber(rng, pi)
        v = random_pseudonumber(rng, pi)
        shift = rng.randint(1, 5)
        for a, b in ((u, v), (u, rewritten(u)), (rewritten(u), v), (rewritten(u) + shift, u)):
            expected, decided_by = clearing_reference(pi, a, b)
            assert verdict_fields(equal_in_ab(pi, a, b)) == expected, (pi, a, b)
            seen[decided_by] += 1
    assert min(seen.values()) > 20, seen


def test_verdict_matches_clearing_reference_on_solved_systems():
    rng = random.Random(26)
    for text, n in (
        ("2^3,3^2,5^inf,7^1;default=0", 3),
        ("2^3,3^2,5^inf,7^1;default=0", 4),
        ("2^2,3^1;default=inf", 3),
        ("2^2,3^1,5^2;default=0", 4),
    ):
        pi = parse_supernatural(text)
        matrix = SigmaMatrix(
            [[random_pseudonumber(rng, pi, max_terms=1, base_limit=14, coeff_limit=9,
                                  offset_limit=2) for _ in range(n)] for _ in range(n)],
            pi,
        )
        wanted = [random_pseudonumber(rng, pi, max_terms=2, base_limit=14, coeff_limit=9,
                                      offset_limit=2) for _ in range(n)]
        rhs = matrix.mul_vec(wanted)
        solution = solve_system(pi, matrix, rhs)
        assert solution
        for product, target in zip(matrix.mul_vec(solution), rhs):
            for b, equal in ((target, True), (target + 1, False)):
                expected, _ = clearing_reference(pi, product, b)
                assert expected[0] is equal
                assert verdict_fields(equal_in_ab(pi, product, b)) == expected


def test_mixed_ambients_are_rejected():
    pi = parse_supernatural("3^1,5^inf;default=0")
    other = parse_supernatural("3^2,5^inf;default=0")
    u = omega_power(pi, 3, 1)
    for args in ((other, u, 3), (other, 3, u), (pi, u, omega_power(other, 3, 1))):
        with pytest.raises(InputError):
            clearing_reference(*args)
        with pytest.raises(InputError):
            equal_in_ab(*args)
