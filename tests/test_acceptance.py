"""Acceptance suite: one test per criterion, each printing a pass/fail line.

All checks are exact integer facts; the budgets are wall-clock seconds.
Run with `pytest -s tests/test_acceptance.py` to see the lines as they pass.
"""
import random
import time
from contextlib import contextmanager

from profint import (
    IntMatrix,
    SigmaMatrix,
    clearing_factor,
    closure,
    decide_and_witness,
    equal_in_ab,
    eval_mod,
    member_of_closure,
    omega_power,
    parse_semilinear,
    parse_supernatural,
    parse_term,
    smith_normal_form,
    solve_system,
    verify_solution,
    verify_witness,
)
from profint.oracle import MAX_MODULUS, search_quotient
from profint.reducibility import EquationSystem
from conftest import (
    factorint,
    linear_solution_exists,
    random_pseudonumber,
    random_supernatural,
)

from test_semilinear import enumerate_points, random_semilinear


@contextmanager
def criterion(number, label, budget):
    start = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"[FAIL] criterion {number}: {label}")
        raise
    elapsed = time.perf_counter() - start
    print(f"[PASS] criterion {number}: {label} ({elapsed:.2f}s, budget {budget}s)")
    assert elapsed < budget, f"criterion {number} exceeded {budget}s"


def _semantic_rewrite(rng, pi, u):
    """A structurally different value denoting the same profinite integer."""
    from profint import Pseudonumber

    # n^(w-k) = n * n^(w-(k+1)), applied termwise
    terms = [
        (t.base, t.offset + 1, t.coeff * t.base) if rng.random() < 0.7 else t
        for t in u.terms
    ]
    v = Pseudonumber(u.const, terms, pi)
    finite = [p for p in (2, 3, 5, 7) if pi.is_finite_at(p)]
    if finite and rng.random() < 0.6:
        # add a value that vanishes everywhere: p^(w+m) - p^m
        p = rng.choice(finite)
        m = pi.exponent_of(p)
        scale = rng.randint(-3, 3)
        v = v + scale * (p ** (m + 1) * omega_power(pi, p, 1) - p**m)
    return v


def test_criterion_1_word_problem_oracle_agreement():
    rng = random.Random(1001)
    with criterion(1, "word problem agrees with finite-quotient evaluation", 10):
        equal = unequal = 0
        for index in range(1000):
            pi = random_supernatural(rng)
            u = random_pseudonumber(rng, pi, max_terms=4, base_limit=30, coeff_limit=50)
            if index % 2:
                v = random_pseudonumber(rng, pi, max_terms=4, base_limit=30, coeff_limit=50)
            else:
                v = _semantic_rewrite(rng, pi, u)
            verdict = equal_in_ab(pi, u, v)
            if verdict:
                equal += 1
                # every divisor the sampler can reach (10 when the lattice
                # admits that many below 1e6, else the whole lattice)
                for n in pi.sample_divisors(10**6, 10, seed=rng.randint(0, 9999)):
                    assert eval_mod(u, n, pi) == eval_mod(v, n, pi)
            else:
                unequal += 1
                n = verdict.witness_modulus
                assert pi.divisible_by(n)
                ru, rv = eval_mod(u, n, pi), eval_mod(v, n, pi)
                assert ru != rv
                assert (ru, rv) == (verdict.residue_u, verdict.residue_v)
        assert equal >= 300 and unequal >= 300  # both verdicts are exercised


def test_criterion_2_power_identities():
    rng = random.Random(1002)
    with criterion(2, "collapse and cancellation identities hold", 5):
        done = 0
        while done < 200:
            pi = random_supernatural(rng)
            finite = [p for p in (2, 3, 5, 7, 11, 13) if pi.is_finite_at(p)]
            if not finite:
                continue
            p = rng.choice(finite)
            m = pi.exponent_of(p)
            power_plus_m = p ** (m + 1) * omega_power(pi, p, 1)  # p^(w+m)
            assert equal_in_ab(pi, power_plus_m, p**m)
            done += 1
        done = 0
        while done < 200:
            pi = random_supernatural(rng)
            n = rng.randint(2, 50)
            if pi.gcd(n) != 1:
                continue
            u = random_pseudonumber(rng, pi, max_terms=2)
            v = random_pseudonumber(rng, pi, max_terms=2)
            assert bool(equal_in_ab(pi, n * u, n * v)) == bool(equal_in_ab(pi, u, v))
            done += 1


def test_criterion_3_clearing_factor():
    rng = random.Random(1003)
    with criterion(3, "clearing factors clear to their integer value", 5):
        for _ in range(500):
            pi = random_supernatural(rng)
            u = random_pseudonumber(rng, pi, max_terms=4)
            c, value = clearing_factor(pi, u)
            assert c >= 1
            assert all(pi.is_finite_at(p) for p, _ in factorint(c))
            assert equal_in_ab(pi, c * u, value)


def test_criterion_4_smith_normal_form():
    rng = random.Random(1004)
    with criterion(4, "Smith normal form witnesses verify exactly", 10):
        for _ in range(500):
            rows, cols = rng.randint(1, 6), rng.randint(1, 6)
            matrix = IntMatrix(
                [[rng.randint(-20, 20) for _ in range(cols)] for _ in range(rows)]
            )
            res = smith_normal_form(matrix)
            assert (res.left @ matrix @ res.right) == res.diag
            assert abs(res.left.determinant()) == 1
            assert abs(res.right.determinant()) == 1
            diag = res.diagonal()
            assert all(d >= 0 for d in diag)
            for a, b in zip(diag, diag[1:]):
                assert (a == 0 and b == 0) or (a != 0 and b % a == 0)


def test_criterion_5_solver_round_trip():
    rng = random.Random(1005)
    with criterion(5, "solver recovers solvable systems with verified witnesses", 30):
        for _ in range(300):
            pi = random_supernatural(rng)
            rows, cols = rng.randint(1, 4), rng.randint(1, 4)
            matrix = SigmaMatrix(
                [[rng.randint(-10, 10) for _ in range(cols)] for _ in range(rows)],
                pi,
            )
            wanted = [
                random_pseudonumber(rng, pi, max_terms=2, coeff_limit=9)
                for _ in range(cols)
            ]
            rhs = matrix.mul_vec(wanted)
            outcome = solve_system(pi, matrix, rhs)
            assert outcome, f"lost a solvable system (mod {outcome.modulus})"
            assert verify_solution(pi, matrix, rhs, outcome)


def test_criterion_6_solver_refutation():
    rng = random.Random(1006)
    with criterion(6, "refuting moduli are confirmed by exhaustive search", 30):
        refuted = confirmed = 0
        for _ in range(300):
            pi = random_supernatural(rng, max_exp=2)
            rows, cols = rng.randint(1, 3), rng.randint(1, 3)
            matrix = SigmaMatrix(
                [
                    [
                        random_pseudonumber(rng, pi, max_terms=1, coeff_limit=9)
                        for _ in range(cols)
                    ]
                    for _ in range(rows)
                ],
                pi,
            )
            rhs = [
                random_pseudonumber(rng, pi, max_terms=1, coeff_limit=9)
                for _ in range(rows)
            ]
            outcome = solve_system(pi, matrix, rhs)
            if outcome:
                assert verify_solution(pi, matrix, rhs, outcome)
                continue
            refuted += 1
            n = outcome.modulus
            assert pi.divisible_by(n)
            if n <= 50:
                confirmed += 1
                residue_rows = [
                    [eval_mod(entry, n, pi) for entry in row]
                    for row in matrix.entries
                ]
                residue_rhs = [eval_mod(x, n, pi) for x in rhs]
                assert not linear_solution_exists(residue_rows, residue_rhs, n)
        assert refuted >= 30 and confirmed >= 20


def test_criterion_7_closure_laws():
    rng = random.Random(1007)
    with criterion(7, "closures commute with sums and keep their points", 30):
        for _ in range(100):
            pi = random_supernatural(rng)
            s = random_semilinear(rng, ("a",), max_branches=2, max_periods=2, bound=4)
            t = random_semilinear(rng, ("a",), max_branches=2, max_periods=2, bound=4)
            both = closure(pi, s + t)
            pairwise = closure(pi, s) + closure(pi, t)
            assert both.branches == pairwise.branches
            s_points = sorted(enumerate_points(s, 14))
            t_points = sorted(enumerate_points(t, 14))
            for p in s_points[:4]:
                for q in t_points[:4]:
                    assert member_of_closure(pi, [p[0] + q[0]], both) is not None
            for value in range(0, 12, 3):
                left = member_of_closure(pi, [value], both)
                right = member_of_closure(pi, [value], pairwise)
                assert (left is None) == (right is None)
        # every enumerated point of a set lies in its closure
        for _ in range(25):
            pi = random_supernatural(rng)
            s = random_semilinear(rng, ("a", "b"), max_branches=2, max_periods=2, bound=5)
            closed = closure(pi, s)
            for point in sorted(enumerate_points(s, 30))[:40]:
                assert member_of_closure(pi, list(point), closed) is not None


def _square_system():
    variables = ("x", "y")
    return EquationSystem(
        alphabet=("a",),
        variables=variables,
        equations=((parse_term("x", variables), parse_term("y*y", variables)),),
        constraints={
            "x": parse_semilinear("(1)+(2)N", ["a"]),
            "y": parse_semilinear("(1)+(1)N", ["a"]),
        },
    )


def _random_small_system(rng):
    variables = ("x", "y")
    shapes = ("x", "y", "x*y", "x*x", "y*y", "x*y^(w-1)", "x^(w-1)", "y*y*y")
    lhs = parse_term(rng.choice(shapes), variables)
    rhs = parse_term(rng.choice(shapes), variables)
    constraints = {}
    for v in variables:
        base = rng.randint(0, 4)
        period = rng.randint(1, 4)
        constraints[v] = parse_semilinear(f"({base})+({period})N", ["a"])
    return EquationSystem(("a",), variables, ((lhs, rhs),), constraints)


def test_criterion_8_reducibility_end_to_end():
    rng = random.Random(1008)
    with criterion(8, "equation systems solve or refute consistently", 60):
        # the worked square system, both ways
        pi = parse_supernatural("3^inf;default=0")
        witness = decide_and_witness(pi, _square_system())
        assert witness and verify_witness(pi, _square_system(), witness)
        assert equal_in_ab(pi, witness.assignment["x"][0], 2)
        assert equal_in_ab(pi, witness.assignment["y"][0], 1)
        pi2 = parse_supernatural("2^inf;default=0")
        outcome = decide_and_witness(pi2, _square_system())
        assert not outcome and outcome.combined_modulus() == 2
        assert search_quotient(_square_system(), 2, pi2) is None

        # randomized agreement with per-quotient exhaustive search
        for _ in range(100):
            pi = random_supernatural(rng, max_exp=2)
            system = _random_small_system(rng)
            outcome = decide_and_witness(pi, system)
            if outcome:
                assert verify_witness(pi, system, outcome)
                moduli = pi.sample_divisors(MAX_MODULUS, 5, seed=rng.randint(0, 999))
                for n in moduli:
                    assert search_quotient(system, n, pi) is not None
            else:
                n = outcome.combined_modulus()
                if n <= MAX_MODULUS:
                    assert search_quotient(system, n, pi) is None
