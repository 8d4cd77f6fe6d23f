import itertools
import random
from dataclasses import replace
from math import lcm

import pytest

import profint.reducibility
import profint.semilinear
from profint import (
    INFINITY,
    EquationSystem,
    InputError,
    Refutation,
    ResourceError,
    Supernatural,
    Verdict,
    Witness,
    abelianize,
    closure,
    decide_and_witness,
    equal_in_ab,
    from_integer,
    is_zero,
    member_of_closure,
    omega_closure,
    parse_pseudonumber,
    parse_semilinear,
    parse_supernatural,
    parse_term,
    verify_witness,
)
from profint.oracle import MAX_MODULUS, MAX_VARIABLES, search_quotient
from profint.intlinalg import solve_nonsingular
from profint.pseudonumber import check_modulus
from profint.reducibility import _branch_rows, _linear_forms, _point
from profint.solver import SigmaMatrix, _split_rows, solve_system
from conftest import finite_base_pool, random_pseudonumber, random_supernatural
import reference_reducibility as reference

XY = ("x", "y")


def square_system():
    """x = y*y with x odd-shifted and y unconstrained beyond being >= 1."""
    return EquationSystem(
        alphabet=("a",),
        variables=XY,
        equations=((parse_term("x", XY), parse_term("y*y", XY)),),
        constraints={
            "x": parse_semilinear("(1)+(2)N", ["a"]),
            "y": parse_semilinear("(1)+(1)N", ["a"]),
        },
    )


def test_worked_example_solvable():
    pi = parse_supernatural("3^inf;default=0")
    witness = decide_and_witness(pi, square_system())
    assert witness
    assert equal_in_ab(pi, witness.assignment["x"][0], 2)
    assert equal_in_ab(pi, witness.assignment["y"][0], 1)
    assert verify_witness(pi, square_system(), witness)


def test_worked_example_refuted():
    pi = parse_supernatural("2^inf;default=0")
    outcome = decide_and_witness(pi, square_system())
    assert not outcome
    assert isinstance(outcome, Refutation)
    assert outcome.combined_modulus() == 2
    assert search_quotient(square_system(), 2, pi) is None


def test_trivial_equation():
    pi = parse_supernatural("7^inf;default=0")
    system = EquationSystem(
        ("a",),
        ("x",),
        ((parse_term("x", ("x",)), parse_term("x", ("x",))),),
        {"x": parse_semilinear("(1)+(1)N", ["a"])},
    )
    witness = decide_and_witness(pi, system)
    assert witness and equal_in_ab(pi, witness.assignment["x"][0], 1)


def test_from_document_needs_exactly_one_equals_sign():
    doc = {"alphabet": ["a"], "variables": ["x", "y"], "constraints": {"x": "(1)", "y": "(1)"}}
    system = EquationSystem.from_document(dict(doc, equations=["x = y*y"]))
    assert system.equations == ((parse_term("x", XY), parse_term("y*y", XY)),)
    for text in ("x = y = x", "x == y", "x y", "x = y ="):
        with pytest.raises(InputError) as caught:
            EquationSystem.from_document(dict(doc, equations=[text]))
        assert str(caught.value) == f"equation {text!r} needs exactly one '='"


def test_from_document_names_the_whole_equation():
    doc = {"alphabet": ["a"], "variables": ["x", "y"], "constraints": {"x": "(1)", "y": "(1)"}}
    for text, message in (
        ("x = y^(w-2)", "only the power w-1 is allowed in 'y^(w-2)'"),
        ("= x", "expected a variable or '(' in '', got None"),
        ("x*(y = x", "unexpected end of input in 'x*(y'"),
        ("x = z", "unknown variable 'z' (declared: x, y)"),
    ):
        with pytest.raises(InputError) as caught:
            EquationSystem.from_document(dict(doc, equations=["x = x", text]))
        assert str(caught.value) == f"equation {text!r}: {message}"


def test_no_equations_needs_only_membership():
    pi = parse_supernatural("5^inf;default=0")
    system = EquationSystem(
        ("a", "b"),
        ("x",),
        (),
        {"x": parse_semilinear("(1,2)+(0,3)N", ["a", "b"])},
    )
    witness = decide_and_witness(pi, system)
    assert witness and verify_witness(pi, system, witness)


def test_multi_branch_constraints_and_order():
    pi = parse_supernatural("3^inf;default=0")
    # x must equal y*y = 2 additively; the first point branch pins x to 0
    system = EquationSystem(
        alphabet=("a",),
        variables=XY,
        equations=((parse_term("x", XY), parse_term("y*y", XY)),),
        constraints={
            "x": parse_semilinear("(0) | (2)", ["a"]),
            "y": parse_semilinear("(1)", ["a"]),
        },
    )
    witness = decide_and_witness(pi, system)
    assert witness
    assert witness.branches["x"] == 1  # the least solvable branch wins
    assert equal_in_ab(pi, witness.assignment["x"][0], 2)


def test_branch_count_exhaustiveness():
    pi = parse_supernatural("2^inf;default=0")
    system = EquationSystem(
        alphabet=("a",),
        variables=XY,
        equations=((parse_term("x", XY), parse_term("y*y", XY)),),
        constraints={
            "x": parse_semilinear("(1)+(2)N | (3)+(4)N", ["a"]),
            "y": parse_semilinear("(0)+(1)N | (1)+(2)N | (0)+(2)N", ["a"]),
        },
    )
    outcome = decide_and_witness(pi, system)
    assert not outcome
    assert len(outcome.quotients) == 2 * 3  # one refuting quotient per combination
    combined = outcome.combined_modulus()
    assert combined == lcm(*(n for _, n in outcome.quotients))
    if combined <= MAX_MODULUS:
        assert search_quotient(system, combined, pi) is None


def test_empty_constraint_refutes_trivially():
    pi = parse_supernatural("3^inf;default=0")
    system = EquationSystem(
        ("a",),
        ("x",),
        (),
        {"x": parse_semilinear("empty", ["a"])},
    )
    outcome = decide_and_witness(pi, system)
    assert not outcome and outcome.combined_modulus() == 1
    assert search_quotient(system, 1, pi) is None


def test_verify_witness_examples():
    pi = parse_supernatural("3^inf;default=0")
    witness = decide_and_witness(pi, square_system())
    assert verify_witness(pi, square_system(), witness)
    # a vector outside the constraint
    pi2 = parse_supernatural("2^inf;default=0")
    bad = Witness(
        assignment={"x": (from_integer(0),), "y": (from_integer(0),)},
        branches={"x": 0, "y": 0},
        coefficients={"x": (), "y": ()},
    )
    verdict = verify_witness(pi2, square_system(), bad)
    assert not verdict
    # empty equation list accepts any constraint-satisfying witness
    system = EquationSystem(
        ("a",),
        ("x",),
        (),
        {"x": parse_semilinear("(2)+(3)N", ["a"])},
    )
    ok = Witness(
        assignment={"x": (from_integer(5),)},
        branches={"x": 0},
        coefficients={"x": (from_integer(1),)},
    )
    assert verify_witness(pi, system, ok)


def test_validation_errors():
    with pytest.raises(InputError):
        EquationSystem(("a",), ("x",), (), {})  # unconstrained variable
    with pytest.raises(InputError):
        EquationSystem(
            ("a",),
            ("x",),
            ((parse_term("x*y", ("x", "y")), parse_term("x", ("x", "y"))),),
            {"x": parse_semilinear("(1)", ["a"])},
        )


def random_small_system(rng):
    alphabet = ("a",)
    variables = ("x", "y")
    lhs_choices = ("x", "y", "x*y", "x*x", "y*y", "x*y^(w-1)", "x^(w-1)")
    lhs = parse_term(rng.choice(lhs_choices), variables)
    rhs = parse_term(rng.choice(lhs_choices), variables)
    constraints = {}
    for v in variables:
        base = rng.randint(0, 4)
        period = rng.randint(1, 4)
        constraints[v] = parse_semilinear(f"({base})+({period})N", ["a"])
    return EquationSystem(alphabet, variables, ((lhs, rhs),), constraints)


def test_randomized_agreement_with_quotient_search():
    rng = random.Random(81)
    solvable = refuted = 0
    for _ in range(60):
        pi = random_supernatural(rng)
        system = random_small_system(rng)
        outcome = decide_and_witness(pi, system)
        if outcome:
            solvable += 1
            assert verify_witness(pi, system, outcome)
            for n in pi.sample_divisors(40, 5, seed=rng.randint(0, 99)):
                assert search_quotient(system, n, pi) is not None
        else:
            refuted += 1
            n = outcome.combined_modulus()
            if n <= MAX_MODULUS:
                assert search_quotient(system, n, pi) is None
    assert solvable >= 5 and refuted >= 5


def reference_verify_witness(pi, system, witness):
    """The verifier before witnesses were checked as certificates: multiply
    each equation out under the witness and decide every vector's membership
    in the closure of its constraint by solving for coefficients."""
    for x in system.variables:
        if x not in witness.assignment:
            raise InputError(f"witness misses variable {x!r}")
        if len(witness.assignment[x]) != len(system.alphabet):
            raise InputError(f"witness vector of {x!r} has the wrong width")
    for form in _linear_forms(pi, system):
        for a in range(len(system.alphabet)):
            total = from_integer(0)
            for x in system.variables:
                total = total + form[x] * witness.assignment[x][a]
            vanishes = is_zero(pi, total)
            if not vanishes:
                return vanishes
    for x in system.variables:
        if member_of_closure(
            pi, witness.assignment[x], closure(pi, system.constraints[x])
        ) is None:
            return Verdict.no(None, None, None, component=x)
    return Verdict.yes()


AMBIENT_KINDS = ("default-0", "default-inf", "finite")


def random_ambient(rng, kind):
    primes = rng.sample((2, 3, 5, 7), rng.randint(1, 3))
    if kind == "finite":
        return Supernatural({p: rng.randint(1, 3) for p in primes}, 0)
    table = {p: rng.choice((0, 1, 2, 3, INFINITY)) for p in primes}
    if kind == "default-0":
        table[primes[0]] = rng.choice((1, 2, INFINITY))  # never the trivial ring
        return Supernatural(table, 0)
    return Supernatural(table, INFINITY)


def random_term(rng, pi, variables):
    finite = [p for p in (2, 3, 5, 7) if pi.is_finite_at(p)]
    factors = []
    for _ in range(rng.randint(1, 3)):
        factor = rng.choice(variables)
        roll = rng.random()
        if roll < 0.25:
            factor = f"{factor}^(w-1)"
        elif roll < 0.5 and finite:
            factor = f"{factor}^({rng.choice(finite)}^(w-1))"
        factors.append(factor)
    return parse_term("*".join(factors), variables)


def random_branch_text(rng, width):
    def vector(low):
        while True:
            v = [rng.randint(low, 3) for _ in range(width)]
            if any(v):
                return "(" + ",".join(map(str, v)) + ")"

    base = "(" + ",".join(str(rng.randint(0, 3)) for _ in range(width)) + ")"
    return "+".join([base] + [vector(0) + "N" for _ in range(rng.randint(0, 2))])


def random_system(rng, pi, names=("x", "y", "z"), alphabet=None):
    """Up to three of the names as variables (at least two when there are),
    1-2 equations and 1-2 branches per variable; the alphabet is drawn unless
    given."""
    if alphabet is None:
        alphabet = ("a", "b")[: rng.randint(1, 2)]
    variables = names[: rng.randint(2, 3)]
    equations = tuple(
        (random_term(rng, pi, variables), random_term(rng, pi, variables))
        for _ in range(rng.randint(1, 2))
    )
    constraints = {
        x: parse_semilinear(
            " | ".join(random_branch_text(rng, len(alphabet)) for _ in range(rng.randint(1, 2))),
            alphabet,
        )
        for x in variables
    }
    return EquationSystem(alphabet, variables, equations, constraints)


def shifts(rng, pi):
    """1, G^w and 1 - G^w for an admissible base G."""
    g = rng.choice(finite_base_pool(pi, 12) or [1])
    return {"one": from_integer(1), "idempotent": omega_closure(pi, g),
            "complement": 1 - omega_closure(pi, g)}


def assert_refutes(pi, verdict):
    assert pi.divisible_by(verdict.witness_modulus)
    assert verdict.residue_u != verdict.residue_v


def test_certificate_check_agrees_with_reference_verifier():
    rng = random.Random(909)
    hits = {}
    witnesses = 0
    for trial in range(240):
        pi = random_ambient(rng, AMBIENT_KINDS[trial % 3])
        system = random_system(rng, pi)
        witness = decide_and_witness(pi, system)
        if not witness:
            continue
        witnesses += 1
        assert verify_witness(pi, system, witness)
        assert reference_verify_witness(pi, system, witness)
        for name, shift in shifts(rng, pi).items():
            x = rng.choice(system.variables)
            letter = rng.randrange(len(system.alphabet))
            # assignment only: the vector leaves the point its coefficients name
            if not is_zero(pi, shift):
                vector = list(witness.assignment[x])
                vector[letter] = vector[letter] + shift
                moved = replace(witness, assignment={**witness.assignment, x: tuple(vector)})
                verdict = verify_witness(pi, system, moved)
                assert not verdict and verdict.component == (x, system.alphabet[letter])
                assert_refutes(pi, verdict)
                hits["assignment", name] = hits.get(("assignment", name), 0) + 1
            # consistent: shift one coefficient and rebuild the vector from it
            if not witness.coefficients[x]:
                continue
            branch = system.constraints[x].branches[witness.branches[x]]
            coefficients = list(witness.coefficients[x])
            j = rng.randrange(len(coefficients))
            coefficients[j] = coefficients[j] + shift
            moved = replace(
                witness,
                assignment={**witness.assignment, x: _point(branch, coefficients)},
                coefficients={**witness.coefficients, x: tuple(coefficients)},
            )
            verdict = verify_witness(pi, system, moved)
            assert bool(verdict) == bool(reference_verify_witness(pi, system, moved))
            if not verdict:
                equation, failed_letter = verdict.component
                assert 0 <= equation < len(system.equations)
                assert failed_letter in system.alphabet
                assert_refutes(pi, verdict)
            hits["consistent", name, bool(verdict)] = (
                hits.get(("consistent", name, bool(verdict)), 0) + 1
            )
    assert witnesses > 50
    for mode in ("assignment", "consistent"):
        for name in ("one", "idempotent", "complement"):
            total = sum(n for key, n in hits.items() if key[:2] == (mode, name))
            assert total > 10, (mode, name, hits)
    assert sum(n for key, n in hits.items() if key[0] == "consistent" and key[2]) > 0, hits
    assert sum(n for key, n in hits.items() if key[0] == "consistent" and not key[2]) > 0, hits


def test_verify_witness_input_contract():
    pi = parse_supernatural("3^inf;default=0")
    system = square_system()
    witness = decide_and_witness(pi, system)
    for branches in ({"x": 0}, {"x": 0, "y": 1}, {"x": -1, "y": 0}, {"x": "0", "y": 0}):
        with pytest.raises(InputError):
            verify_witness(pi, system, replace(witness, branches=branches))
    with pytest.raises(InputError):
        verify_witness(pi, system, replace(witness, coefficients={"x": witness.coefficients["x"]}))
    short = replace(witness, coefficients={**witness.coefficients, "y": ()})
    verdict = verify_witness(pi, system, short)
    assert not verdict and verdict.component == "y"


def test_verify_witness_solves_nothing(monkeypatch):
    pi = parse_supernatural("3^inf,5^2;default=0")
    system = square_system()
    witness = decide_and_witness(pi, system)

    def refuse(*args, **kwargs):
        raise AssertionError("the verifier must not solve")

    monkeypatch.setattr(profint.reducibility, "solve_system", refuse)
    monkeypatch.setattr(profint.semilinear, "solve_system", refuse)
    assert verify_witness(pi, system, witness)


def test_decide_abelianizes_each_side_once(monkeypatch):
    # the witness check reuses the forms the decision built
    pi = parse_supernatural("3^inf;default=0")
    calls = []

    def counted(*args):
        calls.append(args[1])
        return abelianize(*args)

    monkeypatch.setattr(profint.reducibility, "abelianize", counted)
    assert decide_and_witness(pi, square_system())
    assert len(calls) == 2  # lhs and rhs of the one equation


def product_rows(pi, forms, chosen, unknowns, width):
    """A combination's rows and right sides as pseudonumber products, the
    form the SigmaMatrix front reads."""
    pairs = [(form, a) for form in forms for a in range(width)]
    rows = [[form[x] * chosen[x].periods[j][a] for x, j in unknowns] for form, a in pairs]
    rhs = [
        -sum((form[x] * chosen[x].base[a] for x in form), from_integer(0))
        for form, a in pairs
    ]
    return SigmaMatrix(rows, pi), rhs


def split_modulus(pi, rows):
    """The finite modulus M the solver's core splits these rows at."""
    matrix = rows.matrix
    rational = solve_nonsingular(matrix, rows.targets) if matrix.rows == matrix.cols else None
    det = rational[0] if rational else 1
    return pi.split(pi.positive_finite_primes_of(lcm(*rows.scales) * det))[0]


def assert_rows_match_front(pi, system):
    """Every combination's integer rows equal the front's rows of the
    pseudonumber products; returns how many combinations were compared."""
    forms = _linear_forms(pi, system)
    width = len(system.alphabet)
    compared = 0
    for combo in itertools.product(
        *(system.constraints[x].branches for x in system.variables)
    ):
        chosen = dict(zip(system.variables, combo))
        unknowns = [(x, j) for x in system.variables for j in range(len(chosen[x].periods))]
        if not unknowns or not forms:
            continue  # this combination never reaches the solver
        direct = _branch_rows(forms, chosen, unknowns, width)
        front = _split_rows(*product_rows(pi, forms, chosen, unknowns, width))
        assert direct.scales == front.scales
        assert direct.matrix == front.matrix
        assert direct.targets == front.targets
        m = split_modulus(pi, front)
        for n in {m, *pi.sample_divisors(10**4, 3)}:
            check_modulus(n, pi)
            assert direct.residues(n) == front.residues(n)
        compared += 1
    return compared


def test_branch_rows_match_the_pseudonumber_front():
    rng = random.Random(1717)
    compared = 0
    for _ in range(120):
        pi = random_supernatural(rng)
        compared += assert_rows_match_front(pi, random_system(rng, pi))
    assert compared > 200


def test_branch_rows_scale_skips_cancelled_keys():
    # b's right side cancels the [2^(w-1)] of y and z, while x keeps the
    # integer entry 1: the row's scale is 1, not 2
    pi = parse_supernatural("2^1,3^inf;default=0")
    variables = ("x", "y", "z")
    system = EquationSystem(
        ("a", "b"),
        variables,
        ((parse_term("x*(y)^(2^(w-1))", variables), parse_term("x*x*(z)^(2^(w-1))", variables)),),
        {
            "x": parse_semilinear("(1,0)+(1,0)N", ["a", "b"]),
            "y": parse_semilinear("(1,0)+(0,1)N", ["a", "b"]),
            "z": parse_semilinear("(1,0)+(0,1)N", ["a", "b"]),
        },
    )
    assert assert_rows_match_front(pi, system) == 1
    witness = decide_and_witness(pi, system)
    # the rest side's solution -1 already solves the system mod 2, so it is
    # the witness; the glued one before it, 1 - 4*[2^(w-1)], is equal to it
    assert [str(c) for c in witness.coefficients["x"]] == ["-1"]
    assert [str(v) for v in witness.assignment["x"]] == ["0", "0"]
    assert equal_in_ab(pi, witness.coefficients["x"][0], parse_pseudonumber("1 - 4*[2^(w-1)]", pi))
    assert equal_in_ab(pi, witness.assignment["x"][0], parse_pseudonumber("2 - 4*[2^(w-1)]", pi))


def linked_components(system, forms):
    """The test's own partition of the variables: (variables, has forms) per
    connected component, two variables linked when a form has a nonzero
    coefficient on both; components come in the order of their first
    variables, and a form with no nonzero coefficient counts for the first
    component that has a nonzero one."""
    parts = [{x} for x in system.variables]
    for form in forms:
        used = {x for x in system.variables if form[x]}
        if used:
            merged = set().union(*(part for part in parts if part & used))
            parts = [part for part in parts if not part & used] + [merged]
    parts.sort(key=lambda part: min(map(system.variables.index, part)))
    components = [[x for x in system.variables if x in part] for part in parts]
    linked = [i for i, part in enumerate(parts) if any(form[x] for form in forms for x in part)]
    home = linked[0] if linked else 0
    return [
        (variables, i in linked or i == home and bool(forms))
        for i, variables in enumerate(components)
    ]


def sub_system(system, variables, forms):
    """The component's variables with the equations whose nonzero
    coefficients lie on them.  A variable those equations name with a zero
    coefficient comes last, fixed at the zero point, so the component's
    combinations keep their order."""
    equations = tuple(
        equation for equation, form in zip(system.equations, forms)
        if any(form[x] for x in variables)
    )
    named = set().union(*(lhs.variables() | rhs.variables() for lhs, rhs in equations))
    extra = tuple(x for x in system.variables if x in named and x not in variables)
    zero = parse_semilinear("(" + ",".join("0" * len(system.alphabet)) + ")", system.alphabet)
    return EquationSystem(
        system.alphabet,
        tuple(variables) + extra,
        equations,
        {**{x: system.constraints[x] for x in variables}, **dict.fromkeys(extra, zero)},
    )


def test_each_solved_combination_calls_solve_system_once(monkeypatch):
    # the benchmark's tracer counts branch combinations by wrapping this name;
    # each component's combinations are tried in order until its first
    # solvable one, and the first component with none ends the decision
    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return solve_system(*args, **kwargs)

    monkeypatch.setattr(profint.reducibility, "solve_system", counted)
    rng = random.Random(4242)
    reached = split = 0
    for trial in range(90):
        pi = random_ambient(rng, AMBIENT_KINDS[trial % 3])
        system = random_system(rng, pi)
        forms = _linear_forms(pi, system)
        expected = 0
        components = linked_components(system, forms)
        split += len(components) > 1
        for variables, has_forms in components:
            outcome = reference.decide_and_witness(pi, sub_system(system, variables, forms))
            combos = list(itertools.product(
                *(range(len(system.constraints[x].branches)) for x in variables)
            ))
            if outcome:
                combos = combos[: combos.index(tuple(outcome.branches[x] for x in variables)) + 1]
            expected += has_forms * sum(
                any(system.constraints[x].branches[i].periods for x, i in zip(variables, combo))
                for combo in combos
            )
            if not outcome:
                break
        calls.clear()
        decide_and_witness(pi, system)
        assert len(calls) == expected
        reached += expected
    assert reached > 100 and split > 10


def test_point_matches_the_ring_operations():
    # _point builds each letter in one construction; the reference sums
    # c * period[a] onto the base one ring operation at a time
    rng = random.Random(1832)
    for round_ in range(300):
        pi = random_ambient(rng, AMBIENT_KINDS[round_ % 3])
        width = rng.randint(1, 3)
        branch = parse_semilinear(random_branch_text(rng, width), "abc"[:width]).branches[0]
        coefficients = [
            random_pseudonumber(rng, pi, max_terms=2, base_limit=14) if rng.random() < 0.7
            else rng.randint(-5, 5)
            for _ in branch.periods
        ]
        expected = tuple(
            sum(
                (c * period[a] for c, period in zip(coefficients, branch.periods)),
                from_integer(branch.base[a]),
            )
            for a in range(branch.width)
        )
        point = _point(branch, coefficients)
        assert point == expected and [str(v) for v in point] == [str(v) for v in expected]
        assert [v.pi for v in point] == [v.pi for v in expected]


def test_linear_forms_match_the_ring_operations():
    rng = random.Random(1833)
    for round_ in range(120):
        pi = random_ambient(rng, AMBIENT_KINDS[round_ % 3])
        system = random_system(rng, pi)
        for form, (lhs, rhs) in zip(_linear_forms(pi, system), system.equations):
            left = abelianize(pi, lhs, system.variables)
            right = abelianize(pi, rhs, system.variables)
            for x in system.variables:
                expected = left[x] - right[x]
                assert form[x] == expected and str(form[x]) == str(expected)


def test_verify_witness_accepts_plain_int_coefficients():
    pi = parse_supernatural("2^2,3^inf;default=0")
    system = EquationSystem(
        ("a", "b"),
        XY,
        ((parse_term("x", XY), parse_term("y*y", XY)),),
        {
            "x": parse_semilinear("(0,0)+(2,0)N+(0,2)N", ["a", "b"]),
            "y": parse_semilinear("(0,0)+(1,0)N+(0,1)N", ["a", "b"]),
        },
    )
    witness = Witness(
        assignment={"x": (from_integer(6), from_integer(2)), "y": (from_integer(3), from_integer(1))},
        branches={"x": 0, "y": 0},
        coefficients={"x": (3, 1), "y": (3, 1)},
    )
    assert verify_witness(pi, system, witness)
    moved = replace(witness, coefficients={**witness.coefficients, "y": (3, 2)})
    verdict = verify_witness(pi, system, moved)
    assert not verdict and verdict.component == ("y", "b")


def decoupled_system(rng, pi):
    """Two independent random_system halves over one alphabet, on disjoint
    variables: no equation joins them."""
    alphabet = ("a", "b")[: rng.randint(1, 2)]
    left = random_system(rng, pi, rng.choice((("x",), ("x", "y", "z"))), alphabet)
    right = random_system(rng, pi, rng.choice((("u",), ("u", "v", "t"))), alphabet)
    return EquationSystem(
        alphabet,
        left.variables + right.variables,
        left.equations + right.equations,
        {**left.constraints, **right.constraints},
    )


def rendered(outcome):
    """The str of every witness entry, coefficient and quotient."""
    if outcome:
        return (
            {x: [str(v) for v in vector] for x, vector in outcome.assignment.items()},
            {x: [str(c) for c in cs] for x, cs in outcome.coefficients.items()},
        )
    return [(combo, str(n)) for combo, n in outcome.quotients]


def test_components_agree_with_the_full_product():
    rng = random.Random(1919)
    seen = {"one": 0, "split": 0, "refuted": 0, "searched": 0}
    for trial in range(240):
        pi = random_ambient(rng, AMBIENT_KINDS[trial % 3])
        system = random_system(rng, pi) if trial % 2 else decoupled_system(rng, pi)
        outcome = decide_and_witness(pi, system)
        expected = reference.decide_and_witness(pi, system)
        assert bool(outcome) == bool(expected)
        one = len(linked_components(system, _linear_forms(pi, system))) == 1
        seen["one" if one else "split"] += 1
        if one:
            assert rendered(outcome) == rendered(expected)
        if outcome:
            assert outcome.branches == expected.branches
            assert verify_witness(pi, system, outcome)
            continue
        seen["refuted"] += 1
        assert [combo for combo, _ in outcome.quotients] == [
            combo for combo, _ in expected.quotients
        ]
        assert all(pi.divisible_by(n) for _, n in outcome.quotients)
        combined = outcome.combined_modulus()
        if combined <= MAX_MODULUS and len(system.variables) <= MAX_VARIABLES:
            try:
                assert search_quotient(system, combined, pi) is None
            except ResourceError:
                continue
            seen["searched"] += 1
    assert min(seen.values()) > 10, seen


def zero_form_system(constraints):
    """x = y*y beside the zero form x*x^(w-1)*x = x: one component."""
    return EquationSystem(
        ("a",),
        XY,
        (
            (parse_term("x*x^(w-1)*x", XY), parse_term("x", XY)),
            (parse_term("x", XY), parse_term("y*y", XY)),
        ),
        {x: parse_semilinear(text, ["a"]) for x, text in zip(XY, constraints)},
    )


def test_zero_form_in_one_component_prints_as_before():
    for pi_text, constraints in (
        ("3^inf;default=0", ("(1)+(2)N", "(1)+(1)N")),
        ("2^inf;default=0", ("(1)+(2)N", "(1)+(1)N")),
        ("2^2,3^inf;default=0", ("(0) | (2)+(3)N", "(1)+(2)N | (0)+(1)N")),
    ):
        pi = parse_supernatural(pi_text)
        system = zero_form_system(constraints)
        outcome = decide_and_witness(pi, system)
        expected = reference.decide_and_witness(pi, system)
        assert bool(outcome) == bool(expected)
        assert rendered(outcome) == rendered(expected)
        if outcome:
            assert outcome.branches == expected.branches


def test_variable_with_zero_coefficients_is_never_solved_for(monkeypatch):
    # y*y^(w-1) gives y the coefficient 0: y only needs a nonempty constraint,
    # and the witness puts it at its first branch's base
    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return solve_system(*args, **kwargs)

    monkeypatch.setattr(profint.reducibility, "solve_system", counted)
    pi = parse_supernatural("3^inf;default=0")
    system = EquationSystem(
        ("a",),
        XY,
        ((parse_term("x", XY), parse_term("y*y^(w-1)*x*x", XY)),),
        {
            "x": parse_semilinear("(1) | (0)+(1)N", ["a"]),
            "y": parse_semilinear("(2)+(5)N+(7)N | (1)", ["a"]),
        },
    )
    forms = _linear_forms(pi, system)
    assert not any(form["y"] for form in forms)
    witness = decide_and_witness(pi, system)
    assert witness and witness.branches == {"x": 1, "y": 0}
    assert len(calls) == 1  # x's second branch; its first has no unknowns
    assert [str(c) for c in witness.coefficients["y"]] == ["0", "0"]
    assert [str(v) for v in witness.assignment["y"]] == ["2"]
    assert equal_in_ab(pi, witness.assignment["x"][0], 0)
    assert verify_witness(pi, system, witness)


def test_empty_constraint_in_the_second_component_refutes_with_no_quotients(monkeypatch):
    # the product of the branches is empty, so nothing is solved, not even
    # x's component before y's
    def refuse(*args, **kwargs):
        raise AssertionError("an empty product needs no solve")

    monkeypatch.setattr(profint.reducibility, "solve_system", refuse)
    pi = parse_supernatural("3^inf;default=0")
    system = EquationSystem(
        ("a",),
        XY,
        (
            (parse_term("x", XY), parse_term("x*x", XY)),
            (parse_term("y", XY), parse_term("y*y", XY)),
        ),
        {"x": parse_semilinear("(0)+(1)N", ["a"]), "y": parse_semilinear("empty", ["a"])},
    )
    outcome = decide_and_witness(pi, system)
    assert outcome == Refutation(())
    assert outcome.combined_modulus() == 1


def test_only_the_second_component_fails():
    # x = x*x solves at x's first branch; y = y*y forces y = 0, which y's
    # branches (1) and (2) miss at 2 and at 4.  Every full combination is
    # listed, each with the modulus of its y branch.
    pi = parse_supernatural("2^inf;default=0")
    system = EquationSystem(
        ("a",),
        XY,
        (
            (parse_term("x", XY), parse_term("x*x", XY)),
            (parse_term("y", XY), parse_term("y*y", XY)),
        ),
        {
            "x": parse_semilinear("(0)+(1)N | (1)", ["a"]),
            "y": parse_semilinear("(1) | (2)", ["a"]),
        },
    )
    outcome = decide_and_witness(pi, system)
    assert not outcome
    assert outcome.quotients == (((0, 0), 2), ((0, 1), 4), ((1, 0), 2), ((1, 1), 4))
    assert outcome.combined_modulus() == 4
    assert search_quotient(system, 4, pi) is None
    # the full product refutes (1, 0) and (1, 1) in x's branch, where x = 1
    # fails at 2
    assert reference.decide_and_witness(pi, system).quotients == (
        ((0, 0), 2), ((0, 1), 4), ((1, 0), 2), ((1, 1), 2)
    )
