import random

import pytest

from profint import (
    EquationSystem,
    ResourceError,
    parse_semilinear,
    parse_supernatural,
    parse_term,
)
from profint.oracle import (
    constraint_image,
    eval_term_mod,
    search_quotient,
)
from conftest import linear_solution_exists

PI = parse_supernatural("3^1,5^inf;default=0")


def test_eval_term_examples():
    pi = parse_supernatural("7^1;default=inf")
    t = parse_term("x*x", ("x",))
    assert eval_term_mod(t, {"x": 5}, 7, pi) == 3
    t = parse_term("x^(w-1)", ("x",))
    assert eval_term_mod(t, {"x": 5}, 7, pi) == 2
    t = parse_term("(x)^(3^(w-1))", ("x",))
    assert eval_term_mod(t, {"x": 1}, 5, PI) == 2  # 3^(w-1) = 1/3 = 2 (mod 5)


def test_eval_term_requires_assignment_and_modulus():
    t = parse_term("x", ("x",))
    with pytest.raises(Exception):
        eval_term_mod(t, {}, 5, PI)
    with pytest.raises(Exception):
        eval_term_mod(t, {"x": 1}, 9, PI)  # 9 does not divide the ambient


def worked_system():
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


def test_search_examples():
    system = worked_system()
    pi = parse_supernatural("default=inf")
    found = search_quotient(system, 3, pi)
    assert found is not None
    x, y = found["x"][0], found["y"][0]
    assert x % 3 == (2 * y) % 3  # additive form of x = y*y
    assert search_quotient(system, 2, pi) is None
    trivial = EquationSystem(
        ("a",),
        ("x",),
        ((parse_term("x", ("x",)), parse_term("x", ("x",))),),
        {"x": parse_semilinear("(0)+(1)N", ["a"])},
    )
    assert search_quotient(trivial, 2, pi) is not None


def test_search_guards():
    pi = parse_supernatural("default=inf")
    system = worked_system()
    with pytest.raises(ResourceError):
        search_quotient(system, 51, pi)
    wide = EquationSystem(
        ("a",),
        ("x", "y", "z", "t"),
        (),
        {v: parse_semilinear("(0)+(1)N", ["a"]) for v in ("x", "y", "z", "t")},
    )
    with pytest.raises(ResourceError):
        search_quotient(wide, 2, pi)


def test_constraint_image_matches_enumeration():
    rng = random.Random(71)
    for _ in range(20):
        base = tuple(rng.randint(0, 6) for _ in range(2))
        period = tuple(rng.randint(0, 4) for _ in range(2))
        text = f"({base[0]},{base[1]})"
        if any(period):
            text += f"+({period[0]},{period[1]})N"
        sls = parse_semilinear(text, ["a", "b"])
        n = rng.randint(2, 12)
        expected = set()
        for k in range(0, 40):
            expected.add(
                tuple((b + k * p) % n for b, p in zip(base, period if any(period) else (0, 0)))
            )
        assert constraint_image(sls, n) == expected


def test_linear_solution_exists_brute_force():
    assert linear_solution_exists([[2, 0], [0, 3]], [0, 0], 6)
    assert not linear_solution_exists([[2]], [1], 4)
    assert linear_solution_exists([[2]], [1], 5)
