import itertools
import random

import pytest

from profint import (
    InputError,
    LinearSet,
    SemilinearSet,
    closure,
    equal_vectors,
    from_integer,
    member_of_closure,
    omega_power,
    parse_semilinear,
    parse_supernatural,
    plus_closure_generators,
)
from conftest import random_supernatural

PI = parse_supernatural("3^1,5^inf;default=0")


def test_closure_examples():
    sls = parse_semilinear("(1,0)+(2,1)N", ["a", "b"])
    closed = closure(PI, sls)
    assert closed.branches == sls.branches and closed.alphabet == sls.alphabet
    empty = closure(PI, SemilinearSet(("a",), ()))
    assert empty.branches == ()
    whole = closure(PI, parse_semilinear("(0)+(1)N", ["a"]))
    assert member_of_closure(PI, [omega_power(PI, 2, 1)], whole) is not None


def test_sum_examples():
    one = parse_semilinear("1+2N")
    two = parse_semilinear("2+3N")
    assert str(one + two) == "(3)+(2)N+(3)N"
    point = parse_semilinear("(0)", ["a"])
    assert (one + point).branches == one.branches
    empty = SemilinearSet(("a",), ())
    assert (empty + two).is_empty()


def test_plus_closure_generators_examples():
    assert str(plus_closure_generators(parse_semilinear("1+2N"))) == "(0)+(1)N+(2)N"
    assert (
        str(plus_closure_generators(parse_semilinear("(1,1)", ["a", "b"])))
        == "(0,0)+(1,1)N"
    )
    assert str(plus_closure_generators(parse_semilinear("(0)+(2)N", ["a"]))) == "(0)+(2)N"
    with pytest.raises(InputError):
        plus_closure_generators(SemilinearSet(("a",), ()))


def test_member_examples():
    t = omega_power(PI, 3, 1)
    cosets = closure(PI, parse_semilinear("(1,0)+(2,1)N", ["a", "b"]))
    witness = member_of_closure(PI, [1 + 2 * t, t], cosets)
    assert witness is not None and witness.branch == 0
    base = [from_integer(1), from_integer(0)]
    got = [
        base[0] + 2 * witness.coefficients[0],
        base[1] + 1 * witness.coefficients[0],
    ]
    assert equal_vectors(PI, got, [1 + 2 * t, t])

    assert member_of_closure(PI, [0, 0], cosets) is None

    at_base = member_of_closure(PI, [1, 0], cosets)
    assert at_base is not None
    from profint import is_zero

    assert all(is_zero(PI, c) for c in at_base.coefficients)


def test_member_point_branch():
    cosets = closure(PI, parse_semilinear("(2,3)", ["a", "b"]))
    assert member_of_closure(PI, [2, 3], cosets) is not None
    assert member_of_closure(PI, [2, 4], cosets) is None


def enumerate_points(sls, limit):
    """All natural points of the set with every coordinate <= limit."""
    points = set()
    for branch in sls.branches:
        max_steps = limit + 1
        for combo in itertools.product(range(max_steps), repeat=len(branch.periods)):
            point = list(branch.base)
            for count, period in zip(combo, branch.periods):
                for i, x in enumerate(period):
                    point[i] += count * x
            if all(x <= limit for x in point):
                points.add(tuple(point))
    return points


def random_semilinear(rng, alphabet, max_branches=2, max_periods=2, bound=4):
    branches = []
    for _ in range(rng.randint(1, max_branches)):
        width = len(alphabet)
        base = tuple(rng.randint(0, bound) for _ in range(width))
        periods = []
        for _ in range(rng.randint(0, max_periods)):
            period = tuple(rng.randint(0, bound) for _ in range(width))
            if any(period):
                periods.append(period)
        branches.append(LinearSet(base, tuple(periods)))
    return SemilinearSet(tuple(alphabet), tuple(branches))


def test_enumerated_points_are_members():
    rng = random.Random(61)
    for _ in range(15):
        pi = random_supernatural(rng)
        sls = random_semilinear(rng, ("a", "b"))
        closed = closure(pi, sls)
        for point in sorted(enumerate_points(sls, 12)):
            witness = member_of_closure(pi, list(point), closed)
            assert witness is not None, f"{point} lost from {sls}"
            branch = closed.branches[witness.branch]
            got = [
                from_integer(branch.base[a])
                + sum(
                    (
                        coeff * branch.periods[j][a]
                        for j, coeff in enumerate(witness.coefficients)
                    ),
                    from_integer(0),
                )
                for a in range(2)
            ]
            assert equal_vectors(pi, got, list(point))


def test_closure_of_sum_is_sum_of_closures():
    rng = random.Random(62)
    for _ in range(15):
        pi = random_supernatural(rng)
        s = random_semilinear(rng, ("a",))
        t = random_semilinear(rng, ("a",))
        both = closure(pi, s + t)
        pairwise = closure(pi, s) + closure(pi, t)
        assert both.branches == pairwise.branches
        # membership verdicts agree on sampled vectors
        for value in range(0, 14):
            left = member_of_closure(pi, [value], both)
            right = member_of_closure(pi, [value], pairwise)
            assert (left is None) == (right is None)
        # sums of points of the summands are members
        for p in sorted(enumerate_points(s, 8)):
            for q in sorted(enumerate_points(t, 8)):
                assert member_of_closure(pi, [p[0] + q[0]], both) is not None


def test_alphabet_mismatch_rejected():
    with pytest.raises(InputError):
        parse_semilinear("(1,0)+(2,1)N", ["a", "b"]) + parse_semilinear("1+2N")
    with pytest.raises(InputError):
        member_of_closure(PI, [1], closure(PI, parse_semilinear("(1,0)", ["a", "b"])))


def test_parse_and_str_round_trip():
    for text, letters in (
        ("(1,0)+(2,1)N | (0,3)+(1,1)N+(0,2)N", ["a", "b"]),
        ("(4)", ["a"]),
        ("2N", ["a"]),
    ):
        sls = parse_semilinear(text, letters)
        assert parse_semilinear(str(sls), letters) == sls
    assert parse_semilinear("empty", ["a"]).is_empty()
    with pytest.raises(InputError):
        parse_semilinear("(1,0)+(2)N", ["a", "b"])
    with pytest.raises(InputError):
        parse_semilinear("(1)+(0)N", ["a"])  # zero period
    with pytest.raises(InputError):
        parse_semilinear(3, ["a"])
