import random

import pytest

from profint import (
    InputError,
    OmegaInv,
    Pseudonumber,
    PrimePower,
    Product,
    SignatureError,
    Var,
    abelianize,
    equal_in_ab,
    eval_mod,
    from_integer,
    omega_power,
    parse_supernatural,
    parse_term,
)
from conftest import random_supernatural, sample_moduli

PI = parse_supernatural("3^1,5^inf;default=0")
XY = ("x", "y")


def test_parse_examples():
    assert parse_term("x*y^(w-1)", XY) == Product(Var("x"), OmegaInv(Var("y")))
    assert parse_term("(x)^(3^(w-1))", XY) == PrimePower(Var("x"), 3)
    with pytest.raises(InputError):
        parse_term("x*z", XY)


def test_parse_whitespace_product():
    assert parse_term("x y", XY) == Product(Var("x"), Var("y"))
    assert parse_term("x * y", XY) == parse_term("x*y", XY)
    assert parse_term("x^(w-1) y", XY) == Product(OmegaInv(Var("x")), Var("y"))


def test_parse_is_left_associative():
    assert parse_term("x*y*x", XY) == Product(Product(Var("x"), Var("y")), Var("x"))


def test_parse_rejects_garbage():
    for text in ("", "x^", "x^(w-2)", "x^(4^(w-1))", "(x", "x)", "x^(w)"):
        with pytest.raises(InputError):
            parse_term(text, XY)
    with pytest.raises(InputError):
        parse_term("w", ("w",))
    with pytest.raises(InputError):
        parse_term(5, XY)
    with pytest.raises(InputError):  # prime longer than the int/str digit limit
        parse_term("(x)^(" + "1" * 5000 + "^(w-1))", XY)


def test_abelianize_examples():
    vec = abelianize(PI, parse_term("x*y^(w-1)", XY), XY)
    assert vec["x"] == from_integer(1) and vec["y"] == from_integer(-1)
    vec = abelianize(PI, parse_term("(x)^(2^(w-1))", ("x",)), ("x",))
    assert vec["x"] == omega_power(PI, 2, 1)
    vec = abelianize(PI, parse_term("x*x*y", XY), XY)
    assert vec["x"] == from_integer(2) and vec["y"] == from_integer(1)


def test_abelianize_signature_error():
    pi = parse_supernatural("3^inf;default=0")
    with pytest.raises(SignatureError):
        abelianize(pi, parse_term("(x)^(3^(w-1))", ("x",)), ("x",))


def random_term(rng, variables, depth=3):
    if depth == 0 or rng.random() < 0.35:
        return Var(rng.choice(variables))
    roll = rng.random()
    if roll < 0.45:
        return Product(
            random_term(rng, variables, depth - 1),
            random_term(rng, variables, depth - 1),
        )
    if roll < 0.75:
        return OmegaInv(random_term(rng, variables, depth - 1))
    return PrimePower(random_term(rng, variables, depth - 1), rng.choice((2, 3, 5)))


def test_abelianize_is_structural_homomorphism():
    rng = random.Random(51)
    pi = parse_supernatural("2^2,3^1,5^1;default=inf")
    for _ in range(60):
        s = random_term(rng, XY)
        t = random_term(rng, XY)
        left = abelianize(pi, Product(s, t), XY)
        s_vec, t_vec = abelianize(pi, s, XY), abelianize(pi, t, XY)
        for x in XY:
            assert equal_in_ab(pi, left[x], s_vec[x] + t_vec[x])
        neg = abelianize(pi, OmegaInv(t), XY)
        for x in XY:
            assert equal_in_ab(pi, neg[x], -t_vec[x])
        scaled = abelianize(pi, PrimePower(t, 3), XY)
        for x in XY:
            assert equal_in_ab(pi, scaled[x], omega_power(pi, 3, 1) * t_vec[x])


def ring_abelianize(pi, term, variables):
    """abelianize by ring operations at every node: a Pseudonumber per leaf,
    per sum and per negation."""
    def walk(node):
        if isinstance(node, Var):
            return {node.name: from_integer(1)}
        if isinstance(node, Product):
            left, right = walk(node.left), walk(node.right)
            for name, coeff in right.items():
                left[name] = left.get(name, from_integer(0)) + coeff
            return left
        if isinstance(node, OmegaInv):
            return {name: -coeff for name, coeff in walk(node.child).items()}
        scale = omega_power(pi, node.prime, 1)
        return {name: scale * coeff for name, coeff in walk(node.child).items()}

    sparse = walk(term)
    return {name: sparse.get(name, from_integer(0)) for name in variables}


def test_abelianize_matches_the_ring_operations():
    # abelianize keeps integer coefficients until a p^(w-1) power; the
    # normal form, its text and its ambient are those of the ring operations
    rng = random.Random(53)
    pi = parse_supernatural("2^2,3^1,5^1;default=inf")
    variables = ("x", "y", "z")
    for _ in range(200):
        term = random_term(rng, variables[:2], depth=rng.randint(0, 4))
        got = abelianize(pi, term, variables)
        expected = ring_abelianize(pi, term, variables)
        assert list(got) == list(variables)
        for x in variables:
            assert isinstance(got[x], Pseudonumber)
            assert got[x] == expected[x] and str(got[x]) == str(expected[x])
            assert got[x].pi == expected[x].pi


def test_quotient_consistency():
    # structural evaluation in (Z/n, +) equals the abelianized dot product
    from profint.oracle import eval_term_mod

    rng = random.Random(52)
    for _ in range(40):
        pi = random_supernatural(rng)
        allowed = [p for p in (2, 3, 5) if pi.is_finite_at(p)]
        if not allowed:
            continue

        def term_gen(rng_, variables, depth=3):
            if depth == 0 or rng_.random() < 0.4:
                return Var(rng_.choice(variables))
            roll = rng_.random()
            if roll < 0.5:
                return Product(
                    term_gen(rng_, variables, depth - 1),
                    term_gen(rng_, variables, depth - 1),
                )
            if roll < 0.8:
                return OmegaInv(term_gen(rng_, variables, depth - 1))
            return PrimePower(term_gen(rng_, variables, depth - 1), rng_.choice(allowed))

        t = term_gen(rng, XY)
        coeffs = abelianize(pi, t, XY)
        for n in sample_moduli(pi, 4, bound=10**4, seed=rng.randint(0, 99)):
            assignment = {x: rng.randrange(n) for x in XY}
            direct = eval_term_mod(t, assignment, n, pi)
            dotted = sum(
                eval_mod(coeffs[x], n, pi) * assignment[x] for x in XY
            ) % n
            assert direct == dotted
