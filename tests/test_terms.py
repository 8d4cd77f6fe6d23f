import random
import re

import pytest
from hypothesis import given, settings, strategies as st

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
import reference_terms

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
    assert parse_term("x(y)", XY) == Product(Var("x"), Var("y"))
    assert parse_term("(x)(y)", XY) == Product(Var("x"), Var("y"))
    assert parse_term("x\n*\ny", XY) == Product(Var("x"), Var("y"))


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


# -- the one-pass lexer against the whitespace-token reference -----------------
#
# For every text both parsers must build the same tree, or raise the same
# exception type with the same message.  Two classes of messages move on
# purpose, and `moved` recognizes exactly those:
# - "w after a factor": `w` now starts a factor like any name, so `(x)w` is
#   the unknown variable 'w', where the reference stopped its product there
#   and reported the `w` as trailing or as the wrong token;
# - "whitespace token": whitespace is no token any more, so where the
#   reference reported its kept " " token as the wrong token, the message
#   names the next token and its position.

DECLARED = ("x", "y", "xy")
UNKNOWN_W = "unknown variable 'w' (declared: x, y, xy)"
#: the term shapes of the `reduce` workload's equations (bench/workloads.py)
SHAPES = ("{s}", "{s}*{s}", "{s}^(w-1)", "{s}*{s}*{s}", "({s})^({p}^(w-1))", "{s}*{s}^(w-1)*{s}")
FRAGMENTS = (
    "x", "y", "xy", "_", "w", "é",
    "1", "3", "4", "01",
    "^", "(", ")", "*", "-", " ", "\t", "\n",
    "w-1", "^(w-1)", "^(3^(w-1))", "^(4^(w-1))",
)
SPACES = ("", "", "", " ", "  ", "\t", "\n", " ", "\x1c")


def outcome(parse, text):
    try:
        return ("tree", parse(text, DECLARED))
    except Exception as exc:  # the type and message are what is compared
        return ("error", type(exc), str(exc))


def moved(text, want, got):
    """The name of the deliberate message change from the reference's
    outcome `want` to `got`, or None when `got` is not one."""
    if want[0] != "error" or got[:2] != want[:2]:
        return None
    m = re.fullmatch(
        r"trailing 'w' at position (\d+) in .*|expected '\)' at position (\d+) in .*, got 'w'",
        want[2],
        re.S,
    )
    if m and not text[int(m[1] or m[2]) - 1].isspace() and got[2] == UNKNOWN_W:
        return "w after a factor"
    m = re.fullmatch(r"expected ('.') at position (\d+) in (.*), got ' '", want[2], re.S)
    if m:
        where = int(m[2])
        after = where + len(text[where:]) - len(text[where:].lstrip())
        token = reference_terms._TERM_TOKEN.match(text, after)[1]
        if got[2] == f"expected {m[1]} at position {after} in {m[3]}, got {token!r}":
            return "whitespace token"
    return None


def check(text, seen=None):
    want = outcome(reference_terms.parse_term, text)
    got = outcome(parse_term, text)
    kind = "same" if got == want else moved(text, want, got)
    assert kind is not None, (text, want, got)
    if seen is not None:
        seen.add(kind)


FIXED = [
    "", " ", "x", " x ", "\tx\n", "xy", "x y", "x  y", "x(y)", "(x)(y)", "(x) (y)",
    "x\n*\ny", "x *y", "x* y", "x ^(w-1)", "x^ (w-1)", "x^( w - 1 )", "x^(w-1) y",
    "(x)^(3^(w-1))", "( x ) ^ ( 3 ^ ( w - 1 ) )", "x^(3^(w-1))y", "x*y*x", "x y x",
    "((x))", "(x y)", "( x(y) )", "x^(w-1)^(w-1)", "x^(w-1)(y)",
    "w", "x w", "x*w", "xw", "_", "x _", "x1", "x 1", "1", "x*", "*x", "x**y", "x)", "(x",
    "x^", "x^(", "x^()", "x^(w)", "x^(w-2)", "x^(w-01)", "x^(w+1)", "x^(4^(w-1))",
    "x^(01^(w-1))", "x^(3^(w-2))", "x^(3(w-1))", "x^(3^(w-1)w", "x^(w-1 y)", "x^(y)",
    "x é", "é", "x\u00a0y", "x\x1cy", "x+y", "x.y", "x = y",
    "x^(\u0663^(w-1))", "x\u0663", "x^(3\u00b2^(w-1))",
    "x^(" + "3" * 5000 + "^(w-1))",
    # w after a factor: the reference stops its product at the w
    "(x)w", "x^(w-1)w", "((x)w)", "(x)^(3^(w-1))w", "x y^(w-1)w",
    # whitespace as the reference's wrong token
    "x^(w y)", "x^(w\t(", "x^(w (y))", "(x)^(3^(w-1) (y)", "x^(3^(w-1) w)",
]


def test_one_pass_lexer_matches_reference_on_fixed_texts():
    seen = set()
    for text in FIXED:
        check(text, seen)
    assert seen == {"same", "w after a factor", "whitespace token"}


def test_moved_messages_are_pinned():
    def error(parse, text):
        with pytest.raises(InputError) as caught:
            parse(text, DECLARED)
        return str(caught.value)

    for text, before in (
        ("(x)w", "trailing 'w' at position 3 in '(x)w'"),
        ("x^(w-1)w", "trailing 'w' at position 7 in 'x^(w-1)w'"),
        ("((x)w)", "expected ')' at position 4 in '((x)w)', got 'w'"),
    ):
        assert error(reference_terms.parse_term, text) == before
        assert error(parse_term, text) == UNKNOWN_W
    for text, before, after in (
        (
            "x^(w y)",
            "expected '-' at position 4 in 'x^(w y)', got ' '",
            "expected '-' at position 5 in 'x^(w y)', got 'y'",
        ),
        (
            "(x)^(3^(w-1) (y)",
            "expected ')' at position 12 in '(x)^(3^(w-1) (y)', got ' '",
            "expected ')' at position 13 in '(x)^(3^(w-1) (y)', got '('",
        ),
    ):
        assert error(reference_terms.parse_term, text) == before
        assert error(parse_term, text) == after
    # unchanged: a w the reference already read as a factor, or not after one
    assert error(parse_term, "x w") == UNKNOWN_W
    assert error(parse_term, "x^(3^(w-1)w") == (
        "expected ')' at position 10 in 'x^(3^(w-1)w', got 'w'"
    )


def test_one_pass_lexer_matches_reference_on_seeded_texts():
    rng = random.Random(20261020)
    seen = set()
    for _ in range(3000):
        check("".join(rng.choice(FRAGMENTS) for _ in range(rng.randint(0, 8))), seen)
        text = rng.choice(SHAPES).format(s=rng.choice(("x", "(x)", "x^(w-1)")), p=rng.choice("23"))
        chars = [rng.choice(SPACES) + c for c in text]
        chars.insert(rng.randint(0, len(chars)), rng.choice(FRAGMENTS))
        check("".join(chars), seen)
    assert seen == {"same", "w after a factor", "whitespace token"}


@settings(derandomize=True, database=None, max_examples=500, deadline=None)
@given(st.lists(st.sampled_from(FRAGMENTS), max_size=10).map("".join))
def test_one_pass_lexer_matches_reference_on_fragment_texts(text):
    check(text)


@st.composite
def shaped_texts(draw):
    """A `reduce` shape, filled in, with whitespace between its characters
    and now and then one fragment inserted."""
    shape = draw(st.sampled_from(SHAPES))
    filler = draw(st.sampled_from(("x", "y", "xy", "(x)", "x y", "x(y)", "x^(w-1)", "w", "_")))
    text = shape.format(s=filler, p=draw(st.sampled_from("23451")))
    chars = [draw(st.sampled_from(SPACES)) + c for c in text] + [draw(st.sampled_from(SPACES))]
    if draw(st.booleans()):
        chars.insert(draw(st.integers(0, len(chars))), draw(st.sampled_from(FRAGMENTS)))
    return "".join(chars)


@settings(derandomize=True, database=None, max_examples=500, deadline=None)
@given(shaped_texts())
def test_one_pass_lexer_matches_reference_on_shaped_texts(text):
    check(text)
