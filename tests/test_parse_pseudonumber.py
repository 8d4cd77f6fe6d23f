"""The one-pass pseudonumber parser against the token-by-token parser it
replaced, kept here as the reference.

For every text the two must return the same normal form (constant, terms
and ambient) or raise the same exception type with the same message.  The
one intended difference is trailing whitespace, which the reference rejects
as a bad character and the one-pass parser accepts.  A text that is one
integer literal takes the parser's direct path, so texts of signs,
whitespace and digits (some of them not ASCII) are compared too.
"""
import random
import re
import sys

from hypothesis import given, settings, strategies as st

from profint import InputError, Supernatural, parse_pseudonumber, parse_supernatural
from profint.pseudonumber import Pseudonumber, _literal, _TokenParser, from_integer, omega_power
from conftest import random_pseudonumber, random_supernatural

# -- reference: the token-by-token parser --------------------------------------

_TOKEN = re.compile(r"\s*(\d+|\[|\]|\^|\(|\)|w|\+|\-|\*)")


def _tokenize(text: str):
    pos, out = 0, []
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if not m:
            raise InputError(f"bad character at position {pos} in {text!r}")
        out.append((m.group(1), m.start(1)))
        pos = m.end()
    return out


class _Parser(_TokenParser):
    def __init__(self, text: str, pi: Supernatural | None):
        super().__init__(text, _tokenize(text))
        self.pi = pi

    def parse(self) -> Pseudonumber:
        value = self.product(self.sign())
        while self.peek() in ("+", "-"):
            op = self.take()
            value = value + self.product(1 if op == "+" else -1)
        return self.finish(value)

    def sign(self) -> int:
        if self.peek() in ("+", "-"):
            return 1 if self.take() == "+" else -1
        return 1

    def product(self, sign: int) -> Pseudonumber:
        value = from_integer(sign) * self.atom()
        while self.peek() == "*":
            self.take()
            value = value * self.atom()
        return value

    def atom(self) -> Pseudonumber:
        tok = self.peek()
        if tok == "[":
            return self.bracket()
        if tok is not None and tok.isdigit():
            return from_integer(_literal(self.take()))
        raise InputError(
            f"expected an integer or [base^(w-k)] in {self.text!r}, got {tok!r}"
        )

    def bracket(self) -> Pseudonumber:
        self.take("[")
        tok = self.take()
        if not tok.isdigit():
            raise InputError(f"expected a base inside [...] in {self.text!r}")
        base = _literal(tok)
        self.take("^")
        self.take("(")
        self.take("w")
        self.take("-")
        tok = self.take()
        if not tok.isdigit():
            raise InputError(f"expected an offset after w- in {self.text!r}")
        offset = _literal(tok)
        self.take(")")
        self.take("]")
        if self.pi is None:
            raise InputError("a supernatural number is required to parse terms")
        return omega_power(self.pi, base, offset)


def reference_parse(text, pi=None) -> Pseudonumber:
    if not isinstance(text, str):
        raise InputError(f"a pseudonumber must be given as text, got {type(text).__name__}")
    return _Parser(text, pi).parse()


# -- comparison ----------------------------------------------------------------


def outcome(parse, text, pi):
    try:
        u = parse(text, pi)
    except Exception as exc:  # the type and message are what is compared
        return ("error", type(exc), str(exc))
    return ("value", u.const, u.terms, u.pi)


def expected_outcome(text, pi):
    """The reference's outcome, read past trailing whitespace."""
    want = outcome(reference_parse, text, pi)
    if want[0] == "error" and want[2].startswith("bad character at position"):
        where = int(want[2].split()[4])
        stripped = text[:where]
        if not text[where:].strip():
            want = outcome(reference_parse, stripped, pi)
            if want[0] == "error":
                message = want[2].replace(f" in {stripped!r}", f" in {text!r}", 1)
                want = ("error", want[1], message)
    return want


ERROR_KINDS = {
    "must be given as text": "non-text",
    "bad character": "bad character",
    "digits is too long": "literal too long",
    "need base >= 1": "base or offset below 1",
    "a supernatural number is required": "no ambient",
    "of infinite exponent": "signature",
    "unexpected end of input": "end of input",
    "expected a base inside": "no base",
    "expected an offset after": "no offset",
    "expected an integer or": "no atom",
    "trailing": "trailing",
}


def check(text, pi, seen=None):
    want = expected_outcome(text, pi)
    got = outcome(parse_pseudonumber, text, pi)
    assert got == want, (text, str(pi))
    if seen is not None:
        if want[0] == "value":
            seen.add("value")
        else:
            kinds = [kind for key, kind in ERROR_KINDS.items() if key in want[2]]
            if re.search(r"expected '.' at position", want[2]):
                kinds.append("expected token")
            assert len(kinds) == 1, want
            seen.add(kinds[0])


AMBIENTS = [
    None,
    parse_supernatural("default=0"),
    parse_supernatural("default=inf"),
    parse_supernatural("2^1,3^inf;default=0"),
    parse_supernatural("2^3,3^2,5^inf,7^1;default=0"),
    parse_supernatural("2^2,3^1,5^0;default=inf"),
    parse_supernatural("3^inf;default=0"),
]

ALPHABET = "0123456789[]^()w+-* "
STRAY = "x\t\n\x1c\u00a0W_.,٣²é/"


def written_forms(rng, u):
    """str(u), and u with c*[b^(w-k)] written as c*b^j*[b^(w-k-j)], the
    constant split, the summands shuffled and spaced at random."""
    yield str(u)
    parts = []
    for t in u.terms:
        j = rng.randint(0, 2)
        parts.append(f"{t.coeff}*{t.base ** j}*[{t.base}^(w-{t.offset + j})]")
    split = rng.randint(-9, 9)
    parts += [str(split), str(u.const - split)]
    rng.shuffle(parts)
    text = " + ".join(parts).replace("+ -", "- ")
    yield text
    yield "".join(c + " " * rng.randint(0, 2) for c in text)


def products(rng):
    """Summands multiplying constants and up to three brackets in any order,
    including base 1, perfect powers and zero factors."""
    summands = []
    for _ in range(rng.randint(1, 3)):
        atoms = []
        for _ in range(rng.randint(1, 4)):
            if rng.random() < 0.5:
                atoms.append(str(rng.choice((0, 1, 2, 3, 7, 12, 50))))
            else:
                base = rng.choice((1, 2, 3, 4, 6, 8, 9, 10, 12, 16, 18, 25, 27, 36))
                atoms.append(f"[{base}^(w-{rng.randint(1, 3)})]")
        summands.append("*".join(atoms))
    return rng.choice(("", "-", "+")) + " - ".join(summands)


def mutations(rng, text):
    """Texts one or two edits away, over the grammar's alphabet and strays."""
    pool = ALPHABET + STRAY
    for _ in range(6):
        chars = list(text)
        for _ in range(rng.randint(1, 2)):
            where = rng.randint(0, len(chars))
            roll = rng.random()
            if roll < 0.35 and where < len(chars):
                del chars[where]
            elif roll < 0.7:
                chars.insert(where, rng.choice(pool))
            elif where < len(chars):
                chars[where] = rng.choice(pool)
        yield "".join(chars)
    yield text[: rng.randint(0, len(text))]


FIXED = [
    "",
    " ",
    "3",
    "-3",
    "+3",
    "--3",
    "3 +",
    "3 4",
    "3 [2^(w-1)]",
    "[2^(w-1)] 3",
    "3 + x",
    "  3",
    "3 ",
    "3\n",
    "[2^(w-1)] ",
    "3 +  ",
    "] ",
    "[ 2 ^ ( w - 1 ) ]",
    "[6^(w)]",
    "[6^(w-0)]",
    "[0^(w-1)]",
    "[1^(w-4)]",
    "[4^",
    "[",
    "[[2^(w-1)]",
    "[2^[3^(w-1)]",
    "[2^(w-[3^(w-1)]",
    "[2^(w-w)]",
    "[w^(w-1)]",
    "2 ** 3",
    "2^3",
    "w",
    "*3",
    "3*",
    "(3)",
    "[2^(w-1)]]",
    "0*[3^(w-1)]",
    "[3^(w-1)] - [3^(w-1)]",
    "[9^(w-1)] + 2*[3^(w-2)]",
    "[2^(w-1)]*[3^(w-2)]*[6^(w-1)]",
    "[2^(w-1)]*[8^(w-1)]",
    "٣*[٢^(w-١)]",
    "²",
    "[2^(w-1)]*x",
    "3" * 5000,
    "1 + " + "3" * 5000 + " + x",
    "[" + "2" * 5000 + "^(w-1)]",
    "[2^(w-" + "1" * 5000 + ")]",
    "[" + "2" * 5000 + "^",
    "5 + [3^(w-1)] + " + "7" * 5000,
    # integer literals, read on the parser's direct path or falling through
    "0",
    "-0",
    "+7",
    " - 7 ",
    "007",
    "\t12\n",
    "٣",
    "-٣٢",
    "5 5",
    "--5",
    "+",
    "-",
    "- ",
    "2²",
    "9" * sys.get_int_max_str_digits(),
    "-" + "9" * (sys.get_int_max_str_digits() + 1),
    " + " + "9" * (sys.get_int_max_str_digits() + 1) + " ",
]


def test_matches_reference_on_fixed_texts():
    seen = set()
    for pi in AMBIENTS:
        for text in FIXED:
            check(text, pi, seen)
    check(3, None, seen)
    check(None, AMBIENTS[1], seen)
    assert seen == {"value", "expected token", *ERROR_KINDS.values()}


def test_matches_reference_on_seeded_texts():
    rng = random.Random(20261018)
    seen = set()
    for _ in range(250):
        pi = random_supernatural(rng) if rng.random() < 0.6 else rng.choice(AMBIENTS[1:])
        texts = list(written_forms(rng, random_pseudonumber(rng, pi)))
        texts.append(products(rng))
        for text in list(texts):
            texts += mutations(rng, text)
        for text in texts:
            check(text, pi, seen)
            check(text, None, seen)
    assert seen == {"value", "expected token", *ERROR_KINDS.values()} - {
        "non-text",
        "literal too long",
    }


@st.composite
def grammar_texts(draw):
    """Mostly well-formed values, spaced and occasionally corrupted."""
    space = st.sampled_from(("", "", " ", "  ", "\t", "\n"))
    number = st.integers(0, 40).map(str)
    bracket = st.builds(
        lambda b, k, s: f"[{s}{b}{s}^{s}({s}w{s}-{s}{k}{s}){s}]",
        st.integers(0, 40),
        st.integers(0, 4),
        space,
    )
    atom = st.one_of(number, bracket, st.sampled_from(list(ALPHABET + STRAY)))
    product = st.lists(atom, min_size=1, max_size=4).flatmap(
        lambda atoms: space.map(lambda s: f"{s}*{s}".join(atoms))
    )
    summands = draw(st.lists(product, min_size=1, max_size=4))
    signs = draw(st.lists(st.sampled_from(("+", "-")), min_size=len(summands), max_size=len(summands)))
    text = draw(st.sampled_from(("", "-", "+"))) + "".join(
        (f" {sign} " if i else "") + s for i, (sign, s) in enumerate(zip(signs, summands))
    )
    return draw(space) + text + draw(space)


@settings(derandomize=True, database=None, max_examples=400, deadline=None)
@given(grammar_texts(), st.sampled_from(AMBIENTS))
def test_matches_reference_on_grammar_texts(text, pi):
    check(text, pi)


@settings(derandomize=True, database=None, max_examples=400, deadline=None)
@given(st.text(alphabet=ALPHABET + STRAY, max_size=24), st.sampled_from(AMBIENTS))
def test_matches_reference_on_arbitrary_texts(text, pi):
    check(text, pi)


@st.composite
def literal_texts(draw):
    """Signs, whitespace and digits around one literal, now and then broken
    by a second sign or literal."""
    space = st.sampled_from(("", "", " ", "  ", "\t", "\n", "\x1c", "\u00a0"))
    sign = st.sampled_from(("", "", "+", "-", "--", "+-"))
    digits = st.text(alphabet="0123456789٣٢²", max_size=8)
    stray = st.sampled_from(("", "", "", "", "5", " 5", "-", "+ 5"))
    return "".join((draw(space), draw(sign), draw(space), draw(digits), draw(stray), draw(space)))


@settings(derandomize=True, database=None, max_examples=400, deadline=None)
@given(literal_texts(), st.sampled_from(AMBIENTS))
def test_matches_reference_on_literal_texts(text, pi):
    check(text, pi)
