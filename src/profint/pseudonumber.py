"""Exact arithmetic on sigma-expressible profinite integers.

A value is a finite sum ``a0 + a1*[n1^(w-k1)] + ... + am*[nm^(w-km)]``: an
integer constant plus terms ``coeff*[base^(w-offset)]``.  The bracket
``[n^(w-k)]`` denotes the limit of ``n^(m!-k)``; its image in Z/qZ is 0 on the
part of q sharing primes with n and ``n^(-k)`` on the coprime part.  Every
prime of every base must have a finite exponent in the ambient supernatural
number, which is what makes the clearing identities below work.

Normalization (applied on construction) collapses prime-power bases via
``(p^e)^(w-k) = p^(w-e*k)``, folds base-1 terms into the constant, merges
duplicate (base, offset) keys and drops zero coefficients.  The resulting
form is canonical only structurally: two distinct normal forms may denote the
same profinite integer.  Semantic equality must go through
:mod:`profint.word_problem`.

Text form: ``3 + 2*[6^(w-2)] - [5^(w-1)]``, a signed sum of products of
integers and brackets, with whitespace allowed between tokens and around
the text.  :func:`parse_pseudonumber` reads a text that is one integer
literal, with or without a sign, by one whole-text match and builds its
value directly; any other text it reads in one pass: one regular
expression splits the text into tokens, a whole bracket ``[b^(w-k)]`` being
one token, and each summand ``c1*c2*...*[b^(w-k)]`` goes straight into the
constant or into one (base, offset, coeff) triple, so a value is constructed
once; only a summand with two or more brackets is multiplied out in the
ring.  Every bracket is checked against the ambient as it is read, even when
its coefficient is zero or cancels later, and only then.  Token positions
are worked out only for an error message, which names the first token a
left-to-right reading cannot take.  :class:`_TokenParser` is the token
cursor that those messages and the sigma-term parser of :mod:`profint.terms`
share.
"""
from __future__ import annotations

import re
from dataclasses import dataclass
from math import gcd

from ._numutil import perfect_root
from .errors import InputError, SignatureError
from .supernatural import INFINITY, Supernatural


@dataclass(frozen=True, order=True)
class Term:
    """One summand ``coeff * [base^(w-offset)]``."""

    base: int
    offset: int
    coeff: int


def _merge_ambient(a: Supernatural | None, b: Supernatural | None):
    if a is None:
        return b
    if b is None or a == b:
        return a
    raise InputError(f"mixed ambient supernatural numbers: {a} vs {b}")


def _check_signature(base: int, pi: Supernatural):
    """Every prime of the base must have finite ambient exponent.  Decided
    against the stored table only, so the base is never factored."""
    part = pi.infinite_part(base)
    if part != 1:
        raise SignatureError(
            f"base {base} has a factor {part} of infinite exponent in {pi}"
        )


class Pseudonumber:
    """Immutable normal form; supports +, -, * and integer mixing.

    `pi` is the ambient supernatural number; it is None exactly when the
    value is a plain integer (no terms), which is compatible with any
    ambient.  `_checked` is for the parser, which has checked every base
    against pi already, in token order.
    """

    __slots__ = ("const", "terms", "pi")

    def __init__(self, const=0, terms=(), pi: Supernatural | None = None, *, _checked=False):
        if not isinstance(const, int):
            raise InputError(f"constant must be an integer, got {const!r}")
        if not terms:  # a plain integer: nothing to normalize or check
            object.__setattr__(self, "const", const)
            object.__setattr__(self, "terms", ())
            object.__setattr__(self, "pi", None)
            return
        merged: dict[tuple[int, int], int] = {}
        for t in terms:
            base, offset, coeff = (t.base, t.offset, t.coeff) if isinstance(t, Term) else t
            if coeff == 0:
                continue
            if base < 1 or offset < 1:
                raise InputError(f"term needs base >= 1 and offset >= 1, got ({base}, {offset})")
            if base == 1:
                const += coeff
                continue
            root, power = perfect_root(base)
            if power > 1:
                # (n^e)^(w-k) = n^(w-e*k); in particular prime powers collapse
                base, offset = root, power * offset
            key = (base, offset)
            merged[key] = merged.get(key, 0) + coeff
        cleaned = tuple(
            Term(base, offset, coeff)
            for (base, offset), coeff in sorted(merged.items())
            if coeff
        )
        if cleaned:
            if pi is None:
                raise InputError("terms require an ambient supernatural number")
            if not _checked:
                for t in cleaned:
                    _check_signature(t.base, pi)
        object.__setattr__(self, "const", const)
        object.__setattr__(self, "terms", cleaned)
        object.__setattr__(self, "pi", pi if cleaned else None)

    def __setattr__(self, name, value):
        raise AttributeError("Pseudonumber is immutable")

    # -- ring operations ----------------------------------------------------

    def _coerce(self, other):
        if isinstance(other, Pseudonumber):
            return other
        if isinstance(other, int):
            return Pseudonumber(other)
        return None

    def __add__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return Pseudonumber(
            self.const + other.const,
            self.terms + other.terms,
            _merge_ambient(self.pi, other.pi),
        )

    __radd__ = __add__

    def __neg__(self):
        return Pseudonumber(
            -self.const,
            tuple(Term(t.base, t.offset, -t.coeff) for t in self.terms),
            self.pi,
        )

    def __sub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        raw = []
        for t in self.terms:
            raw.append((t.base, t.offset, t.coeff * other.const))
        for s in other.terms:
            raw.append((s.base, s.offset, s.coeff * self.const))
        for t in self.terms:
            for s in other.terms:
                if t.base == s.base:
                    raw.append((t.base, t.offset + s.offset, t.coeff * s.coeff))
                else:
                    hi, lo = (t, s) if t.offset >= s.offset else (s, t)
                    # n1^(w-k1) n2^(w-k2) = n2^(k1-k2) (n1 n2)^(w-k1), k1 >= k2
                    raw.append((
                        t.base * s.base,
                        hi.offset,
                        t.coeff * s.coeff * lo.base ** (hi.offset - lo.offset),
                    ))
        return Pseudonumber(
            self.const * other.const, raw, _merge_ambient(self.pi, other.pi)
        )

    __rmul__ = __mul__

    # -- structure ----------------------------------------------------------

    def __eq__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return (
            self.const == other.const
            and self.terms == other.terms
            and self.pi == other.pi
        )

    def __hash__(self):
        if not self.terms:
            return hash(self.const)  # consistent with __eq__ against plain ints
        return hash((self.const, self.terms, self.pi))

    def __bool__(self):
        return bool(self.const or self.terms)

    def __str__(self):
        parts = []
        if self.const or not self.terms:
            parts.append(str(self.const))
        for t in self.terms:
            body = f"[{t.base}^(w-{t.offset})]"
            mag = abs(t.coeff)
            if mag != 1:
                body = f"{mag}*{body}"
            if not parts:
                parts.append(body if t.coeff > 0 else f"-{body}")
            else:
                parts.append(("+ " if t.coeff > 0 else "- ") + body)
        return " ".join(parts)

    def __repr__(self):
        return f"Pseudonumber({str(self)!r})"


def from_integer(a: int) -> Pseudonumber:
    return Pseudonumber(a)


def integer_combination(const: int, pairs) -> Pseudonumber:
    """``const + sum k*u`` over the (k, u) pairs, with integers k and
    pseudonumbers or plain integers u, built in one construction.

    Its normal form is the one the ring operations reach: k*u scales the
    constant and every coefficient of u, and a sum merges the (base, offset)
    keys.  A pair with k = 0 contributes nothing, not even its ambient; the
    others must share one.  Every base comes from a value already checked
    over that ambient, so none is checked again.
    """
    pi, triples = None, []
    for k, u in pairs:
        if not k:
            continue
        if isinstance(u, int):
            const += k * u
            continue
        if not isinstance(u, Pseudonumber):
            raise InputError(f"expected a pseudonumber or integer, got {u!r}")
        const += k * u.const
        if u.terms:
            pi = _merge_ambient(pi, u.pi)
            triples.extend((t.base, t.offset, k * t.coeff) for t in u.terms)
    return Pseudonumber(const, triples, pi, _checked=True)


def _check_exponents(base: int, offset: int):
    if base < 1 or offset < 1:
        raise InputError(f"need base >= 1 and offset >= 1, got ({base}, {offset})")


def omega_power(pi: Supernatural, base: int, offset: int = 1) -> Pseudonumber:
    """The value ``[base^(w-offset)]``; every prime of base must have finite
    exponent in pi.  base = 1 collapses to the integer 1."""
    _check_exponents(base, offset)
    return Pseudonumber(0, ((base, offset, 1),), pi)


def omega_closure(pi: Supernatural, base: int) -> Pseudonumber:
    """The idempotent ``base^w``, materialized as ``base * [base^(w-1)]``."""
    if base == 1:
        return Pseudonumber(1)
    return from_integer(base) * omega_power(pi, base, 1)


def _resolve_ambient(pi: Supernatural | None, u: Pseudonumber) -> Supernatural:
    pi = _merge_ambient(pi, u.pi)
    if pi is None:
        raise InputError("an ambient supernatural number is required")
    return pi


def check_modulus(n: int, pi: Supernatural):
    if n < 1:
        raise InputError(f"modulus must be positive, got {n}")
    if not pi.divisible_by(n):
        raise InputError(f"modulus {n} does not divide {pi}")


def _term_residue(base: int, offset: int, n: int) -> int:
    """Image of [base^(w-offset)] in Z/nZ: 0 on the part of n sharing primes
    with base, base^(-offset) on the coprime part, glued by CRT."""
    rest = n
    g = gcd(rest, base)
    while g > 1:
        rest //= g
        g = gcd(rest, base)
    shared = n // rest
    if rest == 1:
        return 0
    inv = pow(base, -offset, rest)
    if shared == 1:
        return inv
    return inv * shared * pow(shared, -1, rest) % n


def eval_mod(u: Pseudonumber, n: int, pi: Supernatural | None = None) -> int:
    """Ring-homomorphic image of u in Z/nZ, for n dividing the ambient."""
    pi = _resolve_ambient(pi, u) if (u.terms or pi is not None) else None
    if pi is not None:
        check_modulus(n, pi)
    elif n < 1:
        raise InputError(f"modulus must be positive, got {n}")
    return _residue(u, n)


def _residue(u: Pseudonumber, n: int) -> int:
    """eval_mod without its checks, for a caller that has checked n against
    the ambient once for many values."""
    total = u.const % n
    for t in u.terms:
        total = (total + t.coeff * _term_residue(t.base, t.offset, n)) % n
    return total


def clearing_factor(pi: Supernatural, u: Pseudonumber) -> tuple[int, int]:
    """A positive integer c with c*u equal to an integer across the whole
    family of groups, and that integer value.

    c is the product of base^(offset+slack) over the terms, where slack is
    the largest (finite) ambient exponent among the primes of the bases.
    Multiplying term by term, base^(w+slack) collapses to base^slack, which
    yields the returned integer.  Every prime of c has finite exponent.
    """
    if not u.terms:
        return 1, u.const
    _resolve_ambient(pi, u)
    # the largest stored exponent among the primes of the bases; unlisted
    # primes contribute the default, which is 0 on any admissible base
    slack = max(
        (
            e
            for p, e in pi.table
            if e != INFINITY and any(t.base % p == 0 for t in u.terms)
        ),
        default=0,
    )
    c = 1
    for t in u.terms:
        c *= t.base ** (t.offset + slack)
    value = c * u.const
    for t in u.terms:
        value += t.coeff * (c // t.base ** (t.offset + slack)) * t.base ** slack
    return c, value


# -- text form ---------------------------------------------------------------

# a whole text that is one integer literal: (sign, digits)
_INTEGER = re.compile(r"\s*([+-]?)\s*(\d+)\s*")
_BAD_CHARACTER = re.compile(r"[^\s\d\[\]^()w+*-]")
# (token, base, offset); base and offset are set exactly when the token is
# a whole bracket, whose token text starts with its '['
_TOKEN = re.compile(
    r"\s*(\[\s*(\d+)\s*\^\s*\(\s*w\s*-\s*(\d+)\s*\)\s*\]|\d+|[][^()w+*-])"
)


def _literal(token: str) -> int:
    try:
        return int(token)
    except ValueError:  # longer than the interpreter's int/str digit limit
        raise InputError(f"integer literal of {len(token)} digits is too long") from None


class _TokenParser:
    """Cursor over a token list of (token, position) pairs: the sigma-term
    parser reads with it, and the pseudonumber parser's error messages name
    the token it stops at."""

    def __init__(self, text: str, tokens):
        self.text = text
        self.tokens = tokens
        self.pos = 0

    def peek(self):
        return self.tokens[self.pos][0] if self.pos < len(self.tokens) else None

    def take(self, expected=None):
        if self.pos >= len(self.tokens):
            raise InputError(f"unexpected end of input in {self.text!r}")
        tok, where = self.tokens[self.pos]
        if expected is not None and tok != expected:
            raise InputError(
                f"expected {expected!r} at position {where} in {self.text!r}, got {tok!r}"
            )
        self.pos += 1
        return tok

    def finish(self, result):
        """The result, once every token has been consumed."""
        if self.pos != len(self.tokens):
            tok, where = self.tokens[self.pos]
            raise InputError(f"trailing {tok!r} at position {where} in {self.text!r}")
        return result


def _cursor_at(text: str, index: int) -> _TokenParser:
    """A cursor on the index-th token, a whole bracket counting as its '['."""
    cursor = _TokenParser(
        text, [(m[1][0] if m[2] else m[1], m.start(1)) for m in _TOKEN.finditer(text)]
    )
    cursor.pos = index
    return cursor


def _broken_bracket(cursor: _TokenParser):
    """Raise the error for a '[' at the cursor that opens no whole bracket."""
    cursor.take("[")
    tok = cursor.take()
    if not tok.isdigit():
        raise InputError(f"expected a base inside [...] in {cursor.text!r}")
    _literal(tok)
    for expected in "^(w-":
        cursor.take(expected)
    tok = cursor.take()
    if not tok.isdigit():
        raise InputError(f"expected an offset after w- in {cursor.text!r}")
    _literal(tok)
    cursor.take(")")
    cursor.take("]")
    raise AssertionError(f"a whole bracket in {cursor.text!r} was not read as one token")


def _bracket(base: str, offset: str, pi: Supernatural | None):
    """The normal (base, offset) of ``[base^(w-offset)]``, or None when it is
    the integer 1; checked as :func:`omega_power` checks it."""
    base, offset = _literal(base), _literal(offset)
    if pi is None:
        raise InputError("a supernatural number is required to parse terms")
    _check_exponents(base, offset)
    if base == 1:
        return None
    root, power = perfect_root(base)
    _check_signature(root, pi)
    return root, power * offset


def parse_pseudonumber(text: str, pi: Supernatural | None = None) -> Pseudonumber:
    """Parse ``3 + 2*[6^(w-2)] - [5^(w-1)]``; bases are validated against pi.

    Grammar: ``value := [sign] product {sign product}``, ``product := atom
    {'*' atom}``, ``atom := integer | [base^(w-offset)]``; whitespace may
    stand between any two tokens and around the text.
    """
    if not isinstance(text, str):
        raise InputError(f"a pseudonumber must be given as text, got {type(text).__name__}")
    integer = _INTEGER.fullmatch(text)
    if integer is not None:
        value = _literal(integer[2])
        return Pseudonumber(-value if integer[1] == "-" else value)
    bad = _BAD_CHARACTER.search(text)
    if bad is not None:
        where = len(text[: bad.start()].rstrip())
        raise InputError(f"bad character at position {where} in {text!r}")
    tokens = _TOKEN.findall(text)
    count, i = len(tokens), 0
    const, triples, sign = 0, [], 1
    if count and tokens[0][0] in ("+", "-"):
        sign, i = (1 if tokens[0][0] == "+" else -1), 1
    while True:
        coeff, brackets = sign, []
        while True:
            tok, base, offset = tokens[i] if i < count else (None, "", "")
            if base:
                bracket = _bracket(base, offset, pi)
                if bracket is not None:
                    brackets.append(bracket)
            elif tok is not None and tok.isdigit():
                coeff *= _literal(tok)
            elif tok == "[":
                _broken_bracket(_cursor_at(text, i))
            else:
                raise InputError(f"expected an integer or [base^(w-k)] in {text!r}, got {tok!r}")
            i += 1
            if i == count or tokens[i][0] != "*":
                break
            i += 1
        if not brackets:
            const += coeff
        elif len(brackets) == 1:
            triples.append((*brackets[0], coeff))
        elif coeff:
            # the normal form depends on the order of the ring products, so
            # multiply as written; scaling by coeff != 0 commutes with them
            product = Pseudonumber(1)
            for base, offset in brackets:
                product = product * omega_power(pi, base, offset)
            const += coeff * product.const
            triples.extend((t.base, t.offset, coeff * t.coeff) for t in product.terms)
        if i == count:
            # each bracket was checked as it was read, and a merged base has
            # the primes of checked ones (a perfect root, a product of bases)
            return Pseudonumber(const, triples, pi, _checked=True)
        tok = tokens[i][0]
        if tok not in ("+", "-"):
            _cursor_at(text, i).finish(None)
        sign = 1 if tok == "+" else -1
        i += 1
