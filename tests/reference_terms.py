"""The sigma-term parser with a whitespace-token lexer, kept as a reference.

`profint.terms` lexes a term in one regex pass, with no whitespace tokens,
and reads an implicit product wherever a factor starts after a factor.
Before that the lexer matched one token at a time, emitted a ``" "`` token
for each run of whitespace, and then walked the list again to keep only the
whitespace that separates two factors; the parser read a product at a ``*``,
at a kept ``" "``, or at a ``(`` or a name other than ``w``.  This is that
parser, building the same tree nodes, for the differential tests.
"""
from __future__ import annotations

import re

from profint.errors import InputError
from profint.pseudonumber import _literal, _TokenParser
from profint.terms import OmegaInv, PrimePower, Product, Var
from profint._numutil import is_prime

_TERM_TOKEN = re.compile(r"([A-Za-z_][A-Za-z_0-9]*|\d+|\^|\(|\)|\*|\-)")


def _is_name(tok):
    return tok is not None and re.fullmatch(r"[A-Za-z_]\w*", tok) is not None


def _tokenize(text: str):
    out, pos = [], 0
    while pos < len(text):
        if text[pos].isspace():
            out.append((" ", pos))
            while pos < len(text) and text[pos].isspace():
                pos += 1
            continue
        m = _TERM_TOKEN.match(text, pos)
        if not m:
            raise InputError(f"bad character at position {pos} in {text!r}")
        out.append((m.group(1), pos))
        pos = m.end()
    # keep whitespace only where it separates two factors (implicit product)
    cleaned = []
    for idx, (tok, where) in enumerate(out):
        if tok == " ":
            prev = cleaned[-1][0] if cleaned else None
            nxt = next((t for t, _ in out[idx + 1:] if t != " "), None)
            separates = (prev == ")" or _is_name(prev)) and (nxt == "(" or _is_name(nxt))
            if not separates:
                continue
        cleaned.append((tok, where))
    return cleaned


class _TermParser(_TokenParser):
    def __init__(self, text: str, variables):
        super().__init__(text, _tokenize(text))
        self.variables = tuple(variables)
        if "w" in self.variables:
            raise InputError("'w' is reserved and cannot be a variable name")

    def parse(self):
        return self.finish(self.term())

    def term(self):
        node = self.factor()
        while self.peek() in ("*", " ") or self._starts_factor():
            if self.peek() in ("*", " "):
                self.take()
            node = Product(node, self.factor())
        return node

    def _starts_factor(self):
        tok = self.peek()
        return tok == "(" or (_is_name(tok) and tok != "w")

    def factor(self):
        node = self.atom()
        if self.peek() == "^":
            self.take("^")
            self.take("(")
            node = self.power(node)
            self.take(")")
        return node

    def atom(self):
        tok = self.peek()
        if tok == "(":
            self.take("(")
            node = self.term()
            self.take(")")
            return node
        if _is_name(tok):
            self.take()
            if tok not in self.variables:
                raise InputError(f"unknown variable {tok!r} (declared: {', '.join(self.variables)})")
            return Var(tok)
        raise InputError(f"expected a variable or '(' in {self.text!r}, got {tok!r}")

    def power(self, node):
        tok = self.peek()
        if tok == "w":
            self.omega_minus_one()
            return OmegaInv(node)
        if tok is not None and tok.isdigit():
            p = _literal(self.take())
            if not is_prime(p):
                raise InputError(f"{p} is not prime in power of {self.text!r}")
            self.take("^")
            self.take("(")
            self.omega_minus_one()
            self.take(")")
            return PrimePower(node, p)
        raise InputError(f"expected w-1 or p^(w-1) in {self.text!r}, got {tok!r}")

    def omega_minus_one(self):
        self.take("w")
        self.take("-")
        if self.take() != "1":
            raise InputError(f"only the power w-1 is allowed in {self.text!r}")


def parse_term(text: str, variables):
    if not isinstance(text, str):
        raise InputError(f"a sigma-term must be given as text, got {type(text).__name__}")
    return _TermParser(text, variables).parse()
