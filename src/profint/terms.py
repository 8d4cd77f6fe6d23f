"""Sigma-term syntax over a finite variable set, with abelianization.

Grammar (products left-associative, postfix powers bind tighter):

    term   := factor {['*'] factor}
    factor := atom ['^' '(' power ')']
    atom   := varname | '(' term ')'
    power  := 'w-1' | prime '^' '(' 'w-1' ')'

In the commutative image a term becomes a linear form over the variables:
a variable contributes a unit coefficient, products add, the (w-1) power
negates, and the prime power scales by [p^(w-1)].
"""
from __future__ import annotations

import re
from dataclasses import dataclass

from ._numutil import is_prime
from .errors import InputError, SignatureError
from .pseudonumber import Pseudonumber, _literal, _TokenParser, from_integer, omega_power
from .supernatural import Supernatural


class SigmaTerm:
    """Abstract syntax tree node."""

    __slots__ = ()

    def variables(self) -> set[str]:
        raise NotImplementedError


@dataclass(frozen=True)
class Var(SigmaTerm):
    name: str

    def variables(self):
        return {self.name}

    def __str__(self):
        return self.name


@dataclass(frozen=True)
class Product(SigmaTerm):
    left: SigmaTerm
    right: SigmaTerm

    def variables(self):
        return self.left.variables() | self.right.variables()

    def __str__(self):
        return f"{self.left}*{self.right}"


@dataclass(frozen=True)
class OmegaInv(SigmaTerm):
    child: SigmaTerm

    def variables(self):
        return self.child.variables()

    def __str__(self):
        return f"({self.child})^(w-1)"


@dataclass(frozen=True)
class PrimePower(SigmaTerm):
    child: SigmaTerm
    prime: int

    def variables(self):
        return self.child.variables()

    def __str__(self):
        return f"({self.child})^({self.prime}^(w-1))"


_TERM_TOKEN = re.compile(r"\s*(?:([A-Za-z_][A-Za-z_0-9]*|\d+|[()^*-])|(\S))")


def _is_name(tok):
    return tok is not None and tok[0].isidentifier()


def _tokenize(text: str):
    tokens = []
    for m in _TERM_TOKEN.finditer(text):
        if m[2]:
            raise InputError(f"bad character at position {m.start(2)} in {text!r}")
        tokens.append((m[1], m.start(1)))
    return tokens


class _TermParser(_TokenParser):
    def __init__(self, text: str, variables):
        super().__init__(text, _tokenize(text))
        self.variables = tuple(variables)
        if "w" in self.variables:
            raise InputError("'w' is reserved and cannot be a variable name")

    def parse(self) -> SigmaTerm:
        return self.finish(self.term())

    def term(self) -> SigmaTerm:
        node = self.factor()
        while (tok := self.peek()) in ("*", "(") or _is_name(tok):
            if tok == "*":
                self.take()
            node = Product(node, self.factor())
        return node

    def factor(self) -> SigmaTerm:
        node = self.atom()
        if self.peek() == "^":
            self.take("^")
            self.take("(")
            node = self.power(node)
            self.take(")")
        return node

    def atom(self) -> SigmaTerm:
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

    def power(self, node: SigmaTerm) -> SigmaTerm:
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


def parse_term(text: str, variables) -> SigmaTerm:
    """Parse a sigma-term over the declared variable names."""
    if not isinstance(text, str):
        raise InputError(f"a sigma-term must be given as text, got {type(text).__name__}")
    return _TermParser(text, variables).parse()


def abelianize(pi: Supernatural, term: SigmaTerm, variables) -> dict[str, Pseudonumber]:
    """Coefficient vector of the term in the commutative image, indexed by
    the declared variables.

    Var -> unit vector; Product -> componentwise sum; the (w-1) power negates
    every coefficient; the p^(w-1) power scales by [p^(w-1)] and requires p
    to have finite ambient exponent.
    """
    variables = tuple(variables)
    unknown = term.variables() - set(variables)
    if unknown:
        raise InputError(f"term uses undeclared variables: {sorted(unknown)}")

    def walk(node) -> dict[str, int | Pseudonumber]:
        # plain ints until a p^(w-1) power needs its bracket
        if isinstance(node, Var):
            return {node.name: 1}
        if isinstance(node, Product):
            left, right = walk(node.left), walk(node.right)
            for name, coeff in right.items():
                left[name] = left.get(name, 0) + coeff
            return left
        if isinstance(node, OmegaInv):
            return {name: -coeff for name, coeff in walk(node.child).items()}
        if isinstance(node, PrimePower):
            if not pi.is_finite_at(node.prime):
                raise SignatureError(
                    f"power {node.prime}^(w-1) is outside the signature for {pi}"
                )
            scale = omega_power(pi, node.prime, 1)
            return {name: scale * coeff for name, coeff in walk(node.child).items()}
        raise InputError(f"unknown node {node!r}")

    sparse = walk(term)
    coeffs = {name: sparse.get(name, 0) for name in variables}
    return {
        name: c if isinstance(c, Pseudonumber) else from_integer(c) for name, c in coeffs.items()
    }
