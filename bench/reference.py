"""A fixed piece of Python work that does not touch profint, timed between
the requests so that run.py can express every time at one reference speed of
the machine (see run.py).  It mixes what profint's requests spend their time
on: tokenizing and parsing small expressions into objects and dictionaries,
function calls and small tuples, big-integer products, remainders and gcds,
and printing a big integer."""
from __future__ import annotations

from math import gcd
from time import thread_time

#: CPU milliseconds the kernel takes at the reference speed
REFERENCE_MS = 2.0


class _Token:
    __slots__ = ("kind", "text")

    def __init__(self, kind: str, text: str):
        self.kind, self.text = kind, text


def _parse(text: str) -> tuple:
    spaced = text.replace("(", " ( ").replace(")", " ) ").replace("[", " [ ").replace("]", " ] ")
    tokens = [_Token("num" if part.isdigit() else "op", part) for part in spaced.split()]
    merged, sign = {}, 1
    for j, token in enumerate(tokens):
        if token.kind == "op" and token.text in "+-":
            sign = 1 if token.text == "+" else -1
        elif token.kind == "num":
            key = (int(token.text), j % 3)
            merged[key] = merged.get(key, 0) + sign
    return tuple((b, o, c) for (b, o), c in sorted(merged.items()) if c)


def _step(a: int, i: int) -> tuple:
    return a % 1000003, gcd(a, 6 ** (i % 40))


def kernel() -> int:
    total = 0
    for i in range(45):
        terms = _parse(f"{i} + {i % 7}*[{i % 13 + 2}^(w-{i % 3 + 1})] - [{i % 5 + 2}^(w-2)] + 3*[6^(w-1)]")
        total += len(terms) + sum(c for _, _, c in terms)
    big, table = 3**700, {}
    for i in range(1, 320):
        a = big * i + total
        r, g = _step(a, i)
        table[i % 61, i % 7] = g
        total = (total + r) ^ i
        if i % 25 == 0:
            total += len(str(a >> 900))
    return total + len(table)


def reference_ms() -> float:
    """CPU milliseconds one run of the kernel takes now."""
    start = thread_time()
    kernel()
    return (thread_time() - start) * 1e3
