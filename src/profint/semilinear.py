"""Semilinear constraint sets over tuples of naturals, their closures as
coset unions over the sigma-expressible ring, sums and membership.

A linear branch is ``base + period_1*N + ... + period_l*N``; a semilinear set
is a finite union of branches over a shared alphabet.  Its closure keeps the
same bases and periods but lets the coefficients range over the whole
sigma-expressible ring, so membership reduces to linear system solving.

Text form: branches separated by ``|``, e.g. ``(1,0)+(2,1)N | (0,3)+(1,1)N``.
Closures print with a ``Z`` suffix instead of ``N``.
"""
from __future__ import annotations

import re
from dataclasses import dataclass

from .errors import InputError
from .pseudonumber import Pseudonumber, _literal, from_integer
from .solver import SigmaMatrix, solve_system
from .supernatural import Supernatural
from .word_problem import equal_vectors


def _default_alphabet(width: int) -> tuple[str, ...]:
    if width <= 26:
        return tuple("abcdefghijklmnopqrstuvwxyz"[:width])
    return tuple(f"a{i}" for i in range(width))


@dataclass(frozen=True)
class LinearSet:
    """One branch: base vector plus natural multiples of the periods."""

    base: tuple[int, ...]
    periods: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        base = tuple(int(x) for x in self.base)
        periods = tuple(tuple(int(x) for x in p) for p in self.periods)
        if any(x < 0 for x in base) or any(x < 0 for p in periods for x in p):
            raise InputError("bases and periods must be vectors of naturals")
        if any(len(p) != len(base) for p in periods):
            raise InputError("period width does not match the base")
        if any(not any(p) for p in periods):
            raise InputError("periods must be nonzero vectors")
        object.__setattr__(self, "base", base)
        object.__setattr__(self, "periods", periods)

    @property
    def width(self) -> int:
        return len(self.base)


@dataclass(frozen=True)
class SemilinearSet:
    """Finite union of linear branches over a shared alphabet; the empty
    union is the empty set."""

    alphabet: tuple[str, ...]
    branches: tuple[LinearSet, ...]

    def __post_init__(self):
        alphabet = tuple(self.alphabet)
        branches = tuple(self.branches)
        if not alphabet:
            raise InputError("alphabet must be nonempty")
        if not all(isinstance(letter, str) for letter in alphabet):
            raise InputError("alphabet letters must be text")
        if len(set(alphabet)) != len(alphabet):
            raise InputError("alphabet letters must be distinct")
        if any(b.width != len(alphabet) for b in branches):
            raise InputError("branch width does not match the alphabet")
        object.__setattr__(self, "alphabet", alphabet)
        object.__setattr__(self, "branches", branches)

    def is_empty(self) -> bool:
        return not self.branches

    def __add__(self, other: "SemilinearSet") -> "SemilinearSet":
        """Pairwise sums of branches: bases add, period lists concatenate."""
        if not isinstance(other, SemilinearSet):
            return NotImplemented
        if self.alphabet != other.alphabet:
            raise InputError("alphabet mismatch")
        branches = tuple(
            LinearSet(
                tuple(x + y for x, y in zip(a.base, b.base)),
                a.periods + b.periods,
            )
            for a in self.branches
            for b in other.branches
        )
        return SemilinearSet(self.alphabet, branches)

    def __str__(self):
        if not self.branches:
            return "empty"
        return " | ".join(_branch_text(b, "N") for b in self.branches)


@dataclass(frozen=True)
class ClosedCosetUnion:
    """Branches reinterpreted with ring coefficients: base + sum period*ring."""

    alphabet: tuple[str, ...]
    branches: tuple[LinearSet, ...]
    pi: Supernatural

    def __add__(self, other: "ClosedCosetUnion") -> "ClosedCosetUnion":
        if not isinstance(other, ClosedCosetUnion):
            return NotImplemented
        if self.alphabet != other.alphabet or self.pi != other.pi:
            raise InputError("alphabet or ambient mismatch")
        summed = SemilinearSet(self.alphabet, self.branches) + SemilinearSet(
            other.alphabet, other.branches
        )
        return ClosedCosetUnion(self.alphabet, summed.branches, self.pi)

    def __str__(self):
        if not self.branches:
            return "empty"
        return " | ".join(_branch_text(b, "Z") for b in self.branches)


def _branch_text(branch: LinearSet, suffix: str) -> str:
    head = "(" + ",".join(str(x) for x in branch.base) + ")"
    tails = [
        "(" + ",".join(str(x) for x in p) + ")" + suffix for p in branch.periods
    ]
    return "+".join([head] + tails)


def closure(pi: Supernatural, sls: SemilinearSet) -> ClosedCosetUnion:
    """Branchwise reinterpretation of the natural-number periods as ring
    periods; bases and periods are unchanged."""
    return ClosedCosetUnion(sls.alphabet, sls.branches, pi)


def plus_closure_generators(sls: SemilinearSet) -> SemilinearSet:
    """A single-branch set whose closure is the closure of the additive
    hull of sls: base 0, periods all nonzero bases and all periods.

    Only the closure of the result is meaningful; the exact natural-number
    semantics of the additive hull differ.
    """
    if sls.is_empty():
        raise InputError("the empty set has no additive hull")
    width = len(sls.alphabet)
    periods = []
    for branch in sls.branches:
        if any(branch.base):
            periods.append(branch.base)
        periods.extend(branch.periods)
    seen, unique = set(), []
    for p in periods:
        if p not in seen:
            seen.add(p)
            unique.append(p)
    return SemilinearSet(
        sls.alphabet, (LinearSet((0,) * width, tuple(unique)),)
    )


@dataclass(frozen=True)
class MembershipWitness:
    branch: int
    coefficients: tuple[Pseudonumber, ...]


def member_of_closure(pi: Supernatural, vector, cosets: ClosedCosetUnion):
    """First branch (input order) whose coset contains the vector, with ring
    coefficients for its periods; None when no branch admits a solution."""
    vector = [
        x if isinstance(x, Pseudonumber) else from_integer(x) for x in vector
    ]
    if len(vector) != len(cosets.alphabet):
        raise InputError("vector width does not match the alphabet")
    for index, branch in enumerate(cosets.branches):
        gap = [x - from_integer(b) for x, b in zip(vector, branch.base)]
        if not branch.periods:
            if equal_vectors(pi, gap, [0] * len(gap)):
                return MembershipWitness(index, ())
            continue
        columns = SigmaMatrix(
            [
                [branch.periods[j][a] for j in range(len(branch.periods))]
                for a in range(len(cosets.alphabet))
            ],
            pi,
        )
        outcome = solve_system(pi, columns, gap)
        if outcome:
            return MembershipWitness(index, tuple(outcome))
    return None


_TUPLE = re.compile(r"\(\s*(-?\d+(?:\s*,\s*-?\d+)*)\s*\)")


def parse_semilinear(text: str, alphabet=None) -> SemilinearSet:
    """Parse ``(1,0)+(2,1)N | (0,3)+(1,1)N+(0,2)N``; bare integers are
    accepted as one-letter tuples.  ``empty`` denotes the empty set (the
    alphabet must then be supplied)."""
    if not isinstance(text, str):
        raise InputError(f"a semilinear set must be given as text, got {type(text).__name__}")
    body = text.strip()
    if body == "empty":
        if alphabet is None:
            raise InputError("the empty set needs an explicit alphabet")
        return SemilinearSet(tuple(alphabet), ())
    branches = []
    width = len(tuple(alphabet)) if alphabet is not None else None
    for chunk in body.split("|"):
        base, periods = _parse_branch(chunk.strip(), width)
        width = len(base)
        branches.append(LinearSet(base, periods))
    letters = tuple(alphabet) if alphabet is not None else _default_alphabet(width)
    return SemilinearSet(letters, tuple(branches))


def _parse_vector(piece: str, width):
    piece = piece.strip()
    m = _TUPLE.fullmatch(piece)
    if m:
        vec = tuple(_literal(x.strip()) for x in m.group(1).split(","))
    elif re.fullmatch(r"-?\d+", piece):
        vec = (_literal(piece),)
    else:
        raise InputError(f"bad vector {piece!r}")
    if width is not None and len(vec) != width:
        raise InputError(f"vector {piece!r} has width {len(vec)}, expected {width}")
    return vec


def _parse_branch(chunk: str, width):
    if not chunk:
        raise InputError("empty branch")
    pieces = [p.strip() for p in chunk.split("+")]
    first = pieces[0]
    periods = []
    if first.endswith(("N", "n")):
        # no explicit base: starts with a period, base defaults to zero
        base = None
    else:
        base = _parse_vector(first, width)
        width = len(base)
        pieces = pieces[1:]
    for piece in pieces:
        if not piece.endswith(("N", "n")):
            raise InputError(f"period {piece!r} must end with N")
        vec = _parse_vector(piece[:-1], width)
        width = len(vec)
        periods.append(vec)
    if base is None:
        base = (0,) * width
    return base, tuple(periods)
