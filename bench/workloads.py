"""The benchmark's workloads: seeded request streams, the request itself, and
an independent check of each printed answer.

A workload has three parts:

- ``requests(rng)`` yields requests forever, drawing only on ``rng``; the
  program sees nothing but the texts in a request.
- ``execute(request)`` is the timed part: it parses the texts, calls the
  public API the way the ``profint`` command does, and returns the printed
  answer as a tuple of strings.  A witness that cannot be printed raises
  here, so it counts as a failed request.
- ``check(request, printed, rng)`` runs outside the timed region and returns
  ``(ok, refuting_modulus or None)``.  It evaluates inputs and answers with
  :mod:`arith`, not with the code that produced them.
"""
from __future__ import annotations

import contextlib
import io
import itertools
import json
import sys
from math import prod
from typing import Callable, NamedTuple

import profint
import profint.cli
import profint.oracle

import arith
from arith import INF, Ambient, Value

#: exhaustive refutation checks stop at this many candidate assignments
SEARCH_LIMIT = 20_000


class Workload(NamedTuple):
    requests: Callable
    execute: Callable
    check: Callable


def rounds(rng, classes):
    """The classes in a freshly shuffled order each round, forever: every
    class gets its exact share, so the latency median stays in one class."""
    while True:
        order = list(classes)
        rng.shuffle(order)
        yield from order


def random_summands(rng, bases, count, coeff_limit, max_offset):
    """A constant and `count` terms (none when no base is admissible)."""
    terms = []
    if bases:
        for _ in range(count):
            coeff = rng.randint(1, coeff_limit) * rng.choice((1, -1))
            terms.append((rng.choice(bases), rng.randint(1, max_offset), coeff))
    return [rng.randint(-coeff_limit, coeff_limit)] + terms


def value_of(summands) -> Value:
    const = sum(s for s in summands if isinstance(s, int))
    return arith.add(Value(const, ()), Value(0, tuple(s for s in summands if not isinstance(s, int))))


# -- equality ------------------------------------------------------------------

EQ_PRIMES = (2, 3, 5, 7, 11, 13)


class EqRequest(NamedTuple):
    ambient: Ambient
    pi: str
    lhs: Value
    rhs: Value
    lhs_text: str
    rhs_text: str
    rewrite: bool


def random_ambient(rng) -> Ambient:
    table = []
    for p in EQ_PRIMES:
        roll = rng.random()
        if roll < 0.35:
            continue
        table.append((p, INF if roll < 0.55 else rng.randint(0, 4)))
    return Ambient(tuple(table), rng.random() < 0.3)


def rewritten(rng, summands):
    """The same value written differently: c*[b^(w-k)] becomes
    c*b^j*[b^(w-k-j)], constants are split, and the order is shuffled."""
    out = []
    for s in summands:
        if isinstance(s, int):
            part = rng.randint(-9, 9)
            out += [part, s - part]
        else:
            base, offset, coeff = s
            j = rng.randint(0, 2)
            out.append((base, offset + j, coeff * base**j))
    rng.shuffle(out)
    return out


def base_pool(ambient: Ambient) -> list[int]:
    """Term bases up to 30 whose primes all have finite exponent."""
    return [b for b in range(2, 31) if ambient.admissible(b)]


def equality_requests(rng):
    for rewrite in rounds(rng, (True, False)):
        ambient = random_ambient(rng)
        bases = base_pool(ambient)
        lhs = random_summands(rng, bases, rng.randint(0, 4), 50, 3)
        rhs = rewritten(rng, lhs) if rewrite else random_summands(rng, bases, rng.randint(0, 4), 50, 3)
        yield EqRequest(
            ambient, ambient.text(), value_of(lhs), value_of(rhs),
            arith.text(lhs), arith.text(rhs), rewrite,
        )


def equality_execute(req: EqRequest):
    pi = profint.parse_supernatural(req.pi)
    verdict = profint.equal_in_ab(
        pi,
        profint.parse_pseudonumber(req.lhs_text, pi),
        profint.parse_pseudonumber(req.rhs_text, pi),
    )
    if verdict:
        return ("equal",)
    return (str(verdict.witness_modulus), str(verdict.residue_u), str(verdict.residue_v))


def equality_check(req: EqRequest, printed, rng):
    if printed == ("equal",):
        return all(
            arith.residue(req.lhs, n) == arith.residue(req.rhs, n)
            for n in req.ambient.divisors(rng, 2)
        ), None
    modulus, res_u, res_v = (int(s) for s in printed)
    ok = (
        not req.rewrite
        and req.ambient.divides(modulus)
        and res_u != res_v
        and arith.residue(req.lhs, modulus) == res_u
        and arith.residue(req.rhs, modulus) == res_v
    )
    return ok, modulus


# -- linear systems ------------------------------------------------------------

SYSTEM_AMBIENT = Ambient(((2, 3), (3, 2), (5, INF), (7, 1)), False)
SYSTEM_BASES = [b for b in range(2, 15) if SYSTEM_AMBIENT.admissible(b)]


class SolveRequest(NamedTuple):
    ambient: Ambient
    pi: str
    matrix: list  # rows of Value
    rhs: list  # Value per row
    matrix_text: list
    rhs_text: list
    solvable: bool  # known solvable by construction


def solve_request(ambient, matrix_summands, rhs, solvable):
    return SolveRequest(
        ambient,
        ambient.text(),
        [[value_of(s) for s in row] for row in matrix_summands],
        rhs,
        [[arith.text(s) for s in row] for row in matrix_summands],
        [arith.value_text(v) for v in rhs],
        solvable,
    )


#: (n, solvable) per round.  Random right sides and n = 2 are cheap, n = 4
#: with rhs = B x0 dear; with a quarter of each, the latency median sits in
#: the middle of the (3, solvable) class and the 90th percentile inside the
#: (4, solvable) class.  Three in four systems are solvable.
SIGMA_MIX = [(3, True)] * 8 + [(4, True)] * 4 + [(2, False)] * 2 + [(3, False), (4, False)]


def counts_0_to_2(rng, k):
    """k random counts in 0..2 that add up to k.  Fixing the total (of terms
    in a matrix, of branches in a system) keeps the cost of requests of one
    size class close, so a few hundred requests give steady figures."""
    counts = [1] * k
    for _ in range(k):
        i, j = rng.randrange(k), rng.randrange(k)
        if counts[i] > 0 and counts[j] < 2 and i != j:
            counts[i] -= 1
            counts[j] += 1
    return counts


def sigma_requests(rng):
    """n x n systems over SYSTEM_AMBIENT, n in {2, 3, 4}, entries with 0-2
    terms (n*n in a matrix, n in x0) of bases <= 14 and offsets 1-2;
    solvable ones have rhs = B x0, the others a random rhs."""
    def values(k):
        return [random_summands(rng, SYSTEM_BASES, c, 9, 2) for c in counts_0_to_2(rng, k)]

    for n, solvable in rounds(rng, SIGMA_MIX):
        flat = values(n * n)
        matrix = [flat[i * n:(i + 1) * n] for i in range(n)]
        if solvable:
            x0 = [value_of(s) for s in values(n)]
            rhs = []
            for row in matrix:
                acc = Value(0, ())
                for a, x in zip(row, x0):
                    acc = arith.add(acc, arith.mul(value_of(a), x))
                rhs.append(acc)
        else:
            rhs = [value_of(s) for s in values(n)]
        yield solve_request(SYSTEM_AMBIENT, matrix, rhs, solvable)


#: n per round: symmetric about 16, so the latency median sits in the middle
#: of the n = 16 class, and n = 20 twice, so the 90th percentile lies inside it.
INTEGER_MIX = (12, 12, 13, 14, 15, 16, 16, 16, 17, 18, 19, 20, 20)


def integer_requests(rng):
    """Integer matrices with |entries| < 100, n in 12..20, and the rhs
    (B x0) * [b^(w-k)] for an integer vector x0, so always solvable."""
    for n in rounds(rng, INTEGER_MIX):
        matrix = [[rng.randint(-99, 99) for _ in range(n)] for _ in range(n)]
        x0 = [rng.randint(-9, 9) for _ in range(n)]
        base, offset = rng.choice(SYSTEM_BASES), rng.randint(1, 3)
        rhs = [
            Value(0, ((base, offset, c),) if c else ())
            for c in (sum(a * x for a, x in zip(row, x0)) for row in matrix)
        ]
        yield solve_request(SYSTEM_AMBIENT, [[[a] for a in row] for row in matrix], rhs, True)


def solve_execute(req: SolveRequest):
    pi = profint.parse_supernatural(req.pi)
    matrix = profint.SigmaMatrix(
        [[profint.parse_pseudonumber(x, pi) for x in row] for row in req.matrix_text], pi
    )
    rhs = [profint.parse_pseudonumber(x, pi) for x in req.rhs_text]
    outcome = profint.solve_system(pi, matrix, rhs)
    if outcome:
        verified = bool(profint.verify_solution(pi, matrix, rhs, outcome))
        return ("solvable", str(verified)) + tuple(str(x) for x in outcome)
    return ("unsolvable", str(outcome.modulus), outcome.reason)


def solve_check(req: SolveRequest, printed, rng):
    if printed[0] == "solvable":
        xs = [arith.parse(s) for s in printed[2:]]
        if printed[1] != "True" or len(xs) != len(req.matrix[0]):
            return False, None
        for n in req.ambient.divisors(rng, 2):
            x_res = [arith.residue(x, n) for x in xs]
            for row, b in zip(req.matrix, req.rhs):
                lhs = sum(arith.residue(a, n) * x for a, x in zip(row, x_res))
                if (lhs - arith.residue(b, n)) % n:
                    return False, None
        return True, None
    modulus = int(printed[1])
    if req.solvable or not req.ambient.divides(modulus):
        return False, modulus
    return confirms_refutation(req.matrix, req.rhs, modulus) is not False, modulus


def confirms_refutation(matrix, rhs, modulus):
    """Whether matrix @ x = rhs has no solution mod `modulus`, by exhaustive
    search mod prime powers dividing it: True when one of them has no
    solution, False when every prime power of `modulus` was searched whole
    and has one, None when the search space was too large to tell."""
    cols = len(matrix[0])
    whole = True
    for p, e in arith.factor(modulus):
        a = e
        while a and p ** (a * cols) > SEARCH_LIMIT:
            a -= 1
        whole = whole and a == e
        if a and not has_solution(matrix, rhs, p**a):
            return True
    return False if whole else None


def has_solution(matrix, rhs, q) -> bool:
    rows = [[arith.residue(entry, q) for entry in row] for row in matrix]
    targets = [arith.residue(b, q) for b in rhs]
    return any(
        all(sum(a * v for a, v in zip(row, x)) % q == t for row, t in zip(rows, targets))
        for x in itertools.product(range(q), repeat=len(matrix[0]))
    )


# -- reduce --------------------------------------------------------------------

REDUCE_AMBIENTS = (
    Ambient(((2, INF),), False),
    Ambient(((3, INF),), False),
    Ambient(((2, 1), (3, INF)), False),
    Ambient(((2, 2), (3, 1), (5, INF)), False),
    Ambient(((2, INF), (3, 2)), False),
    Ambient(((2, 1), (3, 1), (5, 1)), False),
    Ambient(((3, 1), (5, INF)), False),
    Ambient(((5, INF),), False),
)
VARIABLES = ("x", "y", "z", "u")
SHAPES = ("{s}", "{s}*{s}", "{s}^(w-1)", "{s}*{s}*{s}", "({s})^({p}^(w-1))", "{s}*{s}^(w-1)*{s}")


class ReduceRequest(NamedTuple):
    ambient: Ambient
    doc: dict
    text: str
    branches: dict  # variable -> [(base, periods), ...]


def random_branch(rng, width):
    base = tuple(rng.randint(0, 4) for _ in range(width))
    periods = []
    for _ in range(rng.randint(0, 2)):
        period = [rng.randint(0, 3) for _ in range(width)]
        if not any(period):
            period[rng.randrange(width)] = rng.randint(1, 3)
        periods.append(tuple(period))
    return base, periods


def branch_text(base, periods):
    def vec(v):
        return "(" + ",".join(map(str, v)) + ")"
    return "+".join([vec(base)] + [vec(p) + "N" for p in periods])


def reduce_requests(rng):
    """2-4 variables with 1-3 branches each (two per variable on average)
    over 1-2 letters.  Decoupled
    systems split the variables into two groups no equation joins; coupled
    ones chain every variable to the next."""
    for count, decoupled in rounds(rng, [(n, d) for n in (2, 3, 3, 4) for d in (True, False)]):
        ambient = rng.choice(REDUCE_AMBIENTS)
        primes = [p for p in (2, 3, 5, 7) if ambient.exponent(p) is not INF]
        variables = VARIABLES[:count]
        if decoupled:
            cut = rng.randint(1, count - 1)
            groups = [variables[:cut], variables[cut:]]
        else:
            groups = [variables]
        equations = []
        for group in groups:
            if len(group) == 1:
                lhs, rhs = rng.sample(SHAPES, 2)
                pairs = [(lhs, rhs, group[0], group[0])]
            else:
                pairs = [(rng.choice(SHAPES), rng.choice(SHAPES), s, t) for s, t in zip(group, group[1:])]
            for lhs, rhs, s, t in pairs:
                equations.append(
                    lhs.format(s=s, p=rng.choice(primes)) + " = " + rhs.format(s=t, p=rng.choice(primes))
                )
        width = rng.randint(1, 2)
        branches = {
            x: [random_branch(rng, width) for _ in range(1 + extra)]
            for x, extra in zip(variables, counts_0_to_2(rng, count))
        }
        doc = {
            "pi": ambient.text(),
            "alphabet": list("ab"[:width]),
            "variables": list(variables),
            "equations": equations,
            "constraints": {x: " | ".join(branch_text(*b) for b in bs) for x, bs in branches.items()},
        }
        yield ReduceRequest(ambient, doc, json.dumps(doc), branches)


def reduce_execute(req: ReduceRequest):
    out, err = io.StringIO(), io.StringIO()
    stdin = sys.stdin
    sys.stdin = io.StringIO(req.text)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = profint.cli.main(["reduce", "--format", "json"])
    finally:
        sys.stdin = stdin
    if code not in (0, 1):
        raise RuntimeError(f"profint reduce exited {code}: {err.getvalue().strip()}")
    return (out.getvalue().strip(),)


def reduce_check(req: ReduceRequest, printed, rng):
    answer = json.loads(printed[0])
    pi = profint.parse_supernatural(req.doc["pi"])
    system = profint.EquationSystem.from_document(req.doc)
    variables, width = req.doc["variables"], len(req.doc["alphabet"])
    if answer["solvable"]:
        vectors = {x: [arith.parse(s) for s in answer["witness"][x]] for x in variables}
        coeffs = {x: [arith.parse(s) for s in answer["coefficients"][x]] for x in variables}
        for n in req.ambient.divisors(rng, 2):
            res = {x: [arith.residue(c, n) for c in vectors[x]] for x in variables}
            for x in variables:
                base, periods = req.branches[x][answer["branches"][x]]
                ys = [arith.residue(c, n) for c in coeffs[x]]
                if len(ys) != len(periods) or len(res[x]) != width:
                    return False, None
                for a in range(width):
                    if (base[a] + sum(y * p[a] for y, p in zip(ys, periods)) - res[x][a]) % n:
                        return False, None
            for lhs, rhs in system.equations:
                for a in range(width):
                    point = {x: res[x][a] for x in variables}
                    if profint.oracle.eval_term_mod(lhs, point, n, pi) != profint.oracle.eval_term_mod(
                        rhs, point, n, pi
                    ):
                        return False, None
        return True, None
    quotients = answer["refuting_quotients"]
    modulus = answer["combined_modulus"]
    combos = {tuple(q["branches"]) for q in quotients}
    if len(combos) != prod(len(req.branches[x]) for x in variables) or not all(
        req.ambient.divides(q["modulus"]) for q in quotients
    ):
        return False, modulus
    space = prod(len(req.branches[x]) * modulus**width for x in variables)
    if (
        modulus <= profint.oracle.MAX_MODULUS
        and len(variables) <= profint.oracle.MAX_VARIABLES
        and space <= SEARCH_LIMIT
    ):
        return profint.oracle.search_quotient(system, modulus, pi) is None, modulus
    return True, modulus


WORKLOADS = {
    "equality": Workload(equality_requests, equality_execute, equality_check),
    "sigma_systems": Workload(sigma_requests, solve_execute, solve_check),
    "integer_systems": Workload(integer_requests, solve_execute, solve_check),
    "reduce": Workload(reduce_requests, reduce_execute, reduce_check),
}
