"""Batch command-line interface over the decision procedures.

Subcommands: decide, solve, closure, member, reduce, oracle.  Commands read
flags or a single JSON document (stdin or --file).  Exit codes: 0 yes/equal,
1 no/unequal, 2 error.
"""
from __future__ import annotations

import argparse
import functools
import json
import sys

from .errors import InputError, ResourceError
from .oracle import eval_term_mod, search_quotient
from .pseudonumber import eval_mod, parse_pseudonumber
from .reducibility import EquationSystem, _field, decide_and_witness
from .semilinear import closure, member_of_closure, parse_semilinear
from .solver import SigmaMatrix, solve_system, verify_solution
from .supernatural import parse_supernatural
from .terms import parse_term
from .word_problem import equal_in_ab

YES, NO, ERROR = 0, 1, 2


def _emit(payload: dict, fmt: str, text_lines):
    if fmt == "json":
        print(json.dumps(payload, sort_keys=True))
    else:
        for line in text_lines:
            print(line)


def _read_document(args) -> dict:
    if getattr(args, "file", None):
        with open(args.file, "r", encoding="utf-8") as handle:
            raw = handle.read()
    else:
        raw = sys.stdin.read()
    try:
        doc = json.loads(raw)
    except ValueError as exc:  # also an integer past the int/str digit limit
        raise InputError(f"bad JSON document: {exc}") from None
    if not isinstance(doc, dict):
        raise InputError("document must be a JSON object")
    return doc


def _cmd_decide(args) -> int:
    pi = parse_supernatural(args.pi)
    u = parse_pseudonumber(args.lhs, pi)
    v = parse_pseudonumber(args.rhs, pi)
    verdict = equal_in_ab(pi, u, v)
    if verdict:
        _emit({"equal": True}, args.format, ["equal"])
        return YES
    payload = {
        "equal": False,
        "witness_modulus": verdict.witness_modulus,
        "residue_lhs": verdict.residue_u,
        "residue_rhs": verdict.residue_v,
    }
    _emit(
        payload,
        args.format,
        [
            "not equal: modulus {m} separates them ({a} vs {b})".format(
                m=verdict.witness_modulus, a=verdict.residue_u, b=verdict.residue_v
            )
        ],
    )
    return NO


def _cmd_solve(args) -> int:
    doc = _read_document(args)
    pi = parse_supernatural(_field(doc, "pi", str))
    matrix_rows = _field(doc, "matrix", list)
    rhs_texts = _field(doc, "rhs", list)
    if not all(isinstance(row, list) for row in matrix_rows):
        raise InputError("field 'matrix' must be a list of rows")

    def cell(x):
        return parse_pseudonumber(str(x), pi)

    matrix = SigmaMatrix([[cell(x) for x in row] for row in matrix_rows], pi)
    rhs = [cell(x) for x in rhs_texts]
    outcome = solve_system(pi, matrix, rhs)
    if outcome:
        verified = bool(verify_solution(pi, matrix, rhs, outcome))
        payload = {
            "solvable": True,
            "witness": [str(x) for x in outcome],
            "verified": verified,
        }
        _emit(
            payload,
            args.format,
            ["solvable"]
            + [f"  x{i + 1} = {x}" for i, x in enumerate(outcome)]
            + [f"  verified: {str(verified).lower()}"],
        )
        return YES
    payload = {
        "solvable": False,
        "refuting_modulus": outcome.modulus,
        "reason": outcome.reason,
    }
    _emit(
        payload,
        args.format,
        [f"unsolvable: no solution modulo {outcome.modulus} ({outcome.reason})"],
    )
    return NO


def _cmd_closure(args) -> int:
    pi = parse_supernatural(args.pi)
    alphabet = args.alphabet.split(",") if args.alphabet else None
    sls = parse_semilinear(args.constraint, alphabet)
    closed = closure(pi, sls)
    payload = {"closure": str(closed), "alphabet": list(closed.alphabet)}
    _emit(payload, args.format, [str(closed)])
    return YES


def _cmd_member(args) -> int:
    doc = _read_document(args)
    pi = parse_supernatural(_field(doc, "pi", str))
    constraint_text = _field(doc, "constraint", str)
    vector_texts = _field(doc, "vector", list)
    alphabet = _field(doc, "alphabet", list) if doc.get("alphabet") is not None else None
    sls = parse_semilinear(constraint_text, alphabet)
    vector = [parse_pseudonumber(str(x), pi) for x in vector_texts]
    witness = member_of_closure(pi, vector, closure(pi, sls))
    if witness is not None:
        payload = {
            "member": True,
            "branch": witness.branch,
            "coefficients": [str(c) for c in witness.coefficients],
        }
        _emit(
            payload,
            args.format,
            [f"member of branch {witness.branch}"]
            + [f"  y{j + 1} = {c}" for j, c in enumerate(witness.coefficients)],
        )
        return YES
    _emit({"member": False}, args.format, ["not a member of any branch"])
    return NO


def _cmd_reduce(args) -> int:
    doc = _read_document(args)
    pi = parse_supernatural(_field(doc, "pi", str))
    system = EquationSystem.from_document(doc)
    outcome = decide_and_witness(pi, system)
    if outcome:
        payload = {
            "solvable": True,
            "witness": {
                x: [str(c) for c in vec] for x, vec in outcome.assignment.items()
            },
            "branches": dict(outcome.branches),
            "coefficients": {
                x: [str(c) for c in coeffs]
                for x, coeffs in outcome.coefficients.items()
            },
        }
        lines = ["solvable"]
        for x in system.variables:
            vec = ", ".join(str(c) for c in outcome.assignment[x])
            lines.append(f"  {x} -> ({vec})   [branch {outcome.branches[x]}]")
        _emit(payload, args.format, lines)
        return YES
    payload = {
        "solvable": False,
        "refuting_quotients": [
            {"branches": list(combo), "modulus": n} for combo, n in outcome.quotients
        ],
        "combined_modulus": outcome.combined_modulus(),
    }
    lines = ["unsolvable"]
    for combo, n in outcome.quotients:
        lines.append(f"  branches {list(combo)}: refuted modulo {n}")
    lines.append(f"  combined refuting modulus: {outcome.combined_modulus()}")
    _emit(payload, args.format, lines)
    return NO


def _cmd_oracle(args) -> int:
    pi = parse_supernatural(args.pi)
    if args.action in ("eval", "term") and not args.expression:
        raise InputError(f"oracle {args.action} needs --expr")
    if args.action == "eval":
        value = eval_mod(parse_pseudonumber(args.expression, pi), args.modulus, pi)
        _emit({"residue": value}, args.format, [str(value)])
        return YES
    if args.action == "term":
        variables = args.variables.split(",") if args.variables else []
        assignment = {}
        for piece in (args.assign or "").split(","):
            if not piece:
                continue
            name, sep, residue = piece.partition("=")
            if not sep:
                raise InputError(f"bad assignment {piece!r}, expected var=residue")
            try:
                assignment[name.strip()] = int(residue)
            except ValueError:
                raise InputError(f"bad residue {residue!r} in {piece!r}") from None
        term = parse_term(args.expression, variables or sorted(assignment))
        value = eval_term_mod(term, assignment, args.modulus, pi)
        _emit({"residue": value}, args.format, [str(value)])
        return YES
    if args.action == "divisors":
        values = pi.sample_divisors(args.bound, args.count, seed=args.seed)
        _emit({"divisors": values}, args.format, [" ".join(map(str, values))])
        return YES
    if args.action == "search":
        doc = _read_document(args)
        system = EquationSystem.from_document(doc)
        found = search_quotient(system, args.modulus, pi)
        if found is not None:
            payload = {
                "found": True,
                "assignment": {x: list(vec) for x, vec in found.items()},
            }
            lines = ["solution found"] + [
                f"  {x} -> {tuple(vec)}" for x, vec in found.items()
            ]
            _emit(payload, args.format, lines)
            return YES
        _emit({"found": False}, args.format, ["no solution in this quotient"])
        return NO
    raise InputError(f"unknown oracle action {args.action!r}")


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built on the first call and shared after it."""
    parser = argparse.ArgumentParser(
        prog="profint",
        description="Exact decision procedures over sigma-expressible profinite integers.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, needs_pi=True):
        if needs_pi:
            p.add_argument("--pi", required=True, help="supernatural number, e.g. '3^1,5^inf;default=0'")
        p.add_argument("--format", choices=("text", "json"), default="text")

    p = sub.add_parser("decide", help="decide whether two values coincide everywhere")
    common(p)
    p.add_argument("lhs")
    p.add_argument("rhs")
    p.set_defaults(handler=_cmd_decide)

    p = sub.add_parser("solve", help="solve a linear system from a JSON document")
    common(p, needs_pi=False)
    p.add_argument("--file", help="document path (default: stdin)")
    p.set_defaults(handler=_cmd_solve)

    p = sub.add_parser("closure", help="closure of a semilinear constraint")
    common(p)
    p.add_argument("--constraint", required=True)
    p.add_argument("--alphabet", help="comma-separated letters (default: inferred)")
    p.set_defaults(handler=_cmd_closure)

    p = sub.add_parser("member", help="membership in a closed constraint (JSON document)")
    common(p, needs_pi=False)
    p.add_argument("--file", help="document path (default: stdin)")
    p.set_defaults(handler=_cmd_member)

    p = sub.add_parser("reduce", help="decide an equation system (JSON document)")
    common(p, needs_pi=False)
    p.add_argument("--file", help="document path (default: stdin)")
    p.set_defaults(handler=_cmd_reduce)

    p = sub.add_parser("oracle", help="brute-force helpers for reproducing values")
    p.add_argument("action", choices=("eval", "term", "divisors", "search"))
    common(p)
    p.add_argument("--modulus", type=int, default=1)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--bound", type=int, default=100)
    p.add_argument("--count", type=int, default=8)
    p.add_argument("--variables", help="comma-separated names (term action)")
    p.add_argument("--assign", help="var=residue pairs, comma-separated (term action)")
    p.add_argument("--file", help="document path (search action; default stdin)")
    p.add_argument("--expr", dest="expression", help="value or term text (eval/term actions)")
    p.set_defaults(handler=_cmd_oracle)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.handler(args)
    except (InputError, ResourceError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return ERROR
    except Exception as exc:  # exit 1 means "no", so a fault must not look like one
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return ERROR


if __name__ == "__main__":
    sys.exit(main())
