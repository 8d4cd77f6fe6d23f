"""Brute-force ground truth in small finite quotients.

These routines evaluate sigma-terms structurally and search quotients
exhaustively; they are intentionally independent of the symbolic pipeline
(abelianization, clearing, gluing) so that agreement between the two is
meaningful.  Hard size guards keep them test instruments, not solvers.
"""
from __future__ import annotations

import itertools

from .errors import InputError, ResourceError
from .pseudonumber import check_modulus, eval_mod, omega_power
from .reducibility import EquationSystem
from .supernatural import Supernatural
from .terms import OmegaInv, PrimePower, Product, SigmaTerm, Var

MAX_VARIABLES = 3
MAX_MODULUS = 50
MAX_ASSIGNMENTS = 500_000


def eval_term_mod(term: SigmaTerm, assignment: dict, modulus: int, pi: Supernatural) -> int:
    """Evaluate a sigma-term in the additive group Z/modulus.

    Variables take the assigned residues; products add; the (w-1) power
    negates (every element is killed by large factorials); the p^(w-1) power
    multiplies by the limit residue of p^(m!-1).
    """
    check_modulus(modulus, pi)

    def walk(node) -> int:
        if isinstance(node, Var):
            try:
                return assignment[node.name] % modulus
            except KeyError:
                raise InputError(f"no residue assigned to {node.name!r}") from None
        if isinstance(node, Product):
            return (walk(node.left) + walk(node.right)) % modulus
        if isinstance(node, OmegaInv):
            return -walk(node.child) % modulus
        if isinstance(node, PrimePower):
            scale = eval_mod(omega_power(pi, node.prime, 1), modulus, pi)
            return scale * walk(node.child) % modulus
        raise InputError(f"unknown node {node!r}")

    return walk(term)


def _span(generators, modulus: int, width: int) -> set:
    """Additive subgroup of (Z/modulus)^width generated by the vectors."""
    zero = (0,) * width
    span = {zero}
    frontier = [zero]
    gens = [tuple(x % modulus for x in g) for g in generators]
    while frontier:
        current = frontier.pop()
        for g in gens:
            nxt = tuple((a + b) % modulus for a, b in zip(current, g))
            if nxt not in span:
                span.add(nxt)
                frontier.append(nxt)
    return span


def constraint_image(sls, modulus: int) -> set:
    """All residue vectors mod `modulus` reachable by the semilinear set
    (naturals surject onto every residue, so each branch contributes the
    coset of the subgroup spanned by its periods)."""
    width = len(sls.alphabet)
    image = set()
    for branch in sls.branches:
        base = tuple(x % modulus for x in branch.base)
        for offset in _span(branch.periods, modulus, width):
            image.add(tuple((a + b) % modulus for a, b in zip(base, offset)))
    return image


def search_quotient(system: EquationSystem, modulus: int, pi: Supernatural):
    """Exhaustively search Z/modulus for a constrained solution.

    Assignments run over the constraint-image residue vectors of each
    variable; returns the first satisfying assignment (variable -> vector of
    residues) or None.  Guarded: at most MAX_VARIABLES variables, modulus at
    most MAX_MODULUS, and a cap on the assignment count.
    """
    check_modulus(modulus, pi)
    if len(system.variables) > MAX_VARIABLES:
        raise ResourceError(f"more than {MAX_VARIABLES} variables")
    if modulus > MAX_MODULUS:
        raise ResourceError(f"modulus {modulus} exceeds {MAX_MODULUS}")
    images = []
    total = 1
    for x in system.variables:
        image = sorted(constraint_image(system.constraints[x], modulus))
        images.append(image)
        total *= len(image)
        if total > MAX_ASSIGNMENTS:
            raise ResourceError(f"assignment space exceeds {MAX_ASSIGNMENTS}")
    letters = range(len(system.alphabet))
    for combo in itertools.product(*images):
        candidate = dict(zip(system.variables, combo))
        if all(
            eval_term_mod(lhs, {x: candidate[x][a] for x in candidate}, modulus, pi)
            == eval_term_mod(rhs, {x: candidate[x][a] for x in candidate}, modulus, pi)
            for lhs, rhs in system.equations
            for a in letters
        ):
            return candidate
    return None

