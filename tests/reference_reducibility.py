"""The decision that enumerates the full product of branches, kept as a
reference.

`profint.reducibility.decide_and_witness` decides each connected component
of the equations alone.  Before that it solved every combination of the
whole product of the variables' branches as one system: the first solvable
combination gave the witness, and otherwise every combination was refuted
by its own quotient.  This is that decision, for the differential tests.
"""
from __future__ import annotations

import itertools

from profint import Refutation, Witness
from profint.pseudonumber import from_integer, integer_combination
from profint.reducibility import _branch_rows, _linear_forms, _point, _verify_witness
from profint.solver import solve_system
from profint.word_problem import equal_vectors


def decide_and_witness(pi, system):
    """A verified Witness, or a Refutation listing one finite quotient per
    branch combination of the whole product, in lexicographic order."""
    forms = _linear_forms(pi, system)
    branch_lists = [range(len(system.constraints[x].branches)) for x in system.variables]
    failures = []
    for combo in itertools.product(*branch_lists):
        indices = dict(zip(system.variables, combo))
        chosen = {x: system.constraints[x].branches[i] for x, i in indices.items()}
        outcome = _try_branches(pi, system, forms, chosen)
        if isinstance(outcome, int):
            failures.append((combo, outcome))
            continue
        coefficients, assignment = outcome
        witness = Witness(assignment=assignment, branches=indices, coefficients=coefficients)
        assert _verify_witness(pi, system, witness, forms)
        return witness
    return Refutation(tuple(failures))


def _try_branches(pi, system, forms, chosen):
    """Solve one branch combination of the whole system: (coefficients,
    assignment), or a refuting modulus."""
    unknowns = [(x, j) for x in system.variables for j in range(len(chosen[x].periods))]
    width = len(system.alphabet)
    if not unknowns or not forms:
        rhs = [
            integer_combination(0, ((-chosen[x].base[a], form[x]) for x in system.variables))
            for form in forms
            for a in range(width)
        ]
        vanishes = equal_vectors(pi, rhs, [0] * len(rhs))
        if not vanishes:
            return vanishes.witness_modulus
        solution = [from_integer(0)] * len(unknowns)
    else:
        outcome = solve_system(pi, _branch_rows(forms, chosen, unknowns, width))
        if not outcome:
            return outcome.modulus
        solution = list(outcome)
    remaining = iter(solution)
    coefficients = {
        x: tuple(itertools.islice(remaining, len(chosen[x].periods))) for x in system.variables
    }
    assignment = {x: _point(chosen[x], coefficients[x]) for x in system.variables}
    return coefficients, assignment
