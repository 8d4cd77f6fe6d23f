"""End-to-end decision for systems of sigma-term equations with semilinear
constraints: solvable across every admissible finite quotient or refuted in
one of them, with checkable witnesses either way.

Every equation is abelianized once to a linear form, variable ->
coefficient.  Two variables are linked when one form has a nonzero
coefficient on both, and each connected component is decided alone with its
own forms: every constraint belongs to one variable, so the system is
solvable exactly when every component is.  A form with no nonzero
coefficient goes with the first component that has a nonzero one.
Per combination of a component's constraint branches (one per variable) the
procedure substitutes x = base + sum_j period_j * y_j with fresh ring
unknowns y_j; each (equation, letter) pair is then one integer row of the
solver's split form, its entries the integer periods times the coefficients
scaled by the row's lcm(b^k), and its target the bases times them, with
their residues mod the solver's M taken once per coefficient.  No
pseudonumber is multiplied out for it; only the witness is built as one,
each letter of each point in one construction.
The first solvable combination of each component (lexicographic order)
gives that component's part of the witness, and the parts together are the
lexicographically first solvable combination of the whole product.  The
first component with no solvable combination refutes every combination of
the product: each is listed with the refuting quotient of its own
sub-combination there, and their lcm refutes the whole system at once.

A witness is a certificate, checked as one: each variable's vector must be
base + sum_j period_j * y_j of its own branch at its coefficients y_j, and
every equation must hold letter by letter on the solver's split image.  The
check multiplies no pseudonumbers out and decides no membership again.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass, replace
from math import lcm

from .errors import InputError
from .intlinalg import IntMatrix
from .pseudonumber import _residue, from_integer, integer_combination
from .semilinear import SemilinearSet, parse_semilinear
from .solver import SigmaMatrix, SplitRows, solve_system, verify_solution
from .supernatural import Supernatural
from .terms import SigmaTerm, abelianize, parse_term
from .word_problem import Verdict, _scaled_sum, equal_vectors

_KINDS = {str: "text", list: "a list", dict: "an object"}


def _field(doc: dict, name: str, kind: type):
    """The field `name` of a JSON document, which must be of type `kind`."""
    if name not in doc:
        raise InputError(f"document needs field {name!r}")
    value = doc[name]
    if not isinstance(value, kind):
        raise InputError(
            f"field {name!r} must be {_KINDS[kind]}, got {type(value).__name__}"
        )
    return value


@dataclass(frozen=True)
class EquationSystem:
    """Equations lhs = rhs between sigma-terms over the variables, with one
    semilinear constraint per variable over the alphabet."""

    alphabet: tuple[str, ...]
    variables: tuple[str, ...]
    equations: tuple[tuple[SigmaTerm, SigmaTerm], ...]
    constraints: dict

    def __post_init__(self):
        alphabet = tuple(self.alphabet)
        variables = tuple(self.variables)
        if not alphabet or len(set(alphabet)) != len(alphabet):
            raise InputError("alphabet must be nonempty with distinct letters")
        if not variables or len(set(variables)) != len(variables):
            raise InputError("variables must be nonempty and distinct")
        for lhs, rhs in self.equations:
            used = lhs.variables() | rhs.variables()
            extra = used - set(variables)
            if extra:
                raise InputError(f"equation uses undeclared variables {sorted(extra)}")
        missing = set(variables) - set(self.constraints)
        if missing:
            raise InputError(f"unconstrained variables: {sorted(missing)}")
        for x in variables:
            sls = self.constraints[x]
            if not isinstance(sls, SemilinearSet) or sls.alphabet != alphabet:
                raise InputError(f"constraint of {x!r} is not over the alphabet")
        object.__setattr__(self, "alphabet", alphabet)
        object.__setattr__(self, "variables", variables)
        object.__setattr__(self, "equations", tuple(self.equations))

    @classmethod
    def from_document(cls, doc: dict) -> "EquationSystem":
        """Build from the structured document used by the CLI: fields
        alphabet, variables, equations (strings "lhs = rhs") and constraints
        (variable -> semilinear string)."""
        alphabet, variables, equation_texts = (
            tuple(_field(doc, name, list)) for name in ("alphabet", "variables", "equations")
        )
        constraint_texts = _field(doc, "constraints", dict)
        if not all(
            isinstance(text, str)
            for text in alphabet + variables + equation_texts + tuple(constraint_texts.values())
        ):
            raise InputError("letters, variables, equations and constraints must be text")
        equations = []
        for text in equation_texts:
            lhs, sep, rhs = text.partition("=")
            if not sep or "=" in rhs:
                raise InputError(f"equation {text!r} needs exactly one '='")
            try:  # a side's own message quotes that side only
                equations.append((parse_term(lhs.strip(), variables), parse_term(rhs.strip(), variables)))
            except InputError as error:
                raise InputError(f"equation {text!r}: {error}") from None
        constraints = {
            x: parse_semilinear(constraint_texts[x], alphabet)
            for x in variables
            if x in constraint_texts
        }
        return cls(alphabet, variables, tuple(equations), constraints)


@dataclass(frozen=True)
class Witness:
    """A solution in commutative image form: per variable, a vector over the
    alphabet, plus the branch index and period coefficients that produced it."""

    assignment: dict
    branches: dict
    coefficients: dict

    def __bool__(self):
        return True


@dataclass(frozen=True)
class Refutation:
    """One refuting finite quotient per constraint branch combination."""

    quotients: tuple

    def __bool__(self):
        return False

    def combined_modulus(self) -> int:
        """A single finite quotient refuting every branch at once."""
        return lcm(*(n for _, n in self.quotients)) if self.quotients else 1


def _linear_forms(pi, system):
    """Abelianized lhs - rhs of every equation, as variable -> coefficient."""
    forms = []
    for lhs, rhs in system.equations:
        left = abelianize(pi, lhs, system.variables)
        right = abelianize(pi, rhs, system.variables)
        forms.append(
            {x: integer_combination(0, ((1, left[x]), (-1, right[x]))) for x in system.variables}
        )
    return forms


def _components(variables, forms):
    """(variables, forms) of each connected component, in the order of their
    first variables, the forms restricted to the component's variables and
    kept in system order.  A form with no nonzero coefficient goes with the
    first component that some form has a nonzero coefficient in (the first
    component when there is none), so a variable with a zero coefficient in
    every form is solved for only when every coefficient is zero."""
    label = {x: i for i, x in enumerate(variables)}
    for form in forms:
        linked = {label[x] for x in variables if form[x]}
        if len(linked) > 1:
            keep = min(linked)
            label = {x: keep if i in linked else i for x, i in label.items()}
    groups = {}
    for x in variables:
        groups.setdefault(label[x], []).append(x)
    parts = {i: [] for i in groups}
    home = min((label[x] for form in forms for x in variables if form[x]), default=0)
    for form in forms:
        i = next((label[x] for x in variables if form[x]), home)
        parts[i].append({x: form[x] for x in groups[i]})
    return [(groups[i], parts[i]) for i in groups]


def _branch_ranges(system, variables):
    """The range of branch indices of each variable's constraint."""
    return [range(len(system.constraints[x].branches)) for x in variables]


def decide_and_witness(pi: Supernatural, system: EquationSystem):
    """A verified :class:`Witness`, or a :class:`Refutation` listing one
    finite quotient per branch combination (falsy)."""
    forms = _linear_forms(pi, system)
    if not all(system.constraints[x].branches for x in system.variables):
        return Refutation(())  # an empty constraint leaves no combination
    width = len(system.alphabet)
    branches, coefficients, assignment = {}, {}, {}
    for variables, component_forms in _components(system.variables, forms):
        failures = {}
        for combo in itertools.product(*_branch_ranges(system, variables)):
            chosen = {x: system.constraints[x].branches[i] for x, i in zip(variables, combo)}
            outcome = _try_branches(pi, variables, component_forms, chosen, width)
            if isinstance(outcome, int):
                failures[combo] = outcome
                continue
            branches.update(zip(variables, combo))
            coefficients.update(outcome[0])
            assignment.update(outcome[1])
            break
        else:
            at = [system.variables.index(x) for x in variables]
            return Refutation(tuple(
                (combo, failures[tuple(combo[i] for i in at)])
                for combo in itertools.product(*_branch_ranges(system, system.variables))
            ))
    witness = Witness(
        assignment={x: assignment[x] for x in system.variables},
        branches={x: branches[x] for x in system.variables},
        coefficients={x: coefficients[x] for x in system.variables},
    )
    check = _verify_witness(pi, system, witness, forms)
    if not check:
        raise AssertionError(
            f"internal error: produced witness fails at modulus {check.witness_modulus}"
        )
    return witness


def _point(branch, coefficients):
    """base + sum_j c_j * period_j of a branch, letter by letter, each letter
    built in one construction."""
    return tuple(
        integer_combination(
            branch.base[a], ((period[a], c) for c, period in zip(coefficients, branch.periods))
        )
        for a in range(branch.width)
    )


def _try_branches(pi, variables, forms, chosen, width):
    """Solve one branch combination of the variables (a component) under
    their forms.  Returns (coefficients, assignment) on success or a
    refuting modulus (int) on failure."""
    unknowns = [(x, j) for x in variables for j in range(len(chosen[x].periods))]
    if not unknowns or not forms:
        # nothing to solve: every right side must already vanish
        rhs = [
            integer_combination(0, ((-chosen[x].base[a], form[x]) for x in variables))
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
        x: tuple(itertools.islice(remaining, len(chosen[x].periods))) for x in variables
    }
    assignment = {x: _point(chosen[x], coefficients[x]) for x in variables}
    return coefficients, assignment


def _branch_rows(forms, chosen, unknowns, width):
    """The solver's split rows of one branch combination, built from integers.

    Row (form, letter a) has the entries k * form[x], for k = period_j[a] of
    each unknown (x, j), and the right side -sum_x b_x * form[x], for
    b_x = base[a].  Its scale d is the lcm of base^offset over the terms that
    survive in the row: those of form[x] for each x with a nonzero k, and the
    merged right-side keys whose coefficient does not cancel.  With
    s_x = _scaled_sum(form[x], d), the row is k * s_x and its target is
    -sum_x b_x * s_x; a cancelled key adds (d // base^offset) * 0 to the
    target whether or not base^offset divides d.  Residues mod n are
    k * (form[x] mod n), each form[x] reduced once per n.
    """
    layout, scales, matrix, targets = [], [], [], []
    for f, form in enumerate(forms):
        for a in range(width):
            periods = [chosen[x].periods[j][a] for x, j in unknowns]
            bases = {x: chosen[x].base[a] for x in form if chosen[x].base[a]}
            merged = {}
            for x, b in bases.items():
                for t in form[x].terms:
                    key = t.base, t.offset
                    merged[key] = merged.get(key, 0) + b * t.coeff
            active = {x for (x, _), k in zip(unknowns, periods) if k}
            d = lcm(
                *(t.base**t.offset for x in active for t in form[x].terms),
                *(base**offset for (base, offset), c in merged.items() if c),
            )
            scaled = {x: _scaled_sum(form[x], d) for x in active | bases.keys()}
            layout.append((f, periods, bases))
            scales.append(d)
            matrix.append([k * scaled[x] if k else 0 for (x, _), k in zip(unknowns, periods)])
            targets.append(-sum(b * scaled[x] for x, b in bases.items()))

    def residues(n):
        reduced = [{x: _residue(u, n) for x, u in form.items()} for form in forms]
        return (
            [[k * reduced[f][x] % n for (x, _), k in zip(unknowns, periods)]
             for f, periods, _ in layout],
            [-sum(b * reduced[f][x] for x, b in bases.items()) % n for f, _, bases in layout],
        )

    return SplitRows(scales, IntMatrix(matrix), targets, residues)


def verify_witness(pi: Supernatural, system: EquationSystem, witness: Witness) -> Verdict:
    """Check the witness as the module docstring describes.  A failure names
    (variable, letter) or (equation index, letter), or the variable alone
    when its coefficient count does not match its branch."""
    return _verify_witness(pi, system, witness, None)


def _verify_witness(pi, system, witness, forms):
    """verify_witness, reusing the system's linear forms when the caller has
    built them already (None: build them here)."""
    for x in system.variables:
        if x not in witness.assignment or x not in witness.coefficients:
            raise InputError(f"witness misses variable {x!r}")
        if len(witness.assignment[x]) != len(system.alphabet):
            raise InputError(f"witness vector of {x!r} has the wrong width")
        index, branches = witness.branches.get(x), system.constraints[x].branches
        if not isinstance(index, int) or not 0 <= index < len(branches):
            raise InputError(f"witness names no branch of the constraint of {x!r}")
    for x in system.variables:
        branch = system.constraints[x].branches[witness.branches[x]]
        coefficients = witness.coefficients[x]
        if len(coefficients) != len(branch.periods):
            return Verdict.no(None, None, None, component=x)
        verdict = equal_vectors(pi, witness.assignment[x], _point(branch, coefficients))
        if not verdict:
            return replace(verdict, component=(x, system.alphabet[verdict.component]))
    if forms is None:
        forms = _linear_forms(pi, system)
    if forms:
        matrix = SigmaMatrix([[form[x] for x in system.variables] for form in forms], pi)
        for a, letter in enumerate(system.alphabet):
            values = [witness.assignment[x][a] for x in system.variables]
            verdict = verify_solution(pi, matrix, [0] * len(forms), values)
            if not verdict:
                return replace(verdict, component=(verdict.component, letter))
    return Verdict.yes()
