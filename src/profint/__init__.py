"""Exact decision procedures over sigma-expressible profinite integers.

The ring under study consists of integers extended by terms [n^(w-k)], the
limits of n^(m!-k); identities between such values hold or fail uniformly
across all finite abelian groups whose exponent divides an ambient
supernatural number.  The package decides those identities, solves linear
systems constructively, computes closures of semilinear constraint sets and
runs an end-to-end solvability check for sigma-term equation systems, always
returning checkable witnesses or finite refuting quotients.
"""

from .errors import InputError, ResourceError, SignatureError
from .intlinalg import (
    IntMatrix,
    SnfResult,
    smith_normal_form,
    solve_congruences,
)
from .pseudonumber import (
    Pseudonumber,
    Term,
    clearing_factor,
    eval_mod,
    from_integer,
    omega_closure,
    omega_power,
    parse_pseudonumber,
)
from .reducibility import (
    EquationSystem,
    Refutation,
    Witness,
    decide_and_witness,
    verify_witness,
)
from .semilinear import (
    ClosedCosetUnion,
    LinearSet,
    MembershipWitness,
    SemilinearSet,
    closure,
    member_of_closure,
    parse_semilinear,
    plus_closure_generators,
)
from .solver import (
    SigmaMatrix,
    SystemRefutation,
    solve_single,
    solve_system,
    verify_solution,
)
from .supernatural import INFINITY, Supernatural, parse_supernatural
from .terms import OmegaInv, PrimePower, Product, SigmaTerm, Var, abelianize, parse_term
from .word_problem import Verdict, equal_in_ab, equal_vectors, is_zero

__version__ = "0.1.0"

__all__ = [
    "INFINITY",
    "ClosedCosetUnion",
    "EquationSystem",
    "InputError",
    "IntMatrix",
    "LinearSet",
    "MembershipWitness",
    "OmegaInv",
    "PrimePower",
    "Product",
    "Pseudonumber",
    "Refutation",
    "ResourceError",
    "SemilinearSet",
    "SigmaMatrix",
    "SigmaTerm",
    "SignatureError",
    "SnfResult",
    "Supernatural",
    "SystemRefutation",
    "Term",
    "Var",
    "Verdict",
    "Witness",
    "abelianize",
    "clearing_factor",
    "closure",
    "decide_and_witness",
    "equal_in_ab",
    "equal_vectors",
    "eval_mod",
    "from_integer",
    "is_zero",
    "member_of_closure",
    "omega_closure",
    "omega_power",
    "parse_pseudonumber",
    "parse_semilinear",
    "parse_supernatural",
    "parse_term",
    "plus_closure_generators",
    "smith_normal_form",
    "solve_congruences",
    "solve_single",
    "solve_system",
    "verify_solution",
    "verify_witness",
    "__version__",
]
