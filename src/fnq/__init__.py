"""fnq: a workbench for functional equations over small finite rings.

Builds exhaustively verified finite rings, represents unknown functions as
tables, parses two-variable functional equations, enumerates their exact
solution sets, classifies Pexider-type solutions into parametric families,
and cross-checks those families by symbolic coefficient comparison.
"""

from .algebra import (DEFAULT_SIZE_BUDGET, Ring, RingSpec, build_ring, center,
                      gf, is_regular, poly_quot, product, ring_from_json, ut2,
                      zn)
from .eqdsl import (Binding, Constraint, Definition, EquationAst, NotReducible,
                    ast_to_json, equation_to_text, eval_side, expr_to_text,
                    parse_equation, pivot_reduce)
from .maps import (ADDITIVE, ARBITRARY, DERIVATION, FnTable, FunctionClass,
                   HOMOMORPHISM, HOMO_DERIV_MP, LEIBNIZ, LOGARITHMIC,
                   MULTIPLICATIVE, classify_map, class_from_string,
                   enumerate_maps, homo_deriv_sofy, identity_map,
                   inner_derivation, lin_rank, zero_map)
from .search import DEFAULT_BUDGET
from .solver import (SolutionSet, SolveTask, residual, solve,
                     solution_set_to_csv, solution_set_to_json)
from .symbolic import (SolutionFamily, SymExpr, check_identity,
                       derive_constraints, family_substitute, symbol)
from .theorems import (FamilyTag, TheoremReport, annihilator_witness,
                       classify_pexider, multiplicative_shift,
                       pexider_closure_samples, pexider_family_binding,
                       verify_alien, verify_mp, verify_pexider, verify_sofy,
                       verify_thm5_symbolic)

__version__ = "0.1.0"

__all__ = [
    "ADDITIVE", "ARBITRARY", "Binding", "Constraint", "DEFAULT_BUDGET",
    "DEFAULT_SIZE_BUDGET", "DERIVATION", "Definition", "EquationAst",
    "FamilyTag", "FnTable", "FunctionClass", "HOMOMORPHISM", "HOMO_DERIV_MP",
    "LEIBNIZ", "LOGARITHMIC", "MULTIPLICATIVE", "NotReducible", "Ring",
    "RingSpec", "SolutionFamily", "SolutionSet", "SolveTask", "SymExpr",
    "TheoremReport", "annihilator_witness", "ast_to_json", "build_ring", "center",
    "check_identity", "classify_map", "classify_pexider", "class_from_string",
    "derive_constraints", "enumerate_maps", "equation_to_text", "eval_side",
    "expr_to_text", "family_substitute", "gf", "homo_deriv_sofy",
    "identity_map", "inner_derivation", "is_regular", "lin_rank",
    "multiplicative_shift", "parse_equation", "pexider_closure_samples",
    "pexider_family_binding", "pivot_reduce", "poly_quot", "product",
    "residual", "ring_from_json", "solution_set_to_csv",
    "solution_set_to_json", "solve", "symbol", "ut2", "verify_alien",
    "verify_mp", "verify_pexider", "verify_sofy", "verify_thm5_symbolic",
    "zero_map", "zn",
]
