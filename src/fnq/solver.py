"""Exhaustive equation solving over finite rings.

Given a parsed equation, a ring and a structure class per unknown, the
solver finds every assignment of value vectors satisfying the equation at
all domain pairs.  The equation and each unknown's class identities go to
the level-wise search kernel (:mod:`fnq.search`) as one system, which grows
all unknowns' value vectors together, one digit at a time.  The kernel's
sorted array of solutions is the result (:class:`SolutionSet`), from the
search to the reports.

When the left side is a lone unknown applied to ``x*y`` over a unital
domain, the y=1 pivot determines that unknown from the others.  The pivot
is an order: the pivoted unknown goes last among the unknowns the kernel
takes, so its digit at each x comes after every digit the pair (x, 1)
reads, and that pair computes it instead of enumerating it.  The result
records this (``pruned_by_pivot``) and leaves the pivoted unknown out of
the candidate count it reports.  The solutions are the same either way,
and come back in free-function order.

The budget is charged by the kernel before each level it grows or
widens (:func:`fnq.search.search`) and by the re-verification, solutions
times the squared domain size, before any row is checked.

Results are exact, exhaustive and deterministic: solutions come out in
lexicographic order of the concatenated value vectors (free-function
order), regardless of pivoting.  Every reported solution is re-verified
point by point through the scalar evaluator (:func:`fnq.eqdsl.compile_side`:
compiled once per call, evaluated per pair, sharing no code with the search
or the grid) before it is returned.
"""
from __future__ import annotations

import functools
import json
import operator
from dataclasses import dataclass, field, replace
from math import prod

import numpy as np

from .algebra import Ring, require_element
from .errors import BudgetExceeded, FnqError, InvalidTask
from .eqdsl import (Binding, Definition, EquationAst, FnApp, PairConstraint,
                    compile_side, equation_to_text, grid_masks, pivot_reduce)
from .maps import (FnTable, FunctionClass, class_constraints, class_space_size,
                   logarithmic_order)
from .search import DEFAULT_BUDGET, lex_sorted, search


@dataclass
class SolveTask:
    """A fully specified search: equation, ring, classes, parameters, budget.

    Each parameter is bound to an element of ``ring`` by its index;
    :func:`solve` raises :class:`InvalidTask` for a value outside it, and
    its result's task holds the values as Python ints.

    ``budget`` bounds the charge of each level the kernel grows or widens
    (:func:`fnq.search.search`) and the pairs of the re-verification; past
    it, :func:`solve` raises :class:`BudgetExceeded`.
    """

    ast: EquationAst
    ring: Ring
    classes: dict[str, FunctionClass]
    params: dict[str, int] = field(default_factory=dict)
    budget: int = DEFAULT_BUDGET


@dataclass(eq=False)
class SolutionSet:
    """The exact solution set of a task, as the kernel's rows.

    ``rows`` is an int64 array of shape (solutions, unknowns, domain size):
    row ``i`` holds the value vector of each unknown of the equation, in
    free-function order, and the rows are in lexicographic order of their
    concatenated value vectors.  The reports and checks read it directly.
    ``solutions`` is the same set as one :class:`fnq.eqdsl.Binding` of
    tables per row, built on first access and then kept.  An array does
    not compare with ``==``, so solution sets compare by identity.
    """

    task: SolveTask
    rows: np.ndarray
    enumerated_count: int
    pruned_by_pivot: bool

    @functools.cached_property
    def solutions(self) -> list[Binding]:
        return [_binding(self.task, row) for row in self.rows.tolist()]


def _binding(task: SolveTask, row: list[list[int]]) -> Binding:
    """The tables of one solution row, bound with the task's parameters."""
    ring = task.ring
    return Binding(functions={n: FnTable(ring, ring, tuple(vec))
                              for n, vec in zip(task.ast.free_functions, row)},
                   params=dict(task.params))


# ----------------------------------------------------- vectorized evaluation

def batch_satisfies(ast: EquationAst, ring: Ring, fixed: dict[str, FnTable],
                    batch: dict[str, np.ndarray], params: dict[str, int]) -> np.ndarray:
    """Boolean mask over batched candidates satisfying the equation everywhere.

    The verdict of :func:`fnq.eqdsl.grid_masks` over all domain pairs; a
    fixed table counts as a batch of one row.
    """
    tables = {n: t.as_array()[None, :] for n, t in fixed.items()} | batch
    return grid_masks([ast], None, ring, ring, tables, params)[0]


# --------------------------------------------------------------- residuals

def residual(ast: EquationAst, binding: Binding, ring: Ring) -> list[tuple[int, int]]:
    """Every violating domain pair, in row-major domain order.

    This is the scalar re-verification channel: each side is compiled once
    for the call and evaluated at every pair; it shares no code with the
    search kernel or the grid evaluator.
    """
    lhs = compile_side(ast.lhs, binding, ring)
    rhs = compile_side(ast.rhs, binding, ring)
    elems = ring.domain_elements
    return [(x, y) for x in elems for y in elems if lhs(x, y) != rhs(x, y)]


# ------------------------------------------------------------------ solving

def solve(task: SolveTask) -> SolutionSet:
    """Find every satisfying binding, exactly and deterministically.

    When the y=1 pivot applies, the pivoted unknown is passed to the kernel
    last, so the pair (x, 1) computes its digits; when an unknown is
    logarithmic, the kernel takes the positions in that class's order
    (:func:`fnq.maps.logarithmic_order`).  The kernel finds the same
    solutions in any order of the unknowns and positions, and the result
    holds them as its rows in free-function order.  Each row is checked at
    every pair by :func:`residual`, through a binding built for that call
    only.
    """
    ast, ring = task.ast, task.ring
    names = ast.free_functions
    missing = [n for n in names if n not in task.classes]
    if missing:
        raise InvalidTask(f"no class declared for unknowns {missing}")
    missing_p = [p for p in ast.free_params if p not in task.params]
    if missing_p:
        raise InvalidTask(f"no value bound for parameters {missing_p}")
    # Python ints, so that the reports serialize
    task = replace(task, params={p: operator.index(v)
                                 for p, v in task.params.items()})
    for p, v in task.params.items():
        require_element(ring, v, f"parameter {p!r} = {v}")
    m = len(ring.domain_elements)

    # pivot: only when the left side is one unknown applied to x*y and the
    # unit element is part of the quantified domain
    pivot_name = None
    if (isinstance(ast.lhs, FnApp) and ast.lhs.name in names
            and ring.position[ring.one] >= 0
            and isinstance(pivot_reduce(ast, ast.lhs.name), Definition)):
        pivot_name = ast.lhs.name

    constraints = [PairConstraint(ast)]
    for n in names:
        constraints += class_constraints(ring, n, task.classes[n])
    # the pivot goes last, so that the pair (x, 1) computes its digit at x
    unknowns = sorted(range(len(names)), key=lambda i: names[i] == pivot_name)
    logarithmic = any(task.classes[n].kind == "logarithmic" for n in names)
    rows = search(constraints, tuple(names[i] for i in unknowns), ring, ring,
                  task.params, budget=task.budget,
                  order=logarithmic_order(ring) if logarithmic else None)
    if unknowns != sorted(unknowns):
        rows = lex_sorted(rows[:, np.argsort(unknowns)])
    needed = len(rows) * m * m
    if needed > task.budget:
        raise BudgetExceeded(
            f"re-verifying {len(rows)} solutions needs {needed} evaluated "
            f"pairs, budget is {task.budget}", needed=needed)
    for row in rows.tolist():
        if residual(ast, _binding(task, row), ring):
            raise FnqError(
                f"internal error: search accepted a non-solution {row}")
    return SolutionSet(task=task, rows=rows,
                       enumerated_count=prod(
                           class_space_size(ring, ring, task.classes[n])
                           for n in names if n != pivot_name),
                       pruned_by_pivot=pivot_name is not None)


# ------------------------------------------------------------ serialization

def solution_set_to_json(ss: SolutionSet) -> dict:
    task = ss.task
    return {
        "task": {
            "equation": equation_to_text(task.ast),
            "ring": task.ring.spec.to_json(),
            "ring_hash": task.ring.table_hash,
            "classes": {n: str(c) for n, c in sorted(task.classes.items())},
            "params": {n: v for n, v in sorted(task.params.items())},
            "budget": task.budget,
        },
        "enumerated_count": ss.enumerated_count,
        "pruned_by_pivot": ss.pruned_by_pivot,
        "solution_count": len(ss.rows),
        "solutions": [dict(zip(task.ast.free_functions, row))
                      for row in ss.rows.tolist()],
    }


def solution_set_to_json_bytes(ss: SolutionSet) -> bytes:
    return (json.dumps(solution_set_to_json(ss), indent=2) + "\n").encode()


def solution_set_to_csv(ss: SolutionSet) -> str:
    names = ss.task.ast.free_functions
    m = len(ss.task.ring.domain_elements)
    header = [f"{n}_{i}" for n in names for i in range(m)]
    rows = ss.rows.reshape(len(ss.rows), len(header)).tolist()
    lines = [",".join(header)] + [",".join(map(str, row)) for row in rows]
    return "\n".join(lines) + "\n"
