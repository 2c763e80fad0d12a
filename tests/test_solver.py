import json
from itertools import product as iproduct

import numpy as np
import pytest

import fnq
import fnq.cli
import fnq.solver
from fnq import search as kernel
from fnq.eqdsl import Binding, parse_equation
from fnq.errors import (BudgetExceeded, EvalDomainError, FnqError,
                        InvalidTask, UnboundName)
from fnq.maps import (ADDITIVE, ARBITRARY, LOGARITHMIC, FnTable,
                      class_constraints, class_from_string, enumerate_maps,
                      homo_deriv_sofy)
from fnq.solver import (SolveTask, residual, solution_set_to_csv,
                        solution_set_to_json, solve)
from fnq.eqdsl import grid_masks
from fnq.search import PairConstraint, search

from conftest import (brute_tables, in_class, is_homo_deriv_at,
                      reference_residual, ut2_2_additive_tables)


def brute_solutions(ring, ast, params=None, classes=None, tables=None):
    """Independent oracle: scan every table combination with scalar eval.

    Each unknown ranges over ``tables`` (default: all of them) that pass
    its class's scalar point checks.
    """
    params = params or {}
    classes = classes or {}
    names = ast.free_functions
    pool = list(tables) if tables is not None else list(brute_tables(ring))
    spaces = [[v for v in pool if in_class(ring, v, classes.get(n, ARBITRARY))]
              for n in names]
    out = []
    for combo in iproduct(*spaces):
        binding = Binding(functions={n: FnTable(ring, ring, v)
                                     for n, v in zip(names, combo)},
                          params=params)
        if not reference_residual(ast, binding, ring):
            out.append(combo)
    return sorted(out, key=lambda c: tuple(v for vec in c for v in vec))


def solutions_as_tuples(ss):
    names = ss.task.ast.free_functions
    return [tuple(b.functions[n].values for n in names) for b in ss.solutions]


def free_order_rows(task):
    """The kernel's solutions of ``task`` with the unknowns in their free
    order, so that a pivoted unknown keeps its place and is enumerated
    where the y=1 pivot would compute it last: what a solve must match."""
    ast, ring = task.ast, task.ring
    constraints = [PairConstraint(ast)]
    for n in ast.free_functions:
        constraints += class_constraints(ring, n, task.classes[n])
    found = search(constraints, tuple(ast.free_functions), ring, ring,
                   task.params, budget=task.budget)
    return [tuple(map(tuple, row)) for row in found.tolist()]


def test_leibniz_over_gf3_only_zero(gf3):
    ast = parse_equation("f(x*y)=f(x)*y+x*f(y)")
    ss = solve(SolveTask(ast, gf3, {"f": ARBITRARY}))
    assert solutions_as_tuples(ss) == [((0, 0, 0),)]
    assert ss.enumerated_count == 27
    assert not ss.pruned_by_pivot


def test_homo_deriv_over_z2_three_solutions(z2):
    ast = parse_equation("f(x*y)=f(x)*y+x*f(y)+f(x)*f(y)")
    ss = solve(SolveTask(ast, z2, {"f": ARBITRARY}))
    got = [c[0] for c in solutions_as_tuples(ss)]
    assert len(got) == 3
    # equals the multiplicative maps shifted by -id
    shifted = sorted(
        tuple(int(z2.sub(v, e)) for v, e in zip(vals, range(2)))
        for vals in [(0, 0), (0, 1), (1, 1)])
    assert got == shifted
    # independent oracle
    oracle = [v for v in iproduct(range(2), repeat=2)
              if all(is_homo_deriv_at(z2, v, x, y, 1)
                     for x in range(2) for y in range(2))]
    assert got == sorted(oracle)


def test_pexider_gf3_pivoted_matches_brute(gf3):
    ast = parse_equation("f(x*y)=h(x)*h(y)+x*k(y)+k(x)*y")
    ss = solve(SolveTask(ast, gf3, {"f": ARBITRARY, "h": ARBITRARY,
                                    "k": ARBITRARY}))
    assert ss.pruned_by_pivot
    assert ss.enumerated_count == 27 * 27
    assert solutions_as_tuples(ss) == brute_solutions(gf3, ast)


def test_pivot_and_full_enumeration_agree():
    ast = parse_equation("f(x*y)=h(x)*h(y)+x*k(y)+k(x)*y")
    for ring in (fnq.gf(2), fnq.gf(3)):
        classes = {"f": ARBITRARY, "h": ARBITRARY, "k": ARBITRARY}
        task = SolveTask(ast, ring, classes, budget=10 ** 9)
        pruned = solve(task)
        assert pruned.pruned_by_pivot
        assert solutions_as_tuples(pruned) == free_order_rows(task)


def test_pivot_vs_full_on_z4():
    ast = parse_equation("f(x*y)=h(x)*y+x*h(y)")
    ring = fnq.zn(4)
    classes = {"f": ARBITRARY, "h": ARBITRARY}
    pruned = solve(SolveTask(ast, ring, classes))
    assert pruned.pruned_by_pivot
    assert solutions_as_tuples(pruned) == free_order_rows(
        SolveTask(ast, ring, classes, budget=2 * 10 ** 6))


def _grown_widths(monkeypatch):
    """The digit index of every level the kernel grows, as they happen."""
    grown = []
    grow = kernel._grow

    def counting(rows, q, checks):
        grown.append((rows.shape[1], len(rows)))
        return grow(rows, q, checks)
    monkeypatch.setattr(kernel, "_grow", counting)
    return grown


def test_pivot_digits_are_computed_not_enumerated(monkeypatch):
    """Every check of f(x*y)=g(5)*x*y on Z6 reads g(5), so enumerating f
    as well would grow 6**11 unfiltered rows.  The pivot puts f last and
    g(5)'s position comes first, so the pair (x, 1) computes each f(x):
    only g's six digits are grown, on at most 6**5 rows.  The search with f
    first finishes too, with the same rows, since every check may run once
    g(5) is assigned."""
    grown = _grown_widths(monkeypatch)
    ring = fnq.zn(6)
    ast = parse_equation("f(x*y)=g(5)*x*y")
    ss = solve(SolveTask(ast, ring, {"f": ARBITRARY, "g": ARBITRARY}))
    expected = sorted((tuple(g[5] * x % 6 for x in range(6)), g)
                      for g in iproduct(range(6), repeat=6))
    assert ss.pruned_by_pivot
    assert solutions_as_tuples(ss) == expected
    assert len(grown) == 6 and max(rows for _, rows in grown) <= 6 ** 5
    found = search([PairConstraint(ast)], ("f", "g"), ring, ring,
                   budget=10 ** 8)
    assert [(tuple(f), tuple(g)) for f, g in found.tolist()] == expected


@pytest.mark.parametrize("ring, count", [(fnq.zn(6), 316), (fnq.gf(7), 1297)],
                         ids=["Z6", "GF7"])
def test_nested_pivot_definition_is_computed(monkeypatch, ring, count):
    """f(x*y)=g(g(x))*y: g is nested, so all its digits come first, and on
    a domain that is the whole carrier the nested pair (x, 1) computes
    f(x).  The solutions are the g with g(g(x)) = g(g(1))*x, counted here
    over every table."""
    grown = _grown_widths(monkeypatch)
    ss = solve(SolveTask(parse_equation("f(x*y)=g(g(x))*y"), ring,
                         {"f": ARBITRARY, "g": ARBITRARY}))
    n = ring.size
    tables = np.array(list(iproduct(range(n), repeat=n)), dtype=np.int64)
    twice = np.take_along_axis(tables, tables, axis=1)
    linear = twice == ring.mul[twice[:, [ring.one]], np.arange(n)]
    assert ss.pruned_by_pivot and len(ss.solutions) == count
    assert int(linear.all(axis=1).sum()) == count
    # digits 0..n-1 are g's; f's never grow
    assert grown and all(width < n for width, _ in grown)


# pivot equations of the tests and of the benchmark's solve templates
PIVOT_EQUATIONS = (
    "f(x*y)=h(x)*h(y)+x*k(y)+k(x)*y",
    "f(x*y)=g(x)*y+x*g(y)",
    "f(x*y)=g(x)*g(y)",
    "f(x*y)=h(x)*y+x*h(y)",
    "f(x*y)=h(x)*y+y",
    "g(x*y)=f(x)*y",
    "g(x*y)=y*f(x)",
    "f(x*y)=g(x+h(y))",
    "f(x*y)=g(g(x))*y",
    "f(x*y)=g(3)*x*y",
    "f(x*y)=g(5)*x*y",
    "f(x*y)=g(x+1)*y",
    "f(x*y)=x*y",
    "f(x*y)=2*x+1",
)
PIVOT_RINGS = {
    **{f"Z{n}": (lambda n=n: fnq.zn(n)) for n in range(2, 7)},
    "GF4": lambda: fnq.gf(2, 2),
    "F2[x]/(x^2)": lambda: fnq.ring_from_json(
        '{"kind": "PolyQuot", "p": 2, "k": 2}'),
    "Z2xZ2": lambda: fnq.ring_from_json(
        '{"kind": "Product", "left": {"kind": "Zn", "n": 2},'
        ' "right": {"kind": "Zn", "n": 2}}'),
    "UT2(2)": lambda: fnq.ring_from_json('{"kind": "UT2", "p": 2}'),
}


@pytest.mark.parametrize("ring_name", PIVOT_RINGS)
def test_pivot_order_matches_unpivoted_solve(ring_name):
    """Differential: the pivot changes the kernel's order of the unknowns,
    never the solutions, wherever the kernel's search with the unknowns in
    free order and the pivoted solve fit the budget.  At 2**20, above the
    largest charge among them (f(x*y)=g(x+h(y)) on the rings of size 4
    widens 65,536 rows to 12 digits), every task whose whole candidate
    space is at most 10**10 pairs runs (Z5 two-unknown and Z4
    three-unknown tasks among them); of the larger ones only those the
    kernel prunes early run, and the rest are refused within
    milliseconds."""
    ring = PIVOT_RINGS[ring_name]()
    m = len(ring.domain_elements)
    compared = 0
    for text in PIVOT_EQUATIONS:
        ast = parse_equation(text)
        task = SolveTask(ast, ring, {n: ARBITRARY for n in ast.free_functions},
                         budget=2 ** 20)
        try:
            full = free_order_rows(task)
            pruned = solve(task)
        except BudgetExceeded:
            space = ring.size ** (m * len(ast.free_functions)) * m * m
            assert space > 10 ** 10, text
            continue
        assert pruned.pruned_by_pivot, text
        assert solutions_as_tuples(pruned) == full, text
        compared += 1
    assert compared >= 2


def test_pivot_with_late_checks_solves(z4):
    ast = parse_equation("f(x*y)=g(3)*x*y")
    ss = solve(SolveTask(ast, z4, {"f": ARBITRARY, "g": ARBITRARY}))
    assert ss.pruned_by_pivot
    assert ss.enumerated_count == 4 ** 4
    assert solutions_as_tuples(ss) == sorted(
        (tuple(g[3] * x % 4 for x in range(4)), g)
        for g in iproduct(range(4), repeat=4))


def test_contradiction_at_a_computed_level_leaves_no_solution():
    # on Z2xZ4 an additive f has f(0) = 0, but f(x+x) = x+x+x at x = (1, 0)
    # asks f(0) = (1, 0): the rows die at computed levels, and a grown
    # level (a second additive generator) still follows them
    ring = fnq.product(fnq.zn(2), fnq.zn(4))
    task = SolveTask(parse_equation("f(x+x)=x+x+x"), ring, {"f": ADDITIVE})
    assert solve(task).solutions == [] == free_order_rows(task)


def test_residual_examples(gf3, z6):
    ast = parse_equation("f(x*y)=h(x)*h(y)+x*k(y)+k(x)*y")
    two_x = FnTable(gf3, gf3, (0, 2, 1))
    ident = FnTable(gf3, gf3, (0, 1, 2))
    binding = Binding(functions={"f": two_x, "h": ident, "k": two_x}, params={})
    assert residual(ast, binding, gf3) == []
    perturbed = Binding(functions={"f": FnTable(gf3, gf3, (1, 2, 1)),
                                   "h": ident, "k": two_x}, params={})
    bad = residual(ast, perturbed, gf3)
    assert (0, 0) in bad
    hd = parse_equation("h(x*y)=h(x)*y+x*h(y)+e*h(x)*h(y)")
    zero_binding = Binding(functions={"h": FnTable(z6, z6, (0,) * 6)},
                           params={"e": 1})
    assert residual(hd, zero_binding, z6) == []


def test_corrupted_kernel_is_caught_by_reverification(gf3, monkeypatch):
    # the only Leibniz map of GF(3) is zero; the identity violates the
    # equation at (1, 1), so the scalar re-verification must refuse it
    real_search = fnq.solver.search

    def corrupted(*args, **kwargs):
        found = real_search(*args, **kwargs)
        return np.concatenate([found, [[[0, 1, 2]]]]).astype(found.dtype)

    monkeypatch.setattr(fnq.solver, "search", corrupted)
    ast = parse_equation("f(x*y)=f(x)*y+x*f(y)")
    with pytest.raises(FnqError, match=r"internal error: search accepted "
                                       r"a non-solution \[\[0, 1, 2\]\]"):
        solve(SolveTask(ast, gf3, {"f": ARBITRARY}))
    # prop1 solves the same equation over multiplicative maps; the identity
    # is multiplicative, so only the re-verification refuses it
    with pytest.raises(FnqError, match=r"internal error: search accepted "
                                       r"a non-solution \[\[0, 1, 2\]\]"):
        fnq.theorems.verify_mp(gf3)


def test_solution_order_is_canonical(gf3):
    ast = parse_equation("f(x*y)=h(x)*h(y)+x*k(y)+k(x)*y")
    ss = solve(SolveTask(ast, gf3, {"f": ARBITRARY, "h": ARBITRARY,
                                    "k": ARBITRARY}))
    keys = [tuple(v for vec in row for v in vec)
            for row in solutions_as_tuples(ss)]
    assert keys == sorted(keys)


@pytest.mark.parametrize("order", [[0, 1], [0, 1, 1], [0, 1, 3], [2, 1, 0, 0]])
def test_search_order_must_be_a_permutation(gf3, order):
    ast = parse_equation("f(x*y)=f(x)*f(y)")
    with pytest.raises(ValueError, match="not a permutation"):
        search([PairConstraint(ast)], ("f",), gf3, gf3, order=order)


def test_search_order_changes_no_solution(gf3, z6):
    ast = parse_equation("f(x*y)=f(x)*y+x*f(y)+e*f(x)*f(y)")
    for ring, order in ((gf3, [2, 0, 1]), (z6, [5, 3, 1, 0, 4, 2])):
        found = search([PairConstraint(ast)], ("f",), ring, ring, {"e": 1})
        assert np.array_equal(found, search([PairConstraint(ast)], ("f",),
                                            ring, ring, {"e": 1}, order=order))


def test_budget_exceeded_reports_needed(z6):
    # the first grown level, f(1), is charged its one row times 6 values
    # times the pair (1, 1) its check reads plus the one digit of a grown
    # row; the kernel keeps f(1) = 0, and f(0)'s level is charged 6 values
    # times its 3 pairs (0, 0), (0, 1), (1, 0) plus 2 digits
    ast = parse_equation("f(x*y)=f(x)*y+x*f(y)")
    with pytest.raises(BudgetExceeded, match="search level 0 ") as err:
        solve(SolveTask(ast, z6, {"f": ARBITRARY}, budget=11))
    assert err.value.needed == 6 * (1 + 1)
    with pytest.raises(BudgetExceeded, match="search level 1 ") as err:
        solve(SolveTask(ast, z6, {"f": ARBITRARY}, budget=12))
    assert err.value.needed == 6 * (3 + 2)


def test_reverification_is_charged_before_any_binding_is_built(gf3):
    # every table solves f(x+y)=f(x+y); the kernel's largest level charge
    # is 9 rows times 3 values times (3 pairs + 3 digits) = 162, and the
    # 27 solutions are re-verified at 9 pairs each
    ast = parse_equation("f(x+y)=f(x+y)")
    with pytest.raises(BudgetExceeded, match="re-verifying 27 solutions "
                       "needs 243 evaluated pairs") as err:
        solve(SolveTask(ast, gf3, {"f": ARBITRARY}, budget=242))
    assert err.value.needed == 243
    assert len(solve(SolveTask(ast, gf3, {"f": ARBITRARY},
                               budget=243)).solutions) == 27


def test_invalid_task(gf3):
    ast = parse_equation("f(x*y)=f(x)*y+x*f(y)")
    with pytest.raises(InvalidTask):
        solve(SolveTask(ast, gf3, {}))
    hd = parse_equation("h(x*y)=h(x)*y+x*h(y)+e*h(x)*h(y)")
    with pytest.raises(InvalidTask):
        solve(SolveTask(hd, gf3, {"h": ARBITRARY}))


@pytest.mark.parametrize("value", [10, -1])
def test_parameter_outside_the_ring_is_an_invalid_task(z6, value):
    # a constant argument reads the parameter's position; an index past
    # the carrier and a negative one are no elements of Z6
    ast = parse_equation("f(x*y)=g(a)*x*y")
    task = SolveTask(ast, z6, {"f": ARBITRARY, "g": ARBITRARY},
                     params={"a": value})
    with pytest.raises(InvalidTask, match=f"parameter 'a' = {value} "):
        solve(task)


def test_numpy_parameter_serializes_as_a_python_int(z4):
    ast = parse_equation("f(x*y)=a*f(x)*y")
    ss = solve(SolveTask(ast, z4, {"f": ARBITRARY}, params={"a": np.int64(2)}))
    doc = json.loads(json.dumps(solution_set_to_json(ss)))
    assert doc["task"]["params"] == {"a": 2}
    assert type(ss.task.params["a"]) is int


def test_class_restricted_solve_matches_enumeration(z4):
    # additive solutions of the shifted equation = the shifted class itself
    hd = parse_equation("h(x*y)=h(x)*y+x*h(y)+e*h(x)*h(y)")
    ss = solve(SolveTask(hd, z4, {"h": ADDITIVE}, params={"e": 1}))
    got = [c[0] for c in solutions_as_tuples(ss)]
    expected = [t.values for t in enumerate_maps(z4, z4, homo_deriv_sofy(1))]
    assert got == expected


def test_subring_solve(z6):
    ring = fnq.zn(6, subring=(0, 2, 4))
    ast = parse_equation("f(x*y)=f(x)*y+x*f(y)")
    ss = solve(SolveTask(ast, ring, {"f": ARBITRARY}))
    assert not ss.pruned_by_pivot  # no unit inside the declared domain
    assert ss.enumerated_count == 6 ** 3
    got = [c[0] for c in solutions_as_tuples(ss)]
    oracle = []
    elems = (0, 2, 4)
    for vals in iproduct(range(6), repeat=3):
        table = dict(zip(elems, vals))
        if all(table[int(z6.mul[x, y])]
               == int(z6.add[z6.mul[table[x], y], z6.mul[x, table[y]]])
               for x in elems for y in elems):
            oracle.append(vals)
    assert got == sorted(oracle)


def test_serialization_golden(z2):
    ast = parse_equation("f(x*y)=f(x)*f(y)")
    ss = solve(SolveTask(ast, z2, {"f": ARBITRARY}))
    doc = solution_set_to_json(ss)
    assert doc["task"]["equation"] == "f(x*y)=f(x)*f(y)"
    assert doc["solution_count"] == 3
    assert doc["solutions"] == [{"f": [0, 0]}, {"f": [0, 1]}, {"f": [1, 1]}]
    csv = solution_set_to_csv(ss)
    assert csv.splitlines()[0] == "f_0,f_1"
    assert csv.splitlines()[1] == "0,0"


def test_nested_unknowns_fall_back(z2):
    # nesting is legal; the solver must still be exact
    ast = parse_equation("f(f(x))=x*y+f(x)*f(y)-x*y-f(y)*f(x)+f(f(x))")
    ss = solve(SolveTask(ast, z2, {"f": ARBITRARY}))
    assert len(ss.solutions) == 4  # identity holds for every f over Z_2


# ------------------------------------------------ differential tests

from functools import lru_cache

from hypothesis import given, settings, strategies as st

from fnq.eqdsl import Add, FnApp, IntLit, Mul, Neg, Param, Sub, Var
from fnq.eqdsl import EquationAst

_CARRIERS = {
    "Z2": lambda: fnq.zn(2),
    "Z3": lambda: fnq.zn(3),
    "GF3": lambda: fnq.gf(3),
    "Z4": lambda: fnq.zn(4),
    "GF4": lambda: fnq.gf(2, 2, modulus=(1, 1, 1)),
    "F2[x]/(x^2)": lambda: fnq.poly_quot(2, 2),
    "Z6{0,2,4}": lambda: fnq.zn(6, subring=(0, 2, 4)),
    "Z2xZ2": lambda: fnq.product(fnq.zn(2), fnq.zn(2)),
    "UT2(2)": lambda: fnq.ut2(2),
}
_SMALL = ("Z4", "GF4", "F2[x]/(x^2)", "Z6{0,2,4}", "Z2xZ2")
_ALL_KINDS = ("arbitrary", "additive", "multiplicative", "homomorphism",
              "leibniz", "derivation", "logarithmic", "homo-deriv-mp",
              "homo-deriv-sofy")
# UT2(2) has 8**8 tables; the oracle scans its 512 additive ones instead
_ADDITIVE_KINDS = ("additive", "homomorphism", "derivation", "homo-deriv-mp",
                   "homo-deriv-sofy")


@lru_cache(maxsize=None)
def carrier(name):
    return _CARRIERS[name]()


def class_of(kind, ring):
    if kind == "homo-deriv-sofy":
        return homo_deriv_sofy(ring.one)
    return class_from_string(kind)


def check_against_oracle(ring_name, text, kinds=None, params=None):
    ring = carrier(ring_name)
    ast = parse_equation(text)
    kinds = kinds or {}
    classes = {n: class_of(kinds.get(n, "arbitrary"), ring)
               for n in ast.free_functions}
    tables = ut2_2_additive_tables(ring) if ring_name == "UT2(2)" else None
    ss = solve(SolveTask(ast, ring, classes, params=dict(params or {})))
    expected = brute_solutions(ring, ast, params, classes, tables)
    assert solutions_as_tuples(ss) == expected
    return ss


@pytest.mark.parametrize("kind", _ALL_KINDS)
@pytest.mark.parametrize("ring_name", _SMALL)
def test_every_class_matches_scalar_oracle(ring_name, kind):
    check_against_oracle(ring_name, "f(x*x)=f(x)*f(x)", {"f": kind})


@pytest.mark.parametrize("kind", _ADDITIVE_KINDS)
def test_classes_on_noncommutative_ut2(kind):
    check_against_oracle("UT2(2)", "f(x*y-y*x)=f(x)*y-y*f(x)+x*f(y)-f(y)*x",
                         {"f": kind})


def test_class_parameter_does_not_clash_with_equation_parameter():
    # the class binds its own e=3 while the equation's e is 1
    ring = carrier("Z4")
    ast = parse_equation("h(x*y)=h(x)*y+x*h(y)+e*h(x)*h(y)")
    classes = {"h": homo_deriv_sofy(3)}
    ss = solve(SolveTask(ast, ring, classes, params={"e": 1}))
    assert solutions_as_tuples(ss) == brute_solutions(ring, ast, {"e": 1},
                                                      classes)


@pytest.mark.parametrize("ring_name,text,kinds,params", [
    ("Z2", "f(x*y)=h(x)*h(y)+x*k(y)+k(x)*y", {}, {}),
    ("Z3", "f(x*y)=g(x)*g(y)", {}, {}),
    ("Z3", "f(x+y)=g(x)+g(y)", {}, {}),
    ("GF4", "f(x*y)=g(x)*y+x*g(y)", {"g": "leibniz"}, {}),
    ("Z2xZ2", "f(x+y)=g(x)+g(y)", {"g": "additive"}, {}),
    ("F2[x]/(x^2)", "f(x*y)=h(x)*h(y)+x*k(y)+k(x)*y",
     {"f": "additive", "h": "multiplicative", "k": "derivation"}, {}),
    ("Z4", "f(f(x))=x", {}, {}),
    ("GF4", "f(x+f(y))=f(x)+y", {}, {}),
    ("Z2xZ2", "f(f(x)*y)=f(x)*f(y)", {}, {}),
    ("Z6{0,2,4}", "f(f(x))=f(x)", {"f": "additive"}, {}),
    ("GF4", "f(x*y)=g(g(x))*y", {"g": "multiplicative"}, {}),
    ("Z3", "f(x*y)=g(x+h(y))", {"h": "additive"}, {}),
    ("Z6{0,2,4}", "f(x*y)=g(x)*y+x*g(y)", {"f": "additive"}, {}),
    ("Z4", "f(x*y)=a*f(x)*f(y)", {}, {"a": 3}),
    ("GF4", "f(x*y)=f(x)*y+x*f(y)+b*x*y", {}, {"b": 2}),
    ("Z2xZ2", "f(x*y)=f(x)*f(y)+2*x*y", {"f": "logarithmic"}, {}),
    ("UT2(2)", "f(f(x))=x", {"f": "additive"}, {}),
    ("UT2(2)", "h(x*y)=h(x)*y+x*h(y)+e*h(x)*h(y)", {"h": "additive"},
     {"e": 5}),
    ("UT2(2)", "f(x*y)=g(x)*y+x*g(y)", {"f": "additive", "g": "derivation"},
     {}),
])
def test_multi_unknown_nested_and_parameterised(ring_name, text, kinds, params):
    check_against_oracle(ring_name, text, kinds, params)


@pytest.mark.parametrize("text", ["f(x+1)=f(x)", "f(f(x))=x"])
def test_argument_outside_subring_raises_like_oracle(text):
    ring = carrier("Z6{0,2,4}")
    ast = parse_equation(text)
    with pytest.raises(EvalDomainError):
        solve(SolveTask(ast, ring, {"f": ARBITRARY}))
    with pytest.raises(EvalDomainError):
        brute_solutions(ring, ast)


def _generated_ast(lhs, rhs):
    """The equation of two generated sides, with its free names."""
    functions, params = [], []
    from fnq.eqdsl import _collect_names
    _collect_names(lhs, functions, params)
    _collect_names(rhs, functions, params)
    return EquationAst(lhs, rhs, tuple(functions), tuple(params))


# carriers the generated tasks draw from, and which unknowns they may use:
# two unknowns only where the oracle's product of table spaces stays small
_GENERATED = {"Z2": ("f", "g"), "GF3": ("f", "g"), "Z4": ("f",),
              "GF4": ("f",), "F2[x]/(x^2)": ("f",), "Z6{0,2,4}": ("f",),
              "Z2xZ2": ("f",), "UT2(2)": ("f",)}


def _solver_exprs(depth):
    leaf = st.one_of(
        st.sampled_from([Var("x"), Var("y"), Param("lam"),
                         FnApp("f", Var("x")), FnApp("f", Var("y")),
                         FnApp("f", Mul(Var("x"), Var("y")))]),
        st.integers(min_value=0, max_value=2).map(IntLit))
    if depth == 0:
        return leaf
    sub = _solver_exprs(depth - 1)
    return st.one_of(
        leaf,
        st.tuples(sub, sub).map(lambda p: Add(*p)),
        st.tuples(sub, sub).map(lambda p: Sub(*p)),
        st.tuples(sub, sub).map(lambda p: Mul(*p)),
        sub.map(Neg),
    )


@settings(max_examples=60, deadline=None, derandomize=True)
@given(lhs=_solver_exprs(2), rhs=_solver_exprs(2),
       ring_name=st.sampled_from(["z2", "gf3"]))
def test_solve_matches_scalar_brute_oracle(lhs, rhs, ring_name):
    """The vectorized search agrees with plain scalar enumeration on
    arbitrary generated equations (pivoted or not)."""
    ring = {"z2": fnq.zn(2), "gf3": fnq.gf(3)}[ring_name]
    ast = _generated_ast(lhs, rhs)
    bound = {"lam": 1} if "lam" in ast.free_params else {}
    ss = solve(SolveTask(ast, ring, {n: ARBITRARY for n in ast.free_functions},
                         params=bound))
    got = solutions_as_tuples(ss)
    expected = brute_solutions(ring, ast, params=bound)
    assert got == expected


@st.composite
def generated_tasks(draw):
    ring_name = draw(st.sampled_from(sorted(_GENERATED)))
    names = _GENERATED[ring_name]
    leaves = [Var("x"), Var("y"), Param("lam")]
    for n in names:
        leaves += [FnApp(n, Var("x")), FnApp(n, Var("y")),
                   FnApp(n, Mul(Var("x"), Var("y")))]
    if ring_name != "Z6{0,2,4}":
        # a nested argument may leave a subring after the oracle has
        # stopped at an earlier failing pair; tested separately above
        leaves += [FnApp("f", FnApp("f", Var("x"))),
                   FnApp("f", FnApp(names[-1], Var("y")))]
    leaf = st.one_of(st.sampled_from(leaves),
                     st.integers(min_value=0, max_value=2).map(IntLit))

    def grow(sub):
        return st.one_of(
            st.tuples(sub, sub).map(lambda p: Add(*p)),
            st.tuples(sub, sub).map(lambda p: Sub(*p)),
            st.tuples(sub, sub).map(lambda p: Mul(*p)),
            sub.map(Neg))

    expr = st.recursive(leaf, grow, max_leaves=6)
    lhs, rhs = draw(expr), draw(expr)
    kinds = _ADDITIVE_KINDS if ring_name == "UT2(2)" else _ALL_KINDS
    classes = {n: draw(st.sampled_from(kinds)) for n in names}
    return ring_name, lhs, rhs, classes


@settings(max_examples=150, deadline=None, derandomize=True)
@given(task=generated_tasks())
def test_solve_matches_scalar_brute_oracle_on_generated_tasks(task):
    """The search agrees with plain scalar enumeration on generated
    equations: several carriers (a subring and a noncommutative one among
    them), two unknowns, nested unknowns, parameters and every class."""
    ring_name, lhs, rhs, kinds = task
    ring = carrier(ring_name)
    ast = _generated_ast(lhs, rhs)
    bound = {"lam": 1} if "lam" in ast.free_params else {}
    classes = {n: class_of(kinds[n], ring) for n in ast.free_functions}
    tables = ut2_2_additive_tables(ring) if ring_name == "UT2(2)" else None
    ss = solve(SolveTask(ast, ring, classes, params=bound))
    got = solutions_as_tuples(ss)
    expected = brute_solutions(ring, ast, bound, classes, tables)
    assert got == expected


@settings(max_examples=150, deadline=None, derandomize=True)
@given(task=generated_tasks(), data=st.data())
def test_residual_matches_reference_and_grid_on_generated_tasks(task, data):
    """The compiled scalar re-verifier lists the same violating pairs as
    the reference walk, and its verdict is the grid evaluator's, on
    arbitrary tables (the zero map among them, which often solves)."""
    ring_name, lhs, rhs, _ = task
    ring = carrier(ring_name)
    ast = _generated_ast(lhs, rhs)
    m = len(ring.domain_elements)
    values = st.one_of(
        st.just((ring.zero,) * m),
        st.tuples(*[st.integers(0, ring.size - 1)] * m))
    tables = {n: data.draw(values) for n in ast.free_functions}
    params = {"lam": 1} if "lam" in ast.free_params else {}
    binding = Binding(functions={n: FnTable(ring, ring, v)
                                 for n, v in tables.items()}, params=params)
    bad = residual(ast, binding, ring)
    assert bad == reference_residual(ast, binding, ring)
    grid, = grid_masks([ast], None, ring, ring,
                       {n: np.asarray([v]) for n, v in tables.items()},
                       params)
    assert bool(grid[0]) == (bad == [])


@pytest.mark.parametrize("text,params,error", [
    ("f(x+1)=f(x)", {}, EvalDomainError),      # x+1 leaves {0,2,4}
    ("f(f(x))=x", {}, EvalDomainError),         # f(0)=1 lies outside
    ("f(x+1)=lam", {}, EvalDomainError),        # the left side fails first
    ("lam=f(x+1)", {}, UnboundName),            # the unbound name first
    ("f(x*y)=lam*x", {}, UnboundName),
    ("g(x)=f(x)", {}, UnboundName),
])
def test_residual_errors_match_reference(text, params, error):
    ring = carrier("Z6{0,2,4}")
    ast = parse_equation(text)
    binding = Binding(functions={"f": FnTable(ring, ring, (1, 0, 0))},
                      params=params)
    with pytest.raises(error):
        reference_residual(ast, binding, ring)
    with pytest.raises(error):
        residual(ast, binding, ring)


def test_pivoted_solve_with_no_solution_reports_none(capsys):
    # f(x) = g(x) + x from y = 1, but y = 0 asks f(0) = x for every x
    ring = fnq.zn(4)
    task = SolveTask(parse_equation("f(x*y)=g(x)*y+x"), ring,
                     {"f": ARBITRARY, "g": ARBITRARY})
    ss = solve(task)
    assert ss.pruned_by_pivot and ss.rows.shape == (0, 2, 4)
    assert ss.solutions == []
    code = fnq.cli.main(["solve", "--ring", '{"kind":"Zn","n":4}',
                         "--eq", "f(x*y)=g(x)*y+x", "--out", "json"])
    doc = json.loads(capsys.readouterr().out)
    assert code == 0
    assert doc["solution_count"] == 0 and doc["solutions"] == []


def test_pivoted_solutions_come_in_free_function_order():
    # f(x) = g(x) - x for the 4 homomorphisms g = e*x, e idempotent; the
    # kernel takes (g, f), and g's order runs opposite to f's
    ring = fnq.ring_from_json(json.dumps(
        {"kind": "Product", "left": {"kind": "Zn", "n": 16},
         "right": {"kind": "Zn", "n": 16}}))
    ss = solve(SolveTask(parse_equation("f(x*y)=g(x)*y-x*y"), ring,
                         {"f": ARBITRARY, "g": class_from_string(
                             "homomorphism")}))
    elems = ring.element_array
    gs = [ring.mul[e, elems] for e in range(ring.size)
          if ring.mul[e, e] == e]
    expected = sorted((ring.add[g, ring.neg[elems]].tolist(), g.tolist())
                      for g in gs)
    assert ss.pruned_by_pivot
    assert ss.rows.tolist() == [list(pair) for pair in expected]
    assert ss.rows.max() == 255
    by_g = sorted(expected, key=lambda pair: pair[1])
    assert by_g == expected[::-1]
    assert solutions_as_tuples(ss) == [tuple(map(tuple, pair))
                                       for pair in expected]


@pytest.mark.parametrize("k", [6, 8])
def test_logarithmic_solve_takes_the_class_order(k):
    # in the default order the kernel would grow every unit's digit and
    # pass the default budget; the class's order computes all but one
    ring = fnq.gf(2, k)
    ss = solve(SolveTask(parse_equation("f(x)=f(x)"), ring,
                         {"f": class_from_string("logarithmic")}))
    assert ss.rows[:, 0].tolist() == [
        list(t.values) for t in enumerate_maps(ring, ring, LOGARITHMIC)]


def test_solution_set_holds_rows_and_builds_bindings_once(z6):
    ss = solve(SolveTask(parse_equation("h(x*y)=h(x)*y+x*h(y)+e*h(x)*h(y)"),
                         z6, {"h": ARBITRARY}, params={"e": 3}))
    assert ss.rows.dtype == np.int64 and ss.rows.shape == (5, 1, 6)
    assert ss.solutions is ss.solutions
    assert [list(b.functions["h"].values) for b in ss.solutions] == (
        ss.rows[:, 0].tolist())
    assert all(b.params == {"e": 3} for b in ss.solutions)
