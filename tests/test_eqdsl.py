import json
from itertools import product as iproduct

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import fnq
from fnq import eqdsl, maps, search
from fnq.eqdsl import (Add, Binding, Constraint, Definition, FnApp, IntLit,
                       Mul, Neg, NotReducible, Param, Sub, Var,
                       compile_side, equation_to_text,
                       children, eval_side, expr_to_json, expr_to_text,
                       grid_masks, parse_equation, pivot_reduce, substitute)
from fnq.errors import (ArityError, EquationSyntaxError, EvalDomainError,
                        InvalidTask, UnboundName)
from fnq.maps import FnTable, identity_map, zero_map
from fnq.solver import residual

from conftest import reference_eval, ut2_2_additive_tables


def test_parse_free_names():
    ast = parse_equation("f(x*y)=f(x)*y+x*f(y)+f(x)*f(y)")
    assert ast.free_functions == ("f",)
    assert ast.free_params == ()
    ast2 = parse_equation("f(x*y)=h(x)*h(y)+x*k(y)+k(x)*y")
    assert ast2.free_functions == ("f", "h", "k")
    ast3 = parse_equation("h(x*y)=h(x)*y+x*h(y)+e*h(x)*h(y)")
    assert ast3.free_params == ("e",)


def test_parse_structure():
    ast = parse_equation("f(x*y)=-2+lam*x")
    assert ast.lhs == FnApp("f", Mul(Var("x"), Var("y")))
    assert ast.rhs == Add(Neg(IntLit(2)), Mul(Param("lam"), Var("x")))


def test_syntax_error_offsets():
    with pytest.raises(EquationSyntaxError) as err:
        parse_equation("f(x*y)=")
    assert err.value.offset == 8
    with pytest.raises(EquationSyntaxError) as err:
        parse_equation("f(x*y)")
    assert err.value.offset == 7
    with pytest.raises(EquationSyntaxError) as err:
        parse_equation("f(x$y)=0")
    assert err.value.offset == 4
    with pytest.raises(EquationSyntaxError) as err:
        parse_equation("f(x)=x y")
    assert err.value.offset == 8


def test_arity_error():
    with pytest.raises(ArityError):
        parse_equation("f(x*y)=f+x")


def test_eval_basics(z6):
    ast = parse_equation("f(x*y)=x*y")
    binding = Binding(functions={"f": identity_map(z6)}, params={})
    assert eval_side(ast.rhs, binding, 2, 3, z6) == 0
    assert eval_side(ast.lhs, binding, 2, 3, z6) == 0


def test_eval_homo_deriv_rhs_zero_map(z4):
    ast = parse_equation("h(x*y)=h(x)*y+x*h(y)+e*h(x)*h(y)")
    binding = Binding(functions={"h": zero_map(z4)}, params={"e": 1})
    for x in range(4):
        for y in range(4):
            assert eval_side(ast.rhs, binding, x, y, z4) == 0


def test_eval_respects_operand_order(ut2_2):
    left = parse_equation("g(x*y)=f(x)*y").rhs
    right = parse_equation("g(x*y)=y*f(x)").rhs
    binding = Binding(functions={"f": identity_map(ut2_2)}, params={})
    diffs = [(a, b) for a in range(8) for b in range(8)
             if eval_side(left, binding, a, b, ut2_2)
             != eval_side(right, binding, a, b, ut2_2)]
    assert diffs  # noncommutative: textual order matters
    # spot check against hand matrix products: x=[[0,1],[0,0]] (idx 2),
    # y=[[0,0],[0,1]] (idx 1): x*y=[[0,1],[0,0]] but y*x=[[0,0],[0,0]]
    assert eval_side(left, binding, 2, 1, ut2_2) == 2
    assert eval_side(right, binding, 2, 1, ut2_2) == 0


# operand shapes the compiler treats apart: constants on either side of an
# operation, x*y and its mixes with an unknown, subtraction and negation,
# nested unknowns and parameters (lam=2 is not central in UT2(2))
_SHAPES = ["f(x*y)=y*x", "f(2*x)=x*3", "f(x)-y=-(f(y)-2)",
           "lam*f(x)=f(x)*lam", "f(x*x)=y*y", "f(f(y))-1=lam-x",
           "f(1)=-x*f(y)*y", "x*f(y)=f(x)*y", "f(x+y)=2-lam", "0=3"]


@pytest.mark.parametrize("text", _SHAPES)
@pytest.mark.parametrize("ring_name", ["z6", "ut2_2"])
def test_compiled_sides_match_reference(text, ring_name, request):
    ring = request.getfixturevalue(ring_name)
    ast = parse_equation(text)
    table = FnTable(ring, ring, tuple((3 * e + 1) % ring.size
                                      for e in range(ring.size)))
    # a value table is read directly, any other callable is called
    for f in (table, lambda e: table(e)):
        binding = Binding(functions={"f": f}, params={"lam": 2})
        for side in (ast.lhs, ast.rhs):
            compiled = compile_side(side, binding, ring)
            for x, y in iproduct(range(ring.size), repeat=2):
                want = reference_eval(side, binding, x, y, ring)
                assert compiled(x, y) == want
                assert eval_side(side, binding, x, y, ring) == want


def test_eval_literals(gf3):
    ast = parse_equation("f(x*y)=2*x+1")
    binding = Binding(functions={}, params={})
    assert eval_side(ast.rhs, binding, 1, 0, gf3) == 0  # 2*1+1 = 3 = 0


def test_eval_unbound(gf3):
    ast = parse_equation("f(x*y)=lam*x")
    binding = Binding(functions={}, params={})
    with pytest.raises(UnboundName):
        eval_side(ast.rhs, binding, 1, 1, gf3)
    with pytest.raises(UnboundName):
        eval_side(ast.lhs, binding, 1, 1, gf3)


def test_parameter_values_outside_the_ring_raise():
    # a negative value is not wrapped and one past the carrier is not left
    # to an IndexError: both evaluators reject any value that is no element
    ring = fnq.zn(5)
    ast = parse_equation("f(x*y)=f(x)*y+x*f(y)+e*f(x)*f(y)")
    f = identity_map(ring)
    rows = f.as_array()[None]
    for bad in (-1, 5, 7):
        binding = Binding({"f": f}, {"e": bad})
        with pytest.raises(InvalidTask):
            eval_side(ast.rhs, binding, 1, 1, ring)
        with pytest.raises(InvalidTask):
            residual(ast, binding, ring)
        for value in (bad, np.array([0, bad, 1])):
            with pytest.raises(InvalidTask):
                grid_masks([ast], None, ring, ring, {"f": rows}, {"e": value})
    # the scalar errors come in evaluation order, left operand first
    binding = Binding({}, {"e": 7})
    with pytest.raises(UnboundName):
        eval_side(parse_equation("g(x)+e=0").lhs, binding, 1, 1, ring)
    with pytest.raises(InvalidTask):
        eval_side(parse_equation("e+g(x)=0").lhs, binding, 1, 1, ring)


@pytest.mark.parametrize("ring", [fnq.zn(4), fnq.zn(2)], ids=["z4", "z2"])
def test_a_table_between_two_rings_raises_where_evaluation_reaches_it(ring):
    # the scalar evaluator runs everything in one ring, so a table from Z2
    # to Z4 fits neither: over Z4 it would read f(3), over Z2 add f's 2
    ast = parse_equation("f(x+y)=f(x)+f(y)")
    binding = Binding({"f": FnTable(fnq.zn(2), fnq.zn(4), (0, 2))}, {})
    side = compile_side(ast.rhs, binding, ring)
    with pytest.raises(EvalDomainError, match="maps between rings"):
        side(1, 1)
    with pytest.raises(EvalDomainError):
        eval_side(ast.lhs, binding, 0, 0, ring)
    with pytest.raises(EvalDomainError):
        residual(ast, binding, ring)
    # the argument is evaluated first, and a side that does not apply the
    # table evaluates as before
    with pytest.raises(UnboundName):
        eval_side(parse_equation("f(g(x))=0").lhs, binding, 0, 0, ring)
    assert eval_side(parse_equation("x+y=f(x)").lhs, binding, 1, 1, ring) \
        == int(ring.add[1, 1])


def test_pivot_definition_golden():
    ast = parse_equation("f(x*y)=h(x)*h(y)+x*k(y)+k(x)*y")
    result = pivot_reduce(ast, "f")
    assert isinstance(result, Definition)
    assert expr_to_text(result.expr) == "h(x)*h(1)+x*k(1)+k(x)*1"


def test_pivot_constraint_homo_deriv():
    ast = parse_equation("h(x*y)=h(x)*y+x*h(y)+h(x)*h(y)")
    result = pivot_reduce(ast, "h")
    assert isinstance(result, Constraint)
    assert expr_to_text(result.expr) == "x*h(1)+h(x)*h(1)"


def test_pivot_constraint_leibniz():
    ast = parse_equation("f(x*y)=f(x)*y+x*f(y)")
    result = pivot_reduce(ast, "f")
    assert isinstance(result, Constraint)
    assert expr_to_text(result.expr) == "x*f(1)"


def test_pivot_not_reducible():
    ast = parse_equation("f(y*x)=x*k(y)")
    assert isinstance(pivot_reduce(ast, "f"), NotReducible)
    ast2 = parse_equation("f(x*y)+x=k(x)*y")
    assert isinstance(pivot_reduce(ast2, "f"), NotReducible)


def test_eval_respects_definition(z2):
    # every brute-force solution of the pivoted equation also satisfies the
    # pivot definition pointwise
    ast = parse_equation("f(x*y)=h(x)*h(y)+x*k(y)+k(x)*y")
    defn = pivot_reduce(ast, "f")
    assert isinstance(defn, Definition)
    for fv in iproduct(range(2), repeat=2):
        for hv in iproduct(range(2), repeat=2):
            for kv in iproduct(range(2), repeat=2):
                binding = Binding(functions={"f": FnTable(z2, z2, fv),
                                             "h": FnTable(z2, z2, hv),
                                             "k": FnTable(z2, z2, kv)},
                                  params={})
                solves = all(
                    eval_side(ast.lhs, binding, x, y, z2)
                    == eval_side(ast.rhs, binding, x, y, z2)
                    for x in range(2) for y in range(2))
                if solves:
                    for x in range(2):
                        assert fv[x] == eval_side(defn.expr, binding, x, 0, z2)


GOLDEN_EQUATIONS = [
    "f(x*y)=f(x)*y+x*f(y)",
    "f(x*y)=h(x)*h(y)+x*k(y)+k(x)*y",
    "h(x*y)=h(x)*y+x*h(y)+e*h(x)*h(y)",
    "lam*(f(x*y)-f(x)*y-x*f(y))+mu*(f(x*y)-f(x)*f(y))=0",
    "h(x*y)+k(x*y)=h(x)*h(y)+x*k(y)+k(x)*y",
    "f(x*y)=-x+2*(x-y)*f(y)-(-3)",
]


@pytest.mark.parametrize("text", GOLDEN_EQUATIONS)
def test_round_trip_goldens(text):
    ast = parse_equation(text)
    printed = equation_to_text(ast)
    assert parse_equation(printed) == ast


def exprs(depth):
    leaf = st.one_of(
        st.sampled_from([Var("x"), Var("y"), Param("lam"), Param("mu")]),
        st.integers(min_value=0, max_value=9).map(IntLit))
    if depth == 0:
        return leaf
    sub = exprs(depth - 1)
    return st.one_of(
        leaf,
        st.tuples(sub, sub).map(lambda p: Add(*p)),
        st.tuples(sub, sub).map(lambda p: Sub(*p)),
        st.tuples(sub, sub).map(lambda p: Mul(*p)),
        sub.map(Neg),
        st.tuples(st.sampled_from(["f", "g"]), sub).map(lambda p: FnApp(*p)),
    )


@settings(max_examples=300, deadline=None, derandomize=True)
@given(lhs=exprs(3), rhs=exprs(3))
def test_round_trip_random_asts(lhs, rhs):
    text = f"{expr_to_text(lhs)}={expr_to_text(rhs)}"
    ast = parse_equation(text)
    assert ast.lhs == lhs
    assert ast.rhs == rhs


# the structural walks as they were written before they went through
# eqdsl.children, one branch per node type, kept here as the reference


def _reference_substitute(expr, name, replacement):
    if isinstance(expr, Var):
        return replacement if expr.name == name else expr
    if isinstance(expr, (Param, IntLit)):
        return expr
    if isinstance(expr, FnApp):
        return FnApp(expr.name, _reference_substitute(expr.arg, name,
                                                      replacement))
    if isinstance(expr, Neg):
        return Neg(_reference_substitute(expr.operand, name, replacement))
    return type(expr)(_reference_substitute(expr.left, name, replacement),
                      _reference_substitute(expr.right, name, replacement))


def _reference_strip_ones(expr):
    if isinstance(expr, Mul):
        left = _reference_strip_ones(expr.left)
        right = _reference_strip_ones(expr.right)
        if left == IntLit(1):
            return right
        if right == IntLit(1):
            return left
        return Mul(left, right)
    if isinstance(expr, FnApp):
        return FnApp(expr.name, _reference_strip_ones(expr.arg))
    if isinstance(expr, (Add, Sub)):
        return type(expr)(_reference_strip_ones(expr.left),
                          _reference_strip_ones(expr.right))
    if isinstance(expr, Neg):
        return Neg(_reference_strip_ones(expr.operand))
    return expr


def _reference_contains_fn(expr, name):
    if isinstance(expr, FnApp):
        return expr.name == name or _reference_contains_fn(expr.arg, name)
    if isinstance(expr, (Add, Sub, Mul)):
        return (_reference_contains_fn(expr.left, name)
                or _reference_contains_fn(expr.right, name))
    if isinstance(expr, Neg):
        return _reference_contains_fn(expr.operand, name)
    return False


def _reference_collect_names(expr, functions, params):
    if isinstance(expr, FnApp):
        if expr.name not in functions:
            functions.append(expr.name)
        _reference_collect_names(expr.arg, functions, params)
    elif isinstance(expr, Param):
        if expr.name not in params:
            params.append(expr.name)
    elif isinstance(expr, (Add, Sub, Mul)):
        _reference_collect_names(expr.left, functions, params)
        _reference_collect_names(expr.right, functions, params)
    elif isinstance(expr, Neg):
        _reference_collect_names(expr.operand, functions, params)


def _reference_to_json(expr):
    if isinstance(expr, (Var, Param)):
        return {"node": "var" if isinstance(expr, Var) else "param",
                "name": expr.name}
    if isinstance(expr, IntLit):
        return {"node": "int", "value": expr.value}
    if isinstance(expr, FnApp):
        return {"node": "apply", "name": expr.name,
                "arg": _reference_to_json(expr.arg)}
    if isinstance(expr, Neg):
        return {"node": "neg", "operand": _reference_to_json(expr.operand)}
    return {"node": type(expr).__name__.lower(),
            "left": _reference_to_json(expr.left),
            "right": _reference_to_json(expr.right)}


def _reference_scan(expr, nested, constant):
    if isinstance(expr, Var):
        return set(), True
    if isinstance(expr, FnApp):
        inner, var = _reference_scan(expr.arg, nested, constant)
        if inner:
            nested |= inner | {expr.name}
        elif not var:
            constant.append(expr.arg)
        return inner | {expr.name}, var
    if isinstance(expr, Neg):
        return _reference_scan(expr.operand, nested, constant)
    if isinstance(expr, (Add, Sub, Mul)):
        left, left_var = _reference_scan(expr.left, nested, constant)
        right, right_var = _reference_scan(expr.right, nested, constant)
        return left | right, left_var or right_var
    return set(), False


@settings(max_examples=300, deadline=None, derandomize=True)
@given(expr=exprs(4), replacement=exprs(1))
def test_tree_walks_match_their_reference(expr, replacement):
    for name in ("x", "y"):
        assert substitute(expr, name, replacement) == _reference_substitute(
            expr, name, replacement)
    assert eqdsl._strip_ones(expr) == _reference_strip_ones(expr)
    for name in ("f", "g"):
        assert eqdsl._contains_fn(expr, name) == _reference_contains_fn(
            expr, name)
    names, reference = ([], []), ([], [])
    for side in (expr, replacement):
        eqdsl._collect_names(side, *names)
        _reference_collect_names(side, *reference)
    assert names == reference
    # the dump is compared as text, so the order of its keys counts too
    assert json.dumps(expr_to_json(expr)) == json.dumps(
        _reference_to_json(expr))
    scanned, reference = (set(), []), (set(), [])
    assert search._scan(expr, *scanned) == _reference_scan(expr, *reference)
    assert scanned == reference


@pytest.mark.parametrize("value", [None, 1, "x", ("f", Var("x")),
                                   parse_equation("f(x)=0")])
def test_children_and_rebuilt_raise_on_a_value_that_is_no_node(value):
    with pytest.raises(TypeError, match="not an expression node"):
        children(value)
    with pytest.raises(TypeError, match="not an expression node"):
        eqdsl._rebuilt(value, substitute, "x", IntLit(1))


def test_children_are_left_operand_first():
    x, y = Var("x"), Var("y")
    for node in (Add(x, y), Sub(x, y), Mul(x, y)):
        assert children(node) == (x, y)
        assert eqdsl._rebuilt(node, substitute, "x", y) == type(node)(y, y)
    assert children(FnApp("f", x)) == (x,) == children(Neg(x))
    for leaf in (x, Param("lam"), IntLit(3)):
        assert children(leaf) == ()
        assert eqdsl._rebuilt(leaf, substitute, "x", y) is leaf


def test_substitute():
    expr = parse_equation("f(x*y)=h(x)*y+y").rhs
    replaced = substitute(expr, "y", IntLit(1))
    assert replaced == Add(Mul(FnApp("h", Var("x")), IntLit(1)), IntLit(1))


def test_ast_json_dump():
    from fnq.eqdsl import ast_to_json
    ast = parse_equation("f(x*y)=f(x)*y+x*f(y)")
    doc = ast_to_json(ast)
    assert doc["free_functions"] == ["f"]
    assert doc["lhs"] == {"node": "apply", "name": "f",
                          "arg": {"node": "mul",
                                  "left": {"node": "var", "name": "x"},
                                  "right": {"node": "var", "name": "y"}}}
    assert doc["text"] == "f(x*y)=f(x)*y+x*f(y)"


@pytest.mark.parametrize("text", ["f(y)*x=x*f(y)", "f(x)*f(y)=f(y)*f(x)",
                                  "y*f(x)=f(x*y)", "f(x)+y=y+f(x)"])
@pytest.mark.parametrize("ring", [fnq.ut2(3), fnq.zn(6, subring=(0, 2, 4))],
                         ids=["ut2_3", "z6_sub"])
def test_grid_slices_match_scalar_residual(text, ring):
    # one row at a time, an operand reading only x meets one reading only y
    # on either side of an operation, which is a table slice; all rows at
    # once take the gather.  Half the tables take central values only, so
    # the commutation identities hold for some of them.
    ast = parse_equation(text)
    m = len(ring.domain_elements)
    rng = np.random.default_rng(5)
    rows = np.vstack([rng.integers(ring.size, size=(10, m)),
                      rng.choice(ring.center, size=(10, m))])
    together, = grid_masks([ast], None, ring, ring, {"f": rows}, {})
    one_by_one = [bool(grid_masks([ast], None, ring, ring,
                                  {"f": row[None]}, {})[0][0])
                  for row in rows]
    scalar = [not residual(ast, Binding({"f": FnTable(
        ring, ring, tuple(row.tolist()))}, {}), ring) for row in rows]
    assert together.tolist() == one_by_one == scalar


def _additive_rows(name):
    """A carrier and additive value rows: every one of UT2(2), and the
    scalings x -> a*x of Z12."""
    if name == "ut2_2":
        ring = fnq.ut2(2)
        return ring, np.array(ut2_2_additive_tables(ring))
    ring = fnq.zn(12)
    return ring, ring.mul[:, ring.element_array].astype(np.int64)


@pytest.mark.parametrize("name", ["ut2_2", "z12"])
def test_grid_parameter_arrays_match_scalar_residual(name):
    # a parameter array gives one value per row: one table against every
    # ring element, or the i-th table against the i-th value
    ring, rows = _additive_rows(name)
    ast = parse_equation("f(x*y)=f(x)*y+x*f(y)+e*f(x)*f(y)")
    every = np.arange(ring.size)
    scalar = [[not residual(ast, Binding({"f": FnTable(ring, ring, tuple(row))},
                                         {"e": e}), ring) for e in every]
              for row in rows.tolist()]
    assert any(map(any, scalar)) and not all(map(all, scalar))

    def verdict(tables, params):
        return grid_masks([ast], None, ring, ring, tables, params)[0]

    per_value = [verdict({"f": rows}, {"e": e}) for e in every]
    assert np.array(per_value).T.tolist() == scalar
    one_row = [verdict({"f": row[None]}, {"e": every}) for row in rows]
    assert [held.tolist() for held in one_row] == scalar
    picked = np.arange(len(rows)) % ring.size
    assert verdict({"f": rows}, {"e": picked}).tolist() == [
        values[e] for values, e in zip(scalar, picked)]
    # in one call with the shifted identity, an equation reading no
    # parameter counts the parameter's rows as a call of its own does
    leibniz = parse_equation("f(x*y)=f(x)*y+x*f(y)")
    alone, = grid_masks([leibniz], None, ring, ring, {"f": rows[:1]},
                        {"e": every})
    both = grid_masks([leibniz, ast], None, ring, ring, {"f": rows[:1]},
                      {"e": every})
    assert alone.tolist() == both[0].tolist() == [alone[0]] * ring.size
    assert both[1].tolist() == scalar[0]
    # a row count that is neither 1 nor the tables'
    with pytest.raises(ValueError):
        verdict({"f": rows}, {"e": every[:-1]})
    with pytest.raises(ValueError):
        verdict({"f": rows[:1]}, {"e": every, "k": every[:-1]})


MASK_TEXTS = ["f(x*y)=f(x)*y+x*f(y)+e*f(x)*f(y)", "f(x*y)=f(x)*y+x*f(y)",
              "f(x*y)=f(x)*f(y)", "f(x+y)=f(x)+f(y)", "f(x)=0",
              "e*f(x)=f(x)*e"]


@pytest.mark.parametrize("name", ["ut2_2", "z12"])
def test_grid_masks_match_scalar_residual_per_row(name):
    # several equations in one call: each row's verdict is True exactly
    # when the scalar residual finds no violation among the pairs, over all
    # pairs and over listed ones, with e one element or one per row
    ring, rows = _additive_rows(name)
    equations = [parse_equation(text) for text in MASK_TEXTS]
    rng = np.random.default_rng(3)
    m = len(ring.domain_elements)
    listed = ring.element_array[rng.integers(m, size=(17, 2))]
    per_row = np.arange(len(rows)) * 5 % ring.size
    for pairs in (None, listed):
        for e in (ring.size - 1, per_row):
            verdicts = grid_masks(equations, pairs, ring, ring, {"f": rows},
                                  {"e": e})
            assert any(v.any() and not v.all() for v in verdicts)
            for ast, verdict in zip(equations, verdicts):
                assert verdict.shape == (len(rows),)
                for i, row in enumerate(rows.tolist()):
                    value = int(np.broadcast_to(e, len(rows))[i])
                    bad = set(residual(ast, Binding(
                        {"f": FnTable(ring, ring, tuple(row))},
                        {"e": value}), ring))
                    if pairs is not None:
                        bad &= set(map(tuple, listed.tolist()))
                    assert verdict[i] == (not bad), (equation_to_text(ast), i)


@pytest.mark.parametrize("pairs", [None, np.array([(1, 2)]),
                                   np.zeros((0, 2), dtype=np.int64)],
                         ids=["all", "listed", "none"])
def test_grid_masks_over_zero_rows_give_empty_verdicts(pairs):
    ring = fnq.zn(4)
    equations = [parse_equation(text) for text in MASK_TEXTS]
    empty = np.zeros((0, 4), dtype=np.int64)
    for params in ({"e": 1}, {"e": np.zeros(0, dtype=np.int64)}):
        verdicts = grid_masks(equations, pairs, ring, ring, {"f": empty},
                              params)
        assert [v.shape for v in verdicts] == [(0,)] * len(equations)
        assert all(v.dtype == bool for v in verdicts)
    # an equation reading no unknown still gives a verdict per row
    constant, = grid_masks([parse_equation("x=x")], pairs, ring, ring,
                           {"f": empty}, {})
    assert constant.shape == (0,)


def test_grid_masks_over_no_pairs_hold_in_every_row():
    # an equation whose cells read neither x nor y still holds at every
    # pair of an empty pair set, in every row and for one row of cells
    ring = fnq.zn(4)
    none = np.zeros((0, 2), dtype=np.int64)
    rows = np.array([[2, 2, 0, 3], [1, 1, 1, 1], [3, 0, 0, 0]])
    equations = [parse_equation(t) for t in ("f(0)=2", "0=1", "f(x)=2")]
    for verdict in grid_masks(equations, none, ring, ring, {"f": rows}, {}):
        assert verdict.tolist() == [True] * 3
    assert [v.tolist() for v in grid_masks(
        equations, [(1, 2)], ring, ring, {"f": rows}, {})] == [
        [True, False, False], [False] * 3, [True, False, False]]


def test_grid_masks_fail_a_cross_carrier_equation_alone():
    # x*f(y) reads a domain element in the codomain, which Z2 -> Z4 lacks:
    # the Leibniz mask is all False and the other equations still count
    z2, z4 = fnq.zn(2), fnq.zn(4)
    rows = np.array(list(iproduct(range(4), repeat=2)), dtype=np.int64)
    additive, leibniz, multiplicative = (parse_equation(t) for t in (
        "f(x+y)=f(x)+f(y)", "f(x*y)=f(x)*y+x*f(y)", "f(x*y)=f(x)*f(y)"))
    verdicts = grid_masks([additive, leibniz, multiplicative], None, z2, z4,
                          {"f": rows}, {})
    assert verdicts[1].shape == (16,) and not verdicts[1].any()
    for ast, verdict in zip((additive, multiplicative), verdicts[::2]):
        alone, = grid_masks([ast], None, z2, z4, {"f": rows}, {})
        assert verdict.tolist() == alone.tolist()
        assert alone.any() and not alone.all()
    alone, = grid_masks([leibniz], None, z2, z4, {"f": rows}, {})
    assert alone.shape == (16,) and not alone.any()


@pytest.mark.parametrize("name", ["ut2_2", "z12"])
def test_one_grid_call_shares_cells_across_equations(name, monkeypatch):
    # one call computes each node once, so the shifted identity computes
    # only what reads e beyond Leibniz; separate calls recompute f(x*y)
    # and f(x)*y+x*f(y) each time, and the masks are equal
    ring, rows = _additive_rows(name)
    texts = ["f(x*y)=f(x)*y+x*f(y)", "f(x*y)=f(x)*f(y)"]
    shared = maps._shared_identities("f")
    equations = [shared[k] for k in ("leibniz", "sofy", "multiplicative")]
    evaluated = []
    evaluate = eqdsl._Grid.evaluate

    def counting(grid, expr, in_arg):
        evaluated.append((id(grid), id(expr), in_arg))
        return evaluate(grid, expr, in_arg)

    monkeypatch.setattr(eqdsl._Grid, "evaluate", counting)
    listed = np.array([(1, 2), (3, 3), (2, 5)])
    for pairs in (None, listed):
        evaluated.clear()
        masks = grid_masks(equations, pairs, ring, ring, {"f": rows},
                           {"e": 1})
        together = len(evaluated)
        assert together == len(set(evaluated))
        evaluated.clear()
        separate = [grid_masks([ast], pairs, ring, ring, {"f": rows},
                               {"e": 1})[0]
                    for ast in equations]
        # the shifted identity computes Leibniz's 11 nodes again, and the
        # product identity f(x*y), x*y, x and y inside arguments, f(x) and
        # f(y)
        assert len(evaluated) == together + 11 + 6
        assert [m.tolist() for m in masks] == [s.tolist() for s in separate]
    assert [equation_to_text(ast) for ast in equations[::2]] == texts
