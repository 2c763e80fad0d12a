"""A small DSL for two-variable functional equations.

Grammar (whitespace insignificant, offsets in errors are 1-based bytes)::

    equation := expr "=" expr ;
    expr     := term (("+"|"-") term)* ;
    term     := unary ("*" unary)* ;
    unary    := "-" unary | atom ;
    atom     := "x" | "y" | integer | ident "(" expr ")" | ident | "(" expr ")" ;

A bare identifier (other than ``x``/``y``) is a scalar parameter; an applied
identifier is an unknown function of arity one.  Multiplication is
left-associative and never assumed commutative: evaluation respects the
textual operand order, so the DSL is sound over noncommutative rings.

Two evaluators share nothing but the AST.  The scalar one
(:func:`compile_side`, and :func:`eval_side` on top of it) compiles a side
once per call into a function of (x, y) over list views of the ring
tables, then evaluates it per pair; it is the independent re-verifier of
every reported solution.  The grid one, :func:`grid_masks`, evaluates
batched tables over all pairs of one pair set at once with numpy and gives
each of several equations a verdict per row, computing each subexpression
once per call.  Nothing outlives a call.  Neither evaluator shares code
with the search kernel.  The evaluators (these two, the kernel's planner
and the symbolic expansion) and the printer dispatch on the node type
themselves, since a node means something of its own to each; every other
walk over the tree goes through :func:`children`, the one statement of
which fields of a node hold subexpressions.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Sequence, Union

import numpy as np

from .algebra import Ring, same_carrier
from .errors import (ArityError, EquationSyntaxError, EvalDomainError,
                     InvalidTask, UnboundName)

# --------------------------------------------------------------------- AST


@dataclass(frozen=True)
class Var:
    name: str  # "x" or "y"


@dataclass(frozen=True)
class Param:
    name: str


@dataclass(frozen=True)
class IntLit:
    value: int


@dataclass(frozen=True)
class FnApp:
    name: str
    arg: "Expr"


@dataclass(frozen=True)
class Add:
    left: "Expr"
    right: "Expr"


@dataclass(frozen=True)
class Sub:
    left: "Expr"
    right: "Expr"


@dataclass(frozen=True)
class Mul:
    left: "Expr"
    right: "Expr"


@dataclass(frozen=True)
class Neg:
    operand: "Expr"


Expr = Union[Var, Param, IntLit, FnApp, Add, Sub, Mul, Neg]


def children(expr: Expr) -> tuple[Expr, ...]:
    """The subexpressions of a node, left operand first; none for a leaf.

    The one place that says which fields of a node hold subexpressions:
    every structural walk goes through it or :func:`_rebuilt`.  Raises
    :class:`TypeError` on a value that is not a node.
    """
    if isinstance(expr, (Var, Param, IntLit)):
        return ()
    if isinstance(expr, (Add, Sub, Mul)):
        return expr.left, expr.right
    if isinstance(expr, FnApp):
        return (expr.arg,)
    if isinstance(expr, Neg):
        return (expr.operand,)
    raise TypeError(f"not an expression node: {expr!r}")


def _rebuilt(expr: Expr, fn: Callable[..., Expr], *args) -> Expr:
    """``expr`` with ``fn(child, *args)`` in place of each child, built
    with its node's constructor; a leaf is returned as it is."""
    kids = children(expr)
    if not kids:
        return expr
    if isinstance(expr, FnApp):
        return FnApp(expr.name, fn(kids[0], *args))
    return type(expr)(*[fn(kid, *args) for kid in kids])


@dataclass(frozen=True)
class EquationAst:
    lhs: Expr
    rhs: Expr
    free_functions: tuple[str, ...]
    free_params: tuple[str, ...]


@dataclass(frozen=True)
class PairConstraint:
    """An equation required at the given (x, y) domain pairs, or at all.

    ``pairs`` is an int64 array of shape (P, 2), one (x, y) pair per row,
    or any sequence of pairs that converts to one; arrays are used as they
    are, so a constraint checked many times converts no pairs.  An array
    does not compare with ``==``.  ``params`` bind parameters for this
    equation only and take precedence over the parameters given alongside
    it.
    """

    equation: EquationAst
    pairs: np.ndarray | tuple[tuple[int, int], ...] | None = None
    params: dict[str, int] = field(default_factory=dict)


@dataclass
class Binding:
    """Concrete tables and parameter elements for an equation's free names."""

    functions: dict
    params: dict


# ------------------------------------------------------------------ parser

_SYMBOLS = set("+-*()=")


def _tokenize(text: str):
    tokens = []
    i, n = 0, len(text)
    while i < n:
        c = text[i]
        if c.isspace():
            i += 1
            continue
        if c in _SYMBOLS:
            tokens.append((c, c, i + 1))
            i += 1
            continue
        if c.isdigit():
            j = i
            while j < n and text[j].isdigit():
                j += 1
            tokens.append(("int", text[i:j], i + 1))
            i = j
            continue
        if c.isalpha() or c == "_":
            j = i
            while j < n and (text[j].isalnum() or text[j] == "_"):
                j += 1
            tokens.append(("ident", text[i:j], i + 1))
            i = j
            continue
        raise EquationSyntaxError(f"unexpected character {c!r}", i + 1)
    tokens.append(("end", "", n + 1))
    return tokens


class _Parser:
    def __init__(self, text: str):
        self.tokens = _tokenize(text)
        self.pos = 0

    def peek(self):
        return self.tokens[self.pos]

    def advance(self):
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect(self, kind: str):
        tok = self.peek()
        if tok[0] != kind:
            raise EquationSyntaxError(
                f"expected {kind!r}, found {tok[1] or 'end of input'!r}", tok[2])
        return self.advance()

    def parse_equation(self) -> tuple[Expr, Expr]:
        lhs = self.parse_expr()
        self.expect("=")
        rhs = self.parse_expr()
        tok = self.peek()
        if tok[0] != "end":
            raise EquationSyntaxError(f"unexpected trailing {tok[1]!r}", tok[2])
        return lhs, rhs

    def parse_expr(self) -> Expr:
        node = self.parse_term()
        while self.peek()[0] in ("+", "-"):
            op = self.advance()[0]
            rhs = self.parse_term()
            node = Add(node, rhs) if op == "+" else Sub(node, rhs)
        return node

    def parse_term(self) -> Expr:
        node = self.parse_unary()
        while self.peek()[0] == "*":
            self.advance()
            node = Mul(node, self.parse_unary())
        return node

    def parse_unary(self) -> Expr:
        if self.peek()[0] == "-":
            self.advance()
            return Neg(self.parse_unary())
        return self.parse_atom()

    def parse_atom(self) -> Expr:
        kind, value, offset = self.peek()
        if kind == "int":
            self.advance()
            return IntLit(int(value))
        if kind == "(":
            self.advance()
            inner = self.parse_expr()
            self.expect(")")
            return inner
        if kind == "ident":
            self.advance()
            if value in ("x", "y"):
                return Var(value)
            if self.peek()[0] == "(":
                self.advance()
                arg = self.parse_expr()
                self.expect(")")
                return FnApp(value, arg)
            return Param(value)
        raise EquationSyntaxError(
            f"expected an expression, found {value or 'end of input'!r}", offset)


def _collect_names(expr: Expr, functions: list[str], params: list[str]):
    """Append each unknown and parameter not listed yet, in textual order."""
    if isinstance(expr, FnApp) and expr.name not in functions:
        functions.append(expr.name)
    elif isinstance(expr, Param) and expr.name not in params:
        params.append(expr.name)
    for child in children(expr):
        _collect_names(child, functions, params)


def parse_equation(text: str) -> EquationAst:
    """Parse equation text into an AST with its free-name inventory."""
    lhs, rhs = _Parser(text).parse_equation()
    functions: list[str] = []
    params: list[str] = []
    _collect_names(lhs, functions, params)
    _collect_names(rhs, functions, params)
    clash = set(functions) & set(params)
    if clash:
        raise ArityError(
            f"{sorted(clash)} used both as function and as parameter")
    return EquationAst(lhs, rhs, tuple(functions), tuple(params))


# ---------------------------------------------------------- pretty printer

def expr_to_text(expr: Expr) -> str:
    """Render an expression so that parsing the text reproduces it exactly."""

    def walk(e: Expr, parent_prec: int) -> str:
        if isinstance(e, (Var, Param)):
            return e.name
        if isinstance(e, IntLit):
            return str(e.value)
        if isinstance(e, FnApp):
            return f"{e.name}({walk(e.arg, 0)})"
        if isinstance(e, Neg):
            if isinstance(e.operand, (Add, Sub, Mul)):
                inner = f"({walk(e.operand, 0)})"
            else:
                inner = walk(e.operand, 3)
            text = f"-{inner}"
            return f"({text})" if parent_prec >= 2 else text
        if isinstance(e, (Add, Sub)):
            op = "+" if isinstance(e, Add) else "-"
            # a right operand that is itself a sum needs explicit grouping
            text = f"{walk(e.left, 1)}{op}{walk(e.right, 2)}"
            return f"({text})" if parent_prec >= 2 else text
        if isinstance(e, Mul):
            text = f"{walk(e.left, 2)}*{walk(e.right, 3)}"
            return f"({text})" if parent_prec >= 3 else text
        raise TypeError(f"not an expression node: {e!r}")

    return walk(expr, 0)


def equation_to_text(ast: EquationAst) -> str:
    return f"{expr_to_text(ast.lhs)}={expr_to_text(ast.rhs)}"


_JSON_NODES = {Var: "var", Param: "param", IntLit: "int", FnApp: "apply",
               Add: "add", Sub: "sub", Mul: "mul", Neg: "neg"}


def expr_to_json(expr: Expr) -> dict:
    """Debug dump of an expression tree as plain JSON-ready objects: the
    node's kind, then its fields in order, each subexpression dumped."""
    kids = children(expr)
    doc = {"node": _JSON_NODES[type(expr)], **vars(expr)}
    # the subexpressions are the last fields of their node
    doc.update(zip(list(doc)[len(doc) - len(kids):], map(expr_to_json, kids)))
    return doc


def ast_to_json(ast: EquationAst) -> dict:
    return {
        "text": equation_to_text(ast),
        "free_functions": list(ast.free_functions),
        "free_params": list(ast.free_params),
        "lhs": expr_to_json(ast.lhs),
        "rhs": expr_to_json(ast.rhs),
    }


# -------------------------------------------------------------- evaluation

Scalar = Callable[[int, int], int]
"""A compiled side: its value at one (x, y) pair."""


def _x(x: int, y: int) -> int:
    return x


def _y(x: int, y: int) -> int:
    return y


def _constant(value) -> Scalar:
    return lambda x, y: value


def _index(vec: list, node):
    """``vec`` indexed by a compiled node; a constant node folds."""
    if node is _x:
        return lambda x, y: vec[x]
    if node is _y:
        return lambda x, y: vec[y]
    if callable(node):
        return lambda x, y: vec[node(x, y)]
    return vec[node]


def _binary(table: list[list[int]], left, right):
    """``table[left][right]``; a constant operand picks its row or column
    now, and the operand shapes of ``x*y``, ``x*f(y)`` and ``f(x)*y`` read
    ``x`` and ``y`` directly."""
    if not callable(left):
        return _index(table[left], right)
    if not callable(right):
        return _index([row[right] for row in table], left)
    if left is _x:
        if right is _y:
            return lambda x, y: table[x][y]
        return lambda x, y: table[x][right(x, y)]
    if right is _y:
        return lambda x, y: table[left(x, y)][y]
    return lambda x, y: table[left(x, y)][right(x, y)]


def _fails(error: type, message: str) -> Scalar:
    def fail(x, y):
        raise error(message)
    return fail


def compile_side(side: Expr, binding: Binding, ring: Ring) -> Scalar:
    """One side as a function of (x, y), with every name resolved once.

    Literals (``n*1``), parameters, tables and value vectors are looked up
    here, so a call only indexes the plain lists of ``ring.lists``; any
    other callable bound as a function is called.  All arithmetic happens
    through the ring tables in textual operand order.  A name that cannot
    be resolved, a parameter bound to no element of ``ring``
    (:class:`InvalidTask`), and a table whose domain or codomain does not
    share its tables with ``ring`` (:class:`EvalDomainError`), compile
    into a step that raises when evaluation reaches it, so errors come in
    the order of evaluating the tree inside out, left operand first.
    Shares no code with the search kernel or :func:`grid_masks`.
    """
    t = ring.lists

    def build(e: Expr):
        """A constant or a :data:`Scalar`."""
        if isinstance(e, FnApp):
            if e.name not in binding.functions:
                return _fails(UnboundName, f"function {e.name!r} is not bound")
            table = binding.functions[e.name]
            arg = build(e.arg)
            domain = getattr(table, "domain", None)
            if isinstance(domain, Ring) and not (
                    same_carrier(domain, ring)
                    and same_carrier(table.codomain, ring)):
                inner = arg if callable(arg) else _constant(arg)

                def between(x, y):
                    inner(x, y)  # its own errors come first
                    raise EvalDomainError(
                        f"function {e.name!r} maps between rings other than "
                        "the one the equation is evaluated in")
                return between
            if isinstance(domain, Ring) and domain.subring is None:
                # a value table whose positions are carrier indices
                return _index(table.values, arg)
            arg = arg if callable(arg) else _constant(arg)
            if not isinstance(domain, Ring):
                # any other callable, such as a table still being filled
                return lambda x, y: table(arg(x, y))
            pos, values = domain.lists.position, table.values

            def apply(x, y):
                a = arg(x, y)
                if pos[a] < 0:
                    raise EvalDomainError(
                        f"element {a} is outside the declared domain")
                return values[pos[a]]
            return apply
        if isinstance(e, Mul):
            return _binary(t.mul, build(e.left), build(e.right))
        if isinstance(e, Add):
            return _binary(t.add, build(e.left), build(e.right))
        if isinstance(e, Var):
            return _x if e.name == "x" else _y
        if isinstance(e, Sub):
            return _binary(t.add, build(e.left), _index(t.neg, build(e.right)))
        if isinstance(e, Neg):
            return _index(t.neg, build(e.operand))
        if isinstance(e, Param):
            if e.name not in binding.params:
                return _fails(UnboundName, f"parameter {e.name!r} is not bound")
            value = binding.params[e.name]
            if not 0 <= value < ring.size:
                return _fails(InvalidTask, f"parameter {e.name!r} = {value} is "
                              f"not an element of a ring of size {ring.size}")
            return value
        if isinstance(e, IntLit):
            return ring.int_embed(e.value)
        raise TypeError(f"not an expression node: {e!r}")

    node = build(side)
    return node if callable(node) else _constant(node)


def eval_side(side: Expr, binding: Binding, x: int, y: int, ring: Ring) -> int:
    """Evaluate one side at concrete elements: compile, then call."""
    return compile_side(side, binding, ring)(x, y)


def grid_masks(equations: Sequence[EquationAst], pairs, domain: Ring,
               codomain: Ring, tables: dict[str, np.ndarray],
               params: dict[str, int]) -> list[np.ndarray]:
    """Each equation's verdict per row of batched tables, from one grid.

    ``pairs`` is one pair set for all the equations, as in
    :class:`PairConstraint`: an array of shape (P, 2), or ``None`` for all
    m*m domain pairs.  Each verdict is a bool array of shape (rows,), True
    where the equation holds at every pair, from one reduction of the
    equality cells as they are, with no per-pair copy: cells of one row
    give one verdict for every row.  Every subexpression,
    however many of the equations share it as a node, is computed once per
    call.  An equation whose evaluation raises :class:`EvalDomainError`
    fails alone, in every row; any other error propagates.

    ``tables`` give each unknown's value vectors over the domain
    positions, one row per candidate; a single row counts for every
    candidate, and zero rows give empty verdicts.  A parameter is one
    codomain element, or a 1-D integer array of them that gives one per
    row and counts for the rows as a table does.  A value outside the
    codomain raises :class:`InvalidTask`, and a row count other than 1 or
    the largest one raises :class:`ValueError`.
    Both sides are evaluated over the whole (candidate, pair) grid:
    arguments of unknowns in the domain ring and everything else in the
    codomain ring, so ``x`` or ``y`` outside an argument, or an unknown
    inside one, needs both rings to share their tables.  Over all pairs, x
    runs along one grid axis and y along the other, and an operation whose
    operands are one row each and vary along one axis each, such as
    ``f(x)*y`` or ``f(x)*f(y)``, is one slice of the ring table rather than
    one lookup per cell (:meth:`_Grid.combine`).

    Over a declared subring each unknown is spread over the carrier with
    -1 outside the domain, and an application that reads -1 raises
    :class:`EvalDomainError`, which fails its equation; without one the
    tables are used as they are, since no argument can leave the domain.
    """
    grid = _Grid(domain, codomain, pairs, tables, params)
    verdicts = []
    for equation in equations:
        try:
            equal = grid.equal(equation)
        except EvalDomainError:
            verdicts.append(np.zeros(grid.rows, dtype=bool))
            continue
        # the cells broadcast over the grid, so a reduction of the cells
        # decides each row unless there is no pair to broadcast them over
        if grid.vacuous:
            verdicts.append(np.ones(grid.rows, dtype=bool))
        elif len(equal) == 1:  # one row of cells counts for every row
            verdicts.append(np.full(grid.rows, equal.all()))
        else:
            verdicts.append(equal.all(axis=(1, 2)))
    return verdicts


class _Grid:
    """The subexpressions of one grid evaluation over its pair set.

    Cells keep the axes along which they vary and broadcast along the rest:
    ``x`` is shaped (1, m, 1) and ``y`` (1, 1, m) over all pairs, both
    (1, P, 1) over P listed pairs, and a term reading neither is (1, 1, 1).
    Each node's cells are kept for the evaluation, keyed by the node's
    ``id`` and whether it sits inside an argument, so a node shared by
    several equations is computed once; the equations keep their nodes
    alive, so no key can match another node.  A class rather than nested
    closures, so that an evaluation leaves no reference cycle behind and
    its arrays are freed as soon as it returns.
    """

    def __init__(self, domain: Ring, codomain: Ring, pairs,
                 tables: dict[str, np.ndarray], params: dict[str, int]):
        bound = {name: np.asarray(value) for name, value in params.items()}
        for name, value in bound.items():
            if value.ndim > 1 or value.dtype.kind not in "iu" or (
                    (value < 0) | (value >= codomain.size)).any():
                raise InvalidTask(
                    f"parameter {name!r} = {value.tolist()} is not an "
                    f"element of a ring of size {codomain.size}")
        sizes = [len(v) for v in (*tables.values(), *bound.values())
                 if np.ndim(v)]
        self.rows = max(sizes, default=1)
        if any(n not in (1, self.rows) for n in sizes):
            raise ValueError(f"tables and parameters give {sizes} rows")
        elems = domain.element_array
        if pairs is None:
            self.xs, self.ys = elems[None, :, None], elems[None, None, :]
        else:
            pairs = np.asarray(pairs, dtype=np.int64).reshape(1, -1, 2)
            self.xs, self.ys = pairs[..., :1], pairs[..., 1:]
        self.vacuous = not self.xs.size
        # each unknown over the whole carrier, -1 outside a declared subring;
        # over the whole carrier no argument can leave the domain
        self.carrier = tables
        if domain.subring is not None:
            self.carrier = {}
            for name, values in tables.items():
                self.carrier[name] = np.full((len(values), domain.size), -1,
                                             dtype=codomain.add.dtype)
                self.carrier[name][:, elems] = values
        self.domain, self.codomain, self.bound = domain, codomain, bound
        self.checked = domain.subring is not None
        self.memo: dict[tuple[int, bool], np.ndarray] = {}

    def mixing(self, what: str) -> None:
        if not same_carrier(self.domain, self.codomain):
            raise EvalDomainError(f"{what} needs the domain inside the codomain")

    def equal(self, equation: EquationAst) -> np.ndarray:
        """Where both sides agree, shaped (1 or rows, *grid) up to the axes
        along which neither side varies."""
        return np.equal(self.cells(equation.lhs, False),
                        self.cells(equation.rhs, False))

    def cells(self, expr: Expr, in_arg: bool) -> np.ndarray:
        """Values over the grid, shaped (1 or rows, *grid), computed once."""
        key = (id(expr), in_arg)
        out = self.memo.get(key)
        if out is None:
            out = self.memo[key] = self.evaluate(expr, in_arg)
        return out

    def evaluate(self, expr: Expr, in_arg: bool) -> np.ndarray:
        ring = self.domain if in_arg else self.codomain
        kind = type(expr)  # the common nodes first
        if kind is Add or kind is Mul:
            return self.combine(ring.add if kind is Add else ring.mul,
                                self.cells(expr.left, in_arg),
                                self.cells(expr.right, in_arg))
        if kind is FnApp:
            if expr.name not in self.carrier:
                raise UnboundName(f"function {expr.name!r} is not bound")
            if in_arg:
                self.mixing("a value used as an argument")
            table = self.carrier[expr.name]
            arg = self.cells(expr.arg, True)
            # an argument that reads no unknown is the same in every row
            out = (table.take(arg[0], axis=1) if len(arg) == 1 else
                   table[np.arange(len(table))[:, None, None], arg])
            if self.checked and (out < 0).any():
                raise EvalDomainError("function applied outside declared domain")
            return out
        if kind is Var:
            if not in_arg:
                self.mixing("a domain element outside an argument")
            return self.xs if expr.name == "x" else self.ys
        if kind is Sub:
            return self.combine(ring.add, self.cells(expr.left, in_arg),
                                ring.neg.take(self.cells(expr.right, in_arg)))
        if kind is Neg:
            return ring.neg.take(self.cells(expr.operand, in_arg))
        if kind is IntLit:
            return np.full((1, 1, 1), ring.int_embed(expr.value))
        if kind is Param:
            if expr.name not in self.bound:
                raise UnboundName(f"parameter {expr.name!r} is not bound")
            return self.bound[expr.name].reshape(-1, 1, 1)
        raise TypeError(f"not an expression node: {expr!r}")

    @staticmethod
    def combine(table: np.ndarray, left: np.ndarray,
                right: np.ndarray) -> np.ndarray:
        """``table[left, right]`` cell by cell, broadcast over the grid.

        Operands of one row that vary along one grid axis each, such as
        ``f(x)`` and ``y``, give a table slice: the rows of one operand,
        then the columns of the other, transposed when the x-side is on the
        right.  Anything else is one gather from the flat table, which is
        faster than a two-index gather.
        """
        if len(left) == len(right) == 1:
            if left.shape[2] == right.shape[1] == 1:
                return table.take(left[0, :, 0], axis=0).take(
                    right[0, 0], axis=1)[None]
            if left.shape[1] == right.shape[2] == 1:
                return table.take(left[0, 0], axis=0).take(
                    right[0, :, 0], axis=1).T[None]
        return table.reshape(-1).take(
            np.multiply(left, len(table), dtype=np.intp) + right)


# ----------------------------------------------------------- pivot at y=1

@dataclass(frozen=True)
class Definition:
    """The pivot unknown at x equals this expression (evaluated at y=1)."""

    expr: Expr


@dataclass(frozen=True)
class Constraint:
    """Residual identity (expression = 0) left after substituting y=1."""

    expr: Expr


@dataclass(frozen=True)
class NotReducible:
    reason: str


PivotResult = Union[Definition, Constraint, NotReducible]


def substitute(expr: Expr, name: str, replacement: Expr) -> Expr:
    """``expr`` with ``replacement`` in place of the variable ``name``."""
    if isinstance(expr, Var):
        return replacement if expr.name == name else expr
    return _rebuilt(expr, substitute, name, replacement)


def _terms(expr: Expr, sign: int = 1) -> list[tuple[int, Expr]]:
    if isinstance(expr, Add):
        return _terms(expr.left, sign) + _terms(expr.right, sign)
    if isinstance(expr, Sub):
        return _terms(expr.left, sign) + _terms(expr.right, -sign)
    if isinstance(expr, Neg):
        return _terms(expr.operand, -sign)
    return [(sign, expr)]


def _strip_ones(expr: Expr) -> Expr:
    """Normal form for term matching: drop multiplications by literal 1."""
    expr = _rebuilt(expr, _strip_ones)
    if isinstance(expr, Mul):
        if expr.left == IntLit(1):
            return expr.right
        if expr.right == IntLit(1):
            return expr.left
    return expr


def _contains_fn(expr: Expr, name: str) -> bool:
    if isinstance(expr, FnApp) and expr.name == name:
        return True
    for child in children(expr):
        if _contains_fn(child, name):
            return True
    return False


def _rebuild(terms: list[tuple[int, Expr]]) -> Expr:
    if not terms:
        return IntLit(0)
    sign, first = terms[0]
    node: Expr = first if sign > 0 else Neg(first)
    for sign, term in terms[1:]:
        node = Add(node, term) if sign > 0 else Sub(node, term)
    return node


def pivot_reduce(ast: EquationAst, pivot_fn: str) -> PivotResult:
    """Substitute y=1 and try to express the pivot unknown by the others.

    The left side must be exactly ``pivot_fn(x*y)``.  After substitution,
    terms that agree modulo multiplication by the literal 1 are cancelled
    across sides; if the pivot then survives only as the lone left-hand
    term, its definition is the remaining right side, otherwise the
    residual identity is returned as a constraint.  The caller is
    responsible for only using the result over a domain that holds 1.
    """
    target = FnApp(pivot_fn, Mul(Var("x"), Var("y")))
    if ast.lhs != target:
        return NotReducible(f"left side is not {pivot_fn}(x*y)")
    one = IntLit(1)
    lhs1 = substitute(ast.lhs, "y", one)
    rhs1 = substitute(ast.rhs, "y", one)
    lhs_terms = [(s, t, _strip_ones(t)) for s, t in _terms(lhs1)]
    rhs_terms = [(s, t, _strip_ones(t)) for s, t in _terms(rhs1)]

    remaining_rhs = list(rhs_terms)
    remaining_lhs = []
    for sign, term, norm in lhs_terms:
        match = next((i for i, (s2, _, n2) in enumerate(remaining_rhs)
                      if s2 == sign and n2 == norm), None)
        if match is not None:
            del remaining_rhs[match]
        else:
            remaining_lhs.append((sign, term, norm))

    rhs_has_pivot = any(_contains_fn(t, pivot_fn) for _, t, _ in remaining_rhs)
    lone_lhs_pivot = (len(remaining_lhs) == 1
                      and remaining_lhs[0][0] == 1
                      and remaining_lhs[0][2] == FnApp(pivot_fn, Var("x")))
    if lone_lhs_pivot and not rhs_has_pivot:
        return Definition(_rebuild([(s, t) for s, t, _ in remaining_rhs]))
    constraint_terms = ([(s, t) for s, t, _ in remaining_rhs]
                        + [(-s, t) for s, t, _ in remaining_lhs])
    return Constraint(_rebuild(constraint_terms))
