"""Seeded ``fnq solve`` tasks of the verify-solve workload, and their oracle.

The generator draws each task from the equation templates, carriers and
structure classes below.  It decides from the task alone, without calling
fnq, that every unknown is applied only inside its declared domain and that
the candidate space fits the default pair budget.  The oracle is a scalar
backtracking search that evaluates the equation and every class identity,
written as DSL equations, through ``fnq.eqdsl.eval_side`` at every pair.  It
shares no code with fnq's search, class enumeration or re-verification.
"""
from __future__ import annotations

import dataclasses
import hashlib
import json
import random
from dataclasses import dataclass
from itertools import product

TASK_COUNT = 200
DEFAULT_SEED = 0
# Evaluated pairs, as fnq's budget counts them, that one task may need.
# This is far below fnq's default budget of 10**8 pairs, so that a pass is
# many small calls.
PAIR_CAP = 2 ** 15


@dataclass(frozen=True)
class Carrier:
    name: str
    spec: dict
    q: int              # carrier size (codomain size)
    m: int              # domain size
    additive_gens: int  # size of fnq's greedy additive generating set
    unital_domain: bool  # the unit lies in the domain, so the y=1 pivot applies
    closed_only: bool   # proper subring: unknowns may only see x, y, +, -, *
    char: int           # additive order of the unit; literals live mod char
    commutative: bool = True


def _zn(n):
    return {"kind": "Zn", "n": n}


CARRIERS = (
    Carrier("Z2", _zn(2), 2, 2, 1, True, False, 2),
    Carrier("Z3", _zn(3), 3, 3, 1, True, False, 3),
    Carrier("Z4", _zn(4), 4, 4, 1, True, False, 4),
    Carrier("Z5", _zn(5), 5, 5, 1, True, False, 5),
    Carrier("Z6", _zn(6), 6, 6, 1, True, False, 6),
    Carrier("GF4", {"kind": "GF", "p": 2, "k": 2}, 4, 4, 2, True, False, 2),
    Carrier("F2[x]/(x^2)", {"kind": "PolyQuot", "p": 2, "k": 2}, 4, 4, 2,
            True, False, 2),
    Carrier("Z6{0,2,4}", {"kind": "Zn", "n": 6, "subring": [0, 2, 4]}, 6, 3,
            1, False, True, 6),
    Carrier("Z2xZ2", {"kind": "Product", "left": _zn(2), "right": _zn(2)},
            4, 4, 2, True, False, 2),
    Carrier("UT2(2)", {"kind": "UT2", "p": 2}, 8, 8, 3, True, False, 2,
            commutative=False),
)


@dataclass(frozen=True)
class Template:
    text: str
    unknowns: tuple[str, ...]
    params: tuple[str, ...] = ()
    # an unknown is applied to a literal, a parameter or another unknown, so
    # its argument may leave a proper subring
    open_args: bool = False
    # on a commutative carrier the equation collapses to a near-tautology
    noncommutative_only: bool = False


TEMPLATES = (
    # the paper's identities
    Template("f(x*y)=f(x)*y+x*f(y)", ("f",)),
    Template("f(x*y)=f(x)*f(y)", ("f",)),
    Template("h(x*y)=h(x)*y+x*h(y)+e*h(x)*h(y)", ("h",), ("e",)),
    Template("f(x*y)=h(x)*h(y)+x*k(y)+k(x)*y", ("f", "h", "k")),
    Template("lam*(f(x*y)-f(x)*y-x*f(y))+mu*(f(x*y)-f(x)*f(y))=0", ("f",),
             ("lam", "mu")),
    Template("h(x*y)+k(x*y)=h(x)*h(y)+x*k(y)+k(x)*y", ("h", "k")),
    Template("f(x+y)=f(x)+f(y)", ("f",)),
    # nested unknowns
    Template("f(f(x))=x", ("f",), open_args=True),
    Template("f(f(x))=f(x)", ("f",), open_args=True),
    Template("f(x+f(y))=f(x)+y", ("f",), open_args=True),
    # parameters and literals
    Template("f(x*y)=a*f(x)*f(y)", ("f",), ("a",)),
    Template("f(x*y)=f(x)*y+x*f(y)+b*x*y", ("f",), ("b",)),
    Template("f(x+1)=f(x)+1", ("f",), open_args=True),
    Template("f(2*x)=2*f(x)", ("f",), open_args=True),
    Template("f(x*y)=f(x)*f(y)+2*x*y", ("f",)),
    # differences, commutators and two unknowns
    Template("f(x-y)=f(x)-f(y)", ("f",)),
    Template("f(x*y-y*x)=f(x)*y-y*f(x)+x*f(y)-f(y)*x", ("f",),
             noncommutative_only=True),
    Template("f(x*y)=g(x)*y+x*g(y)", ("f", "g")),
    Template("f(x*y)=g(x)*g(y)", ("f", "g")),
    Template("f(x+y)=g(x)+g(y)", ("f", "g")),
)

CLASSES = ("arbitrary", "additive", "multiplicative", "leibniz",
           "homomorphism", "derivation")


@dataclass(frozen=True)
class SolveSpec:
    """One generated ``fnq solve`` task."""

    task_id: str
    equation: str
    carrier: Carrier
    classes: tuple[tuple[str, str], ...]
    params: tuple[tuple[str, int], ...]
    workers: int
    out: str

    def argv(self) -> list[str]:
        argv = ["solve", "--ring", json.dumps(self.carrier.spec),
                "--eq", self.equation, "--out", self.out,
                "--workers", str(self.workers)]
        for name, cls in self.classes:
            argv += ["--class", f"{name}={cls}"]
        for name, value in self.params:
            argv += ["--param", f"{name}={value}"]
        return argv


def pivot_unknown(template: Template, carrier: Carrier) -> str | None:
    """The unknown fnq computes through the y=1 pivot instead of scanning.

    fnq pivots when the left side is exactly ``u(x*y)``, the unit lies in the
    domain and ``u`` does not occur on the right side.
    """
    lhs, _, rhs = template.text.partition("=")
    name = template.unknowns[0]
    if carrier.unital_domain and lhs == f"{name}(x*y)" and f"{name}(" not in rhs:
        return name
    return None


def class_space(carrier: Carrier, cls: str) -> int:
    """Candidates fnq scans for one unknown of this class on this carrier."""
    if cls in ("arbitrary", "multiplicative", "leibniz"):
        return carrier.q ** carrier.m
    return carrier.q ** carrier.additive_gens


def estimated_pairs(template: Template, carrier: Carrier,
                    classes: dict[str, str]) -> int:
    """Evaluated pairs as fnq's budget counts them."""
    pivot = pivot_unknown(template, carrier)
    total = carrier.m * carrier.m
    for name in template.unknowns:
        if name != pivot:
            total *= class_space(carrier, classes[name])
    return total


def _signature(carrier: Carrier) -> tuple:
    """Carriers with one signature give fnq the same candidate spaces."""
    return (carrier.q, carrier.m, carrier.additive_gens, carrier.char,
            carrier.unital_domain, carrier.closed_only)


@dataclass(frozen=True)
class _Shape:
    template: Template
    carriers: tuple[Carrier, ...]          # one signature
    classes: tuple[tuple[str, str], ...]
    workers: int = 1
    out: str = "json"


def _catalogue() -> list[_Shape]:
    """The fixed list of task shapes, one per slot of a pass.

    A shape fixes the equation, the carrier signature, the class of every
    unknown, the worker count and the output format, which together set how
    much work fnq does.  Keeping the shapes fixed makes a pass cost about
    the same for every seed.
    """
    rng = random.Random("perfbench-small-solves")
    groups: dict[tuple, list[Carrier]] = {}
    for c in CARRIERS:
        groups.setdefault(_signature(c), []).append(c)
    per_template = []
    for template in TEMPLATES:
        shapes = []
        for carriers in groups.values():
            if template.open_args and carriers[0].closed_only:
                continue
            if template.noncommutative_only and carriers[0].commutative:
                continue
            pivot = pivot_unknown(template, carriers[0])
            scanned = [n for n in template.unknowns if n != pivot]
            for combo in product(CLASSES, repeat=len(scanned)):
                classes = dict(zip(scanned, combo))
                if pivot is not None:
                    classes[pivot] = rng.choice(CLASSES)
                if estimated_pairs(template, carriers[0], classes) <= PAIR_CAP:
                    shapes.append(_Shape(template, tuple(carriers),
                                         tuple(sorted(classes.items()))))
        rng.shuffle(shapes)
        per_template.append(shapes)
    slots = []
    for i in range(TASK_COUNT):
        shapes = per_template[i % len(per_template)]
        shape = shapes[(i // len(per_template)) % len(shapes)]
        slots.append(dataclasses.replace(
            shape, workers=2 if rng.random() < 0.25 else 1,
            out=rng.choices(("json", "csv", "text"), (14, 3, 3))[0]))
    return slots


def generate(seed: int) -> list[SolveSpec]:
    """The seed's task list; the same seed always gives the same list.

    Every seed fills the same shapes.  The seed draws the carrier within the
    shape's signature, nonzero parameter values and the task order.
    """
    rng = random.Random(seed)
    tasks = []
    for shape in _catalogue():
        carrier = rng.choice(shape.carriers)
        params = tuple((p, rng.randrange(1, carrier.char))
                       for p in shape.template.params)
        tasks.append((shape.template.text, carrier, shape.classes, params,
                      shape.workers, shape.out))
    rng.shuffle(tasks)
    return [SolveSpec(f"s{i:03d}", *t) for i, t in enumerate(tasks)]


# ------------------------------------------------------------ result parsing

def parse_solutions(out: str, text: str) -> list[list[list[int]]]:
    """Solution rows from fnq's json, csv or text report.

    Each row lists the unknowns' value vectors in the report's order.
    """
    if out == "json":
        return [list(sol.values()) for sol in json.loads(text)["solutions"]]
    if out == "csv":
        lines = text.splitlines()
        header = lines[0].split(",")
        names = list(dict.fromkeys(h.rsplit("_", 1)[0] for h in header))
        m = len(header) // len(names)
        rows = []
        for line in lines[1:]:
            vals = [int(v) for v in line.split(",")]
            rows.append([vals[i * m:(i + 1) * m] for i in range(len(names))])
        return rows
    rows = []
    for line in text.splitlines():
        if line.startswith("  {"):
            rows.append(list(json.loads(line).values()))
    return rows


def digest(rows: list[list[list[int]]]) -> str:
    blob = json.dumps(rows, separators=(",", ":")).encode()
    return f"{len(rows)}:{hashlib.sha256(blob).hexdigest()[:32]}"


# ------------------------------------------------------------------ oracle

CLASS_EQUATIONS = {
    "arbitrary": (),
    "additive": ("u(x+y)=u(x)+u(y)",),
    "multiplicative": ("u(x*y)=u(x)*u(y)",),
    "leibniz": ("u(x*y)=u(x)*y+x*u(y)",),
    "homomorphism": ("u(x+y)=u(x)+u(y)", "u(x*y)=u(x)*u(y)"),
    "derivation": ("u(x+y)=u(x)+u(y)", "u(x*y)=u(x)*y+x*u(y)"),
}


class _Unassigned(Exception):
    pass


class _PartialTable:
    """A value vector under construction, callable like ``fnq.FnTable``."""

    def __init__(self, position: dict[int, int]):
        self.position = position
        self.values: list[int | None] = [None] * len(position)

    def __call__(self, element: int) -> int:
        v = self.values[self.position[element]]
        if v is None:
            raise _Unassigned
        return v


def oracle_solutions(spec: SolveSpec) -> list[list[list[int]]]:
    """Every solution of the task by scalar backtracking, in fnq's order."""
    from fnq import algebra, eqdsl

    ring = algebra.ring_from_json(json.dumps(spec.carrier.spec))
    ast = eqdsl.parse_equation(spec.equation)
    names = list(ast.free_functions)
    classes = dict(spec.classes)
    params = {n: ring.int_embed(v) for n, v in spec.params}
    elems = list(ring.domain_elements)
    position = {e: i for i, e in enumerate(elems)}
    tables = {n: _PartialTable(position) for n in names}
    binding = eqdsl.Binding(functions=tables, params=params)
    const_binding = eqdsl.Binding(functions={}, params=params)

    equations = [ast]
    for name in names:
        for text in CLASS_EQUATIONS[classes[name]]:
            equations.append(eqdsl.parse_equation(text.replace("u(", f"{name}(")))

    # variables are interleaved by domain position: f(e0), h(e0), f(e1), ...
    k = len(names)
    var_of = {(n, p): p * k + i for i, n in enumerate(names)
              for p in range(len(elems))}
    n_vars = k * len(elems)
    static_at: list[list] = [[] for _ in range(n_vars)]
    dynamic_at: list[list] = [[] for _ in range(n_vars)]

    def reads(expr, x, y, out) -> bool:
        """Collect variables read at (x, y); False if a read is value-dependent."""
        if isinstance(expr, eqdsl.FnApp):
            if _has_app(expr.arg, eqdsl):
                reads(expr.arg, x, y, out)
                return False
            e = eqdsl.eval_side(expr.arg, const_binding, x, y, ring)
            out.append(var_of[(expr.name, position[e])])
            return True
        if isinstance(expr, (eqdsl.Add, eqdsl.Sub, eqdsl.Mul)):
            left = reads(expr.left, x, y, out)
            return reads(expr.right, x, y, out) and left
        if isinstance(expr, eqdsl.Neg):
            return reads(expr.operand, x, y, out)
        return True

    for eq in equations:
        used = _vars_used(eq, eqdsl)
        xs = elems if "x" in used else elems[:1]
        ys = elems if "y" in used else elems[:1]
        for x in xs:
            for y in ys:
                got: list[int] = []
                static = reads(eq.lhs, x, y, got) & reads(eq.rhs, x, y, got)
                depth = max(got, default=0)
                (static_at if static else dynamic_at)[depth].append((eq, x, y))

    order = [(tables[names[v % k]], v // k) for v in range(n_vars)]
    found: list[list[list[int]]] = []

    def holds(eq, x, y) -> bool:
        return (eqdsl.eval_side(eq.lhs, binding, x, y, ring)
                == eqdsl.eval_side(eq.rhs, binding, x, y, ring))

    def search(depth: int, pending: list) -> None:
        if depth == n_vars:
            found.append([list(tables[n].values) for n in names])
            return
        table, pos = order[depth]
        waiting = pending + dynamic_at[depth]
        for value in range(ring.size):
            table.values[pos] = value
            if not all(holds(*c) for c in static_at[depth]):
                continue
            still, ok = [], True
            for c in waiting:
                try:
                    if not holds(*c):
                        ok = False
                        break
                except _Unassigned:
                    still.append(c)
            if ok:
                search(depth + 1, still)
        table.values[pos] = None

    search(0, [])
    found.sort(key=lambda row: [v for vec in row for v in vec])
    return found


def _has_app(expr, eqdsl) -> bool:
    if isinstance(expr, eqdsl.FnApp):
        return True
    if isinstance(expr, (eqdsl.Add, eqdsl.Sub, eqdsl.Mul)):
        return _has_app(expr.left, eqdsl) or _has_app(expr.right, eqdsl)
    if isinstance(expr, eqdsl.Neg):
        return _has_app(expr.operand, eqdsl)
    return False


def _vars_used(ast, eqdsl) -> set[str]:
    used: set[str] = set()

    def walk(expr):
        if isinstance(expr, eqdsl.Var):
            used.add(expr.name)
        elif isinstance(expr, eqdsl.FnApp):
            walk(expr.arg)
        elif isinstance(expr, (eqdsl.Add, eqdsl.Sub, eqdsl.Mul)):
            walk(expr.left)
            walk(expr.right)
        elif isinstance(expr, eqdsl.Neg):
            walk(expr.operand)

    walk(ast.lhs)
    walk(ast.rhs)
    return used


def oracle_digests(tasks: list[SolveSpec]) -> dict[str, str]:
    return {t.task_id: digest(oracle_solutions(t)) for t in tasks}
