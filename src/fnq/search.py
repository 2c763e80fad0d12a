"""Level-wise constraint search for unknown function tables.

The unknowns' value vectors form one row of digits: one digit per unknown
at each domain position, with the unknowns interleaved at each position in
the order the caller gives them.  Positions go first to those that constant
arguments read, like the 5 of ``g(5)``, then unit, then zero, then the rest
ascending, because a check reading ``g(5)`` waits for that digit and the
x=1 and y=0 checks constrain most, unless the caller passes its own order
(:func:`fnq.maps.logarithmic_order`, for an unknown of the logarithmic
class); the order changes the work, never the solutions.  Before searching, every
(constraint, x, y) check gets the level at which it becomes decidable, the
last digit it reads, worked out with numpy over the whole pair grid.  This
planning is one pass per search: the grid of every pair is built once, and
the digits a plain application reads at each pair (its slots) are worked
out once per pair set and parameters, and shared by every constraint that
applies it there, as an equation and its class identities do.  On a
domain that is the whole carrier a position is the element itself and no
argument can leave the domain, so neither is looked up.  An
unknown applied to an argument that reads an unknown, as ``g`` in
``g(h(x))``, may read any of its digits.  Such unknowns and the unknowns
read inside their arguments take the first digits, and a check with such
an application waits until all their digits are assigned, running after
the other checks of that level.  The search then grows the surviving rows
one digit at a time: every row is repeated once per codomain element, the
new digit is appended, and that level's checks filter the rows.  This is
the finite-model search of SEM (Zhang & Zhang, IJCAI 1995) and Mace4
(McCune, arXiv:cs/0310055).

A digit that one check defines is computed instead, as those searches
propagate it.  A pair defines its level's digit when one side is a lone
application reading that digit and the other side reads only earlier
digits, as the pair (1, 1) of ``f(x+y) = f(x)+f(y)`` defines f(2) once
f(1) is assigned, and the pair (x, 1) of ``f(x*y) = h(x)*h(y)`` defines
f(x) when ``f`` comes after ``h``.  The planner sorts each constraint's
pairs by level once, notes where every level's pairs start, and marks the
defining pairs; at a level with one the search writes the other side's
value into every row: no rows·q growth.  That value is taken at its one
pair on columns of the rows: x and y are that pair's elements, and each
application is the column of the one digit it reads, kept as an integer
array that indexes a ring table faster than the rows' own small dtype, so
a computed level costs a table lookup per operation and one column write.
This is the whole per-level step of Hom(Z256)'s 254 computed levels, each
f(k) = f(1) + f(k-1).  A run of computed levels widens the rows once, and
its checks wait: they run as one slice of pairs per
constraint before the next grown level, at the end, or once the waiting
(row, pair) cells reach ``_CELLS``.  A computed digit depends only on the
digits before it, so a row that a waiting check would drop yields the
same digits whenever it is dropped, and every grown level, with its
budget check, sees exactly the rows it would see if each level were
checked at once.  A pair of a nested check defines only on a domain that
is the whole carrier, where no argument can leave the domain; on a proper
subring a level with a nested check is grown, so that every row reaching
that check raises if it reads outside.  For Hom(Z256) only the digits of
f(1) and f(0) are grown, and the checks of the other 254 levels run in
one pass over 1,017 of the 1,024 pairs that
:func:`fnq.maps.class_constraints` states; in the logarithmic order
(:func:`fnq.maps.logarithmic_order`) only the unit generators' digits are
grown.

A check takes its pairs in chunks: the first covers about 4,096 (row,
pair) cells and each next one twice the pairs of the last, and every
chunk drops the rows it refutes before the next runs.  One selective pair
thus prunes a large level before the rest is evaluated: for the additive
identity on Z256, any one pair of the level of f(0) keeps 256 of its
65,536 rows.  A tiny search still
takes one numpy pass per check, since its first chunk holds every pair:
starting at one pair instead raised the median solve of the benchmark's
200 small seeded tasks from about 0.9 ms to 1.2-1.6 ms.  A budget bounds
each level that grows its digit: its rows times q times its pairs, which
bound its time, plus the digits of a grown row, which bound its memory.
It also bounds the widening of a run of computed levels, its rows times
the digits of a widened row: additive UT2(5) grows only three digits,
then would widen 1,953,125 rows to all 125.

Arguments of unknowns are computed in the domain ring and everything else
in the codomain ring, so ``x`` or ``y`` outside an argument, or an unknown
inside one, needs both rings to share their tables.  An unknown applied
outside the declared domain raises :class:`EvalDomainError`: while planning
when its argument reads no unknown, and otherwise as soon as a row that
reaches the check reads outside.
"""
from __future__ import annotations

from dataclasses import dataclass
from itertools import repeat
from math import prod

import numpy as np

from .algebra import Ring, same_carrier
from .eqdsl import (Add, Expr, FnApp, IntLit, Mul, Neg, PairConstraint, Param,
                    Sub, Var, children)
from .errors import BudgetExceeded, EvalDomainError, FnqError, UnboundName

# the default budget of every search, solve, enumeration and check
DEFAULT_BUDGET = 10 ** 8
# (row, pair) cells evaluated at once; bounds the temporaries of one block
_CELLS = 1 << 21
# (row, pair) cells of a check's first chunk of pairs; each next chunk has
# twice the pairs, so one selective pair prunes the rows before the rest of
# the check runs, while a small level still takes one pass per check
_FIRST_CHUNK = 1 << 12


@dataclass
class _Plan:
    """The pairs of one constraint, sorted by the level that decides them."""

    lhs: tuple
    rhs: tuple
    x: np.ndarray              # (1, P) domain elements
    y: np.ndarray
    slots: np.ndarray          # digit read by each plain application, (S, P)
    nested: bool               # applies an unknown to an unknown's value
    cuts: list[int]            # level L's pairs are cuts[L+1]:cuts[L+2]
    defines: dict[int, tuple]  # level: the side whose value at one pair is
    #                            the level's digit, that pair's x and y,
    #                            and the digits its applications read


def _eval(node: tuple, x, y, slots, rows, cols=None):
    """Value of a compiled node: an int, (1, P) or (rows, P).

    With ``cols`` the node is taken at one pair: x and y are its elements,
    ``slots`` lists as ints the digits its plain applications read there,
    and the value is an int or a column.  Each digit's column is read once
    into ``cols``, as an integer array, which indexes a table faster than
    the rows' own small dtype."""
    tag = node[0]
    if tag == "fn":
        if cols is None:
            return rows[:, slots[node[1]]]
        digit = slots[node[1]]
        col = cols.get(digit)
        if col is None:
            col = cols[digit] = rows[:, digit].astype(np.intp)
        return col
    if tag == "x":
        return x
    if tag == "y":
        return y
    if tag == "k":
        return node[1]
    if tag == "neg":
        return node[1][_eval(node[2], x, y, slots, rows, cols)]
    if tag == "nest":
        _, digit_at, position, arg = node
        pos = _eval(arg, x, y, slots, rows, cols)
        if position is not None:
            pos = position[pos]
            if (pos < 0).any():
                raise EvalDomainError(
                    "function applied outside declared domain")
        if cols is None:
            return np.take_along_axis(rows, digit_at[pos], axis=1)
        return np.take_along_axis(rows, digit_at[pos][:, None], axis=1)[:, 0]
    return node[1][_eval(node[2], x, y, slots, rows, cols),
                   _eval(node[3], x, y, slots, rows, cols)]


class _Planner:
    """Compiles constraints and assigns every check its level."""

    def __init__(self, constraints, unknowns, domain: Ring, codomain: Ring,
                 params, order):
        self.unknowns = {n: i for i, n in enumerate(unknowns)}
        self.domain, self.codomain = domain, codomain
        self.params = params
        self.mixable = same_carrier(domain, codomain)
        m = len(domain.domain_elements)
        # no argument leaves a domain that is the whole carrier, whose
        # positions are its elements
        self.whole = m == domain.size
        self.grid = None  # every (x, y), built once when a constraint asks
        # the slots of each plain application by pair set and parameters,
        # freed with the planner
        self.memo: dict[tuple, np.ndarray] = {}
        # the unknowns of nested applications, and the positions that
        # constant arguments read
        dynamic: set[str] = set()
        constant = []
        for c in constraints:
            args = []
            _scan(c.equation.lhs, dynamic, args)
            _scan(c.equation.rhs, dynamic, args)
            if order is None and args:
                self.bound = {**params, **c.params}
                constant += [self._position(arg) for arg in args]
        if order is None:
            order = domain.position_order(constant)
        elif sorted(order) != list(range(m)):
            raise ValueError(f"order is not a permutation of the {m} "
                             "domain positions")
        rank = np.empty(m, dtype=np.int64)
        rank[order] = np.arange(m)
        # digit index of unknown i at domain position p: the unknowns of
        # nested applications first, then the others
        self.digit_of = np.empty((len(unknowns), m), dtype=np.int64)
        start = 0
        for nested in (True, False):
            block = [i for i, n in enumerate(unknowns)
                     if (n in dynamic) == nested]
            for j, i in enumerate(block):
                self.digit_of[i] = start + rank * len(block) + j
            start += len(block) * m
        self.digits = start

    def _position(self, arg: Expr) -> int:
        """Domain position of a constant argument; -1 when it lies outside
        the domain or fails to evaluate, which :meth:`compile` reports."""
        try:
            value = _eval(self._build(arg, True), None, None, None, None)
            return int(self.domain.position[value])
        except (FnqError, IndexError):
            return -1

    def compile(self, constraint: PairConstraint) -> _Plan | None:
        """The plan of one constraint; None when it has no pairs."""
        if constraint.pairs is None:
            if self.grid is None:
                elems = self.domain.element_array
                self.grid = (elems.repeat(len(elems)),
                             np.tile(elems, len(elems)))
            xs, ys = self.grid
        else:
            pairs = np.asarray(constraint.pairs, dtype=np.int64).reshape(-1, 2)
            xs, ys = pairs[:, 0], pairs[:, 1]
        if not len(xs):
            return None
        # last digit of the unknowns of the nested applications
        self.pairs, self.slots, self.late = (xs, ys), [], -1
        self.bound = {**self.params, **constraint.params}
        # with an application, these fix its slots
        self.context = (id(constraint.pairs),
                        tuple(sorted(self.bound.items())))
        lhs = self._build(constraint.equation.lhs, False)
        split = len(self.slots)
        rhs = self._build(constraint.equation.rhs, False)
        stacked = np.array(self.slots, dtype=np.int64).reshape(-1, len(xs))
        lhs_last = stacked[:split].max(axis=0, initial=self.late)
        rhs_last = stacked[split:].max(axis=0, initial=self.late)
        # levels shifted by one, -1 (reads no digit) to 0, in the smallest
        # unsigned dtype, which numpy sorts stably by radix
        dtype = np.min_scalar_type(self.digits)
        levels = (np.maximum(lhs_last, rhs_last) + 1).astype(dtype)
        sides = ((rhs, lhs, rhs_last > lhs_last),
                 (lhs, rhs, lhs_last > rhs_last))
        del lhs_last, rhs_last
        order = levels.argsort(kind="stable")
        levels, xs, ys = levels[order], xs[order], ys[order]
        slots = stacked.astype(dtype)[:, order]
        self.pairs = self.slots = None  # drop the unsorted arrays
        # a pair defines its level's digit when one side is a lone
        # application reading that digit and the other reads only earlier
        # ones; the lhs slots are the ones built before the rhs.  Keep the
        # first such pair of each level.
        defines = {}
        if self.late < 0 or self.whole:
            for lone, other, later in sides:
                if lone[0] == "fn":
                    hits = later[order].nonzero()[0]
                    level = levels[hits]
                    first = np.ones(len(hits), dtype=bool)
                    first[1:] = level[1:] != level[:-1]
                    hits = hits[first]
                    defines.update(zip((level[first] - 1).tolist(), zip(
                        repeat(other), xs[hits].tolist(), ys[hits].tolist(),
                        slots[:, hits].T.tolist())))
        cuts = levels.searchsorted(
            np.arange(self.digits + 1, dtype=levels.dtype))
        return _Plan(lhs, rhs, xs[None, :], ys[None, :], slots,
                     self.late >= 0, [*cuts.tolist(), len(levels)], defines)

    def _mixing(self, what: str) -> None:
        if not self.mixable:
            raise EvalDomainError(
                f"{what} needs the domain inside the codomain")

    def _build(self, expr: Expr, in_arg: bool) -> tuple:
        """Compile ``expr``; ``in_arg`` marks an argument of an unknown."""
        ring = self.domain if in_arg else self.codomain
        if isinstance(expr, Var):
            if not in_arg:
                self._mixing("a domain element outside an argument")
            return (expr.name,)
        if isinstance(expr, IntLit):
            return ("k", ring.int_embed(expr.value))
        if isinstance(expr, Param):
            if expr.name not in self.bound:
                raise UnboundName(f"parameter {expr.name!r} is not bound")
            return ("k", self.bound[expr.name])
        if isinstance(expr, FnApp):
            if expr.name not in self.unknowns:
                raise UnboundName(f"function {expr.name!r} is not an unknown")
            if in_arg:
                self._mixing("a value used as an argument")
            key = (expr, self.context)
            slot = self.memo.get(key)
            if slot is None:
                digit_at = self.digit_of[self.unknowns[expr.name]]
                start = len(self.slots)
                arg = self._build(expr.arg, True)
                if len(self.slots) > start:  # the argument reads an unknown
                    self.late = max([self.late] + [
                        int(self.digit_of[self.unknowns[n]].max())
                        for n in _scan(expr.arg, set(), [])[0] | {expr.name}])
                    return ("nest", digit_at,
                            None if self.whole else self.domain.position, arg)
                pos = _eval(arg, *self.pairs, None, None)
                if not self.whole:
                    pos = self.domain.position[pos]
                    if (pos < 0).any():
                        raise EvalDomainError(
                            f"function {expr.name!r} applied outside "
                            "declared domain")
                slot = digit_at[pos]
                if slot.shape != self.pairs[0].shape:  # a constant argument
                    slot = np.broadcast_to(slot, self.pairs[0].shape)
                self.memo[key] = slot
            self.slots.append(slot)
            return ("fn", len(self.slots) - 1)
        if isinstance(expr, Neg):
            return ("neg", ring.neg, self._build(expr.operand, in_arg))
        left = self._build(expr.left, in_arg)
        right = self._build(expr.right, in_arg)
        if isinstance(expr, Sub):
            return ("add", ring.add, left, ("neg", ring.neg, right))
        if isinstance(expr, Add):
            return ("add", ring.add, left, right)
        if isinstance(expr, Mul):
            return ("mul", ring.mul, left, right)
        raise TypeError(f"not an expression node: {expr!r}")


def _scan(expr: Expr, nested: set[str], constant: list[Expr]
          ) -> tuple[set[str], bool]:
    """The unknowns applied in ``expr`` and whether it reads ``x`` or ``y``.
    Adds the unknowns of nested applications (the applied unknown and those
    its argument reads) to ``nested``, and every constant argument, one
    reading no variable and no unknown, to ``constant``."""
    if isinstance(expr, Var):
        return set(), True
    inner, var = set(), False
    for child in children(expr):
        applied, reads = _scan(child, nested, constant)
        inner |= applied
        var = var or reads
    if isinstance(expr, FnApp):
        if inner:
            nested |= inner | {expr.name}
        elif not var:
            constant.append(expr.arg)
        inner.add(expr.name)
    return inner, var


def search(constraints: list[PairConstraint], unknowns: tuple[str, ...],
           domain: Ring, codomain: Ring,
           params: dict[str, int] | None = None,
           budget: int | None = None, *,
           order: list[int] | None = None) -> np.ndarray:
    """Every assignment of value vectors to the unknowns meeting all constraints.

    ``budget`` bounds the charge of each level that grows its digit: the
    rows entering it times the codomain size times the pairs its checks
    read at that level plus the digits of a grown row.  The first level of
    a run of computed levels grows no rows but widens them to the next
    grown level, and is charged the rows times the digits of a widened
    row.  A level past the budget raises :class:`BudgetExceeded`, naming
    the level, before it grows or widens anything.  A grown level's
    checks run as soon as it is grown.  Those of a run of computed levels
    wait until the next grown level, whose charge comes after them, the
    end, or ``_CELLS``
    waiting (row, pair) cells, and then run as one slice of pairs per
    constraint.  ``order`` lists the domain positions in the
    order their digits are assigned, replacing the default of the positions
    constant arguments read, then unit, zero and the rest ascending;
    anything but a permutation of the positions raises :class:`ValueError`.
    At each position the digits follow the order of ``unknowns``, so an
    unknown that a pair defines from the others, as the pair (x, 1) of
    ``f(x*y) = h(x)*h(y)`` defines f(x), goes last to be computed.

    Returns an int64 array of shape (solutions, unknowns, domain size) in
    lexicographic order of the concatenated value vectors
    (:func:`lex_sorted`), unknowns in the given order and positions in
    domain order.
    """
    planner = _Planner(constraints, unknowns, domain, codomain, params or {},
                       order)
    # plain checks first, so that at a grown level only the rows they keep
    # reach a nested check
    plans = sorted(filter(None, map(planner.compile, constraints)),
                   key=lambda plan: plan.nested)
    digits, digit_of, whole = planner.digits, planner.digit_of, planner.whole
    del planner  # with the slots the plans shared while planning
    # a level with a defining pair computes its digit, unless a nested check
    # there may read outside a proper subring; the rest are grown
    computed = {}
    for plan in reversed(plans):  # the first plan's pair of a level wins
        computed.update(plan.defines)
    for plan in plans:
        if plan.nested and not whole:
            for level in range(digits):
                if plan.cuts[level + 1] < plan.cuts[level + 2]:
                    computed.pop(level, None)
    # done[k]: the pairs, over all plans, at the levels before level k-1
    done = list(map(sum, zip(*(plan.cuts for plan in plans)))
                ) or [0] * (digits + 2)

    q = codomain.size
    rows = _filter(np.zeros((1, 0), dtype=np.min_scalar_type(q - 1)),
                   _checks(plans, -1, -1))
    waiting = 0  # the first level whose checks have not run
    level = 0
    while level < digits and len(rows):
        if level in computed:
            # a run of computed levels: widen the rows once, then write
            # each digit from the columns it reads
            stop = next((k for k in range(level, digits)
                         if k not in computed), digits)
            _charge(budget, level, len(rows) * stop, "widened digits")
            wide = np.empty((len(rows), stop), dtype=rows.dtype)
            wide[:, :level] = rows
            rows, cols, count = wide, {}, len(rows)
            for level in range(level, stop):
                node, x, y, slots = computed[level]
                rows[:, level] = value = _eval(node, x, y, slots, rows, cols)
                if isinstance(value, np.ndarray):
                    cols[level] = value
                if count * (done[level + 2] - done[waiting + 1]) >= _CELLS:
                    rows = _filter(rows, _checks(plans, waiting, level))
                    cols, waiting, count = {}, level + 1, len(rows)
                    if not count:
                        break
            level = stop
            continue
        rows = _filter(rows, _checks(plans, waiting, level - 1))
        if not len(rows):
            break
        pairs = done[level + 2] - done[level + 1]
        _charge(budget, level, len(rows) * q * (pairs + level + 1),
                "evaluated pairs")
        rows = _grow(rows, q, _checks(plans, level, level))
        waiting = level = level + 1
    rows = _filter(rows, _checks(plans, waiting, digits - 1))
    if not len(rows):
        rows = np.zeros((0, digits), dtype=rows.dtype)

    return lex_sorted(rows[:, digit_of]).astype(np.int64)


def lex_sorted(values: np.ndarray) -> np.ndarray:
    """``values`` with its rows, the entries along the first axis, in
    lexicographic order of their flattened non-negative integers.

    Each row becomes one key of big-endian digits in the smallest unsigned
    dtype that holds them, so that keys compare as bytes in that order, and
    one stable sort orders them, instead of one sort key per digit."""
    flat = values.reshape(len(values), prod(values.shape[1:]))
    if not flat.size:
        return values
    key = flat.astype(np.min_scalar_type(flat.max()).newbyteorder(">"),
                      order="C")
    row = np.dtype((np.void, key.itemsize * key.shape[1]))
    return values[key.view(row)[:, 0].argsort(kind="stable")]


def _charge(budget: int | None, level: int, needed: int, what: str) -> None:
    """Raise :class:`BudgetExceeded` when ``needed`` passes ``budget``."""
    if budget is not None and needed > budget:
        raise BudgetExceeded(f"search level {level} needs {needed} {what}, "
                             f"budget is {budget}", needed=needed)


def _checks(plans: list[_Plan], first: int, last: int
            ) -> list[tuple[_Plan, int, int]]:
    """(plan, start, stop) of every plan with pairs at levels ``first`` to
    ``last``: the bounds of those pairs."""
    return [(plan, start, stop) for plan in plans
            if (start := plan.cuts[first + 1]) < (stop := plan.cuts[last + 2])]


def _grow(rows: np.ndarray, q: int, checks: list[tuple[_Plan, int, int]]
          ) -> np.ndarray:
    """Append every codomain element as the next digit and filter."""
    count, width = rows.shape
    step = max(1, _CELLS // (q * max((stop - start for _, start, stop in checks),
                                     default=1)))
    parts = []
    for start in range(0, count, step):
        block = rows[start:start + step]
        grown = np.empty((len(block), q, width + 1), dtype=rows.dtype)
        grown[:, :, :width] = block[:, None]
        grown[:, :, width] = np.arange(q, dtype=rows.dtype)
        parts.append(_filter(grown.reshape(-1, width + 1), checks))
    return parts[0] if len(parts) == 1 else np.concatenate(parts)


def _filter(rows: np.ndarray, checks: list[tuple[_Plan, int, int]]
            ) -> np.ndarray:
    """Rows passing every check of :func:`_checks`: one level's pairs at a
    grown level, and those of every waiting level after a run of computed
    ones.  A plain check takes its pairs in growing
    chunks; a nested check takes all at once, so every row reaching it
    raises if it reads outside the domain at any pair."""
    for c, start, stop in checks:
        size = max(1, stop - start if c.nested
                   else _FIRST_CHUNK // max(len(rows), 1))
        while start < stop and len(rows):
            part = slice(start, min(start + size, stop))
            x, y, slots = c.x[:, part], c.y[:, part], c.slots[:, part]
            ok = np.equal(_eval(c.lhs, x, y, slots, rows),
                          _eval(c.rhs, x, y, slots, rows))
            if ok.ndim == 2 and len(ok) == len(rows):
                rows = rows[ok.all(axis=1)]
            elif not ok.all():  # reads no digit: every row or none
                rows = rows[:0]
            start, size = start + size, 2 * size
    return rows
