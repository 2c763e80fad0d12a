"""Function tables between rings and the named structure classes.

A map is always stored as a total value vector over the domain carrier (or
its declared sub-carrier).  Structure classes are defined by which
identities hold at every pair of domain elements:

* additive        f(x+y) = f(x)+f(y)
* multiplicative  f(xy)  = f(x)f(y)
* leibniz         f(xy)  = f(x)y + xf(y)
* logarithmic     f(xy)  = f(x)+f(y) on the unit group, 0 off it
* homomorphism    additive and multiplicative
* derivation      additive and leibniz
* homo-deriv-mp   homomorphism and leibniz
* homo-deriv-sofy(eps)  additive and f(xy) = f(x)y + xf(y) + eps f(x)f(y)

Each class is defined once, as the constraints of :func:`class_constraints`.
Enumeration yields every table of a class exactly once, in lexicographic
order of the value vector.  Every class but ``arbitrary`` is a search of
the level-wise kernel (:mod:`fnq.search`) for those constraints, in the
kernel's default position order except for the logarithmic class.  That
class takes the non-units first, each fixed at zero by its own check, and
then the units in the order a breadth-first closure over a unit
generating set reaches them.  Each unit but a generator then comes after
two factors whose check defines it, and the kernel computes its digit from
that check instead of enumerating it, so only generator positions multiply
the rows the kernel grows.  The additive identity is stated at the pairs
(x, g) only, x in the domain and g in 0 and an additive generating set
(:attr:`fnq.algebra.Ring.generator_pairs`), which decide it, and the
kernel computes the digits they define.  Membership of one table
(:func:`in_class`, :func:`classify_map`) is a grid check of the same
constraints (:func:`fnq.eqdsl.grid_satisfies`), except that a class that
requires additivity checks its other identities at the pairs (g, h) only,
since for an additive map they are additive in x and in y.  It shares no
code with the kernel.  The identities share their common terms as nodes,
which one grid cache evaluates once per pair set.  Over all pairs every
operation in them but the applications ``f(x*y)`` and ``f(x+y)`` and the
sums ``f(x)*y+x*f(y)`` and ``f(x)*y+x*f(y)+e*f(x)*f(y)`` has operands
that vary along one grid axis each, which the grid computes as one slice
of a ring table.
"""
from __future__ import annotations

from dataclasses import dataclass
from itertools import product as iproduct
from typing import Iterable, Iterator

import numpy as np

from .algebra import Ring, same_carrier
from .eqdsl import (Add, EquationAst, Expr, FnApp, IntLit, Mul, PairConstraint,
                    Param, Var, grid_satisfies)
from .errors import BudgetExceeded, EvalDomainError, InvalidTask, NotAField
from .search import search

DEFAULT_ENUM_BUDGET = 10 ** 8


@dataclass(frozen=True)
class FunctionClass:
    """A named structure class, optionally parameterized by a shift constant."""

    kind: str
    eps: int | None = None

    def __str__(self) -> str:
        if self.eps is None:
            return self.kind
        return f"{self.kind}:{self.eps}"


ARBITRARY = FunctionClass("arbitrary")
ADDITIVE = FunctionClass("additive")
MULTIPLICATIVE = FunctionClass("multiplicative")
HOMOMORPHISM = FunctionClass("homomorphism")
LEIBNIZ = FunctionClass("leibniz")
DERIVATION = FunctionClass("derivation")
LOGARITHMIC = FunctionClass("logarithmic")
HOMO_DERIV_MP = FunctionClass("homo-deriv-mp")


def homo_deriv_sofy(eps: int) -> FunctionClass:
    return FunctionClass("homo-deriv-sofy", eps)


_NAMED = {c.kind: c for c in (ARBITRARY, ADDITIVE, MULTIPLICATIVE,
                              HOMOMORPHISM, LEIBNIZ, DERIVATION, LOGARITHMIC,
                              HOMO_DERIV_MP)}


def class_from_string(text: str) -> FunctionClass:
    """``name``, or ``homo-deriv-sofy:<integer>``; raises InvalidTask."""
    kind, colon, eps = text.partition(":")
    if colon:
        if kind != "homo-deriv-sofy":
            raise InvalidTask(f"class {kind!r} takes no parameter")
        try:
            return homo_deriv_sofy(int(eps))
        except ValueError:
            raise InvalidTask(
                f"shift constant {eps!r} is not an integer") from None
    if text not in _NAMED:
        raise InvalidTask(f"unknown function class {text!r}")
    return _NAMED[text]


@dataclass(frozen=True)
class FnTable:
    """A total function between ring carriers stored as a value vector.

    ``values[i]`` is the image (a codomain index) of the i-th element of
    ``domain.domain_elements``.
    """

    domain: Ring
    codomain: Ring
    values: tuple[int, ...]

    def __post_init__(self):
        m = len(self.domain.domain_elements)
        if len(self.values) != m:
            raise ValueError(f"expected {m} values, got {len(self.values)}")
        if m and not (0 <= min(self.values)
                      and max(self.values) < self.codomain.size):
            raise ValueError("value out of codomain range")

    def __call__(self, element: int) -> int:
        pos = int(self.domain.position[element])
        if pos < 0:
            raise EvalDomainError(
                f"element {element} is outside the declared domain")
        return self.values[pos]

    def as_array(self) -> np.ndarray:
        return np.asarray(self.values, dtype=np.int64)

    def to_json(self) -> dict:
        return {"domain": self.domain.spec.to_json(),
                "codomain": self.codomain.spec.to_json(),
                "values": list(self.values)}

    def is_zero(self) -> bool:
        return all(v == self.codomain.zero for v in self.values)


def identity_map(ring: Ring) -> FnTable:
    return FnTable(ring, ring, tuple(ring.domain_elements))

def zero_map(domain: Ring, codomain: Ring | None = None) -> FnTable:
    codomain = codomain or domain
    return FnTable(domain, codomain,
                   (codomain.zero,) * len(domain.domain_elements))


def in_class(f: FnTable, cls: FunctionClass) -> bool:
    """Whether the class's identities hold for ``f`` at every domain pair.

    An identity reading a domain element outside an argument holds for no
    map between rings that do not share their tables.
    """
    return bool(class_mask(f.domain, f.codomain, f.as_array()[None, :], cls)[0])


def class_mask(domain: Ring, codomain: Ring, rows: np.ndarray,
               cls: FunctionClass, seen: dict | None = None) -> np.ndarray:
    """:func:`in_class` for each row of value vectors: one grid evaluation
    per class constraint over all rows, until no row is left.

    A class that requires additivity checks the additive identity at the
    pairs (x, g) and its other identities at the pairs (g, h) of
    :attr:`fnq.algebra.Ring.generator_pairs`, which decide them; every
    other identity is checked at all its pairs.

    A constraint is built only while a row is left, so the unit pairs of
    the logarithmic identity are not built once its zero check has failed
    for every row.  ``seen``, if given, is the cache of
    :func:`fnq.eqdsl.grid_satisfies`: per pair set, the cells of each
    subexpression of the class identities that reads no parameter, and the
    mask of each identity that reads none.  It is valid only for these
    ``rows`` between these rings; calls for other classes of the same rows
    may share it, as :func:`classify_map` does.  Without it no cells
    outlive their constraint's check, which bounds the memory of many rows.
    A class identity reads no unknown inside an argument, so an argument
    outside the declared domain fails every row alike.
    """
    return _mask(domain, codomain, rows,
                 _constraints(domain, "f", cls, generated=True), seen)


def _mask(domain: Ring, codomain: Ring, rows: np.ndarray,
          constraints: Iterable[PairConstraint], seen: dict | None
          ) -> np.ndarray:
    """:func:`class_mask` for any constraints on ``f``, taken one at a time
    until no row is left."""
    ok = np.ones(len(rows), dtype=bool)
    try:
        for c in constraints:
            ok &= grid_satisfies(c, domain, codomain, {"f": rows}, {}, seen)
            if not ok.any():
                break
    except EvalDomainError:
        ok[:] = False
    return ok


def classify_map(f: FnTable) -> set[FunctionClass]:
    """Every class tag whose defining identities hold at all domain pairs.

    Each identity is checked once.  An additive map is multiplicative or
    Leibniz exactly when the identity holds at the generator pairs (g, h)
    (:func:`class_mask`), so for one no product identity is evaluated
    beyond them; any other map is checked at every pair.  A named class
    but logarithmic is tagged when each identity it lists in
    ``_CLASS_IDENTITIES`` holds.  The shifted homo-derivation identity of an
    additive map is checked in one call for the array of all nonzero central
    shift constants, and each witnessing constant produces its own
    parameterized tag.  All checks share one cache of subexpression cells per
    pair set, so the shifts compute only the term reading the constant.
    """
    seen: dict = {}
    rows = f.as_array()[None, :]

    def holds(constraints: Iterable[PairConstraint]) -> bool:
        return bool(_mask(f.domain, f.codomain, rows, constraints, seen)[0])

    additive = holds(_constraints(f.domain, "f", ADDITIVE))
    pairs = f.domain.generator_pairs[1] if additive else None
    found = {"additive": additive, **{
        kind: holds([PairConstraint(_F_IDENTITIES[kind], pairs)])
        for kind in ("multiplicative", "leibniz")}}
    tags = {cls for cls in _NAMED.values() if cls.kind in _CLASS_IDENTITIES
            and all(found[i] for i in _CLASS_IDENTITIES[cls.kind])}
    if holds(_constraints(f.domain, "f", LOGARITHMIC)):
        tags.add(LOGARITHMIC)
    shifts = np.array([e for e in f.codomain.center if e != f.codomain.zero])
    if additive and len(shifts) and same_carrier(f.domain, f.codomain):
        # f reads only x, y and x*y, which a declared subring keeps inside
        sofy = PairConstraint(_F_IDENTITIES["sofy"], pairs)
        ok = grid_satisfies(sofy, f.domain, f.codomain, {"f": rows},
                            {"e": shifts}, seen)
        tags |= {homo_deriv_sofy(int(e)) for e in shifts[ok]}
    return tags


def inner_derivation(ring: Ring, b: int) -> FnTable:
    """The commutator map x -> x*b - b*x over the declared domain."""
    elems = ring.element_array
    values = ring.add[ring.mul[elems, b], ring.neg[ring.mul[b, elems]]]
    return FnTable(ring, ring, tuple(values.tolist()))


# ------------------------------------------------ identities as equations

def _shared_identities(fn: str) -> dict[str, EquationAst]:
    """The class identities for the unknown ``fn``, equal to their parsed
    text but built so that each term common to several of them is one node:
    a grid check with one cache then evaluates each of ``fn(x*y)``,
    ``fn(x)``, ``fn(y)``, ``fn(x)+fn(y)`` and ``fn(x)*y+x*fn(y)`` once for
    all of them."""
    x, y = Var("x"), Var("y")
    fx, fy, fxy = FnApp(fn, x), FnApp(fn, y), FnApp(fn, Mul(x, y))
    split = Add(Mul(fx, y), Mul(x, fy))
    fx_plus_fy = Add(fx, fy)

    def equation(lhs: Expr, rhs: Expr, params: tuple[str, ...] = ()):
        return EquationAst(lhs, rhs, (fn,), params)
    return {
        "additive": equation(FnApp(fn, Add(x, y)), fx_plus_fy),
        "multiplicative": equation(fxy, Mul(fx, fy)),
        "leibniz": equation(fxy, split),
        # f(x*y)=f(x)*y+x*f(y)+e*f(x)*f(y)
        "sofy": equation(fxy, Add(split, Mul(Mul(Param("e"), fx), fy)),
                         ("e",)),
        "logarithmic": equation(fxy, fx_plus_fy),
        "zero": equation(fx, IntLit(0)),
    }


# built once for the unknown f, which every membership check uses
_F_IDENTITIES = _shared_identities("f")
# the identities each class requires at every domain pair
_CLASS_IDENTITIES = {
    "arbitrary": (),
    "additive": ("additive",),
    "multiplicative": ("multiplicative",),
    "homomorphism": ("additive", "multiplicative"),
    "leibniz": ("leibniz",),
    "derivation": ("additive", "leibniz"),
    "homo-deriv-mp": ("additive", "multiplicative", "leibniz"),
    "homo-deriv-sofy": ("additive", "sofy"),
}


def _identity(kind: str, fn: str) -> EquationAst:
    if fn == "f":
        return _F_IDENTITIES[kind]
    return _shared_identities(fn)[kind]


def multiplicative_equation(fn: str = "f") -> EquationAst:
    return _identity("multiplicative", fn)


def leibniz_equation(fn: str = "f") -> EquationAst:
    return _identity("leibniz", fn)


def class_constraints(ring: Ring, name: str,
                      cls: FunctionClass) -> list[PairConstraint]:
    """Membership of unknown ``name`` in a class, as search constraints.

    The additive identity is stated at the pairs (x, g) of
    :attr:`fnq.algebra.Ring.generator_pairs`, x in the domain and g in 0
    and an additive generating set, which decide it; the kernel computes
    the digits those pairs define.  The product identities hold at every
    domain pair: with their many pairs the kernel prunes rows before the
    generator digits are all assigned.  The shifted identity binds its
    constant as the parameter ``e`` of its own equation; a constant that
    is not an element of ``ring`` raises :class:`InvalidTask`.  The logarithmic class is its identity on pairs of
    domain units plus ``f(x)=0`` at every domain element that is not a unit,
    which comes first as the cheaper and more selective check.
    """
    return list(_constraints(ring, name, cls))


def _constraints(ring: Ring, name: str, cls: FunctionClass,
                 generated: bool = False) -> Iterator[PairConstraint]:
    """:func:`class_constraints`, each built when it is asked for.  With
    ``generated``, a class that requires additivity states its other
    identities at the generator pairs (g, h) only, which decide them once
    the additive identity holds."""
    if cls.eps is not None and not 0 <= cls.eps < ring.size:
        raise InvalidTask(f"shift constant {cls.eps} is not an element of "
                          f"a ring of size {ring.size}")
    if cls.kind == "logarithmic":
        elems = ring.element_array
        units = np.asarray(ring.domain_units, dtype=np.int64)
        is_unit = np.zeros(ring.size, dtype=bool)
        is_unit[units] = True
        others = elems[~is_unit[elems]]
        yield PairConstraint(_identity("zero", name), np.stack(
            [others, np.full_like(others, ring.zero)], axis=1))
        yield PairConstraint(_identity("logarithmic", name), np.stack(
            [units.repeat(len(units)), np.tile(units, len(units))], axis=1))
        return
    if cls.kind not in _CLASS_IDENTITIES:
        raise ValueError(f"unknown class {cls}")
    params = {"e": cls.eps} if cls.eps is not None else {}
    identities = _CLASS_IDENTITIES[cls.kind]
    across, within = (ring.generator_pairs if "additive" in identities
                      else (None, None))
    for i in identities:
        pairs = across if i == "additive" else within if generated else None
        yield PairConstraint(_identity(i, name), pairs, params)


# ------------------------------------------------------------- table scans

def row_ids(rows: np.ndarray, q: int) -> np.ndarray:
    """Base-q candidate ids of value rows, the first position most
    significant, so ascending ids are exactly lexicographic rows; ids past
    int64 are kept exact as Python integers."""
    m = rows.shape[1]
    dtype = np.int64 if q ** m <= np.iinfo(np.int64).max else object
    weights = np.array([q ** (m - 1 - j) for j in range(m)], dtype=dtype)
    return rows.astype(dtype) @ weights


def filter_tables(domain: Ring, codomain: Ring,
                  equations: list[EquationAst],
                  budget: int = DEFAULT_ENUM_BUDGET) -> np.ndarray:
    """Ascending candidate ids (:func:`row_ids`) of all tables satisfying
    every equation.

    The equations share one unknown and are required at every pair of
    domain elements; the budget bounds the |codomain|**m candidate space.
    """
    total = codomain.size ** len(domain.domain_elements)
    if total > budget:
        raise BudgetExceeded(
            f"{total} candidate tables exceed the budget {budget}",
            needed=total)
    names = tuple(sorted({n for eq in equations for n in eq.free_functions}))
    if len(names) != 1:
        raise ValueError(f"equations must share exactly one unknown, got {names}")
    values = search([PairConstraint(eq) for eq in equations], names,
                    domain, codomain)[:, 0, :]
    return row_ids(values, codomain.size)


# ------------------------------------------------- class candidate spaces

def _greedy_generators(elements, start: int, op: np.ndarray
                       ) -> tuple[list[int], list[int]]:
    """Generators of ``elements`` under the table ``op``, picked greedily by
    smallest index from the identity ``start``, and the elements in the
    order a breadth-first closure reaches them: each generator comes when
    it is picked, every other element e*g after e and the generator g."""
    order, seen, gens = [start], {start}, []
    while len(order) < len(elements):
        g = min(e for e in elements if e not in seen)
        gens.append(g)
        order.append(g)
        seen.add(g)
        for e in order:  # also visits the elements appended on the way
            for gen in gens:
                s = int(op[e, gen])
                if s not in seen:
                    seen.add(s)
                    order.append(s)
    return gens, order


def additive_generators(ring: Ring) -> tuple[list[int], list[int]]:
    """Greedy additive generating set and the elements in closure order."""
    return _greedy_generators(ring.domain_elements, ring.zero, ring.add)


def _unit_generators(ring: Ring) -> tuple[list[int], list[int]]:
    """Greedy unit generating set and the units in closure order."""
    units = ring.domain_units
    return _greedy_generators(units, ring.one, ring.mul) if units else ([], [])


def enumerate_maps(domain: Ring, codomain: Ring, cls: FunctionClass,
                   budget: int = DEFAULT_ENUM_BUDGET) -> Iterator[FnTable]:
    """Yield every table of the class exactly once, in lexicographic order.

    ``budget`` bounds the candidates the class has to examine
    (:func:`class_space_size`).  Every class but ``arbitrary`` is a search
    of the kernel for its constraints.
    """
    space = class_space_size(domain, codomain, cls)
    if space > budget:
        raise BudgetExceeded(
            f"class {cls} needs {space} candidates, budget is {budget}",
            needed=space)
    if cls.kind == "arbitrary":
        for vals in iproduct(range(codomain.size),
                             repeat=len(domain.domain_elements)):
            yield FnTable(domain, codomain, vals)
        return
    order = None
    if cls.kind == "logarithmic":
        units = [int(domain.position[u]) for u in _unit_generators(domain)[1]]
        rest = set(range(len(domain.domain_elements))) - set(units)
        order = sorted(rest) + units
    found = search(class_constraints(domain, "f", cls), ("f",),
                   domain, codomain, order=order)[:, 0, :]
    for row in found.tolist():
        yield FnTable(domain, codomain, tuple(row))


def class_space_size(domain: Ring, codomain: Ring, cls: FunctionClass) -> int:
    """Number of candidates an enumeration of the class has to examine."""
    m = len(domain.domain_elements)
    if cls.kind in ("arbitrary", "multiplicative", "leibniz"):
        return codomain.size ** m
    if cls.kind == "logarithmic":
        gens, _ = _unit_generators(domain)
        return codomain.size ** len(gens)
    gens, _ = additive_generators(domain)
    return codomain.size ** len(gens)


# ------------------------------------------------------------- linear rank

def _require_field(scalars: Ring) -> None:
    if not scalars.is_field:
        raise NotAField(f"{scalars.spec.kind} of size {scalars.size} is not a field")


def _eliminate(rows: list[list[int]], ncols: int,
               scalars: Ring) -> list[tuple[int, int]]:
    """Gauss-Jordan elimination of ``rows`` in place over the field
    ``scalars``, pivoting in the first ``ncols`` columns; returns the
    (row, column) pivots in order."""
    add, mul, neg, inv = scalars.add, scalars.mul, scalars.neg, scalars.inverse
    zero = scalars.zero
    pivots: list[tuple[int, int]] = []
    for col in range(ncols):
        row = len(pivots)
        if row == len(rows):
            break
        pivot = next((r for r in range(row, len(rows)) if rows[r][col] != zero),
                     None)
        if pivot is None:
            continue
        rows[row], rows[pivot] = rows[pivot], rows[row]
        scale = int(inv[rows[row][col]])
        rows[row] = [int(mul[scale, v]) for v in rows[row]]
        for r in range(len(rows)):
            if r != row and rows[r][col] != zero:
                factor = rows[r][col]
                rows[r] = [int(add[a, neg[mul[factor, b]]])
                           for a, b in zip(rows[r], rows[row])]
        pivots.append((row, col))
    return pivots


def lin_rank(tables: list[FnTable], scalars: Ring) -> int:
    """Rank over a scalar field of the matrix whose rows are value vectors.

    Gaussian elimination with exact field arithmetic through the lookup
    tables; all maps must share a domain and take values in ``scalars``.
    """
    _require_field(scalars)
    if not tables:
        return 0
    m = len(tables[0].values)
    for t in tables:
        if len(t.values) != m:
            raise ValueError("maps must share a domain")
        if not same_carrier(t.codomain, scalars):
            raise ValueError("maps must take values in the scalar field")
    return len(_eliminate([list(t.values) for t in tables], m, scalars))


def linear_combination(target: FnTable, basis: list[FnTable],
                       scalars: Ring) -> tuple[int, ...] | None:
    """Coefficients writing target as a combination of basis maps, if any."""
    _require_field(scalars)
    n = len(basis)
    # augmented system: columns are basis vectors, rhs is the target
    matrix = [[b.values[i] for b in basis] + [v]
              for i, v in enumerate(target.values)]
    pivots = _eliminate(matrix, n, scalars)
    if any(row[n] != scalars.zero for row in matrix[len(pivots):]):
        return None
    coeffs = [scalars.zero] * n
    for r, c in pivots:
        coeffs[c] = matrix[r][n]
    return tuple(coeffs)
