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
order of the value vector.  Every class is a search of the level-wise
kernel (:mod:`fnq.search`) for those constraints, in the kernel's default
position order except for the logarithmic class.  That class takes the
non-units first, each fixed at zero by its own check, and then the units
in the order a breadth-first closure over a unit generating set reaches
them.  Each unit but a generator then comes after two factors whose check
defines it, and the kernel computes its digit from that check instead of
enumerating it, so only generator positions multiply the rows the kernel
grows.  The additive identity is stated at the pairs
(x, g) only, x in the domain and g in 0 and an additive generating set
(:attr:`fnq.algebra.Ring.generator_pairs`), which decide it, and the
kernel computes the digits they define.  The other identities of such a
class are stated at :attr:`fnq.algebra.Ring.product_pairs`, which hold
the pairs (g, h) and every pair that can prune a grown level.
Membership of tables (:func:`in_class`, :func:`class_mask`) is a grid
check of the same constraints at the same pairs
(:func:`fnq.eqdsl.grid_masks`), which shares no code with the
kernel.  :func:`classify_map` checks every identity in one
grid evaluation at the pairs (x, g), which hold the pairs (g, h), and
reads the logarithmic zero check off the map's values; only a map that is
not additive, or that is zero off the units, needs one more evaluation.
The identities share their common terms as nodes, which one evaluation
computes once.  Over all pairs every operation in them but the
applications ``f(x*y)`` and ``f(x+y)`` and the sums ``f(x)*y+x*f(y)`` and
``f(x)*y+x*f(y)+e*f(x)*f(y)`` has operands that vary along one grid axis
each, which the grid computes as one slice of a ring table.
"""
from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass
from types import MappingProxyType
from typing import Iterator, Mapping

import numpy as np

from .algebra import Ring, require_element, require_field, same_carrier
from .eqdsl import (Add, EquationAst, Expr, FnApp, IntLit, Mul, PairConstraint,
                    Param, Var, grid_masks)
from .errors import EvalDomainError, InvalidTask
from .search import DEFAULT_BUDGET, search


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
               cls: FunctionClass) -> np.ndarray:
    """:func:`in_class` for each row of value vectors: one grid evaluation
    per constraint of :func:`class_constraints` over all rows, at the pairs
    the kernel searches it on, until no row is left.  They decide
    membership: a row failing the additive identity at the pairs (x, g)
    fails everywhere, and an additive row's product identities hold at
    every pair once they hold at the pairs (g, h), which
    :attr:`fnq.algebra.Ring.product_pairs` holds.

    A constraint is checked only while a row is left, and no cells outlive
    its check, which bounds the memory of many rows.  A class identity
    reads no unknown inside an argument, so an argument outside the
    declared domain fails every row alike.
    """
    ok = np.ones(len(rows), dtype=bool)
    for c in class_constraints(domain, "f", cls):
        ok &= grid_masks([c.equation], c.pairs, domain, codomain,
                         {"f": rows}, c.params)[0]
        if not ok.any():
            break
    return ok


def classify_map(f: FnTable) -> set[FunctionClass]:
    """Every class tag whose defining identities hold at all domain pairs.

    One grid evaluation (:func:`fnq.eqdsl.grid_masks`) at the pairs
    (x, g) of :attr:`fnq.algebra.Ring.generator_pairs` checks the additive,
    multiplicative and Leibniz identities and, when the carriers agree,
    the shifted homo-derivation identity for the array of all nonzero
    central shift constants.  The pairs (x, g) hold the pairs
    (g, h), so an additive map's product identities hold everywhere
    exactly when they hold there; any other map checks them again at every
    pair, in one more evaluation.  A named class but logarithmic is tagged
    when each identity it lists in ``_CLASS_IDENTITIES`` holds, and each
    shift constant whose row passes for an additive map produces its own
    parameterized tag.  The logarithmic zero check, f(x) = 0 at every
    domain element that is not a unit, reads the map's values; a map that
    passes it checks the logarithmic identity at the unit pairs in one more
    evaluation.  An identity whose evaluation raises fails alone.
    """
    domain, codomain = f.domain, f.codomain
    values = f.as_array()
    tables = {"f": values[None, :]}
    equations = [_F_IDENTITIES[k] for k in _TAGGED]
    center = np.array(codomain.center, dtype=np.int64)
    shifts = center[center != codomain.zero]
    params = {}
    if len(shifts) and same_carrier(domain, codomain):
        # f reads only x, y and x*y, which a declared subring keeps inside
        equations.append(_F_IDENTITIES["sofy"])
        params = {"e": shifts}
    held = grid_masks(equations, domain.generator_pairs, domain, codomain,
                      tables, params)
    # a verdict not reading e is the same in every row
    found = [bool(verdict[0]) for verdict in held[:len(_TAGGED)]]
    if not found[0]:
        found[1:] = (bool(verdict[0]) for verdict in grid_masks(
            equations[1:3], None, domain, codomain, tables, {}))
    tags = set(_NAMED_TAGS[tuple(found)])
    off_units, on_units = domain.unit_pairs
    off = values[domain.position[off_units[:, 0]]]
    if (off == codomain.zero).all() and grid_masks(
            [_F_IDENTITIES["logarithmic"]], on_units, domain, codomain,
            tables, {})[0][0]:
        tags.add(LOGARITHMIC)
    if found[0] and params:
        tags |= {homo_deriv_sofy(int(e)) for e in shifts[held[-1]]}
    return tags


def inner_derivation(ring: Ring, b: int) -> FnTable:
    """The commutator map x -> x*b - b*x over the declared domain; a
    ``b`` that is not an element of ``ring`` raises :class:`InvalidTask`."""
    require_element(ring, b, f"element {b}")
    elems = ring.element_array
    values = ring.add[ring.mul[elems, b], ring.neg[ring.mul[b, elems]]]
    return FnTable(ring, ring, tuple(values.tolist()))


# ------------------------------------------------ identities as equations

@functools.cache
def _shared_identities(fn: str) -> Mapping[str, EquationAst]:
    """The class identities for the unknown ``fn``, equal to their parsed
    text but built so that each term common to several of them is one node:
    one grid evaluation of several of them then computes each of
    ``fn(x*y)``, ``fn(x)``, ``fn(y)``, ``fn(x)+fn(y)`` and
    ``fn(x)*y+x*fn(y)`` once.  They are built once per name, in a
    read-only mapping."""
    x, y = Var("x"), Var("y")
    fx, fy, fxy = FnApp(fn, x), FnApp(fn, y), FnApp(fn, Mul(x, y))
    split = Add(Mul(fx, y), Mul(x, fy))
    fx_plus_fy = Add(fx, fy)

    def equation(lhs: Expr, rhs: Expr, params: tuple[str, ...] = ()):
        return EquationAst(lhs, rhs, (fn,), params)
    return MappingProxyType({
        "additive": equation(FnApp(fn, Add(x, y)), fx_plus_fy),
        "multiplicative": equation(fxy, Mul(fx, fy)),
        "leibniz": equation(fxy, split),
        # f(x*y)=f(x)*y+x*f(y)+e*f(x)*f(y)
        "sofy": equation(fxy, Add(split, Mul(Mul(Param("e"), fx), fy)),
                         ("e",)),
        "logarithmic": equation(fxy, fx_plus_fy),
        "zero": equation(fx, IntLit(0)),
    })


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
# the identities classify_map decides for every map, and the named classes
# but logarithmic that each of their verdicts tags
_TAGGED = ("additive", "multiplicative", "leibniz")
_NAMED_TAGS = {
    found: frozenset(cls for cls in _NAMED.values() if cls.kind in
                     _CLASS_IDENTITIES and set(_CLASS_IDENTITIES[cls.kind])
                     <= {k for k, ok in zip(_TAGGED, found) if ok})
    for found in itertools.product((False, True), repeat=len(_TAGGED))}


def multiplicative_equation(fn: str = "f") -> EquationAst:
    return _shared_identities(fn)["multiplicative"]


def leibniz_equation(fn: str = "f") -> EquationAst:
    return _shared_identities(fn)["leibniz"]


def class_constraints(ring: Ring, name: str,
                      cls: FunctionClass) -> list[PairConstraint]:
    """Membership of unknown ``name`` in a class, as search constraints.

    The additive identity is stated at the pairs (x, g) of
    :attr:`fnq.algebra.Ring.generator_pairs`, x in the domain and g in 0
    and an additive generating set, which decide it; the kernel computes
    the digits those pairs define.  The product identities of a class
    that requires additivity are stated at
    :attr:`fnq.algebra.Ring.product_pairs`: the pairs (x, g) and those
    between the elements before the last generator in the kernel's
    default order.  They hold the pairs (g, h), which decide the identities
    of an additive map, and in a one-unknown search every pair they leave
    out is decided after the last grown digit, so the kernel prunes every
    grown level as with all pairs: Hom(Z256) states 1,024 pairs instead of
    66,048.  The product identities of the other classes hold at every
    domain pair.  The shifted identity binds its
    constant as the parameter ``e`` of its own equation; a constant that
    is not an element of ``ring`` raises :class:`InvalidTask`.  The
    logarithmic class is its identity on pairs of domain units plus
    ``f(x)=0`` at every domain element that is not a unit
    (:attr:`fnq.algebra.Ring.unit_pairs`), which comes first as the cheaper
    and more selective check.  The search kernel and :func:`class_mask`
    both read these constraints.
    """
    if cls.eps is not None:
        require_element(ring, cls.eps, f"shift constant {cls.eps}")
    if cls.kind == "logarithmic":
        off_units, on_units = ring.unit_pairs
        identities = _shared_identities(name)
        return [PairConstraint(identities["zero"], off_units),
                PairConstraint(identities["logarithmic"], on_units)]
    if cls.kind not in _CLASS_IDENTITIES:
        raise ValueError(f"unknown class {cls}")
    params = {"e": cls.eps} if cls.eps is not None else {}
    identities = _CLASS_IDENTITIES[cls.kind]
    across = other = None
    if "additive" in identities:
        across, other = ring.generator_pairs, ring.product_pairs
    shared = _shared_identities(name)
    return [PairConstraint(shared[i], across if i == "additive" else other,
                           params)
            for i in identities]


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
                  budget: int = DEFAULT_BUDGET) -> np.ndarray:
    """Ascending candidate ids (:func:`row_ids`) of all tables satisfying
    every equation.

    The equations share one unknown and are required at every pair of
    domain elements; ``budget`` is the kernel's
    (:func:`fnq.search.search`).
    """
    names = tuple(sorted({n for eq in equations for n in eq.free_functions}))
    if len(names) != 1:
        raise ValueError(f"equations must share exactly one unknown, got {names}")
    values = search([PairConstraint(eq) for eq in equations], names,
                    domain, codomain, budget=budget)[:, 0, :]
    return row_ids(values, codomain.size)


# ------------------------------------------------- class candidate spaces

def _unit_generators(ring: Ring) -> tuple[list[int], list[int]]:
    """Generators of the domain units, picked greedily by smallest index
    from the unit, and the units in the order a breadth-first closure
    reaches them: each generator comes when it is picked, every other unit
    e*g after e and the generator g."""
    units = ring.domain_units
    if not units:
        return [], []
    order, seen, gens = [ring.one], {ring.one}, []
    while len(order) < len(units):
        g = min(u for u in units if u not in seen)
        gens.append(g)
        order.append(g)
        seen.add(g)
        for e in order:  # also visits the units appended on the way
            for gen in gens:
                s = int(ring.mul[e, gen])
                if s not in seen:
                    seen.add(s)
                    order.append(s)
    return gens, order


def logarithmic_order(domain: Ring) -> list[int]:
    """The domain positions in the order the kernel assigns the digits of
    a logarithmic unknown: the non-units ascending, then the units in the
    order the closure of :func:`_unit_generators` reaches them, so that
    only the generators' digits are grown.  :func:`enumerate_maps` and
    :func:`fnq.solver.solve` both pass it to the kernel."""
    units = [int(domain.position[u]) for u in _unit_generators(domain)[1]]
    rest = set(range(len(domain.domain_elements))) - set(units)
    return sorted(rest) + units


def class_rows(domain: Ring, codomain: Ring, cls: FunctionClass,
               budget: int = DEFAULT_BUDGET) -> np.ndarray:
    """The value vectors of every table of the class, in lexicographic
    order, as the (tables, domain size) int64 rows of the kernel.

    Every class is a search of the kernel for its constraints, ``arbitrary``
    one with none, in the kernel's default position order except for the
    logarithmic class (:func:`logarithmic_order`).  ``budget`` is the
    kernel's: a level whose charge would pass it raises
    :class:`BudgetExceeded` (:func:`fnq.search.search`).
    """
    order = logarithmic_order(domain) if cls.kind == "logarithmic" else None
    return search(class_constraints(domain, "f", cls), ("f",),
                  domain, codomain, budget=budget, order=order)[:, 0, :]


def enumerate_maps(domain: Ring, codomain: Ring, cls: FunctionClass,
                   budget: int = DEFAULT_BUDGET) -> Iterator[FnTable]:
    """Yield every table of the class exactly once, in lexicographic order:
    the rows of :func:`class_rows` as tables."""
    for row in class_rows(domain, codomain, cls, budget).tolist():
        yield FnTable(domain, codomain, tuple(row))


def class_space_size(domain: Ring, codomain: Ring, cls: FunctionClass) -> int:
    """The candidate count reported for the class (``enumerated_count``,
    ``--dry-run``): q to the number of positions the kernel may grow, the
    additive generators of :attr:`fnq.algebra.Ring.generators` for an
    additive class and the unit generators for the logarithmic one.  The
    budget charges the kernel's work instead."""
    if cls.kind in ("arbitrary", "multiplicative", "leibniz"):
        return codomain.size ** len(domain.domain_elements)
    if cls.kind == "logarithmic":
        return codomain.size ** len(_unit_generators(domain)[0])
    return codomain.size ** (len(domain.generators) - 1)


# ------------------------------------------------------------- linear rank

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
    require_field(scalars)
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
    require_field(scalars)
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
