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

Enumeration yields every table of a class exactly once, in lexicographic
order of the value vector.  Multiplicative and Leibniz maps come from the
level-wise search kernel (:mod:`fnq.search`) with the class identity as its
equation.  Classes containing additivity are enumerated by assigning images
to a greedy additive generating set and extending, which shrinks the scan
from |Q|**|P| to |Q|**g.
"""
from __future__ import annotations

from dataclasses import dataclass
from itertools import product as iproduct
from typing import Callable, Iterator

import numpy as np

from .algebra import Ring, same_carrier
from .eqdsl import EquationAst, parse_equation
from .errors import BudgetExceeded, EvalDomainError, NotAField
from .search import PairConstraint, search

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


def class_from_string(text: str) -> FunctionClass:
    if ":" in text:
        kind, _, eps = text.partition(":")
        if kind != "homo-deriv-sofy":
            raise ValueError(f"class {kind!r} takes no parameter")
        return homo_deriv_sofy(int(eps))
    named = {c.kind: c for c in (ARBITRARY, ADDITIVE, MULTIPLICATIVE,
                                 HOMOMORPHISM, LEIBNIZ, DERIVATION,
                                 LOGARITHMIC, HOMO_DERIV_MP)}
    if text not in named:
        raise ValueError(f"unknown function class {text!r}")
    return named[text]


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
        if any(not (0 <= v < self.codomain.size) for v in self.values):
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


def _domain_units(ring: Ring) -> tuple[int, ...]:
    """Units of the declared domain (two-sided inverses within it)."""
    if ring.one is None:
        return ()
    elems = ring.domain_elements
    if ring.one not in elems:
        return ()
    member = set(elems)
    out = []
    for u in elems:
        for v in elems:
            if (int(ring.mul[u, v]) == ring.one
                    and int(ring.mul[v, u]) == ring.one and v in member):
                out.append(u)
                break
    return tuple(out)


# ------------------------------------------------------- identity checking
# Each predicate receives the table as a numpy array over domain positions.

def _grids(f: FnTable):
    dom, cod = f.domain, f.codomain
    elems = np.asarray(dom.domain_elements, dtype=np.int64)
    T = f.as_array()
    pos = dom.position
    return dom, cod, elems, T, pos


def holds_additive(f: FnTable) -> bool:
    dom, cod, elems, T, pos = _grids(f)
    sums = pos[dom.add[np.ix_(elems, elems)]]
    return bool(np.array_equal(T[sums], cod.add[T[:, None], T[None, :]]))


def holds_multiplicative(f: FnTable) -> bool:
    dom, cod, elems, T, pos = _grids(f)
    prods = pos[dom.mul[np.ix_(elems, elems)]]
    return bool(np.array_equal(T[prods], cod.mul[T[:, None], T[None, :]]))


def holds_leibniz(f: FnTable) -> bool:
    if not same_carrier(f.domain, f.codomain):
        return False
    dom, cod, elems, T, pos = _grids(f)
    prods = pos[dom.mul[np.ix_(elems, elems)]]
    rhs = cod.add[cod.mul[T[:, None], elems[None, :]],
                  cod.mul[elems[:, None], T[None, :]]]
    return bool(np.array_equal(T[prods], rhs))


def holds_sofy(f: FnTable, eps: int) -> bool:
    if not same_carrier(f.domain, f.codomain):
        return False
    dom, cod, elems, T, pos = _grids(f)
    prods = pos[dom.mul[np.ix_(elems, elems)]]
    rhs = cod.add[cod.add[cod.mul[T[:, None], elems[None, :]],
                          cod.mul[elems[:, None], T[None, :]]],
                  cod.mul[eps, cod.mul[T[:, None], T[None, :]]]]
    return bool(np.array_equal(T[prods], rhs))


def holds_logarithmic(f: FnTable) -> bool:
    """Identity on the domain's unit group plus the zero convention off it."""
    dom, cod, elems, T, pos = _grids(f)
    units = _domain_units(dom)
    unit_set = set(units)
    for i, e in enumerate(dom.domain_elements):
        if e not in unit_set and T[i] != cod.zero:
            return False
    for u in units:
        for v in units:
            prod = int(dom.mul[u, v])
            if T[pos[prod]] != int(cod.add[T[pos[u]], T[pos[v]]]):
                return False
    return True


def classify_map(f: FnTable) -> set[FunctionClass]:
    """Every class tag whose defining identities hold at all domain pairs.

    The shifted homo-derivation identity is evaluated for each central
    nonzero shift constant of the codomain, and each witnessing constant
    produces its own parameterized tag.
    """
    tags = {ARBITRARY}
    additive = holds_additive(f)
    multiplicative = holds_multiplicative(f)
    leibniz = holds_leibniz(f)
    if additive:
        tags.add(ADDITIVE)
    if multiplicative:
        tags.add(MULTIPLICATIVE)
    if additive and multiplicative:
        tags.add(HOMOMORPHISM)
    if leibniz:
        tags.add(LEIBNIZ)
    if additive and leibniz:
        tags.add(DERIVATION)
    if additive and multiplicative and leibniz:
        tags.add(HOMO_DERIV_MP)
    if holds_logarithmic(f):
        tags.add(LOGARITHMIC)
    if additive and same_carrier(f.domain, f.codomain):
        for eps in f.codomain.center:
            if eps != f.codomain.zero and holds_sofy(f, eps):
                tags.add(homo_deriv_sofy(eps))
    return tags


def inner_derivation(ring: Ring, b: int) -> FnTable:
    """The commutator map x -> x*b - b*x over the declared domain."""
    values = tuple(ring.sub(int(ring.mul[x, b]), int(ring.mul[b, x]))
                   for x in ring.domain_elements)
    return FnTable(ring, ring, values)


# ------------------------------------------------ identities as equations

_IDENTITIES = {
    "additive": "{u}(x+y)={u}(x)+{u}(y)",
    "multiplicative": "{u}(x*y)={u}(x)*{u}(y)",
    "leibniz": "{u}(x*y)={u}(x)*y+x*{u}(y)",
    "sofy": "{u}(x*y)={u}(x)*y+x*{u}(y)+e*{u}(x)*{u}(y)",
}
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


def multiplicative_equation(fn: str = "f") -> EquationAst:
    return parse_equation(_IDENTITIES["multiplicative"].format(u=fn))


def leibniz_equation(fn: str = "f") -> EquationAst:
    return parse_equation(_IDENTITIES["leibniz"].format(u=fn))


def class_constraints(ring: Ring, name: str,
                      cls: FunctionClass) -> list[PairConstraint]:
    """Membership of unknown ``name`` in a class, as search constraints.

    The shifted identity binds its constant as the parameter ``e`` of its
    own equation.  The logarithmic class is its identity on pairs of domain
    units plus ``f(x)=0`` at every domain element that is not a unit.
    """
    if cls.kind == "logarithmic":
        units = _domain_units(ring)
        others = tuple((e, ring.zero) for e in ring.domain_elements
                       if e not in units)
        return [PairConstraint(parse_equation(f"{name}(x*y)={name}(x)+{name}(y)"),
                               tuple((u, v) for u in units for v in units)),
                PairConstraint(parse_equation(f"{name}(x)=0"), others)]
    if cls.kind not in _CLASS_IDENTITIES:
        raise ValueError(f"unknown class {cls}")
    params = {"e": cls.eps} if cls.eps is not None else {}
    return [PairConstraint(parse_equation(_IDENTITIES[i].format(u=name)),
                           params=params)
            for i in _CLASS_IDENTITIES[cls.kind]]


# ------------------------------------------------------------- table scans
# Candidate id <-> value vector is the base-q digit expansion with the first
# domain position as the most significant digit, so ascending ids are
# exactly lexicographic value vectors.

def filter_tables(domain: Ring, codomain: Ring,
                  equations: list[EquationAst],
                  budget: int = DEFAULT_ENUM_BUDGET) -> np.ndarray:
    """Ascending candidate ids of all tables satisfying every equation.

    The equations share one unknown and are required at every pair of
    domain elements; the budget bounds the |codomain|**m candidate space.
    """
    m = len(domain.domain_elements)
    q = codomain.size
    total = q ** m
    if total > budget:
        raise BudgetExceeded(
            f"{total} candidate tables exceed the budget {budget}",
            needed=total)
    names = tuple(sorted({n for eq in equations for n in eq.free_functions}))
    if len(names) != 1:
        raise ValueError(f"equations must share exactly one unknown, got {names}")
    values = search([PairConstraint(eq) for eq in equations], names,
                    domain, codomain)[:, 0, :]
    # ids past int64 are kept exact as Python integers
    dtype = np.int64 if total <= np.iinfo(np.int64).max else object
    weights = np.array([q ** (m - 1 - j) for j in range(m)], dtype=dtype)
    return values.astype(dtype) @ weights if len(values) else np.empty(0, dtype)


def id_digits(ids: np.ndarray, m: int, q: int) -> np.ndarray:
    """Value vectors (one row per id) of base-q candidate ids."""
    ids = np.asarray(ids)
    if not ids.size:
        return np.empty((0, m), dtype=np.int64)
    return np.stack([(ids // q ** (m - 1 - j)) % q for j in range(m)], axis=1)


def tables_from_ids(ids: np.ndarray, domain: Ring, codomain: Ring) -> list[FnTable]:
    digits = id_digits(ids, len(domain.domain_elements), codomain.size)
    return [FnTable(domain, codomain, tuple(row)) for row in digits.tolist()]


# --------------------------------------------------- generator-based paths

def additive_generators(ring: Ring) -> tuple[list[int], dict[int, tuple[int, ...]]]:
    """Greedy additive generating set with a generator word per element."""
    elems = ring.domain_elements
    add = ring.add
    words: dict[int, tuple[int, ...]] = {ring.zero: ()}
    gens: list[int] = []
    while len(words) < len(elems):
        g = min(e for e in elems if e not in words)
        gens.append(g)
        changed = True
        while changed:
            changed = False
            for e in list(words):
                for gi, gval in enumerate(gens):
                    s = int(add[e, gval])
                    if s not in words:
                        words[s] = words[e] + (gi,)
                        changed = True
    return gens, words


def _unit_generators(ring: Ring) -> tuple[tuple[int, ...], list[int], dict[int, tuple[int, ...]]]:
    units = _domain_units(ring)
    if not units:
        return (), [], {}
    mul = ring.mul
    words: dict[int, tuple[int, ...]] = {ring.one: ()}
    gens: list[int] = []
    while len(words) < len(units):
        g = min(u for u in units if u not in words)
        gens.append(g)
        changed = True
        while changed:
            changed = False
            for e in list(words):
                for gi, gval in enumerate(gens):
                    s = int(mul[e, gval])
                    if s not in words:
                        words[s] = words[e] + (gi,)
                        changed = True
    return units, gens, words


def _enumerate_additive_like(domain: Ring, codomain: Ring,
                             extra: Callable[[FnTable], bool] | None,
                             budget: int) -> list[FnTable]:
    gens, words = additive_generators(domain)
    space = codomain.size ** len(gens)
    if space > budget:
        raise BudgetExceeded(
            f"{space} generator assignments exceed the budget {budget}",
            needed=space)
    elems = domain.domain_elements
    add_c = codomain.add
    out = []
    for images in iproduct(range(codomain.size), repeat=len(gens)):
        vals = []
        for e in elems:
            acc = codomain.zero
            for gi in words[e]:
                acc = int(add_c[acc, images[gi]])
            vals.append(acc)
        table = FnTable(domain, codomain, tuple(vals))
        if not holds_additive(table):
            continue
        if extra is not None and not extra(table):
            continue
        out.append(table)
    out.sort(key=lambda t: t.values)
    return out


def _enumerate_logarithmic(domain: Ring, codomain: Ring, budget: int) -> list[FnTable]:
    units, gens, words = _unit_generators(domain)
    elems = domain.domain_elements
    if not units:
        return [zero_map(domain, codomain)]
    space = codomain.size ** len(gens)
    if space > budget:
        raise BudgetExceeded(
            f"{space} generator assignments exceed the budget {budget}",
            needed=space)
    add_c = codomain.add
    pos = {e: i for i, e in enumerate(elems)}
    out = []
    for images in iproduct(range(codomain.size), repeat=len(gens)):
        vals = [codomain.zero] * len(elems)
        for u in units:
            acc = codomain.zero
            for gi in words[u]:
                acc = int(add_c[acc, images[gi]])
            vals[pos[u]] = acc
        table = FnTable(domain, codomain, tuple(vals))
        if holds_logarithmic(table):
            out.append(table)
    out.sort(key=lambda t: t.values)
    return out


def enumerate_maps(domain: Ring, codomain: Ring, cls: FunctionClass,
                   budget: int = DEFAULT_ENUM_BUDGET) -> Iterator[FnTable]:
    """Yield every table of the class exactly once, in lexicographic order."""
    m = len(domain.domain_elements)
    kind = cls.kind
    if kind == "arbitrary":
        total = codomain.size ** m
        if total > budget:
            raise BudgetExceeded(
                f"{total} candidate tables exceed the budget {budget}",
                needed=total)
        for vals in iproduct(range(codomain.size), repeat=m):
            yield FnTable(domain, codomain, vals)
        return
    if kind in ("multiplicative", "leibniz"):
        equation = (multiplicative_equation() if kind == "multiplicative"
                    else leibniz_equation())
        ids = filter_tables(domain, codomain, [equation], budget)
        yield from tables_from_ids(ids, domain, codomain)
        return
    if kind == "logarithmic":
        yield from _enumerate_logarithmic(domain, codomain, budget)
        return
    extra: Callable[[FnTable], bool] | None
    if kind == "additive":
        extra = None
    elif kind == "homomorphism":
        extra = holds_multiplicative
    elif kind == "derivation":
        extra = holds_leibniz
    elif kind == "homo-deriv-mp":
        extra = lambda t: holds_multiplicative(t) and holds_leibniz(t)
    elif kind == "homo-deriv-sofy":
        eps = cls.eps
        extra = lambda t: holds_sofy(t, eps)
    else:
        raise ValueError(f"unknown class {cls}")
    yield from _enumerate_additive_like(domain, codomain, extra, budget)


def class_space_size(domain: Ring, codomain: Ring, cls: FunctionClass) -> int:
    """Number of candidates an enumeration of the class has to examine."""
    m = len(domain.domain_elements)
    if cls.kind in ("arbitrary", "multiplicative", "leibniz"):
        return codomain.size ** m
    if cls.kind == "logarithmic":
        _, gens, _ = _unit_generators(domain)
        return codomain.size ** len(gens)
    gens, _ = additive_generators(domain)
    return codomain.size ** len(gens)


# ------------------------------------------------------------- linear rank

def _field_inverse(scalars: Ring) -> np.ndarray:
    if not scalars.is_field:
        raise NotAField(f"{scalars.spec.kind} of size {scalars.size} is not a field")
    return scalars.inverse


def lin_rank(tables: list[FnTable], scalars: Ring) -> int:
    """Rank over a scalar field of the matrix whose rows are value vectors.

    Gaussian elimination with exact field arithmetic through the lookup
    tables; all maps must share a domain and take values in ``scalars``.
    """
    inv = _field_inverse(scalars)
    if not tables:
        return 0
    m = len(tables[0].values)
    for t in tables:
        if len(t.values) != m:
            raise ValueError("maps must share a domain")
        if not same_carrier(t.codomain, scalars):
            raise ValueError("maps must take values in the scalar field")
    add, mul, neg, zero = scalars.add, scalars.mul, scalars.neg, scalars.zero
    rows = [list(t.values) for t in tables]
    rank = 0
    for col in range(m):
        pivot = next((r for r in range(rank, len(rows)) if rows[r][col] != zero),
                     None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        scale = int(inv[rows[rank][col]])
        rows[rank] = [int(mul[scale, v]) for v in rows[rank]]
        for r in range(len(rows)):
            if r != rank and rows[r][col] != zero:
                factor = rows[r][col]
                rows[r] = [int(add[rows[r][i], neg[mul[factor, rows[rank][i]]]])
                           for i in range(m)]
        rank += 1
        if rank == len(rows):
            break
    return rank


def linear_combination(target: FnTable, basis: list[FnTable],
                       scalars: Ring) -> tuple[int, ...] | None:
    """Coefficients writing target as a combination of basis maps, if any."""
    inv = _field_inverse(scalars)
    add, mul, neg, zero = scalars.add, scalars.mul, scalars.neg, scalars.zero
    m = len(target.values)
    n = len(basis)
    # augmented system: columns are basis vectors, rhs is the target
    matrix = [[basis[j].values[i] for j in range(n)] + [target.values[i]]
              for i in range(m)]
    pivots: list[tuple[int, int]] = []
    row = 0
    for col in range(n):
        pivot = next((r for r in range(row, m) if matrix[r][col] != zero), None)
        if pivot is None:
            continue
        matrix[row], matrix[pivot] = matrix[pivot], matrix[row]
        scale = int(inv[matrix[row][col]])
        matrix[row] = [int(mul[scale, v]) for v in matrix[row]]
        for r in range(m):
            if r != row and matrix[r][col] != zero:
                factor = matrix[r][col]
                matrix[r] = [int(add[matrix[r][i], neg[mul[factor, matrix[row][i]]]])
                             for i in range(n + 1)]
        pivots.append((row, col))
        row += 1
    for r in range(row, m):
        if matrix[r][n] != zero:
            return None
    coeffs = [zero] * n
    for r, c in pivots:
        coeffs[c] = matrix[r][n]
    return tuple(coeffs)
