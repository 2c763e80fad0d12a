"""Small finite rings backed by verified operation tables.

Every element is a dense index ``0..size-1`` and both operations are total
lookup tables, which makes noncommutative carriers free and keeps all
downstream equation checking away from ad-hoc modular arithmetic.  The
constructors prove the ring axioms for the whole carrier before a
:class:`Ring` is handed out, checking the laws over three elements with one
argument, or two, running over an additive generating set (see
``_verify_axioms``); they are the trusted computing base for every solver
and theorem check built on top.

Carrier orderings are fixed so that reports are reproducible:

* ``Zn``: residues ``0..n-1``;
* ``GF``/``PolyQuot``: coefficient vectors (constant term first) in
  lexicographic order, so the vector ``(a_0, .., a_{k-1})`` has index
  ``sum(a_i * p**(k-1-i))``;
* ``Product``: row-major over (left, right);
* ``UT2``: triples ``(a, b, c)`` of the matrix ``[[a, b], [0, c]]`` in
  lexicographic order.
"""
from __future__ import annotations

import hashlib
import json
import operator
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import (
    AxiomViolation,
    BudgetExceeded,
    InvalidRingSpec,
    InvalidTask,
    NonPrimeModulus,
    NotAField,
    ReducibleModulus,
)

DEFAULT_SIZE_BUDGET = 256

# each kind's fields besides the subring, in their JSON order
_FIELDS = {"Zn": ("n",), "GF": ("p", "k", "modulus"), "PolyQuot": ("p", "k"),
           "Product": ("left", "right"), "UT2": ("p",)}


def _spec_int(value, kind: str, key: str) -> int:
    """``value`` as a Python int; bools and non-integers are refused."""
    if not isinstance(value, bool):
        try:
            return operator.index(value)
        except TypeError:
            pass
    raise InvalidRingSpec(
        f"{kind} ring spec field {key!r} needs integers, got {value!r}")


@dataclass(frozen=True)
class RingSpec:
    """Declarative description of a ring constructor.

    ``modulus`` lists polynomial coefficients constant term first.  An
    optional ``subring`` is a set of carrier indices that must be closed
    under the operations; it marks the sub-carrier that equations will be
    quantified over while arithmetic still happens in the full ring.
    """

    kind: str
    n: int | None = None
    p: int | None = None
    k: int | None = None
    modulus: tuple[int, ...] | None = None
    left: "RingSpec | None" = None
    right: "RingSpec | None" = None
    subring: tuple[int, ...] | None = None

    def __post_init__(self):
        # integers are kept as Python ints, so that numpy integers give the
        # same spec, table hash and JSON
        for key in ("n", "p", "k"):
            if key in _FIELDS.get(self.kind, ()):
                object.__setattr__(self, key, _spec_int(getattr(self, key),
                                                        self.kind, key))
        if self.modulus is not None:
            object.__setattr__(self, "modulus", tuple(
                _spec_int(c, self.kind, "modulus") for c in self.modulus))
        # a subring is a set, kept in one listing: ascending, once each
        if self.subring is not None:
            object.__setattr__(self, "subring", tuple(sorted(
                {_spec_int(e, self.kind, "subring") for e in self.subring})))

    def to_json(self) -> dict:
        doc: dict = {"kind": self.kind}
        for key in (*_FIELDS[self.kind], "subring"):
            value = getattr(self, key)
            if isinstance(value, RingSpec):
                value = value.to_json()
            if value is not None:
                doc[key] = list(value) if isinstance(value, tuple) else value
        return doc

    @staticmethod
    def from_json(doc: dict | str) -> "RingSpec":
        if isinstance(doc, str):
            try:
                doc = json.loads(doc)
            except json.JSONDecodeError as exc:
                raise InvalidRingSpec(f"ring spec is not valid JSON: {exc}") from exc
        if not isinstance(doc, dict) or "kind" not in doc:
            raise InvalidRingSpec("ring spec must be an object with a 'kind' field")
        kind = doc["kind"]
        if kind not in _FIELDS:
            raise InvalidRingSpec(f"unknown ring kind {kind!r}")

        def integer(value):
            # a JSON string of digits reads as its integer; RingSpec refuses
            # every other non-integer
            try:
                return int(value) if isinstance(value, str) else value
            except ValueError:
                return value

        def field(key: str):
            value = doc[key]
            if key in ("left", "right"):
                return RingSpec.from_json(value)
            if key not in ("modulus", "subring"):
                return integer(value)
            if not isinstance(value, list):
                raise InvalidRingSpec(f"{kind} ring spec field {key!r} must be a list")
            return tuple(integer(v) for v in value)

        try:
            return RingSpec(kind=kind, **{
                key: field(key) for key in (*_FIELDS[kind], "subring")
                if key in doc or key not in ("modulus", "subring")})
        except KeyError as exc:
            raise InvalidRingSpec(
                f"{kind} ring spec needs the field {exc.args[0]!r}") from None


@dataclass(frozen=True)
class TableLists:
    """A ring's tables as nested Python lists, for the scalar evaluator."""

    add: list[list[int]]
    mul: list[list[int]]
    neg: list[int]
    position: list[int]


@dataclass(frozen=True, eq=False)
class Ring:
    """A finite ring as verified addition/multiplication tables.

    Instances are immutable after construction and safe to share between
    threads.  Every carrier has a unit ``one``; a domain without it is a
    declared ``subring`` of a unital carrier.
    """

    spec: RingSpec
    size: int
    add: np.ndarray
    mul: np.ndarray
    neg: np.ndarray
    zero: int
    one: int
    names: tuple[str, ...]
    subring: tuple[int, ...] | None

    @cached_property
    def center(self) -> tuple[int, ...]:
        """Elements commuting with the whole carrier, ascending."""
        return tuple(np.flatnonzero((self.mul == self.mul.T).all(axis=1))
                     .tolist())

    @cached_property
    def units(self) -> tuple[int, ...]:
        """Elements with an inverse in the carrier, ascending."""
        return tuple(np.flatnonzero(self.inverse >= 0).tolist())

    @cached_property
    def regular(self) -> tuple[int, ...]:
        """Nonzero elements that are no zero divisor on either side,
        ascending."""
        # xy = 0 with x and y nonzero: x is a left and y a right zero divisor
        zd = self.mul == self.zero
        zd[self.zero, :] = zd[:, self.zero] = False
        mask = ~(zd.any(axis=0) | zd.any(axis=1))
        mask[self.zero] = False
        return tuple(np.flatnonzero(mask).tolist())

    @cached_property
    def domain_elements(self) -> tuple[int, ...]:
        """Elements that equations quantify over (the subring, if declared)."""
        return self.subring if self.subring is not None else tuple(range(self.size))

    @cached_property
    def element_array(self) -> np.ndarray:
        """``domain_elements`` as a read-only int64 array."""
        elems = np.asarray(self.domain_elements, dtype=np.int64)
        elems.setflags(write=False)
        return elems

    @cached_property
    def position(self) -> np.ndarray:
        """Carrier index -> position in ``domain_elements`` (-1 outside)."""
        pos = np.full(self.size, -1, dtype=np.int64)
        pos[self.element_array] = np.arange(len(self.element_array))
        return pos

    @cached_property
    def generators(self) -> np.ndarray:
        """G: 0 and the additive generators of the domain, as a read-only
        ascending int64 array, picked by ``_additive_generators``, the
        routine the axiom check picks its set with, the elements outside
        the domain left out.  Without a declared subring, above
        ``_EXHAUSTIVE_SIZE``, they are the axiom check's own set, which
        :func:`build_ring` stores here, so a build walks the routine once.
        The unit, if the domain holds it, comes first,
        as in the kernel's default position order (:mod:`fnq.search`), then
        each the smallest element outside the subgroup the ones before
        generate.  With the smallest element first instead, the pairs
        (x, g) define fewer digits of that order than all pairs do: UT2(3)'s
        additive search grew the digit of (1,0,0), which the unit defines.
        An additive class has q**(|G|-1) candidates
        (:func:`fnq.maps.class_space_size`)."""
        outside = self.position < 0 if self.subring is not None else None
        return _generator_array(self.zero, _additive_generators(
            self.add, self.zero, outside, self.one))

    @cached_property
    def generator_pairs(self) -> np.ndarray:
        """The pairs (x, g) for x in the domain and g in :attr:`generators`,
        as a read-only int64 array of shape (P, 2) in row-major order.

        Every domain element is a sum of elements of G, so a map f with
        f(x+g) = f(x)+f(g) at every (x, g) is additive, f(0) = 0 coming
        from g = 0 even on the trivial domain.  An identity whose sides are
        both additive in x and in y, as f(xy) = f(x)f(y) is for an additive
        f, then holds at every pair once it holds at every (g, h), which
        these pairs hold.
        """
        elems, g = self.element_array, self.generators
        pairs = np.empty((len(elems), len(g), 2), dtype=np.int64)
        pairs[..., 0] = elems[:, None]
        pairs[..., 1] = g
        pairs = pairs.reshape(-1, 2)
        pairs.setflags(write=False)
        return pairs

    def position_order(self, first=()) -> list[int]:
        """Domain positions in the kernel's default order (:mod:`fnq.search`):
        the positions ``first`` (once each, -1 dropped), then the unit's and
        zero's, then the rest ascending."""
        lead = [*first, *(int(self.position[e]) for e in (self.one, self.zero))]
        lead = [p for p in dict.fromkeys(lead) if p >= 0]
        taken = set(lead)
        return lead + [p for p in range(len(self.domain_elements))
                       if p not in taken]

    @cached_property
    def product_pairs(self) -> np.ndarray:
        """The pairs (x, g) of :attr:`generator_pairs` and E×E, as a
        read-only int64 array of shape (P, 2) in row-major domain order,
        where E holds the domain elements that come before the last additive
        generator in :meth:`position_order`.

        They hold the pairs (g, h), so an additive map's product identities
        hold everywhere once they hold there.  In a one-unknown search every
        other pair reads an element at or after the last generator, so it is
        decided after the last digit the additive identity leaves free and
        prunes no grown level.  With (x, g) alone GF(32)'s homomorphism
        search grew 1,061 rows instead of 69.  When E×E lies in the pairs
        (x, g) they are returned themselves: for a cyclic additive group E
        is empty, and Z256 keeps its 512 pairs (x, g) of 65,536.
        """
        m = len(self.domain_elements)
        gens = self.position[self.generators].tolist()
        zero, order = self.position[self.zero], self.position_order()
        early = order[:max((order.index(g) for g in gens if g != zero),
                           default=0)]
        if set(early) <= set(gens):  # E×E lies in (x, g)
            return self.generator_pairs
        keep = np.zeros((m, m), dtype=bool)
        keep[:, gens] = True
        keep[np.ix_(early, early)] = True
        pairs = self.element_array[np.argwhere(keep)]
        pairs.setflags(write=False)
        return pairs

    @cached_property
    def unit_pairs(self) -> tuple[np.ndarray, np.ndarray]:
        """The pairs (x, 0) for x a domain element that is not a domain unit
        and the pairs (u, v) for u and v domain units, as read-only int64
        arrays of shape (P, 2) in row-major domain order: where a
        logarithmic map is zero, and where it turns products into sums."""
        elems = self.element_array
        units = np.asarray(self.domain_units, dtype=np.int64)
        is_unit = np.zeros(self.size, dtype=bool)
        is_unit[units] = True
        others = elems[~is_unit[elems]]
        off = np.stack([others, np.full_like(others, self.zero)], axis=1)
        on = np.stack([units.repeat(len(units)), np.tile(units, len(units))],
                      axis=1)
        off.setflags(write=False)
        on.setflags(write=False)
        return off, on

    @cached_property
    def _multiples(self) -> tuple[int, ...]:
        """The walk 0, 1, 1+1, ... up to its return to 0: the image of
        each integer below ``char``, at its own index."""
        walk, acc = [self.zero], self.one
        while acc != self.zero:
            walk.append(acc)
            acc = int(self.add[acc, self.one])
        return tuple(walk)

    @cached_property
    def char(self) -> int:
        """Additive order of the unit element."""
        return len(self._multiples)

    @cached_property
    def has_zero_divisors(self) -> bool:
        return len(self.regular) != self.size - 1

    @cached_property
    def is_field(self) -> bool:
        return len(self.units) == self.size - 1

    @cached_property
    def inverse(self) -> np.ndarray:
        """Two-sided inverse table (-1 where no inverse exists)."""
        inv = np.full(self.size, -1, dtype=np.int64)
        rows, cols = np.nonzero((self.mul == self.one) & (self.mul.T == self.one))
        inv[rows] = cols
        return inv

    @cached_property
    def domain_units(self) -> tuple[int, ...]:
        """Units of the declared domain: elements whose two-sided inverse
        lies in it too, in domain order (none when ``one`` lies outside)."""
        if self.position[self.one] < 0:
            return ()
        elems = self.element_array
        inv = self.inverse[elems]
        inside = (inv >= 0) & (self.position[inv] >= 0)
        return tuple(int(u) for u in elems[inside])

    @cached_property
    def lists(self) -> TableLists:
        """List views of ``add``/``mul``/``neg``/``position``: one scalar
        lookup in a list is several times cheaper than in an array."""
        return TableLists(self.add.tolist(), self.mul.tolist(),
                          self.neg.tolist(), self.position.tolist())

    def sub(self, a: int, b: int) -> int:
        return int(self.add[a, self.neg[b]])

    def int_embed(self, value: int) -> int:
        """Interpret an integer literal as ``value * 1`` in the ring."""
        return self._multiples[value % self.char]

    @cached_property
    def table_hash(self) -> str:
        """Content hash of the operation tables, for reproducible reports."""
        h = hashlib.sha256()
        h.update(str(self.size).encode())
        h.update(self.add.astype(np.int16).tobytes())
        h.update(self.mul.astype(np.int16).tobytes())
        h.update(self.neg.astype(np.int16).tobytes())
        if self.subring is not None:
            h.update(str(self.subring).encode())
        return h.hexdigest()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Ring({self.spec.kind}, size={self.size})"


# ------------------------------------------------------------ primality /
# polynomial helpers over F_p (tuples of coefficients, constant term first)

def _is_prime(n: int) -> bool:
    if n < 2:
        return False
    d = 2
    while d * d <= n:
        if n % d == 0:
            return False
        d += 1
    return True


def _monic_array(degree: int, p: int) -> np.ndarray:
    """Every monic polynomial of the degree over F_p, one coefficient row
    each, constant term first."""
    lower = np.arange(p ** degree)[:, None] // p ** np.arange(degree) % p
    return np.hstack([lower, np.ones((len(lower), 1), dtype=lower.dtype)])


def _default_modulus(p: int, k: int) -> tuple[int, ...]:
    """Lexicographically smallest monic irreducible of degree k over F_p,
    its coefficients from the constant term on compared first.

    A sieve: each product of monic factors of degrees d and k - d, for
    every d up to k/2, marks its candidate reducible, and the first
    candidate left unmarked is the modulus.
    """
    if k == 1:
        return (0, 1)
    # candidate id of the lower coefficients, the constant term most significant
    weights = p ** np.arange(k - 1, -1, -1)
    reducible = np.zeros(p ** k, dtype=bool)
    for d in range(1, k // 2 + 1):
        g, h = _monic_array(d, p), _monic_array(k - d, p)
        product = np.zeros((len(g), len(h), k + 1), dtype=np.int64)
        for i in range(d + 1):
            product[:, :, i:i + k - d + 1] += g[:, i, None, None] * h
        reducible[product[..., :k] % p @ weights] = True
    first = int(np.flatnonzero(~reducible)[0])
    return tuple(int(c) for c in first // weights % p) + (1,)


def _poly_term(i: int, c: int) -> str:
    """The term c * x**i of a polynomial's name, empty when c is 0."""
    if c == 0:
        return ""
    if i == 0:
        return str(c)
    base = "x" if i == 1 else f"x^{i}"
    return base if c == 1 else f"{c}{base}"


def _poly_name(vec: tuple[int, ...]) -> str:
    return "+".join(t for t in map(_poly_term, range(len(vec)), vec) if t) or "0"


# ----------------------------------------------------------- constructors

def _zn_tables(n: int):
    idx = np.arange(n, dtype=np.int32)
    add = idx[:, None] + idx
    add -= (add >= n) * np.int32(n)
    mul = idx[:, None] * idx
    mul %= n
    neg = (n - idx) % n
    names = tuple(map(str, range(n)))
    return n, add, mul, neg, 0, 1, names


def _pairs(lt: np.ndarray, rt: np.ndarray) -> np.ndarray:
    """The table of the pairs (l, r), at index l * len(rt) + r, whose left
    entries combine by the table lt and whose right entries by rt."""
    size = len(lt) * len(rt)
    return (lt[:, None, :, None] * len(rt)
            + rt[None, :, None, :]).reshape(size, size)


def _digits_add(p: int, k: int) -> np.ndarray:
    """The int16 addition table of (Z_p)^k on base-p indices, the first
    digit most significant."""
    if k == 1:
        zp = np.arange(p, dtype=np.int16)
        add = zp[:, None] + zp
        add -= (add >= p) * np.int16(p)
        return add
    return _pairs(_digits_add(p, k - k // 2), _digits_add(p, k // 2))


def _poly_ring_tables(p: int, k: int, modulus: tuple[int, ...]):
    size = p ** k
    # index <-> coefficient vector, constant term first, lexicographic order
    weights = p ** np.arange(k - 1, -1, -1)
    digits = np.arange(size)[:, None] // weights % p
    # + is the table of Z_p in every digit
    add = _digits_add(p, k)
    neg = -digits % p @ weights
    # scaled[c, b] is the index of c * b for c in F_p
    scaled = np.arange(p)[:, None, None] * digits % p @ weights
    # times_x[b] is the index of x * b: shift the digits up one, then replace
    # x^k by -(m_0 + .. + m_{k-1} x^{k-1}) of the monic modulus
    up = np.zeros_like(digits)
    up[:, 1:] = digits[:, :-1]
    low = np.array(modulus[:k])
    times_x = (up - digits[:, k - 1, None] * low) % p @ weights
    # powers[i][b] is the index of x^i * b
    powers = [np.arange(size)]
    for _ in range(k - 1):
        powers.append(times_x[powers[-1]])

    def rows(first, stop):
        """The rows of mul at the a whose digits outside first..stop-1 are
        0: a*b is the sum of a_i * (x^i b), one digit added at a time, the
        more significant first.  take keeps the rows of scaled row-major,
        which a fancy index would not, and the sums run along them."""
        out = np.zeros((1, size), dtype=np.int16)
        for i in range(first, stop):
            terms = scaled.take(powers[i], axis=1)
            out = add[out[:, None, :], terms].reshape(-1, size)
        return out

    # a is its first k // 2 digits plus the rest, and a*b the sum of theirs
    high, rest = rows(0, k // 2), rows(k // 2, k)
    mul = add[high[:, None, :], rest].reshape(size, size)
    # the names of each prefix of digits, the next digit appended least
    # significant: "+" joins two nonempty parts, and an empty name is "0"
    names = [""]
    for i in range(k):
        words = [_poly_term(i, c) for c in range(p)]
        names = [f"{a}+{w}" if a and w else a or w
                 for a in names for w in words]
    names = tuple(a or "0" for a in names)
    return size, add, mul, neg, 0, int(weights[0]), names


def _product_tables(left, right):
    """The tables of left × right from the components' tables, each as
    (size, add, mul, neg, zero, one, names) with zero 0."""
    nl, l_add, l_mul, l_neg, _, l_one, l_names = left
    nr, r_add, r_mul, r_neg, _, r_one, r_names = right
    neg = (l_neg[:, None] * nr + r_neg).reshape(-1)
    names = tuple(f"({a}|{b})" for a in l_names for b in r_names)
    return (nl * nr, _pairs(l_add, r_add), _pairs(l_mul, r_mul), neg, 0,
            l_one * nr + r_one, names)


def _ut2_tables(p: int):
    """Upper triangular 2x2 matrices [[a, b], [0, c]] over F_p."""
    size = p ** 3
    zp = np.arange(p, dtype=np.int16)
    zp_add, zp_mul = _digits_add(p, 1), zp[:, None] * zp % p

    def entries(t, left, right):
        """The table t of F_p at entry left of the first matrix and entry
        right of the second, on the axes (a, b, c, a', b', c')."""
        shape = [1] * 6
        shape[left] = shape[3 + right] = p
        return t.reshape(shape)

    # (a, b, c) is the index (a p + b) p + c, so + is (Z_p)^3's; the
    # product's entries are a a', a b' + b c' and c c'
    corner = zp_add[entries(zp_mul, 0, 1), entries(zp_mul, 1, 2)]
    mul = ((entries(zp_mul, 0, 0) * p + corner) * p
           + entries(zp_mul, 2, 2)).reshape(size, size)
    idx = np.arange(size)
    a, b, c = idx // (p * p), idx // p % p, idx % p
    neg = (-a % p * p + -b % p) * p + -c % p
    names = tuple(f"[{x} {y};0 {z}]"
                  for x, y, z in zip(a.tolist(), b.tolist(), c.tolist()))
    return size, _digits_add(p, 3), mul, neg, 0, p * p + 1, names


def _spec_size(spec: RingSpec) -> int:
    # RingSpec holds an integer in every field of its kind but left and right
    if spec.kind == "Zn":
        if spec.n < 2:
            raise InvalidRingSpec("Zn needs n >= 2")
        return spec.n
    if spec.kind in ("GF", "PolyQuot"):
        if spec.k < 1:
            raise InvalidRingSpec(f"{spec.kind} needs p and k >= 1")
        return spec.p ** spec.k
    if spec.kind == "Product":
        if spec.left is None or spec.right is None:
            raise InvalidRingSpec("Product needs left and right specs")
        return _spec_size(spec.left) * _spec_size(spec.right)
    if spec.kind == "UT2":
        return spec.p ** 3
    raise InvalidRingSpec(f"unknown ring kind {spec.kind!r}")


# --------------------------------------------------------- axiom checking

# carriers up to this size test every element as a generator, which is the
# exhaustive check and cheaper there than finding a generating set
_EXHAUSTIVE_SIZE = 20
# cells of one (rows, generators, size) block in the generator checks; the
# blocks gather the tables' own int16 values, 64 KiB a block, and the
# allocator serves a block's arrays from memory it keeps instead of fresh
# pages; 2**14 cells measured as fast, 2**12 and 2**16 slower
_CHUNK_CELLS = 1 << 15


def _additive_generators(add: np.ndarray, zero: int, outside=None,
                         first: int | None = None) -> list[int]:
    """The one routine that picks additive generators, greedily and in the
    order picked: ``first`` while it is unreached, else the smallest
    unreached element g.  Its multiples g, g+g, g+(g+g), ... up to the
    first one reached before, and the sums of an element reached before
    and a multiple, are then reached, until every element is.  The
    elements of the bool mask ``outside`` count as reached from the start
    and enter no sum, so the generators generate the rest.

    Only sums of reached elements are formed, so every reached element is a
    sum of generators whatever the table holds, and the multiples stop, as
    each is marked reached.  The reached part is read off the mask before
    each generator, as a product of cosets repeats elements on a
    non-associative table.  In a group the reached part is the subgroup the
    generators generate, and each generator at least doubles it, so there
    are at most log2(size).  The axiom check calls it with the unit first
    before the group law is proven, and :attr:`Ring.generators` with the
    unit first and the elements outside a declared subring left out, on
    the proven ring; without a subring the two calls are one.
    """
    reached = np.zeros(len(add), dtype=bool) if outside is None else outside.copy()
    reached[zero] = True
    inside = None if outside is None else ~outside
    todo = len(add) if inside is None else np.count_nonzero(inside)
    gens = []
    while True:
        before = (reached if inside is None else reached & inside).nonzero()[0]
        if len(before) == todo:
            return gens
        g = (first if first is not None and not reached[first]
             else int(reached.argmin()))
        gens.append(g)
        plus_g, multiples, c = add[g], [zero], g
        while not reached[c]:
            reached[c] = True
            multiples.append(c)
            c = plus_g.item(c)
        reached[add[before[:, None], multiples]] = True


def _verify_axioms(size, add, mul, neg, zero, one):
    """Exact check of every ring axiom on the full carrier.

    Totality, the zero, negation and the unit are checked cell by cell;
    ``one`` is None only for hand-built tables without a unit, which no
    constructor makes.
    The laws over three elements, and commutativity of +, are checked with
    one argument running over a generating set A of (R, +), picked by
    ``_additive_generators`` with the unit first: every element is a sum of
    elements of A and 0, so a set of elements that holds A and 0 and is
    closed under + is the whole carrier.  Each step is exact given the ones
    before it:

    * (x+a)+y = x+(a+y) for all x, y and a in A.  The a that pass hold 0
      and are closed under + (Light's associativity test), so + is
      associative and (R, +) is a finite group.
    * x+a = a+x for all x and a in A.  For a fixed x, the z with
      x+z = z+x hold 0, as 0 is an identity on both sides, and A, and with
      + associative they are closed under +: x+(z+z') = (z+x)+z' =
      z+(z'+x) = (z+z')+x.  So they are the whole carrier and (R, +) is
      abelian.  A table that fails + commutativity and an earlier law of +
      reports commutativity, which the reference order checks first: on
      that failing path the whole table is compared.
    * (y+a)x = yx+ax for all x, y and a in A.  With + associative the a
      that pass are closed under +, and a nonempty set closed under + in a
      finite group holds 0, so right distributivity holds everywhere.
    * a(y+b) = ay+ab for a and b in A and all y.  For a fixed a, the z
      with a(y+z) = ay+az for all y hold A and are closed under +:
      a(y+(z+z')) = a((y+z)+z') = a(y+z)+az' = ay+az+az' = ay+a(z+z'),
      the last step the case y = z.  As above they hold 0, so they are the
      whole carrier.  By right distributivity the x with x(y+z) = xy+xz for
      all y, z are then closed under +, as (x+x')(y+z) = x(y+z)+x'(y+z) =
      xy+xz+x'y+x'z = (x+x')y+(x+x')z, and they hold A, so left
      distributivity holds everywhere.  Carriers up to
      ``_EXHAUSTIVE_SIZE``, and tables that fail right distributivity,
      check x(y+a) = xy+xa for all x, y and a in A instead, which is exact
      by the same closure in a without the right law; so a table that
      fails both laws reports the left one, as the laws are checked left
      first.
    * (ab)c = a(bc) for a, b, c in A.  By distributivity, for fixed y and z
      the x with (xy)z = x(yz) are closed under +, and likewise y and z,
      so associativity extends to the carrier one argument at a time.

    Returns A, as an index array or, up to ``_EXHAUSTIVE_SIZE``, a slice.
    The work is O(|A| size**2), with |A| <= log2(size) in a group: the
    associativity of + and the right law take |A| size**2 cells each,
    commutativity |A| size, the left law |A|**2 size and associativity
    |A|**3.  Up to ``_EXHAUSTIVE_SIZE`` A is the whole carrier, which makes
    this the exhaustive check.
    """
    rng = np.arange(size)
    for name, table in (("add", add), ("mul", mul)):
        if table.shape != (size, size) or table.min() < 0 or table.max() >= size:
            raise AxiomViolation(f"{name} table is not total on the carrier")
    if neg.shape != (size,) or neg.min() < 0 or neg.max() >= size:
        raise AxiomViolation("negation table is not total on the carrier")
    # the shapes are fixed from here on, so == compares whole tables
    if not ((add[zero] == rng).all() and (add[:, zero] == rng).all()):
        _additive_failure(add, "zero is not an additive identity")
    if not (add[rng, neg] == zero).all():
        _additive_failure(add, "negation does not give additive inverses")
    # mul_s holds xy * size, so that add[xy, v] is one take from the flat
    # add table at xy * size + v; the other indices are table cells
    mul_s = mul.astype(np.intp)
    mul_s *= size
    flat = add.reshape(-1)
    if size <= _EXHAUSTIVE_SIZE:
        gens = slice(None)
        blocks = [(slice(None), gens)]
    else:
        gens = np.array(_additive_generators(add, zero, first=one),
                        dtype=np.intp)
        blocks = _blocks(size, gens)
    # indices [x, a, y], [y, a, x] and [x, y, a], x or y in the block's rows
    for xs, a in blocks:
        if not (add[add[xs][:, a]] == add[xs].take(add[a], axis=1)).all():
            _additive_failure(add, "addition is not associative")
    if not (add[:, gens] == add[gens].T).all():
        raise AxiomViolation("addition is not commutative")
    right = all((mul[add[ys][:, a]]
                 == flat.take(mul_s[ys][:, None, :] + mul[a])).all()
                for ys, a in blocks)
    if right and size > _EXHAUSTIVE_SIZE:
        # indices [a, b, y], y+b read from row b of add as + commutes; at
        # most size * log2(size)**2 cells, 16,384 at size 256, in one block
        rows = mul[gens]
        left = (rows.take(add[gens], axis=1)
                == flat.take(mul_s[gens][:, None, :]
                             + rows.take(gens, axis=1)[:, :, None])).all()
    else:
        left = all((mul[xs][:, add[:, a]]
                    == flat.take(mul_s[xs][:, :, None]
                                 + mul[xs][:, a][:, None, :])).all()
                   for xs, a in blocks)
    if not left:
        raise AxiomViolation("left distributivity fails")
    if not right:
        raise AxiomViolation("right distributivity fails")
    if one is not None:
        if not ((mul[one] == rng).all() and (mul[:, one] == rng).all()):
            raise AxiomViolation("declared unit is not a two-sided identity")
    pairs = mul[gens][:, gens]
    if not (mul[pairs][:, :, gens] == mul[gens][:, pairs]).all():
        raise AxiomViolation("multiplication is not associative")
    return gens


def _additive_failure(add, message):
    """Raise ``message``, or that + does not commute when the whole table
    shows it: the reference order checks commutativity before the other
    laws of +."""
    if not (add == add.T).all():
        message = "addition is not commutative"
    raise AxiomViolation(message)


def _blocks(size: int, gens: np.ndarray) -> list[tuple[slice, np.ndarray]]:
    """(rows, generators) blocks covering every row with every generator,
    each of at most ``_CHUNK_CELLS`` cells of (rows, generators, size), or
    of one row when a row alone is larger."""
    rows = max(1, _CHUNK_CELLS // size)
    if rows >= size:
        step = rows // size
        return [(slice(None), gens[i:i + step]) for i in range(0, len(gens), step)]
    return [(slice(r, r + rows), gens[i:i + 1])
            for i in range(len(gens)) for r in range(0, size, rows)]


def _validate_subring(sub: tuple[int, ...], size, add, mul, neg, zero):
    members = set(sub)
    if not members:
        raise InvalidRingSpec("declared subring is empty")
    if any(not (0 <= e < size) for e in sub):
        raise InvalidRingSpec("subring indices out of range")
    if zero not in members:
        raise InvalidRingSpec("declared subring does not contain 0")
    for a in sub:
        if int(neg[a]) not in members:
            raise InvalidRingSpec("declared subring not closed under negation")
        for b in sub:
            if int(add[a, b]) not in members:
                raise InvalidRingSpec("declared subring not closed under addition")
            if int(mul[a, b]) not in members:
                raise InvalidRingSpec("declared subring not closed under multiplication")


def _tables(spec: RingSpec):
    """The tables of the carrier of ``spec``, its subring left out, as
    (size, add, mul, neg, zero, one, names) with int16 tables.  They are not
    proven here.  A GF carrier whose nonzero elements are not all units is
    refused with :class:`ReducibleModulus` right after its tables are
    built, and a product builds its left component's tables before its
    right's, so errors come left component first."""
    if spec.kind == "Zn":
        tables = _zn_tables(spec.n)
    elif spec.kind in ("GF", "PolyQuot"):
        if not _is_prime(spec.p):
            raise NonPrimeModulus(f"{spec.p} is not prime")
        if spec.kind == "GF":
            modulus = spec.modulus
            if modulus is None:
                modulus = _default_modulus(spec.p, spec.k)
            else:
                modulus = tuple(c % spec.p for c in modulus)
                if len(modulus) != spec.k + 1 or modulus[-1] == 0:
                    raise InvalidRingSpec(
                        f"modulus must have degree exactly {spec.k}")
                if modulus[-1] != 1:
                    # normalize to monic; units of F_p do not change the quotient
                    lead_inv = pow(modulus[-1], -1, spec.p)
                    modulus = tuple((c * lead_inv) % spec.p for c in modulus)
        else:
            modulus = (0,) * spec.k + (1,)  # x^k, deliberately reducible
        tables = _poly_ring_tables(spec.p, spec.k, modulus)
    elif spec.kind == "Product":
        tables = _product_tables(_tables(spec.left), _tables(spec.right))
    elif spec.kind == "UT2":
        if not _is_prime(spec.p):
            raise NonPrimeModulus(f"{spec.p} is not prime")
        tables = _ut2_tables(spec.p)
    else:
        raise InvalidRingSpec(f"unknown ring kind {spec.kind!r}")
    size, add, mul, neg, zero, one, names = tables
    # F_p[x]/(m) is a field exactly when m is irreducible.  The axioms are
    # not proven yet, so the units are counted as the rows that hold 1: in a
    # finite ring xy = 1 gives yx = 1, as z -> yz is one to one (x(yz) = z),
    # so yw = 1 for some w, and x = x(yw) = (xy)w = w; Ring.units, read from
    # the two-sided inverse, then holds the same elements
    if (spec.kind == "GF"
            and np.count_nonzero((mul == one).any(axis=1)) != size - 1):
        raise ReducibleModulus(
            f"{_poly_name(modulus)} is reducible over F_{spec.p}")
    # int16 holds every index below 2**15 and is the layout table_hash digests
    add, mul, neg = (np.ascontiguousarray(t, dtype=np.int16)
                     for t in (add, mul, neg))
    return size, add, mul, neg, zero, one, names


def build_ring(spec: RingSpec) -> Ring:
    """Build the ring described by ``spec`` and prove its axioms.

    Raises :class:`BudgetExceeded` before any table is materialized when the
    resulting carrier would be larger than :data:`DEFAULT_SIZE_BUDGET`.  A
    GF modulus is irreducible exactly when its quotient is a field, so a
    reducible one raises :class:`ReducibleModulus` once the units of its
    tables are counted, before the axioms and the subring are checked.

    The center, units and regular elements are computed from the proven
    tables when first read (:attr:`Ring.center`, :attr:`Ring.units`,
    :attr:`Ring.regular`), not by the build.

    A ``Product`` is proved once, on its own tables: its components' tables
    come from the builders this function uses and are not proven on their
    own.  That loses nothing.  Each builder
    reduces its entries into its carrier, and the product tables are built
    entry by entry from the components' (the entry at (l, r) and (l', r')
    is the pair of the components' entries), so each projection is a
    surjective map that preserves +, ·, 0, negation and 1.  Every totality
    condition and every equational law that holds on the product therefore
    holds on each component.

    The axiom check's generating set comes from ``_additive_generators``
    with the unit first, as :attr:`Ring.generators` does, and on a carrier
    without a declared subring above ``_EXHAUSTIVE_SIZE`` the ring keeps
    it as :attr:`Ring.generators`, so a build walks the routine once.
    """
    size = _spec_size(spec)
    if size > DEFAULT_SIZE_BUDGET:
        raise BudgetExceeded(
            f"ring of size {size} exceeds the size budget "
            f"{DEFAULT_SIZE_BUDGET}", needed=size)
    size, add, mul, neg, zero, one, names = _tables(spec)
    gens = _verify_axioms(size, add, mul, neg, zero, one)
    if spec.subring is not None:
        _validate_subring(spec.subring, size, add, mul, neg, zero)

    add.setflags(write=False)
    mul.setflags(write=False)
    neg.setflags(write=False)
    ring = Ring(spec=spec, size=size, add=add, mul=mul, neg=neg, zero=zero,
                one=one, names=names, subring=spec.subring)
    if spec.subring is None and size > _EXHAUSTIVE_SIZE:
        # the set Ring.generators would walk again
        ring.__dict__["generators"] = _generator_array(zero, gens)
    return ring


def _generator_array(zero: int, gens) -> np.ndarray:
    """0 and ``gens`` as a read-only ascending int64 array."""
    g = np.array(sorted([zero, *gens]), dtype=np.int64)
    g.setflags(write=False)
    return g


def ring_from_json(doc: dict | str) -> Ring:
    return build_ring(RingSpec.from_json(doc))


def same_carrier(a: Ring, b: Ring) -> bool:
    """True when two Ring objects share the underlying operation tables."""
    if a is b:
        return True
    return (a.size == b.size and np.array_equal(a.add, b.add)
            and np.array_equal(a.mul, b.mul))


def center(ring: Ring) -> tuple[int, ...]:
    """Elements commuting with the whole carrier."""
    return ring.center


def require_field(ring: Ring) -> None:
    """Raise :class:`NotAField` unless every nonzero element is a unit."""
    if not ring.is_field:
        raise NotAField(f"{ring.spec.kind} of size {ring.size} is not a field")


def require_element(ring: Ring, value: int, what: str) -> None:
    """Raise :class:`InvalidTask` unless ``value``, named ``what`` in the
    message, is the index of an element of ``ring``."""
    if not 0 <= value < ring.size:
        raise InvalidTask(
            f"{what} is not an element of a ring of size {ring.size}")


def is_regular(ring: Ring, e: int) -> bool:
    """True iff ``e`` is nonzero and annihilates nothing nonzero on either side."""
    require_element(ring, e, f"element {e}")
    return e in ring.regular


# convenience constructors used throughout tests and demos

def zn(n: int, subring: tuple[int, ...] | None = None) -> Ring:
    return build_ring(RingSpec(kind="Zn", n=n, subring=subring))


def gf(p: int, k: int = 1, modulus: tuple[int, ...] | None = None) -> Ring:
    return build_ring(RingSpec(kind="GF", p=p, k=k, modulus=modulus))


def poly_quot(p: int, k: int) -> Ring:
    return build_ring(RingSpec(kind="PolyQuot", p=p, k=k))


def ut2(p: int) -> Ring:
    return build_ring(RingSpec(kind="UT2", p=p))


def product(left: RingSpec | Ring, right: RingSpec | Ring) -> Ring:
    ls = left.spec if isinstance(left, Ring) else left
    rs = right.spec if isinstance(right, Ring) else right
    return build_ring(RingSpec(kind="Product", left=ls, right=rs))
