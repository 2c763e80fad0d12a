"""Executable verdicts for the characterization statements.

Each check brute-forces the solution set of one equation over a concrete
ring, computes the predicted parametric family, and compares the two sets
direction by direction, returning a structured report with witnesses and
counterexamples instead of a bare boolean.

Check identifiers used across reports and the CLI:

* ``thm4``   the shifted homo-derivation equation
  ``h(xy) = h(x)y + xh(y) + eps h(x)h(y)``; solutions correspond to
  multiplicative maps through ``m = eps*h + id``.
* ``prop1``  the system {multiplicative, Leibniz}; every solution admits a
  nonzero two-sided annihilator.
* ``pexider`` the equation ``f(xy) = h(x)h(y) + xk(y) + k(x)y`` and its
  parametric solution families.
* ``alien``  the weighted combination
  ``lam[f(xy)-f(x)y-xf(y)] + mu[f(xy)-f(x)f(y)] = 0``.
* ``thm5-symbolic`` the coefficient-comparison check of the rank-3 family.
"""
from __future__ import annotations

import json
import operator
from dataclasses import dataclass, field, fields
from itertools import islice, product as iproduct
from math import prod

import numpy as np

from .algebra import Ring, require_element, require_field, same_carrier
from .eqdsl import Binding, EquationAst, grid_masks, parse_equation
from .errors import (BothZero, EpsilonZero, InvalidTask, NotCentral,
                     ResidualNonzero, Unclassifiable)
from .maps import (ARBITRARY, FnTable, LEIBNIZ, LOGARITHMIC, MULTIPLICATIVE,
                   class_mask, class_rows, leibniz_equation, row_ids, zero_map)
from .search import DEFAULT_BUDGET
from .solver import SolveTask, residual, solve
from .symbolic import (DERIVED_INVERSES, PEXIDER_FAMILIES, check_identity,
                       derive_constraints, thm5_family)

_WITNESS_LIMIT = 20
# rows of one block of the converse sample walk and of the closure samples
_SAMPLE_CHUNK = 1 << 12


# ------------------------------------------------------ equations, reports

# the fixed equations of the checks, parsed once; EquationAst is immutable
_HOMO_DERIVATION = parse_equation("h(x*y)=h(x)*y+x*h(y)+e*h(x)*h(y)")
_PEXIDER = parse_equation("f(x*y)=h(x)*h(y)+x*k(y)+k(x)*y")
_ALIEN_COMBINATION = parse_equation(
    "lam*(f(x*y)-f(x)*y-x*f(y))+mu*(f(x*y)-f(x)*f(y))=0")
_ALIEN_PAIR = parse_equation("h(x*y)+k(x*y)=h(x)*h(y)+x*k(y)+k(x)*y")


def homo_derivation_equation() -> EquationAst:
    return _HOMO_DERIVATION


def pexider_equation() -> EquationAst:
    return _PEXIDER


def alien_combination_equation() -> EquationAst:
    return _ALIEN_COMBINATION


def alien_pair_equation() -> EquationAst:
    return _ALIEN_PAIR


@dataclass
class TheoremReport:
    """Structured verdict of one check over one concrete instance."""

    theorem: str
    ring: dict
    params: dict
    solutions_found: int
    predicted_count: int | None
    forward_ok: bool
    backward_ok: bool | None
    counterexamples: list = field(default_factory=list)
    details: dict = field(default_factory=dict)

    def holds(self) -> bool:
        return bool(self.forward_ok and self.backward_ok is not False)

    def to_json(self) -> dict:
        return {f.name: getattr(self, f.name) for f in fields(self)}

    def render_text(self) -> str:
        lines = [f"check {self.theorem}",
                 f"  ring: {json.dumps(self.ring)}",
                 f"  params: {json.dumps(self.params)}",
                 f"  solutions found: {self.solutions_found}"]
        if self.predicted_count is not None:
            lines.append(f"  predicted: {self.predicted_count}")
        lines.append(f"  forward: {'ok' if self.forward_ok else 'FAILED'}")
        if self.backward_ok is None:
            lines.append("  backward: not checked")
        else:
            lines.append(f"  backward: {'ok' if self.backward_ok else 'FAILED'}")
        if self.counterexamples:
            lines.append(f"  counterexamples: {len(self.counterexamples)}")
            for ce in self.counterexamples[:5]:
                lines.append(f"    {json.dumps(ce)}")
        for key in sorted(self.details):
            lines.append(f"  {key}: {json.dumps(self.details[key])}")
        lines.append(f"  verdict: {'holds' if self.holds() else 'does not hold'}")
        return "\n".join(lines) + "\n"


def _ring_doc(ring: Ring) -> dict:
    return {"spec": ring.spec.to_json(), "size": ring.size,
            "hash": ring.table_hash}


def _table(ring: Ring, vals) -> FnTable:
    return FnTable(ring, ring, tuple(int(v) for v in vals))


def _product_blocks(options: list[list[int]], max_rows: int):
    """The product of per-position option lists, lazily and in
    lexicographic order, as blocks of value rows: each block fixes a prefix
    and runs through the longest suffix of at most ``max_rows`` rows (at
    least the last position)."""
    split = len(options) - 1
    while split > 0 and prod(len(o) for o in options[split - 1:]) <= max_rows:
        split -= 1
    grids = np.meshgrid(*(np.asarray(o, dtype=np.int64)
                          for o in options[split:]), indexing="ij")
    tail = np.stack([g.ravel() for g in grids], axis=1)
    for head in iproduct(*options[:split]):
        yield np.hstack([np.broadcast_to(np.array(head, dtype=np.int64),
                                         (len(tail), split)), tail])


def _outside(sets: np.ndarray, sol_ids: np.ndarray):
    """The value rows of a union of product sets that are not solutions,
    lazily, as (set index, row) pairs.

    Set ``s`` is the (m, q) mask ``sets[s]`` of the values allowed at each
    position.  The walk goes through the sets in order, each in
    lexicographic order and in blocks (:func:`_product_blocks`), skips a set
    with an empty position, and skips any row an earlier set holds.  Every
    row is a candidate of the equation, so it is a non-solution exactly when
    its id (:func:`fnq.maps.row_ids`) is not in ``sol_ids``.  The walk
    reaches set ``s`` only after yielding every non-solution of the earlier
    sets, so a row an earlier set holds is a solution or a row already
    yielded, and one id test skips both.
    """
    known = sol_ids
    for s, mask in enumerate(sets):
        options = [np.flatnonzero(allowed) for allowed in mask]
        if not all(len(o) for o in options):
            continue
        for block in _product_blocks(options, _SAMPLE_CHUNK):
            ids = row_ids(block, sets.shape[2])
            new = ~np.isin(ids, known)
            known = np.concatenate([known, ids[new]])
            for row in block[new]:
                yield s, row.tolist()


@dataclass
class FamilyTag:
    """Which parametric family a solution belongs to, with witnesses.

    Tag names: SofyShift, MPAnnihilated, AllLinear, LinearPlusLeibniz,
    MultiplicativeSquare, LambdaKFamilyA, LambdaKFamilyB, TwoExponential,
    NonDegenerate, AlienA, AlienB, AlienZero, AlienScaled.

    LambdaKFamilyA is AllLinear with lam1 = lam*gamma and lam2 = gamma, so
    the lookup, which takes a row's first instance with AllLinear first,
    never returns it; it is kept because the closure check covers its
    instances too.

    NonDegenerate can be built by :func:`pexider_family_binding` but is
    never returned by :func:`classify_pexider` over a finite field: its
    logarithmic witness maps the unit group, of order q-1, into the
    additive group, whose nonzero elements have order p, and p does not
    divide q-1, so the witness is zero and the instance has rank below 3.
    """

    name: str
    params: dict[str, int] = field(default_factory=dict)
    witnesses: dict[str, FnTable] = field(default_factory=dict)

    def to_json(self) -> dict:
        return {"family": self.name,
                "params": dict(sorted(self.params.items())),
                "witnesses": {n: list(t.values)
                              for n, t in sorted(self.witnesses.items())}}


# ----------------------------------------------------------- thm4 (shift)

def multiplicative_shift(h: FnTable, eps: int) -> FnTable:
    """The map x -> eps*h(x) + x on h's domain; a shift constant that is
    not an element of h's codomain raises :class:`InvalidTask`."""
    ring = h.codomain
    require_element(ring, eps, f"shift constant {eps}")
    elems = h.domain.element_array
    vals = ring.add[ring.mul[eps, h.as_array()], elems]
    return FnTable(h.domain, ring, tuple(int(v) for v in vals))


def verify_sofy(ring: Ring, eps: int,
                budget: int = DEFAULT_BUDGET) -> TheoremReport:
    """Check the shift characterization of the homo-derivation equation.

    Forward: every brute-force solution h maps to a multiplicative function
    under h -> eps*h + id.  Backward: for every multiplicative m, every
    pointwise solution h of eps*h = m - id satisfies the equation.  The
    non-solutions among these preimages are counted exactly
    (``backward_violation_count``); the first few, up to
    ``_WITNESS_LIMIT`` counterexamples with at most five violating pairs
    each, are a sample (:func:`_outside`), as is ``witness_sample``.  When
    eps is a unit the two directions form a bijection and the counts are
    compared.  A zero ``eps`` raises :class:`EpsilonZero`, one that is no
    element of ``ring`` :class:`InvalidTask`, and then one that is not
    central :class:`NotCentral`.
    """
    eps = operator.index(eps)
    if eps == ring.zero:
        raise EpsilonZero("the shift constant must be nonzero")
    require_element(ring, eps, f"shift constant {eps}")
    if eps not in set(ring.center):
        raise NotCentral(f"element {eps} is not central")
    ast = homo_derivation_equation()
    task = SolveTask(ast=ast, ring=ring, classes={"h": ARBITRARY},
                     params={"e": eps}, budget=budget)
    sols = solve(task)
    elems = ring.element_array
    hs = sols.rows[:, 0]
    shifts = ring.add[ring.mul[eps, hs], elems]
    multiplicative = class_mask(ring, ring, shifts, MULTIPLICATIVE)

    counterexamples: list = []
    witnesses = []
    for h_vals, shift, ok in zip(hs.tolist(), shifts.tolist(), multiplicative):
        if not ok:
            counterexamples.append({"direction": "forward", "h": h_vals,
                                    "shift": shift})
        elif len(witnesses) < _WITNESS_LIMIT:
            witnesses.append(FamilyTag("SofyShift", {"eps": eps},
                                       {"m": _table(ring, shift)}).to_json()
                             | {"h": h_vals})
    forward_ok = not counterexamples

    mult_maps = class_rows(ring, ring, MULTIPLICATIVE, budget)
    # the preimage set P(m) = {h : eps*h = m - id}, one mask per map
    targets = ring.add[mult_maps, ring.neg[elems]]
    preimages = ring.mul[eps] == targets[:, :, None]
    # The sets P(m) are disjoint, and a solution lies in one exactly when
    # its shift is multiplicative, so the non-solutions among them are
    # counted without enumerating any.
    backward_violations = (sum(prod(row) for row in
                               preimages.sum(axis=2).tolist())
                           - int(multiplicative.sum()))
    if backward_violations:
        room = max(_WITNESS_LIMIT - len(counterexamples), 0)
        for s, h_vals in islice(_outside(preimages, row_ids(hs, ring.size)),
                                room):
            bind = Binding(functions={"h": _table(ring, h_vals)},
                           params={"e": eps})
            counterexamples.append({
                "direction": "backward",
                "m": mult_maps[s].tolist(),
                "h": h_vals,
                "violations": residual(ast, bind, ring)[:5],
            })

    eps_is_unit = eps in set(ring.units)
    details: dict = {
        "eps_is_unit": eps_is_unit,
        "eps_is_regular": eps in set(ring.regular),
        "enumerated_count": sols.enumerated_count,
        "witness_sample": witnesses,
        "backward_violation_count": backward_violations,
    }
    if eps_is_unit:
        details["bijection"] = (len(set(map(tuple, shifts.tolist())))
                                == len(hs) == len(mult_maps))

    return TheoremReport(theorem="thm4", ring=_ring_doc(ring),
                         params={"eps": eps},
                         solutions_found=len(hs),
                         predicted_count=len(mult_maps),
                         forward_ok=forward_ok,
                         backward_ok=backward_violations == 0,
                         counterexamples=counterexamples, details=details)


# --------------------------------------------------- prop1 (annihilators)

def _annihilators(ring: Ring) -> np.ndarray:
    """The mask ``ann[a, v]``: a*v = v*a = 0, with the zero row cleared."""
    ann = (ring.mul == ring.zero) & (ring.mul.T == ring.zero)
    ann[ring.zero] = False
    return ann


def _union_count(sets: list[int], m: int) -> int:
    """The number of length-m value vectors whose image lies in at least
    one of ``sets``, each a bitmask of values.

    Close the sets under intersection.  The members that contain a
    vector's image then have an intersection in the family that still
    contains it: its unique least member.  A vector's image lies in a
    member A exactly when its least member lies in A, so the vectors whose
    least member is A number ``|A|**m`` minus those of A's proper
    sub-members, and the union is the sum of these over the family.
    """
    closed: set[int] = set()
    for a in sets:
        closed |= {a} | {a & c for c in closed}
    least: dict[int, int] = {}
    for a in sorted(closed, key=int.bit_count):
        least[a] = a.bit_count() ** m - sum(n for b, n in least.items()
                                            if b & a == b)
    return sum(least.values())


def _witnesses(ann: np.ndarray, rows: np.ndarray) -> list[int | None]:
    """For each value row, the smallest ``a`` with ``ann[a, v]`` at every
    value ``v`` of the row, or None."""
    hits = ann[:, rows].all(axis=2)
    return [int(a) if hit else None
            for a, hit in zip(hits.argmax(axis=0).tolist(),
                              hits.any(axis=0).tolist())]


def annihilator_witness(f: FnTable) -> int | None:
    """Smallest-index nonzero element annihilating every value two-sidedly."""
    return _witnesses(_annihilators(f.codomain), f.as_array()[None, :])[0]


def verify_mp(ring: Ring, budget: int = DEFAULT_BUDGET) -> TheoremReport:
    """Check that every solution of the system admits an annihilator witness.

    On carriers without zero divisors the solution set must be exactly the
    zero map.  The converse direction (a witness forces a solution) is not
    part of the claim being checked; candidate maps whose image is
    annihilated but which fail the system are counted exactly
    (``backward_counterexample_count``, by :func:`_union_count`) and the
    first five are a sample (``backward_sample``, by :func:`_outside`).
    The system is solved as the Leibniz equation over multiplicative maps,
    so its solutions are re-verified like every other check's.
    """
    m = len(ring.domain_elements)
    found = solve(SolveTask(ast=leibniz_equation(), ring=ring,
                            classes={"f": MULTIPLICATIVE}, budget=budget))
    fs = found.rows[:, 0]
    sols = fs.tolist()  # distinct and in lexicographic order
    ann = _annihilators(ring)
    witnesses = _witnesses(ann, fs)
    counterexamples = [{"direction": "forward", "f": v}
                       for v, w in zip(sols, witnesses) if w is None]
    forward_ok = not counterexamples
    details: dict = {
        "solutions": sols,
        "witnesses": {str(v): w for v, w in zip(sols, witnesses)},
        "family_tags": [FamilyTag("MPAnnihilated", {"alpha": w}).to_json()
                        for w in witnesses if w is not None],
        "no_zero_divisors": not ring.has_zero_divisors,
        "enumerated_count": found.enumerated_count,
    }
    predicted_count = None
    if not ring.has_zero_divisors:
        predicted_count = 1
        only_zero = len(sols) == 1 and bool((fs == ring.zero).all())
        details["solution_set_is_zero"] = only_zero
        forward_ok = forward_ok and only_zero

    # informational probe of the converse: a vector is probed when its
    # image is annihilated, and the probed solutions are those with a witness
    probed = _union_count([int.from_bytes(r.tobytes(), "little") for r in
                           np.packbits(ann, axis=1, bitorder="little")], m)
    backward_bad = probed - sum(w is not None for w in witnesses)
    sample = []
    if backward_bad:
        sol_ids = row_ids(fs, ring.size)
        sets = np.broadcast_to(ann[:, None, :], (ring.size, m, ring.size))
        sample = [row for _, row in islice(_outside(sets, sol_ids), 5)]
    details["backward_informational"] = True
    details["backward_counterexample_count"] = backward_bad
    details["backward_sample"] = sample

    return TheoremReport(theorem="prop1", ring=_ring_doc(ring), params={},
                         solutions_found=len(sols),
                         predicted_count=predicted_count,
                         forward_ok=forward_ok,
                         backward_ok=None,
                         counterexamples=counterexamples, details=details)


# -------------------------------------------------- pexider classification

@dataclass
class PexiderClassification:
    tag: FamilyTag
    rank: int
    details: dict


# the class each family witness must lie in; rebuilding the triple from
# the family's parameters does not imply it
_WITNESS_CLASSES = {"delta": LEIBNIZ, "m": MULTIPLICATIVE, "l": LOGARITHMIC}
# the witness that binds each generator of a family template
_WITNESS_SYMBOLS = {"m_t": "m", "d_t": "delta", "l_t": "l"}


def _classification_details(scalars: Ring) -> dict:
    details: dict = {"characteristic": scalars.char}
    if scalars.char == 2:
        details["completeness_caveat"] = (
            "characteristic 2: family fit is exact but the family list is "
            "only known complete away from characteristic 2")
    return details


def classify_pexider(f: FnTable, h: FnTable, k: FnTable) -> PexiderClassification:
    """Assign a solution triple of the Pexider equation to its family.

    After checking that the triple solves the equation, this looks it up
    among the family instances that may build it (:class:`_Images` given
    the triple), as :func:`verify_pexider` does for all solutions in the
    full images.  The tag is the first instance that builds the triple
    exactly, so nothing is matched heuristically; a triple in no image
    raises :class:`Unclassifiable`.  No witness class is enumerated, so
    this answers on every field the size budget admits.
    """
    require_field(f.codomain)
    binding = Binding(functions={"f": f, "h": h, "k": k}, params={})
    bad = residual(pexider_equation(), binding, f.domain)
    if bad:
        raise ResidualNonzero("the triple does not solve the equation", bad)
    triple = np.stack([t.as_array() for t in (f, h, k)])[None]
    images = _Images(f.domain, triple)
    (instance,) = images.find(triple)
    if instance < 0:
        raise Unclassifiable("in no family image")
    return images.classify(int(instance))


# --------------------------------------------- pexider family instantiation

def _inverse(name: str, field_ring: Ring, v, what: str):
    if np.any(v == field_ring.zero):
        raise InvalidTask(f"{name} needs a nonzero {what}")
    return field_ring.inverse[v]


def _evaluate(name: str, field_ring: Ring, poly, values: dict):
    """The value of a polynomial of ``name``'s template at ``values``,
    arrays of elements that broadcast: a rational coefficient p/q is
    ``int_embed(p)`` over ``int_embed(q)``."""
    add, mul = field_ring.add, field_ring.mul
    total = field_ring.zero
    for mono, c in poly.terms:
        term = field_ring.int_embed(c.numerator)
        if c.denominator != 1:
            den = field_ring.int_embed(c.denominator)
            term = mul[term, _inverse(name, field_ring, den,
                                      f"denominator {c.denominator}")]
        for s, exp in mono:
            for _ in range(exp):
                term = mul[term, values[s]]
        total = add[total, term]
    return total


def _derive(name: str, field_ring: Ring, values: dict) -> None:
    """Add to ``values`` each parameter of
    :data:`fnq.symbolic.DERIVED_INVERSES` that ``name``'s template reads,
    once the symbols of its polynomial are all set."""
    for s, poly in DERIVED_INVERSES.items():
        if (s in PEXIDER_FAMILIES[name].params()
                and poly.symbols() <= values.keys()):
            values[s] = _inverse(name, field_ring,
                                 _evaluate(name, field_ring, poly, values),
                                 poly.render())


def _family_rows(name: str, field_ring: Ring, params: dict[str, np.ndarray],
                 witnesses: dict[str, np.ndarray]
                 ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(f, h, k) value rows of family instances, one row per instance.

    ``params`` are (N, 1) columns of elements and ``witnesses`` (N, m) value
    rows; a single row broadcasts.  This evaluates the family's template in
    :data:`fnq.symbolic.PEXIDER_FAMILIES` with the field tables
    (:func:`_evaluate`): ``t`` is each element, the generators are the
    witness rows, and a parameter of :data:`fnq.symbolic.DERIVED_INVERSES`
    is the inverse of its polynomial.  A zero that would be inverted raises
    :class:`InvalidTask`.
    """
    family = PEXIDER_FAMILIES[name]
    values = {"t": field_ring.element_array, **params,
              **{s: witnesses[w] for s, w in _WITNESS_SYMBOLS.items()
                 if w in witnesses}}
    _derive(name, field_ring, values)
    rows = [_evaluate(name, field_ring, family.functions[n], values)
            for n in "fhk"]
    shape = np.broadcast_shapes(*(np.shape(v) for v in rows))
    return tuple(np.broadcast_to(v, shape) for v in rows)


def _triple_binding(field_ring: Ring, rows) -> Binding:
    """The (f, h, k) value rows as a binding of tables."""
    return Binding(functions={n: _table(field_ring, v)
                              for n, v in zip("fhk", rows)}, params={})


def pexider_family_binding(name: str, field_ring: Ring, params: dict[str, int],
                           witnesses: dict[str, FnTable] | None = None) -> Binding:
    """Concrete (f, h, k) tables for one family instance: its template in
    :data:`fnq.symbolic.PEXIDER_FAMILIES` evaluated by :func:`_family_rows`.

    Raises :class:`InvalidTask` for an unknown family, a value the template
    reads but is not given, a parameter that is no element of the field, a
    witness between other rings or outside its class (``_WITNESS_CLASSES``,
    one :func:`fnq.maps.class_mask` call per witness), and a zero the
    template inverts (LambdaKFamilyB's ``lam``).  A parameter the template
    does not read, such as TwoExponential's derived ``g2``, is accepted.
    """
    require_field(field_ring)
    if name not in PEXIDER_FAMILIES:
        raise InvalidTask(f"unknown family {name!r}; choose from "
                          f"{sorted(PEXIDER_FAMILIES)}")
    witnesses = witnesses or {}
    needs = {_WITNESS_SYMBOLS.get(s, s) for e in
             PEXIDER_FAMILIES[name].functions.values() for s in e.symbols()}
    missing = sorted(needs - {"t", *DERIVED_INVERSES, *params, *witnesses})
    if missing:
        raise InvalidTask(f"{name} needs values for {missing}")
    for p, v in params.items():
        require_element(field_ring, v, f"parameter {p!r} = {v}")
    for w, t in witnesses.items():
        if not (same_carrier(t.domain, field_ring)
                and same_carrier(t.codomain, field_ring)):
            raise InvalidTask(f"witness {w!r} maps between rings other than "
                              "the field")
        cls = _WITNESS_CLASSES.get(w)
        if cls is not None and not class_mask(field_ring, field_ring,
                                              t.as_array()[None, :], cls)[0]:
            raise InvalidTask(f"witness {w!r} is not {cls}")
    rows = _family_rows(
        name, field_ring,
        {n: np.array([[v]], dtype=np.int64) for n, v in params.items()},
        {n: t.as_array()[None, :] for n, t in witnesses.items()})
    return _triple_binding(field_ring, [r[0] for r in rows])


def _families(field_ring: Ring):
    """(name, parameter axes, witness or None) of each Pexider family, in
    the order a triple's family is chosen: AllLinear first, and
    LambdaKFamilyA, which AllLinear holds, is never chosen.  A family's
    instances are every parameter times every witness of its class, the
    parameters varying in the order listed and the witness fastest, the
    witnesses in the lexicographic order of :func:`fnq.maps.class_rows`."""
    every = np.arange(field_ring.size)
    nonzero = every[every != field_ring.zero]
    return (("AllLinear", {"lam1": every, "lam2": every}, None),
            ("LinearPlusLeibniz", {"lam": every, "k1": every}, "delta"),
            ("MultiplicativeSquare", {"h1": every, "lam": every}, "m"),
            ("LambdaKFamilyA", {"gamma": every, "lam": every}, None),
            ("LambdaKFamilyB", {"lam": nonzero, "gamma": every}, "m"),
            ("TwoExponential", {"b1": every, "b2": every, "g1": every}, "m"))


def _grids(field_ring: Ring):
    """(name, value names, axes) of each family's grid of instances, the
    witness axis being the value rows of its class."""
    rows = {w: class_rows(field_ring, field_ring, _WITNESS_CLASSES[w])
            for w in ("delta", "m")}
    return [(name, [*params, *([w] if w else [])],
             [*params.values(), *([rows[w]] if w else [])])
            for name, params, w in _families(field_ring)]


def _pick(axes: list[np.ndarray], flat) -> list[np.ndarray]:
    """The value of each axis at flat indices into the grid of the axes,
    the last axis fastest."""
    index = np.unravel_index(flat, [len(axis) for axis in axes])
    return [axis[i] for axis, i in zip(axes, index)]


def _instance_rows(name: str, field_ring: Ring, values: dict) -> np.ndarray:
    """(instances, 3, m) (f, h, k) rows of a family at parameter columns
    and witness rows (``values``)."""
    return np.stack(_family_rows(
        name, field_ring, {n: v[:, None] for n, v in values.items()
                           if v.ndim == 1},
        {n: v for n, v in values.items() if v.ndim == 2}), axis=1)


# the value at 1 of a witness that is no multiple of id: m(1) = m(1)^2
# with m != 0 gives 1, and delta(1) = 2*delta(1) gives 0
_WITNESS_AT_ONE = {"delta": "zero", "m": "one"}


def _candidates(field_ring: Ring, name: str, params: dict, witness,
                triples: np.ndarray) -> dict:
    """The instances of one family that may build one of ``triples``, given
    as (N, 3, m) value rows: every instance that builds one, in the
    family's grid order, as parameter columns and witness rows.

    Each template is a sum of parameter polynomials times ``t`` or the
    generator (:meth:`fnq.symbolic.SolutionFamily.coefficients`).  A
    witness w that builds a triple beyond AllLinear's reach lies in
    V = span{id, f, h, k} outside span{id}, with w(1) fixed by its class,
    so w = w(1)*id + beta*g for g in V vanishing at 1 and beta != 0; an
    instance with w in span{id} builds only AllLinear triples.  Each such
    (triple, beta) seed, or each triple for a family without a witness,
    fixes every coefficient.  The parameters are enumerated one axis at a
    time, keeping the seeds at which each coefficient whose parameters are
    all set takes its value, and the witnesses left must lie in their class.
    """
    add, mul, neg, inv = (field_ring.add, field_ring.mul, field_ring.neg,
                          field_ring.inverse)
    zero, elems = field_ring.zero, field_ring.element_array
    t = (("t", 1),)
    at_one = triples[:, :, field_ring.position[field_ring.one]]
    targets = {(n, t): at_one[:, i] for i, n in enumerate("fhk")}
    if witness is not None:
        # f, h and k less their part in span{id}, and g the first nonzero
        rest = add[triples, neg[mul[at_one[:, :, None], elems]]]
        outside = (rest != zero).any(axis=2)
        keep = np.flatnonzero(outside.any(axis=1))
        g = rest[keep, np.argmax(outside[keep], axis=1)]
        pos = np.argmax(g != zero, axis=1)
        b = mul[rest[keep, :, pos], inv[g[np.arange(len(keep)), pos]][:, None]]
        beta = elems[elems != zero]
        w1 = getattr(field_ring, _WITNESS_AT_ONE[witness])
        w_rows = add[mul[w1, elems], mul[beta[:, None, None], g]]
        w_rows = w_rows.swapaxes(0, 1).reshape(-1, len(elems))
        c_w = mul[b[:, None, :], inv[beta][None, :, None]].reshape(-1, 3)
        c_t = add[np.repeat(at_one[keep], len(beta), axis=0), neg[mul[w1, c_w]]]
        gen = (({w: s for s, w in _WITNESS_SYMBOLS.items()}[witness], 1),)
        targets = {**{(n, t): c_t[:, i] for i, n in enumerate("fhk")},
                   **{(n, gen): c_w[:, i] for i, n in enumerate("fhk")}}
    checks = PEXIDER_FAMILIES[name].coefficients()
    seed, cols = np.arange(len(targets["f", t])), {}
    for p, axis in params.items():
        cols = {s: np.repeat(v, len(axis)) for s, v in cols.items()}
        cols[p], seed = np.tile(axis, len(seed)), np.repeat(seed, len(axis))
        _derive(name, field_ring, cols)
        for key in [key for key, poly in checks.items()
                    if poly.symbols() <= cols.keys()]:
            hit = (_evaluate(name, field_ring, checks.pop(key), cols)
                   == targets[key][seed])
            seed, cols = seed[hit], {s: v[hit] for s, v in cols.items()}
    values = {p: cols[p] for p in params}
    if witness is not None:
        values[witness] = w_rows[seed]
        hit = class_mask(field_ring, field_ring, values[witness],
                         _WITNESS_CLASSES[witness])
        values = {s: v[hit] for s, v in values.items()}
    order = np.lexsort([*(values[witness].T[::-1] if witness else ()),
                        *(values[p] for p in reversed(params))])
    return {s: v[order] for s, v in values.items()}


class _Images:
    """Instances of each Pexider family over one field.

    Without ``triples`` these are every instance of each family's grid
    (:func:`_grids`); with (N, 3, m) ``triples`` only the instances that may
    build one of them (:func:`_candidates`), which keeps the first instance
    that builds each and needs no class enumeration.  ``families`` lists
    (name, values) in lookup order, ``values`` mapping each parameter to a
    column and the witness to value rows, one per instance.  ``rows``
    holds the (f, h, k) value rows of all instances in this order, shaped
    (instances, 3, m) like :attr:`fnq.solver.SolutionSet.rows`, and
    ``family`` each instance's index into ``families``.  ``ids`` are the
    ascending :func:`fnq.maps.row_ids` of the distinct rows over their 3m
    digits, and ``first`` the first instance that builds each.
    """

    def __init__(self, field_ring: Ring, triples: np.ndarray | None = None):
        self.ring = field_ring
        if triples is None:
            self.families = [
                (name, dict(zip(names, _pick(axes, np.arange(prod(map(
                    len, axes))))))) for name, names, axes in _grids(field_ring)]
        else:
            self.families = [
                (name, _candidates(field_ring, name, params, w, triples))
                for name, params, w in _families(field_ring)]
        built = [_instance_rows(name, field_ring, values)
                 for name, values in self.families]
        sizes = [len(b) for b in built]
        self.rows = np.concatenate(built)
        self.family = np.repeat(np.arange(len(sizes)), sizes)
        self._start = np.cumsum([0, *sizes])
        self.ids, self.first = np.unique(
            row_ids(self.rows.reshape(len(self.rows), 3 * field_ring.size),
                    field_ring.size), return_index=True)

    def find(self, rows: np.ndarray) -> np.ndarray:
        """The first instance that builds each (f, h, k) row, given as
        (N, 3m) or (N, 3, m) values, or -1 for a row in no image."""
        keys = row_ids(rows.reshape(len(rows), -1), self.ring.size)
        if not len(self.ids):
            return np.full(len(rows), -1)
        at = np.minimum(np.searchsorted(self.ids, keys), len(self.ids) - 1)
        return np.where(self.ids[at] == keys, self.first[at], -1)

    def classify(self, instance: int) -> PexiderClassification:
        """The family, parameters and witnesses of one instance.  The rank
        of {id, h, k} is 1 for AllLinear and 2 for every other family: a
        solution of rank 1 is an AllLinear instance, and every family
        before the rank-3 NonDegenerate spans at most {id, one generator}.
        """
        j = self.family[instance]
        name, values = self.families[j]
        at = instance - self._start[j]
        tag = FamilyTag(name, {n: int(v[at]) for n, v in values.items()
                               if v.ndim == 1},
                        {n: _table(self.ring, v[at]) for n, v in values.items()
                         if v.ndim == 2})
        if name == "TwoExponential":
            # the coefficient of m in k, which the template derives
            neg, mul = self.ring.neg, self.ring.mul
            tag.params["g2"] = int(neg[mul[tag.params["b1"],
                                           tag.params["b2"]]])
        return PexiderClassification(tag, 1 if name == "AllLinear" else 2,
                                     _classification_details(self.ring))


def pexider_closure_samples(field_ring: Ring):
    """Every instance of each Pexider family, as (family name, binding)
    pairs in the order of :class:`_Images`: the families in their lookup
    order, within a family the parameters varying in the order listed and
    the witness fastest.  :func:`verify_pexider` checks the same rows in one
    grid evaluation.  The pairs are built lazily, ``_SAMPLE_CHUNK``
    instances at a time, so memory stays bounded on any field whose
    witness classes :func:`fnq.maps.class_rows` enumerates.
    """
    require_field(field_ring)
    for name, names, axes in _grids(field_ring):
        total = prod(map(len, axes))
        for flat in np.split(np.arange(total),
                             range(_SAMPLE_CHUNK, total, _SAMPLE_CHUNK)):
            for triple in _instance_rows(name, field_ring,
                                         dict(zip(names, _pick(axes, flat)))):
                yield name, _triple_binding(field_ring, triple)


def verify_pexider(field_ring: Ring,
                   budget: int = DEFAULT_BUDGET) -> TheoremReport:
    """Solve the Pexider equation and compare the solutions with the family
    images (:class:`_Images`) both ways.

    Forward: each solution is classified by lookup, and one in no image is a
    counterexample.  Backward: every instance of every family is checked
    against the equation in one grid evaluation, and a failing one lists its
    violations.  ``predicted_count`` is the number of distinct image rows.
    """
    require_field(field_ring)
    ast = pexider_equation()
    task = SolveTask(ast=ast, ring=field_ring,
                     classes={"f": ARBITRARY, "h": ARBITRARY, "k": ARBITRARY},
                     budget=budget)
    sols = solve(task)
    images = _Images(field_ring)

    # solve has already checked every triple at every pair; the unknowns
    # are in free-function order, f, h and k
    instance = images.find(sols.rows)
    counterexamples: list = [
        {"direction": "forward", "reason": "in no family image",
         **dict(zip("fhk", sols.rows[row].tolist()))}
        for row in np.flatnonzero(instance < 0)]
    unclassifiable = len(counterexamples)
    counts = np.bincount(images.family[instance[instance >= 0]],
                         minlength=len(images.families))
    histogram = {name: int(c) for (name, _), c
                 in zip(images.families, counts) if c}

    holds = grid_masks([ast], None, field_ring, field_ring,
                       dict(zip("fhk", images.rows.swapaxes(0, 1))), {})[0]
    for row in np.flatnonzero(~holds):
        counterexamples.append({
            "direction": "backward",
            "family": images.families[images.family[row]][0],
            "f": images.rows[row, 0].tolist(),
            "violations": residual(ast, _triple_binding(
                field_ring, images.rows[row]), field_ring)[:5]})
    closure_failures = int((~holds).sum())
    return TheoremReport(
        theorem="pexider", ring=_ring_doc(field_ring), params={},
        solutions_found=len(sols.rows), predicted_count=len(images.ids),
        forward_ok=unclassifiable == 0,
        backward_ok=closure_failures == 0,
        counterexamples=counterexamples,
        details={"families": dict(sorted(histogram.items())),
                 "unclassifiable": unclassifiable,
                 "closure_samples": len(images.rows),
                 "closure_failures": closure_failures,
                 "enumerated_count": sols.enumerated_count,
                 "pruned_by_pivot": sols.pruned_by_pivot})


# ----------------------------------------------------------- alien (Eq. 8)

def verify_alien(ring: Ring, lam: int, mu: int,
                 budget: int = DEFAULT_BUDGET) -> TheoremReport:
    """Compare the weighted-combination solution set with its prediction.

    Predicted: all multiplicative maps when lam = 0, all Leibniz maps when
    mu = 0, and otherwise exactly the zero map and ((mu-lam)/mu) * id.
    """
    lam, mu = operator.index(lam), operator.index(mu)
    if lam == ring.zero and mu == ring.zero:
        raise BothZero("lam and mu must not vanish simultaneously")
    require_field(ring)
    ast = alien_combination_equation()
    task = SolveTask(ast=ast, ring=ring, classes={"f": ARBITRARY},
                     params={"lam": lam, "mu": mu}, budget=budget)
    sols = solve(task)
    found = set(map(tuple, sols.rows[:, 0].tolist()))

    zero_values = zero_map(ring).values
    if lam == ring.zero:
        predicted = set(map(tuple, class_rows(ring, ring, MULTIPLICATIVE,
                                              budget).tolist()))
        case = "multiplicative"
        tag_of = lambda vals: FamilyTag("AlienA")
    elif mu == ring.zero:
        predicted = set(map(tuple, class_rows(ring, ring, LEIBNIZ,
                                              budget).tolist()))
        case = "leibniz"
        tag_of = lambda vals: FamilyTag("AlienB")
    else:
        c = int(ring.mul[ring.sub(mu, lam), int(ring.inverse[mu])])
        elems = ring.element_array
        scaled = tuple(int(v) for v in ring.mul[c, elems])
        predicted = {zero_values, scaled}
        case = "scaled-identity"
        tag_of = lambda vals: (FamilyTag("AlienZero") if vals == zero_values
                               else FamilyTag("AlienScaled",
                                              {"lam": lam, "mu": mu,
                                               "scale": c}))

    unpredicted = sorted(found - predicted)
    missing = sorted(predicted - found)
    counterexamples = []
    for vals in unpredicted:
        counterexamples.append({"direction": "forward", "f": list(vals)})
    for vals in missing:
        bind = Binding(functions={"f": FnTable(ring, ring, vals)},
                       params={"lam": lam, "mu": mu})
        counterexamples.append({"direction": "backward", "f": list(vals),
                                "violations": residual(ast, bind, ring)[:5]})
    return TheoremReport(
        theorem="alien", ring=_ring_doc(ring),
        params={"lam": lam, "mu": mu},
        solutions_found=len(found), predicted_count=len(predicted),
        forward_ok=not unpredicted, backward_ok=not missing,
        counterexamples=counterexamples,
        details={"case": case,
                 "solutions": [list(v) for v in sorted(found)],
                 "family_tags": [tag_of(v).to_json()
                                 for v in sorted(found & predicted)]})


# ------------------------------------------------- thm5 symbolic interface

def verify_thm5_symbolic() -> TheoremReport:
    """Coefficient comparison for the rank-3 family of the Pexider equation."""
    family = thm5_family()
    ast = pexider_equation()
    constraints = derive_constraints(family, ast)
    rendered = sorted(c.render() for c in constraints)
    expected = ["g3 + b2*b3"]
    ok_constraints = rendered == expected

    good = {"b2": 1, "b3": 1, "g1": 1, "g2": 0, "g3": -1}
    bad = {"b2": 1, "b3": 1, "g1": 1, "g2": 0, "g3": 0}
    flips = (check_identity(family, ast, good)
             and not check_identity(family, ast, bad))

    return TheoremReport(
        theorem="thm5-symbolic", ring={"spec": None, "size": None,
                                       "hash": None},
        params={},
        solutions_found=len(rendered), predicted_count=1,
        forward_ok=ok_constraints, backward_ok=flips,
        counterexamples=[] if ok_constraints else [{"constraints": rendered}],
        details={"constraints": rendered,
                 "side_conditions": list(family.side_conditions)})
