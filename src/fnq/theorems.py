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
# rows of one block of the converse sample walk
_SAMPLE_CHUNK = 1 << 12
# instances of each Pexider family the closure check takes
_CLOSURE_CAP = 200


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
    the classifier, which tries AllLinear first, never returns it; it is kept
    because its instances count among the closure samples.

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


@dataclass
class _Fit:
    """One row's family, parameters and witness value rows."""

    name: str
    params: dict[str, int]
    witnesses: dict[str, np.ndarray]
    rank: int


def _classification_details(scalars: Ring) -> dict:
    details: dict = {"characteristic": scalars.char}
    if scalars.char == 2:
        details["completeness_caveat"] = (
            "characteristic 2: family fit is exact but the family list is "
            "only known complete away from characteristic 2")
    return details


def classify_pexider(f: FnTable, h: FnTable, k: FnTable) -> PexiderClassification:
    """Assign a solution triple of the Pexider equation to its family.

    Dispatches on the rank of {id, h, k} over the scalar field.  Each branch
    reads the family parameters and generator witnesses off the value
    vectors; the family's template instantiated with them must reproduce
    the input triple exactly, and each witness must lie in its class, so
    nothing is matched heuristically.  Ties between families resolve to the
    lowest rank.  After checking that the triple solves the equation, this
    is the row-wise classifier :func:`verify_pexider` runs on all solutions
    at once, applied to one row.
    """
    require_field(f.codomain)
    binding = Binding(functions={"f": f, "h": h, "k": k}, params={})
    bad = residual(pexider_equation(), binding, f.domain)
    if bad:
        raise ResidualNonzero("the triple does not solve the equation", bad)
    ring = f.domain
    (fit,) = _classify_rows(ring, *(t.as_array()[None, :] for t in (f, h, k)))
    if isinstance(fit, str):
        raise Unclassifiable(fit)
    witnesses = {n: _table(ring, v) for n, v in fit.witnesses.items()}
    return PexiderClassification(FamilyTag(fit.name, fit.params, witnesses),
                                 fit.rank, _classification_details(f.codomain))


def _classify_rows(ring: Ring, f: np.ndarray, h: np.ndarray,
                   k: np.ndarray) -> list[_Fit | str]:
    """The family fit of each solution triple (f, h, k), given as (N, m)
    value rows, or the reason the triple is unclassifiable.

    The rank of {id, h, k} and the pairwise dependences come off each row:
    h lies in span{id} exactly when h = h(1)*id; h = lam*k is read at k's
    first nonzero position; k = a*id + b*h is solved at 1 and at the first
    position where h leaves span{id}, then checked everywhere.  The branches
    are taken in order, lowest rank first.  A row is accepted only if the
    family's template rebuilds f, h and k from its parameters and witnesses and
    every witness lies in its class.
    """
    add, mul, neg, inv = ring.add, ring.mul, ring.neg, ring.inverse
    zero, one = ring.zero, ring.one
    elems = ring.element_array
    at = np.arange(len(f))
    one_pos = int(ring.position[one])

    def div(a, b):
        # a/b, reading b = 0 as 1 on the rows where no branch uses it
        return mul[a, inv[np.where(b == zero, one, b)]]

    def col(v):
        return v[:, None]

    h1, k1 = h[:, one_pos], k[:, one_pos]
    h_off = mul[col(h1), elems] != h
    h_lin = ~h_off.any(axis=1)
    k_lin = (mul[col(k1), elems] == k).all(axis=1)
    p = np.argmax(h_off, axis=1)
    b = div(add[k[at, p], neg[mul[elems[p], k1]]],
            add[h[at, p], neg[mul[h1, elems[p]]]])
    a = add[k1, neg[mul[b, h1]]]
    in_span = (add[mul[col(a), elems], mul[col(b), h]] == k).all(axis=1)
    p = np.argmax(k != zero, axis=1)
    lam = div(h[at, p], k[at, p])
    proportional = (mul[col(lam), k] == h).all(axis=1)
    rank = np.where(h_lin & k_lin, 1, np.where(h_lin | k_lin | in_span, 2, 3))

    u = div(one, mul[lam, lam])
    gamma = add[k1, u]
    # no dependent pair at rank 2: h = b1*id + b2*m and k = g1*id + g2*m with
    # g2 = -b1*b2, so k = (g1 + b1^2)*id - b1*h, and m(1) = 1 for the
    # multiplicative m != 0 gives b2 = h(1) - b1
    b1 = neg[b]
    g1 = add[a, neg[mul[b1, b1]]]
    b2 = add[h1, neg[b1]]
    no_pair = "rank-2 triple admits no two-generator extraction"
    rank2 = rank == 2
    mixed = rank2 & ~h_lin & ~k_lin
    # (family, rows, guard, params, witnesses, reason), in branch order
    branches = (
        ("AllLinear", rank == 1, None, {"lam1": h1, "lam2": k1}, {},
         "rank-1 triple is not a pair of scalings"),
        ("LinearPlusLeibniz", rank2 & h_lin, None, {"lam": h1, "k1": k1},
         {"delta": add[k, neg[mul[col(k1), elems]]]},
         "dependent {id,h} but no Leibniz remainder"),
        ("MultiplicativeSquare", rank2 & ~h_lin & k_lin,
         (h1 == zero, "vanishing h(1) with nonlinear h"),
         {"h1": h1, "lam": k1}, {"m": div(h, col(h1))},
         "dependent {id,k} but no multiplicative core"),
        # h = lam*k with both outside span{id}
        ("LambdaKFamilyB", mixed & proportional,
         (gamma == zero, "degenerate mixed family (gamma = 0)"),
         {"lam": lam, "gamma": gamma},
         {"m": div(add[k, mul[col(u), elems]], col(gamma))},
         "dependent {h,k} but no multiplicative core"),
        ("TwoExponential", mixed & ~proportional, (b2 == zero, no_pair),
         {"b1": b1, "b2": b2, "g1": g1, "g2": add[k1, neg[g1]]},
         {"m": div(add[h, neg[mul[col(b1), elems]]], col(b2))}, no_pair),
    )
    # no rank-3 row fits: the only rank-3 family, NonDegenerate, needs a
    # nonzero logarithmic witness, which no finite field has (see FamilyTag)
    reason = np.full(len(f), None, dtype=object)
    reason[rank == 3] = "rank-3 triple admits no consistent extraction"
    branch_of = np.full(len(f), -1)
    members: dict = {}  # witness class -> [(rows, witness rows, reason)]
    for i, (name, rows, guard, params, witnesses, why) in enumerate(branches):
        if guard is not None:
            reason[rows & guard[0]] = guard[1]
            rows = rows & ~guard[0]
        sel = np.flatnonzero(rows)
        built = _family_rows(name, ring,
                             {n: col(v[sel]) for n, v in params.items()},
                             {n: w[sel] for n, w in witnesses.items()})
        same = np.logical_and.reduce([(b == t[sel]).all(axis=1)
                                      for b, t in zip(built, (f, h, k))])
        reason[sel[~same]] = why
        branch_of[sel] = i
        for n, w in witnesses.items():
            members.setdefault(_WITNESS_CLASSES[n], []).append(
                (sel[same], w[sel[same]], why))
    for cls, parts in members.items():
        rows = np.concatenate([w for _, w, _ in parts])
        member = class_mask(ring, ring, rows, cls)
        start = 0
        for sel, _, why in parts:
            reason[sel[~member[start:start + len(sel)]]] = why
            start += len(sel)

    fits: list[_Fit | str] = []
    for row, (why, i) in enumerate(zip(reason.tolist(), branch_of.tolist())):
        if why is not None:
            fits.append(why)
            continue
        name, _, _, params, witnesses, _ = branches[i]
        fits.append(_Fit(name, {n: int(v[row]) for n, v in params.items()},
                         {n: w[row] for n, w in witnesses.items()},
                         int(rank[row])))
    return fits


# --------------------------------------------- pexider family instantiation

def _family_rows(name: str, field_ring: Ring, params: dict[str, np.ndarray],
                 witnesses: dict[str, np.ndarray]
                 ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(f, h, k) value rows of family instances, one row per instance.

    ``params`` are (N, 1) columns of elements and ``witnesses`` (N, m) value
    rows; a single row broadcasts.  This evaluates the family's template in
    :data:`fnq.symbolic.PEXIDER_FAMILIES` with the field tables: ``t`` is
    each element, the generators are the witness rows, a rational
    coefficient p/q is ``int_embed(p)`` over ``int_embed(q)``, and a
    parameter of :data:`fnq.symbolic.DERIVED_INVERSES` is the inverse of its
    polynomial.  A zero that would be inverted raises :class:`InvalidTask`.
    """
    family = PEXIDER_FAMILIES[name]
    add, mul, zero = field_ring.add, field_ring.mul, field_ring.zero
    values = {"t": field_ring.element_array, **params,
              **{s: witnesses[w] for s, w in _WITNESS_SYMBOLS.items()
                 if w in witnesses}}

    def inverse(v, what):
        if np.any(v == zero):
            raise InvalidTask(f"{name} needs a nonzero {what}")
        return field_ring.inverse[v]

    def evaluate(poly):
        total = zero
        for mono, c in poly.terms:
            term = field_ring.int_embed(c.numerator)
            if c.denominator != 1:
                den = field_ring.int_embed(c.denominator)
                term = mul[term, inverse(den, f"denominator {c.denominator}")]
            for s, exp in mono:
                for _ in range(exp):
                    term = mul[term, values[s]]
            total = add[total, term]
        return total

    for s, poly in DERIVED_INVERSES.items():
        if s in family.params():
            values[s] = inverse(evaluate(poly), poly.render())
    rows = [evaluate(family.functions[n]) for n in "fhk"]
    shape = np.broadcast_shapes(*(np.shape(v) for v in rows))
    return tuple(np.broadcast_to(v, shape) for v in rows)


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
    return Binding(functions={n: _table(field_ring, r[0])
                              for n, r in zip("fhk", rows)}, params={})


def _closure_rows(field_ring: Ring):
    """(family name, (f, h, k) value rows) of each family's first
    ``_CLOSURE_CAP`` instances: the parameters vary in the order listed,
    the witness fastest."""
    n = field_ring.size
    leibniz = {"delta": class_rows(field_ring, field_ring, LEIBNIZ)}
    multiplicative = {"m": class_rows(field_ring, field_ring, MULTIPLICATIVE)}
    every = np.arange(n)
    nonzero = every[every != field_ring.zero]
    families = (
        ("AllLinear", {"lam1": every, "lam2": every}, {}),
        ("LinearPlusLeibniz", {"lam": every, "k1": every}, leibniz),
        ("MultiplicativeSquare", {"h1": every, "lam": every}, multiplicative),
        ("LambdaKFamilyA", {"gamma": every, "lam": every}, {}),
        ("LambdaKFamilyB", {"lam": nonzero, "gamma": every}, multiplicative),
        ("TwoExponential", {"b1": every, "b2": every, "g1": every},
         multiplicative))
    for name, params, witnesses in families:
        axes = [*params.values(), *witnesses.values()]
        sizes = [len(axis) for axis in axes]
        index = np.unravel_index(np.arange(min(_CLOSURE_CAP, prod(sizes))),
                                 sizes)
        picked = [axis[i] for axis, i in zip(axes, index)]
        yield name, _family_rows(
            name, field_ring,
            {p: v[:, None] for p, v in zip(params, picked)},
            dict(zip(witnesses, picked[len(params):])))


def pexider_closure_samples(field_ring: Ring):
    """Deterministic family instantiations, the first ``_CLOSURE_CAP`` of
    each family.

    Yields (family name, binding) pairs covering every scalar parameter and
    every enumerated Leibniz / multiplicative witness; within a family the
    parameters vary in the order listed, the witness fastest.  Each family's
    parameter-by-witness grid is built as value rows in one call of the
    template evaluator; :func:`verify_pexider` checks the same rows in one grid
    evaluation.
    """
    require_field(field_ring)
    for name, rows in _closure_rows(field_ring):
        for triple in zip(*(r.tolist() for r in rows)):
            yield name, Binding(functions={n: _table(field_ring, v)
                                           for n, v in zip("fhk", triple)},
                                params={})


def verify_pexider(field_ring: Ring,
                   budget: int = DEFAULT_BUDGET) -> TheoremReport:
    """Solve the Pexider equation, classify every solution, and check the
    first 200 instances of each family (:func:`pexider_closure_samples`)."""
    require_field(field_ring)
    ast = pexider_equation()
    task = SolveTask(ast=ast, ring=field_ring,
                     classes={"f": ARBITRARY, "h": ARBITRARY, "k": ARBITRARY},
                     budget=budget)
    sols = solve(task)

    histogram: dict[str, int] = {}
    counterexamples: list = []
    # solve has already checked every triple at every pair; the unknowns
    # are in free-function order, f, h and k
    found = list(sols.rows.swapaxes(0, 1))
    for row, fit in enumerate(_classify_rows(field_ring, *found)):
        if isinstance(fit, str):
            counterexamples.append({"direction": "forward", "reason": fit,
                                    **{n: v[row].tolist()
                                       for n, v in zip("fhk", found)}})
        else:
            histogram[fit.name] = histogram.get(fit.name, 0) + 1
    unclassifiable = len(counterexamples)

    closure = list(_closure_rows(field_ring))
    families = [name for name, rows in closure for _ in range(len(rows[0]))]
    samples = [np.concatenate([rows[i] for _, rows in closure])
               for i in range(3)]
    holds = grid_masks([ast], None, field_ring, field_ring,
                       dict(zip("fhk", samples)), {})[0]
    for row in np.flatnonzero(~holds):
        binding = Binding(functions={n: _table(field_ring, v[row])
                                     for n, v in zip("fhk", samples)},
                          params={})
        counterexamples.append({
            "direction": "backward", "family": families[row],
            "f": samples[0][row].tolist(),
            "violations": residual(ast, binding, field_ring)[:5]})
    closure_failures = int((~holds).sum())
    return TheoremReport(
        theorem="pexider", ring=_ring_doc(field_ring), params={},
        solutions_found=len(sols.rows), predicted_count=None,
        forward_ok=unclassifiable == 0,
        backward_ok=closure_failures == 0,
        counterexamples=counterexamples,
        details={"families": dict(sorted(histogram.items())),
                 "unclassifiable": unclassifiable,
                 "closure_samples": len(families),
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
