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
from dataclasses import dataclass, field
from itertools import islice, product as iproduct
from math import prod

import numpy as np

from .algebra import Ring
from .eqdsl import Binding, EquationAst, parse_equation
from .errors import (BothZero, EpsilonZero, NotAField, NotCentral,
                     ResidualNonzero, Unclassifiable)
from .maps import (ARBITRARY, FnTable, LEIBNIZ, MULTIPLICATIVE,
                   enumerate_maps, filter_tables, id_digits, identity_map,
                   in_class, leibniz_equation, lin_rank, linear_combination,
                   multiplicative_equation, tables_from_ids, zero_map)
from .solver import SolveTask, batch_satisfies, residual, solve

_BACKWARD_CAP = 10 ** 6
_WITNESS_LIMIT = 20
# scans a check may run without an explicit override; large carriers fail
# loudly instead of starting day-long enumerations
DEFAULT_CHECK_BUDGET = 2 * 10 ** 9


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
        return {
            "theorem": self.theorem,
            "ring": self.ring,
            "params": self.params,
            "solutions_found": self.solutions_found,
            "predicted_count": self.predicted_count,
            "forward_ok": self.forward_ok,
            "backward_ok": self.backward_ok,
            "counterexamples": self.counterexamples,
            "details": self.details,
        }

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


@dataclass
class FamilyTag:
    """Which parametric family a solution belongs to, with witnesses.

    Tag names: SofyShift, MPAnnihilated, AllLinear, LinearPlusLeibniz,
    MultiplicativeSquare, LambdaKFamilyA, LambdaKFamilyB, TwoExponential,
    NonDegenerate, AlienA, AlienB, AlienZero, AlienScaled.

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
    """The map x -> eps*h(x) + x on h's domain."""
    ring = h.codomain
    elems = np.asarray(h.domain.domain_elements, dtype=np.int64)
    vals = ring.add[ring.mul[eps, h.as_array()], elems]
    return FnTable(h.domain, ring, tuple(int(v) for v in vals))


def verify_sofy(ring: Ring, eps: int, directions: str = "both",
                budget: int = DEFAULT_CHECK_BUDGET) -> TheoremReport:
    """Check the shift characterization of the homo-derivation equation.

    Forward: every brute-force solution h maps to a multiplicative function
    under h -> eps*h + id.  Backward: for every multiplicative m, every
    pointwise solution h of eps*h = m - id satisfies the equation.  The
    non-solutions among these preimages are counted exactly; the first few
    are enumerated as counterexamples.  When eps is a unit the two
    directions form a bijection and the counts are compared.
    """
    if eps == ring.zero:
        raise EpsilonZero("the shift constant must be nonzero")
    if eps not in set(ring.center):
        raise NotCentral(f"element {eps} is not central")
    ast = homo_derivation_equation()
    m = len(ring.domain_elements)
    task = SolveTask(ast=ast, ring=ring, classes={"h": ARBITRARY},
                     params={"e": eps}, budget=budget)
    sols = solve(task)

    counterexamples: list = []
    witnesses = []
    shifted_to_multiplicative = 0
    for binding in sols.solutions:
        h = binding.functions["h"]
        shifted = multiplicative_shift(h, eps)
        if in_class(shifted, MULTIPLICATIVE):
            shifted_to_multiplicative += 1
            if len(witnesses) < _WITNESS_LIMIT:
                witnesses.append(
                    FamilyTag("SofyShift", {"eps": eps},
                              {"m": shifted}).to_json() | {"h": list(h.values)})
        else:
            counterexamples.append({"direction": "forward",
                                    "h": list(h.values),
                                    "shift": list(shifted.values)})
    forward_ok = not counterexamples

    eps_is_unit = eps in set(ring.units)
    details: dict = {
        "eps_is_unit": eps_is_unit,
        "eps_is_regular": eps in set(ring.regular),
        "enumerated_count": sols.enumerated_count,
        "witness_sample": witnesses,
    }

    predicted_count = None
    backward_ok: bool | None = None
    if directions == "both":
        mult_maps = list(enumerate_maps(ring, ring, MULTIPLICATIVE,
                                        budget=max(budget // (m * m), 1)))
        predicted_count = len(mult_maps)
        elems = np.asarray(ring.domain_elements, dtype=np.int64)
        preimage = [[w for w in range(ring.size) if int(ring.mul[eps, w]) == t]
                    for t in range(ring.size)]
        options_of = [[preimage[ring.sub(v, int(e))]
                       for v, e in zip(mt.values, elems)] for mt in mult_maps]
        sizes = [prod(len(opt) for opt in options) for options in options_of]
        # The preimage sets P(m) = {h : eps*h = m - id} are disjoint, and a
        # solution lies in one exactly when its shift is multiplicative, so
        # the non-solutions among them are counted without enumerating any.
        backward_violations = sum(sizes) - shifted_to_multiplicative
        backward_ok = backward_violations == 0
        # the sample of counterexamples enumerates the sets in order, skipping
        # those above the cap, until it is full
        for mt, options, count in zip(mult_maps, options_of, sizes):
            if backward_ok or len(counterexamples) >= _WITNESS_LIMIT:
                break
            if count == 0 or count > _BACKWARD_CAP:
                continue
            candidates = np.asarray(list(iproduct(*options)), dtype=np.int64)
            mask = batch_satisfies(ast, ring, {}, {"h": candidates},
                                   {"e": eps})
            room = _WITNESS_LIMIT - len(counterexamples)
            for bad in np.nonzero(~mask)[0][:room]:
                h_vals = [int(v) for v in candidates[bad]]
                bind = Binding(functions={"h": FnTable(ring, ring, tuple(h_vals))},
                               params={"e": eps})
                counterexamples.append({
                    "direction": "backward",
                    "m": list(mt.values),
                    "h": h_vals,
                    "violations": residual(ast, bind, ring)[:5],
                })
        details["backward_enumeration_capped"] = any(
            count > _BACKWARD_CAP for count in sizes)
        details["backward_violation_count"] = backward_violations
        if eps_is_unit:
            shifts = {multiplicative_shift(b.functions["h"], eps).values
                      for b in sols.solutions}
            details["bijection"] = (len(shifts) == len(sols.solutions)
                                    == predicted_count)

    return TheoremReport(theorem="thm4", ring=_ring_doc(ring),
                         params={"eps": eps},
                         solutions_found=len(sols.solutions),
                         predicted_count=predicted_count,
                         forward_ok=forward_ok, backward_ok=backward_ok,
                         counterexamples=counterexamples, details=details)


# --------------------------------------------------- prop1 (annihilators)

def annihilator_witness(f: FnTable, ring: Ring | None = None) -> int | None:
    """Smallest-index nonzero element annihilating every value two-sidedly."""
    ring = ring or f.codomain
    image = sorted(set(f.values))
    for alpha in range(ring.size):
        if alpha == ring.zero:
            continue
        if all(int(ring.mul[alpha, v]) == ring.zero
               and int(ring.mul[v, alpha]) == ring.zero for v in image):
            return alpha
    return None


def _mp_solutions(ring: Ring, budget: int) -> np.ndarray:
    """Ascending candidate ids of the solutions of the system
    {multiplicative, Leibniz} over the domain."""
    m = len(ring.domain_elements)
    return filter_tables(ring, ring,
                         [multiplicative_equation(), leibniz_equation()],
                         budget=max(budget // (m * m), 1))


def verify_mp(ring: Ring, budget: int = DEFAULT_CHECK_BUDGET) -> TheoremReport:
    """Check that every solution of the system admits an annihilator witness.

    On carriers without zero divisors the solution set must be exactly the
    zero map.  The converse direction (a witness forces a solution) is not
    part of the claim being checked; candidate maps whose image is
    annihilated but which fail the system are counted informationally.
    """
    sol_ids = _mp_solutions(ring, budget)
    sols = tables_from_ids(sol_ids, ring, ring)
    witnesses = {s.values: annihilator_witness(s) for s in sols}
    counterexamples = [{"direction": "forward", "f": list(v)}
                       for v, w in witnesses.items() if w is None]
    forward_ok = not counterexamples
    details: dict = {
        "solutions": [list(v) for v in sorted(witnesses)],
        "witnesses": {str(list(v)): w for v, w in sorted(witnesses.items())},
        "family_tags": [FamilyTag("MPAnnihilated", {"alpha": w}).to_json()
                        for _, w in sorted(witnesses.items())
                        if w is not None],
        "no_zero_divisors": not ring.has_zero_divisors,
        "enumerated_count": ring.size ** len(ring.domain_elements),
    }
    predicted_count = None
    if not ring.has_zero_divisors:
        predicted_count = 1
        only_zero = (len(sols) == 1 and sols[0].is_zero())
        details["solution_set_is_zero"] = only_zero
        forward_ok = forward_ok and only_zero

    # informational probe of the converse: annihilated image vs the system.
    # Each alpha probes every value vector inside its annihilator, in
    # lexicographic order, skipping vectors an earlier alpha already probed.
    # Every probed vector is a candidate of the system, so it satisfies the
    # system exactly when its id is among the solutions' ids.
    probed: list[np.ndarray] = []  # membership masks of probed annihilators
    backward_bad = 0
    backward_sample: list = []
    m = len(ring.domain_elements)
    weights = ring.size ** np.arange(m - 1, -1, -1, dtype=np.int64)
    capped = False
    for alpha in range(ring.size):
        if alpha == ring.zero:
            continue
        member = ((ring.mul[alpha, :] == ring.zero)
                  & (ring.mul[:, alpha] == ring.zero))
        ann = np.flatnonzero(member)
        count = len(ann) ** m
        if count > _BACKWARD_CAP:
            capped = True
            continue
        batch = ann[id_digits(np.arange(count), m, len(ann))]
        for mask in probed:
            batch = batch[~mask[batch].all(axis=1)]
        probed.append(member)
        if not len(batch):
            continue
        ok = np.isin(batch @ weights, sol_ids)
        bad = batch[~ok]
        backward_bad += len(bad)
        backward_sample += bad[:5 - len(backward_sample)].tolist()
    details["backward_informational"] = True
    details["backward_counterexample_count"] = backward_bad
    details["backward_sample"] = backward_sample
    details["backward_enumeration_capped"] = capped

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


def _require_field(scalars: Ring) -> None:
    if not scalars.is_field:
        raise NotAField(
            f"classification needs field scalars, got size {scalars.size}")


def _table(ring: Ring, vals: np.ndarray) -> FnTable:
    return FnTable(ring, ring, tuple(int(v) for v in vals))


# the class each family witness must lie in; rebuilding the triple from
# the family's parameters does not imply it
_WITNESS_CLASSES = {"delta": LEIBNIZ, "m": MULTIPLICATIVE}


def classify_pexider(f: FnTable, h: FnTable, k: FnTable) -> PexiderClassification:
    """Assign a solution triple of the Pexider equation to its family.

    Dispatches on the rank of {id, h, k} over the scalar field.  Each branch
    reads the family parameters and generator witnesses off the value
    vectors; the instance :func:`pexider_family_binding` builds from them
    must reproduce the input triple exactly, and each witness must lie in
    its class, so nothing is matched heuristically.  Ties between families
    resolve to the lowest rank.
    """
    _require_field(f.codomain)
    binding = Binding(functions={"f": f, "h": h, "k": k}, params={})
    bad = residual(pexider_equation(), binding, f.domain)
    if bad:
        raise ResidualNonzero("the triple does not solve the equation", bad)
    return _classify_solution(f, h, k)


def _classify_solution(f: FnTable, h: FnTable,
                       k: FnTable) -> PexiderClassification:
    """:func:`classify_pexider` for a triple known to solve the equation."""
    ring = f.domain
    scalars = f.codomain
    ident = identity_map(ring)
    elems = np.asarray(ring.domain_elements, dtype=np.int64)
    one_pos = int(ring.position[ring.one])
    add, mul, neg, inv = scalars.add, scalars.mul, scalars.neg, scalars.inverse
    details: dict = {"characteristic": scalars.char}
    if scalars.char == 2:
        details["completeness_caveat"] = (
            "characteristic 2: family fit is exact but the family list is "
            "only known complete away from characteristic 2")

    r = lin_rank([ident, h, k], scalars)
    hv, kv = h.as_array(), k.as_array()
    h1, k1 = int(hv[one_pos]), int(kv[one_pos])

    def fit(name, params, witnesses, reason):
        built = pexider_family_binding(name, ring, params, witnesses).functions
        if (any(built[n].values != t.values for n, t in zip("fhk", (f, h, k)))
                or not all(in_class(w, _WITNESS_CLASSES[n])
                           for n, w in witnesses.items())):
            raise Unclassifiable(reason)
        return PexiderClassification(FamilyTag(name, params, witnesses), r,
                                     details)

    if r == 1:
        return fit("AllLinear", {"lam1": h1, "lam2": k1}, {},
                   "rank-1 triple is not a pair of scalings")
    if r == 3:
        # The only rank-3 family, NonDegenerate, needs a nonzero logarithmic
        # map l.  Over GF(q) such a map is a homomorphism from the unit
        # group, of order q-1, into (GF(q), +), where every nonzero element
        # has order p, the characteristic; p does not divide q-1, so l = 0
        # and no extraction can succeed.
        raise Unclassifiable("rank-3 triple admits no consistent extraction")

    if lin_rank([ident, h], scalars) == 1:
        delta = _table(ring, add[kv, neg[mul[k1, elems]]])
        return fit("LinearPlusLeibniz", {"lam": h1, "k1": k1},
                   {"delta": delta}, "dependent {id,h} but no Leibniz remainder")
    if lin_rank([ident, k], scalars) == 1:
        if h1 == scalars.zero:
            raise Unclassifiable("vanishing h(1) with nonlinear h")
        return fit("MultiplicativeSquare", {"h1": h1, "lam": k1},
                   {"m": _table(ring, mul[int(inv[h1]), hv])},
                   "dependent {id,k} but no multiplicative core")
    if lin_rank([h, k], scalars) == 1:
        # h = lam * k with both outside span{id}
        pivot_idx = next(i for i in range(len(kv)) if kv[i] != scalars.zero)
        lam = int(mul[int(hv[pivot_idx]), int(inv[kv[pivot_idx]])])
        u = int(inv[mul[lam, lam]])
        gamma = int(add[k1, u])
        if gamma == scalars.zero:
            raise Unclassifiable("degenerate mixed family (gamma = 0)")
        mwit = _table(ring, mul[int(inv[gamma]), add[kv, mul[u, elems]]])
        return fit("LambdaKFamilyB", {"lam": lam, "gamma": gamma}, {"m": mwit},
                   "dependent {h,k} but no multiplicative core")
    # no dependent pair at rank 2: h = b1*id + b2*m and k = g1*id + g2*m with
    # g2 = -b1*b2, so k = (g1 + b1^2)*id - b1*h, and m(1) = 1 for the
    # multiplicative m != 0 gives b2 = h(1) - b1
    reason = "rank-2 triple admits no two-generator extraction"
    coeffs = linear_combination(k, [ident, h], scalars)
    if coeffs is None:
        raise Unclassifiable(reason)
    b1 = int(neg[coeffs[1]])
    g1 = int(add[coeffs[0], neg[mul[b1, b1]]])
    b2 = int(add[h1, neg[b1]])
    if b2 == scalars.zero:
        raise Unclassifiable(reason)
    mwit = _table(ring, mul[int(inv[b2]), add[hv, neg[mul[b1, elems]]]])
    return fit("TwoExponential",
               {"b1": b1, "b2": b2, "g1": g1, "g2": int(add[k1, neg[g1]])},
               {"m": mwit}, reason)


# --------------------------------------------- pexider family instantiation

def pexider_family_binding(name: str, field_ring: Ring, params: dict[str, int],
                           witnesses: dict[str, FnTable] | None = None) -> Binding:
    """Concrete (f, h, k) tables for one family instance."""
    witnesses = witnesses or {}
    _require_field(field_ring)
    add, mul, neg, inv = (field_ring.add, field_ring.mul, field_ring.neg,
                          field_ring.inverse)
    elems = np.asarray(field_ring.domain_elements, dtype=np.int64)

    def scaled(c):
        return mul[c, elems]

    if name == "AllLinear":
        lam1, lam2 = params["lam1"], params["lam2"]
        hv = scaled(lam1)
        kv = scaled(lam2)
        fv = scaled(int(add[mul[lam1, lam1], add[lam2, lam2]]))
    elif name == "LinearPlusLeibniz":
        lam, k1 = params["lam"], params["k1"]
        delta = witnesses["delta"].as_array()
        hv = scaled(lam)
        kv = add[scaled(k1), delta]
        fv = add[scaled(int(add[mul[lam, lam], add[k1, k1]])), delta]
    elif name == "MultiplicativeSquare":
        h1, lam = params["h1"], params["lam"]
        mv = witnesses["m"].as_array()
        hv = mul[h1, mv]
        kv = scaled(lam)
        fv = add[mul[int(mul[h1, h1]), mv], scaled(int(add[lam, lam]))]
    elif name == "LambdaKFamilyA":
        gamma, lam = params["gamma"], params["lam"]
        kv = scaled(gamma)
        hv = scaled(int(mul[lam, gamma]))
        coef = int(add[mul[int(mul[lam, lam]), int(mul[gamma, gamma])],
                       add[gamma, gamma]])
        fv = scaled(coef)
    elif name == "LambdaKFamilyB":
        gamma, lam = params["gamma"], params["lam"]
        if lam == field_ring.zero:
            raise ValueError("this family needs a nonzero ratio")
        mv = witnesses["m"].as_array()
        u = int(inv[mul[lam, lam]])
        kv = add[mul[int(neg[u]), elems], mul[gamma, mv]]
        hv = mul[lam, kv]
        coef = int(mul[int(mul[gamma, gamma]), int(mul[lam, lam])])
        fv = add[mul[int(neg[u]), elems], mul[coef, mv]]
    elif name == "TwoExponential":
        b1, b2, g1 = params["b1"], params["b2"], params["g1"]
        g2 = int(neg[mul[b1, b2]])
        mv = witnesses["m"].as_array()
        hv = add[scaled(b1), mul[b2, mv]]
        kv = add[scaled(g1), mul[g2, mv]]
        fv = add[scaled(int(add[mul[b1, b1], add[g1, g1]])),
                 mul[int(mul[b2, b2]), mv]]
    elif name == "NonDegenerate":
        b2, b3 = params["b2"], params["b3"]
        g1, g2 = params["g1"], params["g2"]
        g3 = int(neg[mul[b2, b3]])
        mv = witnesses["m"].as_array()
        lv = witnesses["l"].as_array()
        lid = mul[lv, elems]
        hv = add[scaled(b2), mul[b3, mv]]
        kv = add[add[mul[g1, lid], scaled(g2)], mul[g3, mv]]
        fv = add[add[mul[g1, lid],
                     scaled(int(add[mul[b2, b2], add[g2, g2]]))],
                 mul[int(mul[b3, b3]), mv]]
    else:
        raise ValueError(f"unknown family {name!r}")
    return Binding(functions={"f": _table(field_ring, fv),
                              "h": _table(field_ring, hv),
                              "k": _table(field_ring, kv)},
                   params={})


def pexider_closure_samples(field_ring: Ring, per_family_cap: int = 200):
    """Deterministic family instantiations, capped per family.

    Yields (family name, binding) pairs covering every scalar parameter and
    every enumerated Leibniz / multiplicative witness; within a family the
    parameters vary in the order listed, the witness fastest.
    """
    _require_field(field_ring)
    n = field_ring.size
    m = len(field_ring.domain_elements)
    leibniz = [{"delta": t} for t in enumerate_maps(field_ring, field_ring,
                                                    LEIBNIZ, budget=n ** m)]
    multiplicative = [{"m": t} for t in enumerate_maps(
        field_ring, field_ring, MULTIPLICATIVE, budget=n ** m)]
    every = range(n)
    nonzero = [c for c in every if c != field_ring.zero]
    families = (
        ("AllLinear", {"lam1": every, "lam2": every}, [{}]),
        ("LinearPlusLeibniz", {"lam": every, "k1": every}, leibniz),
        ("MultiplicativeSquare", {"h1": every, "lam": every}, multiplicative),
        ("LambdaKFamilyA", {"gamma": every, "lam": every}, [{}]),
        ("LambdaKFamilyB", {"lam": nonzero, "gamma": every}, multiplicative),
        ("TwoExponential", {"b1": every, "b2": every, "g1": every},
         multiplicative))
    for name, params, witnesses in families:
        for *values, wit in islice(iproduct(*params.values(), witnesses),
                                   per_family_cap):
            yield name, pexider_family_binding(
                name, field_ring, dict(zip(params, values)), wit)


def verify_pexider(field_ring: Ring, per_family_cap: int = 200,
                   budget: int = DEFAULT_CHECK_BUDGET) -> TheoremReport:
    """Solve the Pexider equation, classify every solution, check closure."""
    _require_field(field_ring)
    ast = pexider_equation()
    task = SolveTask(ast=ast, ring=field_ring,
                     classes={"f": ARBITRARY, "h": ARBITRARY, "k": ARBITRARY},
                     budget=budget)
    sols = solve(task)

    histogram: dict[str, int] = {}
    unclassifiable = 0
    counterexamples: list = []
    for binding in sols.solutions:
        try:
            # solve has already checked every triple at every pair
            cls = _classify_solution(binding.functions["f"],
                                     binding.functions["h"],
                                     binding.functions["k"])
            histogram[cls.tag.name] = histogram.get(cls.tag.name, 0) + 1
        except Unclassifiable as exc:
            unclassifiable += 1
            counterexamples.append({
                "direction": "forward",
                "reason": str(exc),
                "f": list(binding.functions["f"].values),
                "h": list(binding.functions["h"].values),
                "k": list(binding.functions["k"].values)})
    closure_failures = 0
    samples = 0
    for name, binding in pexider_closure_samples(field_ring, per_family_cap):
        samples += 1
        bad = residual(ast, binding, field_ring)
        if bad:
            closure_failures += 1
            counterexamples.append({
                "direction": "backward", "family": name,
                "f": list(binding.functions["f"].values),
                "violations": bad[:5]})
    return TheoremReport(
        theorem="pexider", ring=_ring_doc(field_ring), params={},
        solutions_found=len(sols.solutions), predicted_count=None,
        forward_ok=unclassifiable == 0,
        backward_ok=closure_failures == 0,
        counterexamples=counterexamples,
        details={"families": dict(sorted(histogram.items())),
                 "unclassifiable": unclassifiable,
                 "closure_samples": samples,
                 "closure_failures": closure_failures,
                 "enumerated_count": sols.enumerated_count,
                 "pruned_by_pivot": sols.pruned_by_pivot})


# ----------------------------------------------------------- alien (Eq. 8)

def verify_alien(ring: Ring, lam: int, mu: int,
                 budget: int = DEFAULT_CHECK_BUDGET) -> TheoremReport:
    """Compare the weighted-combination solution set with its prediction.

    Predicted: all multiplicative maps when lam = 0, all Leibniz maps when
    mu = 0, and otherwise exactly the zero map and ((mu-lam)/mu) * id.
    """
    if lam == ring.zero and mu == ring.zero:
        raise BothZero("lam and mu must not vanish simultaneously")
    _require_field(ring)
    ast = alien_combination_equation()
    m = len(ring.domain_elements)
    task = SolveTask(ast=ast, ring=ring, classes={"f": ARBITRARY},
                     params={"lam": lam, "mu": mu}, budget=budget)
    sols = solve(task)
    found = {b.functions["f"].values for b in sols.solutions}

    zero_values = zero_map(ring).values
    if lam == ring.zero:
        predicted = {t.values for t in enumerate_maps(
            ring, ring, MULTIPLICATIVE, budget=max(budget // (m * m), 1))}
        case = "multiplicative"
        tag_of = lambda vals: FamilyTag("AlienA")
    elif mu == ring.zero:
        predicted = {t.values for t in enumerate_maps(
            ring, ring, LEIBNIZ, budget=max(budget // (m * m), 1))}
        case = "leibniz"
        tag_of = lambda vals: FamilyTag("AlienB")
    else:
        c = int(ring.mul[ring.sub(mu, lam), int(ring.inverse[mu])])
        elems = np.asarray(ring.domain_elements, dtype=np.int64)
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
    from . import symbolic

    family = symbolic.thm5_family()
    ast = pexider_equation()
    constraints = symbolic.derive_constraints(family, ast)
    rendered = sorted(c.render() for c in constraints)
    expected = ["g3 + b2*b3"]
    ok_constraints = rendered == expected

    good = {"b2": 1, "b3": 1, "g1": 1, "g2": 0, "g3": -1}
    bad = {"b2": 1, "b3": 1, "g1": 1, "g2": 0, "g3": 0}
    flips = (symbolic.check_identity(family, ast, good)
             and not symbolic.check_identity(family, ast, bad))

    return TheoremReport(
        theorem="thm5-symbolic", ring={"spec": None, "size": None,
                                       "hash": None},
        params={},
        solutions_found=len(rendered), predicted_count=1,
        forward_ok=ok_constraints, backward_ok=flips,
        counterexamples=[] if ok_constraints else [{"constraints": rendered}],
        details={"constraints": rendered,
                 "side_conditions": list(family.side_conditions)})
