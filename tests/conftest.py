"""Shared fixtures and independent brute-force oracles.

The oracle helpers here deliberately avoid the package's vectorized search
machinery: they loop over plain ``itertools.product`` candidates and check
identities point by point, so expected values in the tests are computed
through a second, independent route.
"""
from itertools import product as iproduct

import numpy as np
import pytest

import fnq
from fnq.eqdsl import Add, FnApp, IntLit, Mul, Neg, Param, Sub, Var
from fnq.errors import AxiomViolation, UnboundName


@pytest.fixture(scope="session")
def z2():
    return fnq.zn(2)


@pytest.fixture(scope="session")
def z4():
    return fnq.zn(4)


@pytest.fixture(scope="session")
def z6():
    return fnq.zn(6)


@pytest.fixture(scope="session")
def gf3():
    return fnq.gf(3)


@pytest.fixture(scope="session")
def gf4():
    return fnq.gf(2, 2, modulus=(1, 1, 1))


@pytest.fixture(scope="session")
def gf5():
    return fnq.gf(5)


@pytest.fixture(scope="session")
def pq22():
    return fnq.poly_quot(2, 2)


@pytest.fixture(scope="session")
def ut2_2():
    return fnq.ut2(2)


@pytest.fixture(scope="session")
def z6_sub():
    return fnq.zn(6, subring=(0, 2, 4))


@pytest.fixture(scope="session")
def z2xz2():
    return fnq.product(fnq.zn(2), fnq.zn(2))


def reference_eval(side, binding, x, y, ring):
    """Reference scalar evaluator: walk the tree at one pair, inside out.

    Integer literals are embedded as ``n*1``, parameters read their bound
    element, unknowns are called, and all arithmetic goes through the numpy
    ring tables in textual operand order.  Errors arise where the walk
    meets them.  This is the package's evaluator before it was compiled,
    kept as the oracle that ``fnq.eqdsl.compile_side`` is tested against.
    """
    if isinstance(side, Var):
        return x if side.name == "x" else y
    if isinstance(side, IntLit):
        return ring.int_embed(side.value)
    if isinstance(side, Param):
        try:
            return binding.params[side.name]
        except KeyError:
            raise UnboundName(f"parameter {side.name!r} is not bound") from None
    if isinstance(side, FnApp):
        try:
            table = binding.functions[side.name]
        except KeyError:
            raise UnboundName(f"function {side.name!r} is not bound") from None
        return table(reference_eval(side.arg, binding, x, y, ring))
    if isinstance(side, Add):
        return int(ring.add[reference_eval(side.left, binding, x, y, ring),
                            reference_eval(side.right, binding, x, y, ring)])
    if isinstance(side, Sub):
        return ring.sub(reference_eval(side.left, binding, x, y, ring),
                        reference_eval(side.right, binding, x, y, ring))
    if isinstance(side, Mul):
        return int(ring.mul[reference_eval(side.left, binding, x, y, ring),
                            reference_eval(side.right, binding, x, y, ring)])
    if isinstance(side, Neg):
        return int(ring.neg[reference_eval(side.operand, binding, x, y, ring)])
    raise TypeError(f"not an expression node: {side!r}")


def reference_residual(ast, binding, ring):
    """Every violating domain pair by the reference evaluator, row-major."""
    elems = ring.domain_elements
    return [(x, y) for x in elems for y in elems
            if reference_eval(ast.lhs, binding, x, y, ring)
            != reference_eval(ast.rhs, binding, x, y, ring)]


def brute_tables(ring):
    """All value vectors over the ring's domain, lexicographically."""
    m = len(ring.domain_elements)
    yield from iproduct(range(ring.size), repeat=m)


def table_at(ring, values, element):
    return values[ring.domain_elements.index(element)]


def brute_filter(ring, pair_check):
    """Value vectors passing a point check at every domain pair."""
    out = []
    for values in brute_tables(ring):
        if all(pair_check(ring, values, x, y)
               for x in ring.domain_elements for y in ring.domain_elements):
            out.append(values)
    return out


def is_additive_at(ring, values, x, y):
    s = int(ring.add[x, y])
    return (table_at(ring, values, s)
            == int(ring.add[table_at(ring, values, x),
                            table_at(ring, values, y)]))


def is_multiplicative_at(ring, values, x, y):
    p = int(ring.mul[x, y])
    return (table_at(ring, values, p)
            == int(ring.mul[table_at(ring, values, x),
                            table_at(ring, values, y)]))


def is_leibniz_at(ring, values, x, y):
    p = int(ring.mul[x, y])
    fx = table_at(ring, values, x)
    fy = table_at(ring, values, y)
    rhs = int(ring.add[ring.mul[fx, y], ring.mul[x, fy]])
    return table_at(ring, values, p) == rhs


def is_homo_deriv_at(ring, values, x, y, eps):
    p = int(ring.mul[x, y])
    fx = table_at(ring, values, x)
    fy = table_at(ring, values, y)
    rhs = int(ring.add[ring.add[ring.mul[fx, y], ring.mul[x, fy]],
                       ring.mul[eps, ring.mul[fx, fy]]])
    return table_at(ring, values, p) == rhs


def thm4_backward_violations(ring, eps):
    """Maps h whose shift eps*h + id is multiplicative but which do not
    solve the shifted homo-derivation equation, by brute force.

    The pair checks are those of ``is_multiplicative_at`` and
    ``is_homo_deriv_at`` on plain lists, which keeps Z6's 6**6 maps per
    shift constant under a second."""
    add, mul = ring.add.tolist(), ring.mul.tolist()
    elems = ring.domain_elements
    at = {x: i for i, x in enumerate(elems)}
    # (x, y, x*y) as positions in the value vector, with x and y themselves
    pairs = [(at[x], at[y], at[mul[x][y]], x, y) for x in elems for y in elems]
    count = 0
    for h in brute_tables(ring):
        m = [add[mul[eps][v]][x] for v, x in zip(h, elems)]
        if (all(m[p] == mul[m[i]][m[j]] for i, j, p, _, _ in pairs)
                and not all(h[p] == add[add[mul[h[i]][y]][mul[x][h[j]]]]
                                       [mul[eps][mul[h[i]][h[j]]]]
                            for i, j, p, x, y in pairs)):
            count += 1
    return count


def domain_units(ring):
    """Units of the declared domain, by a scalar scan."""
    elems = ring.domain_elements
    if ring.one not in elems:
        return []
    return [u for u in elems
            if any(int(ring.mul[u, v]) == ring.one
                   and int(ring.mul[v, u]) == ring.one for v in elems)]


def reference_generators(ring):
    """0 and the additive generators of the domain by the greedy rule, on
    Python sets: the unit first if the domain holds it, then each the
    smallest element outside the subgroup the ones before generate.  The
    subgroup with e is its cosets by 0, e, 2e, ... up to the first multiple
    of e inside it."""
    add = ring.add.tolist()
    subgroup, gens = {ring.zero}, [ring.zero]
    while len(subgroup) < len(ring.domain_elements):
        left = [e for e in ring.domain_elements if e not in subgroup]
        e = ring.one if ring.one in left else min(left)
        gens.append(e)
        multiples, c = [ring.zero], e
        while c not in subgroup:
            multiples.append(c)
            c = add[c][e]
        subgroup = {add[h][m] for h in subgroup for m in multiples}
    return sorted(gens)


def is_logarithmic(ring, values):
    units = domain_units(ring)
    if any(table_at(ring, values, e) != ring.zero
           for e in ring.domain_elements if e not in units):
        return False
    return all(table_at(ring, values, int(ring.mul[u, v]))
               == int(ring.add[table_at(ring, values, u),
                               table_at(ring, values, v)])
               for u in units for v in units)


_CLASS_PAIR_CHECKS = {
    "arbitrary": (),
    "additive": (is_additive_at,),
    "multiplicative": (is_multiplicative_at,),
    "homomorphism": (is_additive_at, is_multiplicative_at),
    "leibniz": (is_leibniz_at,),
    "derivation": (is_additive_at, is_leibniz_at),
    "homo-deriv-mp": (is_additive_at, is_multiplicative_at, is_leibniz_at),
}


def in_class(ring, values, cls):
    """Class membership by scalar point checks at every domain pair."""
    if cls.kind == "logarithmic":
        return is_logarithmic(ring, values)
    if cls.kind == "homo-deriv-sofy":
        checks = (is_additive_at,
                  lambda r, v, x, y: is_homo_deriv_at(r, v, x, y, cls.eps))
    else:
        checks = _CLASS_PAIR_CHECKS[cls.kind]
    elems = ring.domain_elements
    return all(check(ring, values, x, y)
               for check in checks for x in elems for y in elems)


def ut2_2_additive_tables(ring):
    """Every additive table of UT2(2) into itself, built from a basis.

    The additive group is (Z_2)^3 with the index bits as coordinates, so a
    table is fixed by the images of 1, 2 and 4.
    """
    out = []
    for images in iproduct(range(ring.size), repeat=3):
        values = []
        for e in range(ring.size):
            acc = ring.zero
            for bit, image in zip((1, 2, 4), images):
                if e & bit:
                    acc = int(ring.add[acc, image])
            values.append(acc)
        out.append(tuple(values))
    return sorted(out)


def exhaustive_axioms(size, add, mul, neg, zero, one):
    """Every ring axiom checked on all size**3 triples, in the reference
    order; raises AxiomViolation with the message of the first failure."""
    rng = np.arange(size)
    for name, table in (("add", add), ("mul", mul)):
        if table.shape != (size, size) or table.min() < 0 or table.max() >= size:
            raise AxiomViolation(f"{name} table is not total on the carrier")
    if neg.shape != (size,) or neg.min() < 0 or neg.max() >= size:
        raise AxiomViolation("negation table is not total on the carrier")
    if not np.array_equal(add, add.T):
        raise AxiomViolation("addition is not commutative")
    if not (np.array_equal(add[zero], rng) and np.array_equal(add[:, zero], rng)):
        raise AxiomViolation("zero is not an additive identity")
    if not np.array_equal(add[rng, neg], np.full(size, zero)):
        raise AxiomViolation("negation does not give additive inverses")
    if not np.array_equal(add[add, :], add[:, add]):
        raise AxiomViolation("addition is not associative")
    if not np.array_equal(mul[mul, :], mul[:, mul]):
        raise AxiomViolation("multiplication is not associative")
    if not np.array_equal(mul[:, add], add[mul[:, :, None], mul[:, None, :]]):
        raise AxiomViolation("left distributivity fails")
    if not np.array_equal(mul[add, :], add[mul[:, None, :], mul[None, :, :]]):
        raise AxiomViolation("right distributivity fails")
    if one is not None:
        if not (np.array_equal(mul[one], rng) and np.array_equal(mul[:, one], rng)):
            raise AxiomViolation("declared unit is not a two-sided identity")


def reference_classify_pexider(f, h, k):
    """The scalar Pexider classifier: ranks from ``lin_rank`` and
    ``linear_combination``, one family rebuild and one ``in_class`` call per
    triple.  Returns the classification, or raises ``Unclassifiable``; the
    triple is not checked against the equation."""
    from fnq.errors import Unclassifiable
    from fnq.maps import (LEIBNIZ, MULTIPLICATIVE, identity_map, in_class,
                          lin_rank, linear_combination)
    from fnq.theorems import (FamilyTag, PexiderClassification,
                              pexider_family_binding)
    witness_classes = {"delta": LEIBNIZ, "m": MULTIPLICATIVE}
    ring = f.domain
    scalars = f.codomain
    ident = identity_map(ring)
    elems = np.asarray(ring.domain_elements, dtype=np.int64)
    one_pos = int(ring.position[ring.one])
    add, mul, neg, inv = scalars.add, scalars.mul, scalars.neg, scalars.inverse
    details = {"characteristic": scalars.char}
    if scalars.char == 2:
        details["completeness_caveat"] = (
            "characteristic 2: family fit is exact but the family list is "
            "only known complete away from characteristic 2")

    def table(vals):
        return fnq.FnTable(ring, ring, tuple(int(v) for v in vals))

    r = lin_rank([ident, h, k], scalars)
    hv, kv = h.as_array(), k.as_array()
    h1, k1 = int(hv[one_pos]), int(kv[one_pos])

    def fit(name, params, witnesses, reason):
        # the binding refuses a witness outside its class
        if not all(in_class(w, witness_classes[n])
                   for n, w in witnesses.items()):
            raise Unclassifiable(reason)
        built = pexider_family_binding(name, ring, params, witnesses).functions
        if any(built[n].values != t.values for n, t in zip("fhk", (f, h, k))):
            raise Unclassifiable(reason)
        return PexiderClassification(FamilyTag(name, params, witnesses), r,
                                     details)

    if r == 1:
        return fit("AllLinear", {"lam1": h1, "lam2": k1}, {},
                   "rank-1 triple is not a pair of scalings")
    if r == 3:
        raise Unclassifiable("rank-3 triple admits no consistent extraction")
    if lin_rank([ident, h], scalars) == 1:
        delta = table(add[kv, neg[mul[k1, elems]]])
        return fit("LinearPlusLeibniz", {"lam": h1, "k1": k1},
                   {"delta": delta}, "dependent {id,h} but no Leibniz remainder")
    if lin_rank([ident, k], scalars) == 1:
        if h1 == scalars.zero:
            raise Unclassifiable("vanishing h(1) with nonlinear h")
        return fit("MultiplicativeSquare", {"h1": h1, "lam": k1},
                   {"m": table(mul[int(inv[h1]), hv])},
                   "dependent {id,k} but no multiplicative core")
    if lin_rank([h, k], scalars) == 1:
        pivot_idx = next(i for i in range(len(kv)) if kv[i] != scalars.zero)
        lam = int(mul[int(hv[pivot_idx]), int(inv[kv[pivot_idx]])])
        u = int(inv[mul[lam, lam]])
        gamma = int(add[k1, u])
        if gamma == scalars.zero:
            raise Unclassifiable("degenerate mixed family (gamma = 0)")
        mwit = table(mul[int(inv[gamma]), add[kv, mul[u, elems]]])
        return fit("LambdaKFamilyB", {"lam": lam, "gamma": gamma}, {"m": mwit},
                   "dependent {h,k} but no multiplicative core")
    reason = "rank-2 triple admits no two-generator extraction"
    coeffs = linear_combination(k, [ident, h], scalars)
    if coeffs is None:
        raise Unclassifiable(reason)
    b1 = int(neg[coeffs[1]])
    g1 = int(add[coeffs[0], neg[mul[b1, b1]]])
    b2 = int(add[h1, neg[b1]])
    if b2 == scalars.zero:
        raise Unclassifiable(reason)
    mwit = table(mul[int(inv[b2]), add[hv, neg[mul[b1, elems]]]])
    return fit("TwoExponential",
               {"b1": b1, "b2": b2, "g1": g1, "g2": int(add[k1, neg[g1]])},
               {"m": mwit}, reason)
