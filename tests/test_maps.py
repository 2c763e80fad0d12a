import functools
import gc
import types
from itertools import product as iproduct
from math import gcd, prod

import numpy as np
import pytest

import fnq
from fnq import eqdsl, maps
from fnq.eqdsl import equation_to_text, parse_equation
from fnq.errors import (BudgetExceeded, EvalDomainError, InvalidTask,
                        NotAField)
from fnq.maps import (ADDITIVE, ARBITRARY, DERIVATION, HOMOMORPHISM,
                      HOMO_DERIV_MP, LEIBNIZ, LOGARITHMIC, MULTIPLICATIVE,
                      FnTable, class_mask, class_space_size, classify_map,
                      enumerate_maps, homo_deriv_sofy, identity_map,
                      inner_derivation, lin_rank, linear_combination,
                      zero_map)

from conftest import (brute_filter, brute_tables, in_class, is_additive_at,
                      is_leibniz_at, is_logarithmic, is_multiplicative_at,
                      ut2_2_additive_tables)


def values_of(stream):
    return [t.values for t in stream]


def test_multiplicative_maps_on_z2(z2):
    got = values_of(enumerate_maps(z2, z2, MULTIPLICATIVE))
    assert got == [(0, 0), (0, 1), (1, 1)]
    # independent oracle: scan all four tables
    assert got == brute_filter(z2, is_multiplicative_at)


def test_derivations_on_gf3_only_zero(gf3):
    got = values_of(enumerate_maps(gf3, gf3, DERIVATION))
    oracle = [v for v in brute_filter(gf3, is_additive_at)
              if all(is_leibniz_at(gf3, v, x, y) for x in range(3)
                     for y in range(3))]
    assert got == oracle == [(0, 0, 0)]


def test_derivations_on_poly_quot_include_formal_derivative(pq22):
    # carrier: 0 -> 0, 1 -> x, 2 -> 1, 3 -> 1+x; the coefficient-extraction
    # map a+bx -> b has values (0, 1, 0, 1) as elements, i.e. image index 2
    d = FnTable(pq22, pq22, (0, 2, 0, 2))
    assert all(is_additive_at(pq22, d.values, x, y)
               and is_leibniz_at(pq22, d.values, x, y)
               for x in range(4) for y in range(4))
    got = values_of(enumerate_maps(pq22, pq22, DERIVATION))
    assert d.values in got
    oracle = [v for v in brute_filter(pq22, is_additive_at)
              if all(is_leibniz_at(pq22, v, x, y) for x in range(4)
                     for y in range(4))]
    assert got == oracle


def test_classify_zero_map(gf3):
    tags = classify_map(zero_map(gf3))
    for cls in (ARBITRARY, ADDITIVE, MULTIPLICATIVE, HOMOMORPHISM, LEIBNIZ,
                DERIVATION, HOMO_DERIV_MP, LOGARITHMIC,
                homo_deriv_sofy(1), homo_deriv_sofy(2)):
        assert cls in tags


def test_classify_identity_on_z4(z4):
    tags = classify_map(identity_map(z4))
    assert HOMOMORPHISM in tags
    assert LEIBNIZ not in tags  # 1*1 = 1 but the rule would give 2


def test_inner_derivation_commutative_is_zero(z6, gf4):
    for ring in (z6, gf4):
        for b in range(ring.size):
            assert inner_derivation(ring, b).is_zero()


def test_inner_derivation_ut2(ut2_2):
    # b = [[0,1],[0,0]] has carrier index 2 under (a,b,c) ordering
    ad = inner_derivation(ut2_2, 2)

    def triple(i):
        return (i // 4, (i // 2) % 2, i % 2)

    def index(t):
        return t[0] * 4 + t[1] * 2 + t[2]

    expected = []
    for i in range(8):
        a, b, c = triple(i)
        # [[a,b],[0,c]]*[[0,1],[0,0]] - [[0,1],[0,0]]*[[a,b],[0,c]]
        expected.append(index((0, (a - c) % 2, 0)))
    assert list(ad.values) == expected
    assert any(v != 0 for v in ad.values)
    assert DERIVATION in classify_map(ad)


@pytest.mark.parametrize("b", [-1, 8, 13], ids=["minus1", "size",
                                                 "size+5"])
def test_inner_derivation_refuses_an_element_outside_the_ring(ut2_2, b):
    # numpy would wrap -1 to 7 and raise a bare IndexError past the carrier
    message = f"element {b} is not an element of a ring of size 8"
    with pytest.raises(InvalidTask) as caught:
        inner_derivation(ut2_2, b)
    assert str(caught.value) == message


def test_inner_derivations_always_derive(ut2_2):
    for b in range(ut2_2.size):
        assert DERIVATION in classify_map(inner_derivation(ut2_2, b))


def test_lin_rank_examples(gf5, gf4):
    ident = identity_map(gf5)
    triple_id = FnTable(gf5, gf5, tuple(int(gf5.mul[3, e]) for e in range(5)))
    assert lin_rank([ident], gf5) == 1
    assert lin_rank([ident, triple_id], gf5) == 1
    frob = FnTable(gf4, gf4, tuple(int(gf4.mul[e, e]) for e in range(4)))
    assert frob.values == (0, 3, 2, 1)
    assert lin_rank([identity_map(gf4), frob], gf4) == 2
    # oracle: no nontrivial combination vanishes
    combos = [(a, b) for a in range(4) for b in range(4) if (a, b) != (0, 0)]
    for a, b in combos:
        vec = [int(gf4.add[gf4.mul[a, e], gf4.mul[b, frob.values[e]]])
               for e in range(4)]
        assert any(v != 0 for v in vec)


def test_lin_rank_requires_field(z6):
    with pytest.raises(NotAField):
        lin_rank([identity_map(z6)], z6)


def test_linear_combination(gf5):
    ident = identity_map(gf5)
    double = FnTable(gf5, gf5, tuple(int(gf5.mul[2, e]) for e in range(5)))
    coeffs = linear_combination(double, [ident], gf5)
    assert coeffs == (2,)
    legendre_like = FnTable(gf5, gf5, (1, 0, 0, 0, 0))
    assert linear_combination(legendre_like, [ident], gf5) is None


ALL_CLASSES = [ADDITIVE, MULTIPLICATIVE, HOMOMORPHISM, LEIBNIZ, DERIVATION,
               HOMO_DERIV_MP, LOGARITHMIC, homo_deriv_sofy(1)]
# every carrier with at most 256 tables
SMALL_RINGS = ["z2", "z4", "gf3", "gf4", "pq22", "z6_sub", "z2xz2"]


@pytest.mark.parametrize("cls", ALL_CLASSES)
@pytest.mark.parametrize("ring_name", SMALL_RINGS)
def test_enumeration_matches_classification_filter(cls, ring_name, request):
    ring = request.getfixturevalue(ring_name)
    enumerated = values_of(enumerate_maps(ring, ring, cls))
    filtered = [t.values for t in enumerate_maps(ring, ring, ARBITRARY)
                if cls in classify_map(t)]
    assert enumerated == filtered


@pytest.mark.parametrize("cls", ALL_CLASSES)
@pytest.mark.parametrize("ring_name", SMALL_RINGS)
def test_enumeration_matches_scalar_oracle(cls, ring_name, request):
    ring = request.getfixturevalue(ring_name)
    assert values_of(enumerate_maps(ring, ring, cls)) == [
        v for v in brute_tables(ring) if in_class(ring, v, cls)]


def oracle_tags(ring, values):
    """Every class tag by scalar point checks, each central shift too."""
    classes = [ARBITRARY, *ALL_CLASSES[:-1]] + [
        homo_deriv_sofy(e) for e in ring.center if e != ring.zero]
    return {cls for cls in classes if in_class(ring, values, cls)}


@pytest.mark.parametrize("ring_name", SMALL_RINGS)
def test_classification_matches_scalar_oracle(ring_name, request):
    ring = request.getfixturevalue(ring_name)
    for values in brute_tables(ring):
        assert classify_map(FnTable(ring, ring, values)) == oracle_tags(
            ring, values)


def _oracle_cases(name):
    """A carrier and value vectors: inner derivations, additive tables or
    20 seeded random tables."""
    ring_name, kind = name.rsplit("_", 1)
    ring = {"ut2_2": fnq.ut2(2), "ut2_3": fnq.ut2(3), "z12": fnq.zn(12)}[ring_name]
    if kind == "inner":
        return ring, [inner_derivation(ring, b).values
                      for b in ring.domain_elements]
    if kind == "additive":
        if ring_name == "ut2_2":
            return ring, ut2_2_additive_tables(ring)
        return ring, [tuple(int(ring.mul[a, e]) for e in ring.domain_elements)
                      for a in range(ring.size)]
    rng = np.random.default_rng(11)
    return ring, [tuple(rng.integers(ring.size, size=ring.size).tolist())
                  for _ in range(20)]


@pytest.mark.parametrize("case", ["ut2_2_inner", "ut2_3_inner",
                                  "ut2_2_additive", "ut2_3_random",
                                  "z12_random", "z12_additive"])
def test_classification_on_ut2_and_z12_matches_scalar_oracle(case):
    # x*y and y*x differ on UT2, and the additive maps of Z12 are checked
    # against all 11 shifts, which share the cells of one classification
    ring, tables = _oracle_cases(case)
    for values in tables:
        assert classify_map(FnTable(ring, ring, values)) == oracle_tags(
            ring, values), values


def test_classify_map_checks_all_shifts_in_one_grid_call(monkeypatch):
    # additive, multiplicative, Leibniz, the logarithmic zero check and
    # every shift in one grid evaluation at the pairs (x, g); the zero map,
    # at the 5 central b, passes the zero check and evaluates the
    # logarithmic identity at the unit pairs too.  Every inner derivation
    # is additive, so none checks its product identities at every pair
    grids = []
    init = eqdsl._Grid.__init__

    def counting(grid, domain, codomain, pairs, *args):
        grids.append(pairs)
        init(grid, domain, codomain, pairs, *args)

    monkeypatch.setattr(eqdsl._Grid, "__init__", counting)
    ring = fnq.ut2(5)
    across = ring.generator_pairs
    classify_map(inner_derivation(ring, 1))
    assert len(grids) == 1 and grids[0] is across
    grids.clear()
    classify_map(inner_derivation(ring, ring.zero))
    assert grids == [across, ring.unit_pairs[1]]
    grids.clear()
    for b in ring.domain_elements:
        classify_map(inner_derivation(ring, b))
    assert len(grids) == 130 == 120 * 1 + 5 * 2


@pytest.mark.slow
def test_classification_on_ut2_5_matches_scalar_oracle():
    # the 5 central b give the zero map and 5 others nonzero derivations;
    # their values are strictly upper triangular, so products of two
    # vanish and every shift fits both
    ring = fnq.ut2(5)
    others = [b for b in ring.domain_elements if b not in ring.center]
    for b in list(ring.center) + others[::24]:
        values = inner_derivation(ring, b).values
        assert classify_map(FnTable(ring, ring, values)) == oracle_tags(
            ring, values), b


def test_grid_checks_leave_no_reference_cycles():
    # a check's arrays are freed when it returns, not by the cyclic collector
    ring = fnq.ut2(3)
    f = inner_derivation(ring, 5)
    classify_map(f)  # fills the ring's cached properties first
    gc.collect()
    gc.disable()
    try:
        classify_map(f)
        maps.in_class(f, DERIVATION)
        maps.in_class(f, LOGARITHMIC)
        assert gc.collect() == 0
    finally:
        gc.enable()


IDENTITY_TEXTS = {
    "additive": "{u}(x+y)={u}(x)+{u}(y)",
    "multiplicative": "{u}(x*y)={u}(x)*{u}(y)",
    "leibniz": "{u}(x*y)={u}(x)*y+x*{u}(y)",
    "sofy": "{u}(x*y)={u}(x)*y+x*{u}(y)+e*{u}(x)*{u}(y)",
    "logarithmic": "{u}(x*y)={u}(x)+{u}(y)",
    "zero": "{u}(x)=0",
}


@pytest.mark.parametrize("fn", ["f", "h"])
def test_class_identities_are_their_parsed_text(fn):
    # the shared nodes build the same trees as the text, so
    # equation_to_text and the search kernel see what the parser makes
    for kind, text in IDENTITY_TEXTS.items():
        ast = parse_equation(text.format(u=fn))
        assert maps._shared_identities(fn)[kind] == ast, kind
        assert equation_to_text(maps._shared_identities(fn)[kind]) == text.format(u=fn)


def test_fn_table_rejects_values_outside_the_codomain(z4):
    with pytest.raises(ValueError, match="expected 4 values, got 3"):
        FnTable(z4, z4, (0, 1, 2))
    for bad in ((0, 1, 2, 4), (-1, 0, 0, 0)):
        with pytest.raises(ValueError, match="value out of codomain range"):
            FnTable(z4, z4, bad)
    assert FnTable(z4, z4, (3, 0, 0, 3)).values == (3, 0, 0, 3)
    # a map on an empty domain has no value to range-check
    empty = types.SimpleNamespace(domain_elements=())
    assert FnTable(empty, z4, ()).values == ()


def test_classify_map_evaluates_each_parameter_free_node_once(monkeypatch):
    # each node at most once per grid evaluation, and so per pair set
    # within one call; an additive map's product identities read the cells
    # at the pairs (x, g), and it evaluates nothing on the full grid, where
    # x and y vary along different axes
    evaluated = []
    evaluate = eqdsl._Grid.evaluate

    def counting(grid, expr, in_arg):
        pair_set = tuple((a.shape, a.tobytes()) for a in (grid.xs, grid.ys))
        evaluated.append((pair_set, expr, in_arg))
        return evaluate(grid, expr, in_arg)

    monkeypatch.setattr(eqdsl._Grid, "evaluate", counting)
    ring = fnq.ut2(3)
    across = ring.generator_pairs
    generated = tuple(((1, len(across), 1), across[:, j].tobytes())
                      for j in (0, 1))
    leibniz_rhs = (maps._F_IDENTITIES["leibniz"].rhs, False)
    squares = FnTable(ring, ring, tuple(int(ring.mul[x, x]) for x in range(27)))
    for table in [inner_derivation(ring, b) for b in (0, 5, 13)] + [squares]:
        evaluated.clear()
        tags = classify_map(table)
        assert evaluated and len(set(evaluated)) == len(evaluated), table
        assert (generated, *leibniz_rhs) in evaluated
        full = [(e, i) for s, e, i in evaluated if s[0][0] != s[1][0]]
        if table is squares:
            assert ADDITIVE not in tags and leibniz_rhs in full
        else:
            assert DERIVATION in tags and not full, table


@pytest.mark.parametrize("ring_name", SMALL_RINGS)
def test_class_mask_matches_scalar_oracle(ring_name, request):
    # one grid evaluation over every table at once agrees row by row
    ring = request.getfixturevalue(ring_name)
    tables = list(brute_tables(ring))
    rows = np.array(tables, dtype=np.int64)
    for cls in ALL_CLASSES:
        assert class_mask(ring, ring, rows, cls).tolist() == [
            in_class(ring, v, cls) for v in tables], cls
    assert class_mask(ring, ring, rows[:0], MULTIPLICATIVE).shape == (0,)


def test_class_mask_fails_a_constraint_leaving_the_subring(monkeypatch):
    # a constraint whose argument leaves the declared domain {0, 2, 4} of
    # Z6 fails every row, before or after the class's own constraints: the
    # grid fails that equation alone, so class_mask catches nothing
    ring = fnq.zn(6, subring=(0, 2, 4))
    rows = np.array(list(iproduct(ring.domain_elements, repeat=3)))
    additive = maps.class_constraints(ring, "f", ADDITIVE)
    assert class_mask(ring, ring, rows, ADDITIVE).sum() == 3
    leaving = eqdsl.PairConstraint(parse_equation("f(x+1)=f(x)"))
    for constraints in ([leaving, *additive], [*additive, leaving]):
        monkeypatch.setattr(maps, "class_constraints",
                            lambda *args: constraints)
        assert class_mask(ring, ring, rows, ADDITIVE).tolist() == [
            False] * len(rows)


def _two_ring_value(expr, dom, cod, values, x, y, e, in_arg=False):
    """One side of a parsed identity at (x, y), arguments in the domain's
    tables and values in the codomain's, the parameter bound to ``e``; a
    domain element read outside an argument raises, since the two rings
    share no tables."""
    ring = dom if in_arg else cod
    if isinstance(expr, eqdsl.Param):
        return e
    if isinstance(expr, eqdsl.Var):
        if not in_arg:
            raise EvalDomainError("a domain element outside an argument")
        return x if expr.name == "x" else y
    if isinstance(expr, eqdsl.IntLit):
        return ring.int_embed(expr.value)
    if isinstance(expr, eqdsl.FnApp):
        arg = _two_ring_value(expr.arg, dom, cod, values, x, y, e, True)
        return values[dom.domain_elements.index(arg)]
    left, right = (_two_ring_value(side, dom, cod, values, x, y, e, in_arg)
                   for side in (expr.left, expr.right))
    table = ring.mul if isinstance(expr, eqdsl.Mul) else ring.add
    return int(table[left, right])


def two_ring_tags(dom, cod, values):
    """Every class tag of a map between different rings by point checks:
    each identity at every pair it quantifies over, failing where it reads
    a domain element outside an argument."""
    def holds(kind, pairs, e=None):
        ast = parse_equation(IDENTITY_TEXTS[kind].format(u="f"))
        try:
            return all(_two_ring_value(ast.lhs, dom, cod, values, x, y, e)
                       == _two_ring_value(ast.rhs, dom, cod, values, x, y, e)
                       for x, y in pairs)
        except EvalDomainError:
            return False
    elems = dom.domain_elements
    units = [u for u in elems if (dom.mul[u] == dom.one).any()]
    every = [(x, y) for x in elems for y in elems]
    found = {k: holds(k, every)
             for k in ("additive", "multiplicative", "leibniz")}
    requires = {ARBITRARY: (), ADDITIVE: ("additive",),
                MULTIPLICATIVE: ("multiplicative",),
                HOMOMORPHISM: ("additive", "multiplicative"),
                LEIBNIZ: ("leibniz",), DERIVATION: ("additive", "leibniz"),
                HOMO_DERIV_MP: ("additive", "multiplicative", "leibniz")}
    tags = {cls for cls, kinds in requires.items()
            if all(found[k] for k in kinds)}
    if holds("zero", [(x, 0) for x in elems if x not in units]) and holds(
            "logarithmic", [(u, v) for u in units for v in units]):
        tags.add(LOGARITHMIC)
    tags |= {homo_deriv_sofy(e) for e in cod.center if e != cod.zero
             and found["additive"] and holds("sofy", every, e)}
    return tags


def test_leibniz_type_classes_between_different_rings(z4):
    # x*f(y) reads a domain element in the codomain, which Z2 -> Z4 and
    # Z4 -> Z2 lack: the Leibniz-type classes fail, and alone, so every
    # other tag of every map is the scalar oracle's exactly
    z2 = fnq.zn(2)
    leibniz_type = ("leibniz", "derivation", "homo-deriv-mp", "homo-deriv-sofy")
    for dom, cod in ((z2, z4), (z4, z2)):
        for cls in (LEIBNIZ, DERIVATION, HOMO_DERIV_MP, homo_deriv_sofy(1)):
            with pytest.raises(EvalDomainError):
                list(enumerate_maps(dom, cod, cls))
        seen = set()
        for values in iproduct(range(cod.size), repeat=dom.size):
            tags = classify_map(FnTable(dom, cod, values))
            assert tags == two_ring_tags(dom, cod, values), values
            assert ARBITRARY in tags
            assert not any(t.kind in leibniz_type for t in tags)
            seen |= tags
        assert {ADDITIVE, MULTIPLICATIVE, HOMOMORPHISM, LOGARITHMIC} <= seen
    # a classifier that let Leibniz's error fail the other identities would
    # tag both {arbitrary}
    assert classify_map(FnTable(z2, z4, (0, 2))) == {ADDITIVE, ARBITRARY}
    assert classify_map(FnTable(z2, z4, (0, 1))) == {MULTIPLICATIVE, ARBITRARY}


# ------------------------------------------- closed forms over Z_n

zn = functools.cache(fnq.zn)  # Z256 takes most of a second to build


def omega(n):
    return sum(1 for p in range(2, n + 1)
               if n % p == 0 and all(p % d for d in range(2, p)))


@pytest.mark.parametrize("n", [6, 12, 30, 64, 210, 256])
def test_zn_homomorphisms_are_idempotent_scalings(n):
    # a ring endomorphism of Z_n is x -> e*x with e = f(1) idempotent
    ring = zn(n)
    got = values_of(enumerate_maps(ring, ring, HOMOMORPHISM))
    idempotents = [e for e in range(n) if e * e % n == e]
    assert len(idempotents) == 2 ** omega(n)
    assert got == sorted(tuple(e * x % n for x in range(n))
                         for e in idempotents)


@pytest.mark.parametrize("n", range(2, 65))
def test_zn_additive_maps_are_scalings(n):
    ring = zn(n)
    assert values_of(enumerate_maps(ring, ring, ADDITIVE)) == [
        tuple(a * x % n for x in range(n)) for a in range(n)]


@pytest.mark.parametrize("n", [6, 12, 30, 64, 210, 256])
def test_zn_derivations_vanish(n):
    # d(1) = d(1*1) = 2 d(1) forces d(1) = 0, and additivity spreads it
    ring = zn(n)
    assert values_of(enumerate_maps(ring, ring, DERIVATION)) == [(0,) * n]


def unit_group_factors(n):
    """Orders of cyclic factors of U(Z_n): over the prime powers p^k of n,
    one of order p^(k-1)(p-1), except Z2 x Z_2^(k-2) for 2^k with k >= 3."""
    factors, rest = [], n
    for p in range(2, n + 1):
        k = 0
        while rest % p == 0:
            rest, k = rest // p, k + 1
        if k and p == 2 and k >= 3:
            factors += [2, 2 ** (k - 2)]
        elif k:
            factors.append(p ** (k - 1) * (p - 1))
    return factors


@pytest.mark.parametrize("n, count", [
    (8, 4), (9, 3), (12, 4), (15, 1), (16, 8), (30, 4), (32, 16), (36, 12),
    (64, 32), (100, 40), (128, 64), (144, 48), (210, 24)])
def test_zn_logarithmic_maps_are_unit_group_homomorphisms(n, count):
    # a logarithmic map is a homomorphism U(Z_n) -> (Z_n, +), zero off the
    # units, and Hom(Z_d, Z_n) has gcd(d, n) elements
    assert prod(gcd(d, n) for d in unit_group_factors(n)) == count
    ring = zn(n)
    got = values_of(enumerate_maps(ring, ring, LOGARITHMIC))
    assert len(got) == count
    assert got == sorted(set(got))
    assert all(is_logarithmic(ring, v) for v in got)


@pytest.mark.parametrize("q,k", [(2, 1), (3, 1), (2, 2), (5, 1), (7, 1),
                                 (2, 3)])
def test_dedekind_independence(q, k):
    ring = fnq.gf(q, k)
    nonzero_mult = [t for t in enumerate_maps(ring, ring, MULTIPLICATIVE)
                    if not t.is_zero()]
    assert lin_rank(nonzero_mult, ring) == len(nonzero_mult)


def test_logarithmic_on_gf5_only_zero(gf5):
    got = values_of(enumerate_maps(gf5, gf5, LOGARITHMIC))
    assert got == [(0, 0, 0, 0, 0)]


@pytest.mark.parametrize("left, right", [(2, 3), (3, 4)])
def test_additive_space_of_a_cyclic_product_is_q(left, right):
    # Z2xZ3 and Z3xZ4 are cyclic: the unit generates them, so an additive
    # map is fixed by f(1) and the candidate space is q
    ring = fnq.product(fnq.zn(left), fnq.zn(right))
    q = left * right
    assert ring.generators.tolist() == [ring.zero, ring.one]
    for cls in (ADDITIVE, HOMOMORPHISM, DERIVATION):
        assert class_space_size(ring, ring, cls) == q, cls
    assert len(values_of(enumerate_maps(ring, ring, ADDITIVE))) == q
    assert class_space_size(ring, ring, MULTIPLICATIVE) == q ** q


def test_additive_maps_between_different_rings(z4):
    z2 = fnq.zn(2)
    got = values_of(enumerate_maps(z2, z4, ADDITIVE))
    oracle = []
    for v0 in range(4):
        for v1 in range(4):
            vals = (v0, v1)
            if all(vals[(x + y) % 2] == int(z4.add[vals[x], vals[y]])
                   for x in range(2) for y in range(2)):
                oracle.append(vals)
    assert got == sorted(oracle)


def test_enumerate_budget(z6):
    with pytest.raises(BudgetExceeded):
        list(enumerate_maps(z6, z6, ARBITRARY, budget=100))


def test_fn_table_domain_guard():
    ring = fnq.zn(6, subring=(0, 2, 4))
    full = fnq.zn(6)
    table = FnTable(ring, full, (0, 2, 4))
    assert table(2) == 2
    with pytest.raises(EvalDomainError):
        table(1)


def test_sofy_class_enumeration(z2):
    got = values_of(enumerate_maps(z2, z2, homo_deriv_sofy(1)))
    from conftest import is_homo_deriv_at
    oracle = [v for v in brute_filter(z2, is_additive_at)
              if all(is_homo_deriv_at(z2, v, x, y, 1)
                     for x in range(2) for y in range(2))]
    assert got == oracle


def test_classify_formal_derivative(pq22):
    d = FnTable(pq22, pq22, (0, 2, 0, 2))
    assert DERIVATION in classify_map(d)


def test_classify_on_declared_subring():
    ring = fnq.zn(6, subring=(0, 2, 4))
    full = fnq.zn(6)
    restricted_id = FnTable(ring, full, (0, 2, 4))
    tags = classify_map(restricted_id)
    assert ADDITIVE in tags and MULTIPLICATIVE in tags
    assert LEIBNIZ not in tags  # 2*4=8=2 but the rule gives 2*4+2*4=4


# --------------------------------------- kernel-backed scans vs plain scans

import numpy as np

from fnq.maps import (filter_tables, leibniz_equation, multiplicative_equation,
                      row_ids)


def multiplicative_at(ring, col, x, y):
    return col(int(ring.mul[x, y])) == ring.mul[col(x), col(y)]


def leibniz_at(ring, col, x, y):
    return col(int(ring.mul[x, y])) == ring.add[ring.mul[col(x), y],
                                                ring.mul[x, col(y)]]


def scan_all_tables(ring, identity, chunk=1 << 21):
    """Every table passing ``identity`` at every domain pair.

    A plain scan of all q**m candidate ids in chunks, diagonal pairs
    first; the survivors of each pair are checked at the next one.
    """
    elems = ring.domain_elements
    m, q = len(elems), ring.size
    weight = {e: q ** (m - 1 - i) for i, e in enumerate(elems)}
    pairs = ([(x, x) for x in elems]
             + [(x, y) for x in elems for y in elems if x != y])
    out = []
    for start in range(0, q ** m, chunk):
        ids = np.arange(start, min(start + chunk, q ** m), dtype=np.int64)
        for x, y in pairs:
            ids = ids[identity(ring, lambda e: ids // weight[e] % q, x, y)]
        out += [tuple(int(cid) // weight[e] % q for e in elems) for cid in ids]
    return out


@pytest.mark.parametrize("cls,identity", [(MULTIPLICATIVE, multiplicative_at),
                                          (LEIBNIZ, leibniz_at)])
@pytest.mark.parametrize("ring_name", ["z8", "ut2_2"])
def test_kernel_classes_match_plain_scan(cls, identity, ring_name, request):
    ring = fnq.zn(8) if ring_name == "z8" else request.getfixturevalue(ring_name)
    assert values_of(enumerate_maps(ring, ring, cls)) == scan_all_tables(
        ring, identity)


def test_kernel_classes_on_gf4_match_scalar_filter(gf4):
    assert (values_of(enumerate_maps(gf4, gf4, MULTIPLICATIVE))
            == brute_filter(gf4, is_multiplicative_at))
    assert (values_of(enumerate_maps(gf4, gf4, LEIBNIZ))
            == brute_filter(gf4, is_leibniz_at))


def test_filter_tables_ids_and_budget(z2, z6):
    ids = filter_tables(z2, z2, [multiplicative_equation()])
    assert ids.tolist() == [0, 1, 3]  # (0,0), (0,1), (1,1)
    both = filter_tables(z6, z6, [multiplicative_equation(), leibniz_equation()])
    assert both.tolist() == sorted(both.tolist())
    # the kernel's charge: Z6's Leibniz search grows level 3 from 6 rows,
    # 6 * 6 * (7 pairs + 4 digits)
    with pytest.raises(BudgetExceeded, match="search level 3 needs 396 "
                       "evaluated pairs") as err:
        filter_tables(z6, z6, [leibniz_equation()], budget=395)
    assert err.value.needed == 396
    ids = filter_tables(z6, z6, [leibniz_equation()], budget=396)
    assert ids.tolist() == [0]


def test_class_identities_are_built_once_per_name(z6):
    # every call for a name returns the same nodes, for f and for any other
    # unknown, and each name has its own
    assert multiplicative_equation("g") is multiplicative_equation("g")
    assert leibniz_equation("h") is leibniz_equation("h")
    assert multiplicative_equation() is maps._F_IDENTITIES["multiplicative"]
    assert multiplicative_equation("g") is not multiplicative_equation("h")
    assert multiplicative_equation("g").free_functions == ("g",)
    first, second = (maps.class_constraints(z6, "h", HOMO_DERIV_MP)
                     for _ in range(2))
    assert [c.equation for c in first] == [c.equation for c in second]
    assert all(a.equation is b.equation for a, b in zip(first, second))


def test_filter_tables_ids_past_int64_are_exact():
    # 16**16 = 2**64 candidates: an id space past int64 keeps its ids as
    # exact Python integers, and a base-16 id is the value vector read as
    # hex digits
    ring = zn(16)
    ids = filter_tables(ring, ring, [multiplicative_equation()], budget=10 ** 30)
    rows = values_of(enumerate_maps(ring, ring, MULTIPLICATIVE, budget=10 ** 30))
    assert len(rows) == 194
    assert ids.dtype == object
    assert all(type(i) is int for i in ids.tolist())
    assert ids.tolist() == row_ids(np.array(rows), 16).tolist()
    assert ids.tolist() == [int("".join(f"{v:x}" for v in row), 16)
                            for row in rows]


def test_class_scans_between_different_rings(z4):
    z2 = fnq.zn(2)
    got = values_of(enumerate_maps(z2, z4, MULTIPLICATIVE))
    oracle = [v for v in iproduct(range(4), repeat=2)
              if all(v[x * y % 2] == int(z4.mul[v[x], v[y]])
                     for x in range(2) for y in range(2))]
    assert got == oracle
    with pytest.raises(EvalDomainError):
        list(enumerate_maps(z2, z4, LEIBNIZ))
