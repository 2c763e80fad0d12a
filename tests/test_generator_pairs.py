"""Class identities of additive maps checked on additive generator pairs.

A class that requires additivity states the additive identity at the
pairs (x, g) of ``Ring.generator_pairs``, g in G (``Ring.generators``): 0
and an additive generating set of the domain, and its other identities at
``Ring.product_pairs``, which hold the pairs (g, h).  Membership
(:func:`fnq.maps.class_mask`) checks the constraints the kernel searches.
These tests hold that to scalar oracles at every pair: on declared
subrings, the trivial one included, between different rings, on every
table of the small rings, and, as a slow sweep, against the identities
evaluated on the full pair grid over 28 carriers.
"""
import json
from itertools import product as iproduct

import numpy as np
import pytest

import fnq
from fnq import maps, search as kernel
from fnq.eqdsl import PairConstraint, grid_masks
from fnq.maps import (ADDITIVE, HOMOMORPHISM, LEIBNIZ, DERIVATION,
                      HOMO_DERIV_MP, LOGARITHMIC, MULTIPLICATIVE, FnTable,
                      class_mask, classify_map, enumerate_maps, homo_deriv_sofy,
                      in_class as map_in_class)

from conftest import brute_tables, in_class

NAMED = [ADDITIVE, MULTIPLICATIVE, HOMOMORPHISM, LEIBNIZ, DERIVATION,
         LOGARITHMIC, HOMO_DERIV_MP]


def classes(ring):
    """Every class but ``arbitrary``, the shifted one at each central
    nonzero shift."""
    return NAMED + [homo_deriv_sofy(e) for e in ring.center if e != ring.zero]


@pytest.mark.parametrize("subring", [(0,), (0, 2, 4)], ids=["z6{0}", "z6{0,2,4}"])
def test_classes_on_z6_subrings_match_scalar_oracle(subring):
    check_subring(fnq.zn(6, subring=subring))


def test_classes_on_z12_subring_match_scalar_oracle():
    check_subring(fnq.zn(12, subring=(0, 3, 6, 9)))


def check_subring(ring):
    tables = list(brute_tables(ring))
    rows = np.array(tables, dtype=np.int64)
    for cls in classes(ring):
        want = [v for v in tables if in_class(ring, v, cls)]
        assert [tuple(r) for r in rows[class_mask(ring, ring, rows, cls)]
                .tolist()] == want, cls
        assert [t.values for t in enumerate_maps(ring, ring, cls)] == want, cls


def test_trivial_domain_checks_the_zero():
    # Z6{0} has no additive generator: only the pair (0, 0) makes f(0) = 0
    ring = fnq.zn(6, subring=(0,))
    assert ring.generators.tolist() == [0]
    assert ring.generator_pairs.tolist() == [[0, 0]]
    for cls in (ADDITIVE, HOMOMORPHISM, DERIVATION, homo_deriv_sofy(3)):
        assert [t.values for t in enumerate_maps(ring, ring, cls)] == [(0,)]
        assert not map_in_class(FnTable(ring, ring, (3,)), cls)


def additive_at(dom, cod, values, x, y):
    return values[int(dom.add[x, y])] == int(cod.add[values[x], values[y]])


def multiplicative_at(dom, cod, values, x, y):
    return values[int(dom.mul[x, y])] == int(cod.mul[values[x], values[y]])


@pytest.mark.parametrize("n, k", [(2, 4), (4, 2)], ids=["z2-z4", "z4-z2"])
def test_classes_between_different_rings(n, k):
    # the domain's generators decide additivity and the homomorphism
    # identity; x*f(y) reads a domain element in the codomain, so the
    # Leibniz-type classes hold for no map
    dom, cod = fnq.zn(n), fnq.zn(k)
    tables = list(iproduct(range(k), repeat=n))
    oracle = {ADDITIVE: (additive_at,),
              HOMOMORPHISM: (additive_at, multiplicative_at),
              MULTIPLICATIVE: (multiplicative_at,)}
    rows = np.array(tables, dtype=np.int64)
    for cls, checks in oracle.items():
        want = [v for v in tables
                if all(c(dom, cod, v, x, y) for c in checks
                       for x in range(n) for y in range(n))]
        assert [t.values for t in enumerate_maps(dom, cod, cls)] == want, cls
        assert [tuple(r) for r in rows[class_mask(dom, cod, rows, cls)]
                .tolist()] == want, cls
        assert [v for v in tables
                if map_in_class(FnTable(dom, cod, v), cls)] == want, cls
    leibniz_type = ("leibniz", "derivation", "homo-deriv-mp", "homo-deriv-sofy")
    for cls in (LEIBNIZ, DERIVATION, HOMO_DERIV_MP, homo_deriv_sofy(1)):
        assert not class_mask(dom, cod, rows, cls).any(), cls
    for v in tables:
        assert not any(t.kind in leibniz_type
                       for t in classify_map(FnTable(dom, cod, v)))


# ----------------------------------------------- the slow differential sweep

def _ring(doc):
    return fnq.ring_from_json(json.dumps(doc))


def _zn(n, subring=None):
    return {"kind": "Zn", "n": n,
            **({"subring": list(subring)} if subring else {})}


CARRIERS = {
    **{f"z{n}": _zn(n) for n in [*range(2, 13), 16, 18, 30]},
    **{f"gf{p ** k}": {"kind": "GF", "p": p, "k": k}
       for p, k in [(2, 2), (2, 3), (3, 2), (2, 4), (5, 2)]},
    "f2[x]/(x^2)": {"kind": "PolyQuot", "p": 2, "k": 2},
    "f3[x]/(x^2)": {"kind": "PolyQuot", "p": 3, "k": 2},
    "ut2_2": {"kind": "UT2", "p": 2},
    "ut2_3": {"kind": "UT2", "p": 3},
    "z2xz4": {"kind": "Product", "left": _zn(2), "right": _zn(4)},
    "z2xz2": {"kind": "Product", "left": _zn(2), "right": _zn(2)},
    "z6{0,2,4}": _zn(6, (0, 2, 4)),
    "z12{0,3,6,9}": _zn(12, (0, 3, 6, 9)),
    "z6{0}": _zn(6, (0,)),
}
# rows per grid call of the full-grid reference, which bounds its cells
_ROWS = 1024


def full_grid_mask(ring, rows, cls):
    """Membership with every class identity evaluated at every pair."""
    ok = np.ones(len(rows), dtype=bool)
    params = {"e": cls.eps} if cls.eps is not None else {}
    for kind in maps._CLASS_IDENTITIES[cls.kind]:
        equation = maps._F_IDENTITIES[kind]
        ok &= np.concatenate([
            grid_masks([equation], None, ring, ring, {"f": rows[i:i + _ROWS]},
                       params)[0]
            for i in range(0, len(rows), _ROWS)] or [ok[:0]])
    return ok


def non_additive_rows(ring, additive, count=200, seed=0):
    """Seeded rows that are not additive: half uniform, half an additive
    map with one value changed, which breaks the identity at few pairs."""
    rng = np.random.default_rng(seed)
    m, q = len(ring.domain_elements), ring.size
    found = np.zeros((0, m), dtype=np.int64)
    while len(found) < count:
        rows = rng.integers(q, size=(count, m))
        near = additive[rng.integers(len(additive), size=count // 2)].copy()
        near[np.arange(len(near)), rng.integers(m, size=len(near))] = \
            rng.integers(q, size=len(near))
        rows[:len(near)] = near
        rows = rows[~full_grid_mask(ring, rows, ADDITIVE)]
        found = np.concatenate([found, rows])[:count]
    return found


@pytest.mark.parametrize("name", ["z2", "z3", "z4", "z5", "gf4",
                                  "f2[x]/(x^2)", "z2xz2", "z6{0,2,4}",
                                  "z6{0}"])
def test_class_mask_is_the_grid_check_of_class_constraints(name):
    # every table of a small ring: membership is the grid check of the
    # kernel's own constraints, and that decides the class as the
    # identities at every pair do
    ring = _ring(CARRIERS[name])
    rows = np.array(list(brute_tables(ring)), dtype=np.int64)
    for cls in classes(ring):
        want = np.logical_and.reduce([
            grid_masks([c.equation], c.pairs, ring, ring, {"f": rows},
                       c.params)[0]
            for c in maps.class_constraints(ring, "f", cls)])
        got = class_mask(ring, ring, rows, cls)
        assert np.array_equal(got, want), cls
        if cls != LOGARITHMIC:
            assert np.array_equal(got, full_grid_mask(ring, rows, cls)), cls


@pytest.mark.parametrize("name", ["z6", "gf9", "ut2_3", "z2xz4",
                                  "z12{0,3,6,9}", "z6{0}"])
def test_generator_pairs_are_the_domain_times_the_generators(name):
    ring = _ring(CARRIERS[name])
    g, pairs = ring.generators, ring.generator_pairs
    assert g.dtype == pairs.dtype == np.int64
    assert g.tolist() == sorted(g.tolist()) and ring.zero in g
    assert pairs.tolist() == [[x, h] for x in ring.domain_elements
                              for h in g.tolist()]
    assert ring.generators is g and ring.generator_pairs is pairs
    for array in (g, pairs):
        with pytest.raises(ValueError):
            array[:1] = 0
    # sums of generators reach the whole domain, the unit among them
    reached = {ring.zero}
    while True:
        more = reached | {int(ring.add[e, h]) for e in reached for h in g}
        if more == reached:
            break
        reached = more
    assert reached == set(ring.domain_elements)
    if ring.one in ring.domain_elements:
        assert ring.one in g


@pytest.mark.slow
@pytest.mark.parametrize("name", list(CARRIERS))
def test_generator_pairs_match_the_full_grid(name):
    ring = _ring(CARRIERS[name])
    additive = np.array([t.values for t in enumerate_maps(
        ring, ring, ADDITIVE, 10 ** 30)], dtype=np.int64)
    rows = np.concatenate([additive, non_additive_rows(ring, additive)])
    # the logarithmic class reads no generator pairs
    swept = [cls for cls in classes(ring) if cls != LOGARITHMIC]
    want = {}
    for cls in swept:
        want[cls] = full_grid_mask(ring, rows, cls)
        got = np.concatenate([class_mask(ring, ring, rows[i:i + _ROWS], cls)
                              for i in range(0, len(rows), _ROWS)])
        assert np.array_equal(got, want[cls]), cls
    assert want[ADDITIVE].sum() == len(additive)
    # classify_map on the non-additive rows and on up to 200 additive maps
    rng = np.random.default_rng(1)
    sample = rng.permutation(len(additive))[:200]
    for i in [*sample, *range(len(additive), len(rows))]:
        tags = classify_map(FnTable(ring, ring, tuple(rows[i].tolist())))
        assert {c for c in swept if want[c][i]} == tags - {
            maps.ARBITRARY, LOGARITHMIC}, i


@pytest.mark.parametrize("ring", [fnq.zn(12), fnq.ut2(3), fnq.gf(3, 2),
                                  fnq.zn(6, subring=(0, 2, 4))],
                         ids=["z12", "ut2_3", "gf9", "z6{0,2,4}"])
def test_unit_pairs_are_built_once_per_ring(ring):
    # the pairs (x, 0) for the non-units and (u, v) for the units, built
    # once per ring; Z6{0,2,4} holds no unit of its own
    elems = ring.domain_elements
    units = [u for u in elems if ring.inverse[u] >= 0
             and ring.position[ring.inverse[u]] >= 0
             and ring.position[ring.one] >= 0]
    off, on = ring.unit_pairs
    assert off.tolist() == [[x, ring.zero] for x in elems if x not in units]
    assert on.tolist() == [[u, v] for u in units for v in units]
    assert off.dtype == on.dtype == np.int64
    assert off.shape[1:] == on.shape[1:] == (2,)
    assert ring.unit_pairs is ring.unit_pairs
    for pairs in (off, on):
        with pytest.raises(ValueError):
            pairs[:1] = 0
    assert (len(on) == 0) == (ring.spec.subring is not None)
    off_units, on_units = maps.class_constraints(ring, "f", LOGARITHMIC)
    assert off_units.pairs is off and on_units.pairs is on


def everywhere(cls, pairs=None):
    """The class identities at every pair, or all at ``pairs``."""
    params = {"e": cls.eps} if cls.eps is not None else {}
    return [PairConstraint(maps._F_IDENTITIES[kind], pairs, params)
            for kind in maps._CLASS_IDENTITIES[cls.kind]]


def grown_rows(monkeypatch):
    """The number of rows entering each grown level, as it is recorded."""
    grown = []
    grow = kernel._grow

    def counting(rows, q, checks):
        grown.append(len(rows))
        return grow(rows, q, checks)
    monkeypatch.setattr(kernel, "_grow", counting)
    return grown


# the product classes that require additivity, at the shift constant 1
PRODUCT = [HOMOMORPHISM, DERIVATION, HOMO_DERIV_MP, homo_deriv_sofy(1)]


@pytest.mark.parametrize("name", ["z2xz2", "z2xz4", "ut2_2", "ut2_3", "gf8",
                                  "z12{0,3,6,9}", "gf32"])
def test_generator_pairs_grow_no_more_levels_than_all_pairs(name, monkeypatch):
    # the unit is a generator, as it is the first position of the kernel's
    # default order, so the pairs (x, g) define every digit that all pairs
    # define; the product identities at Ring.product_pairs prune every
    # grown level as all pairs do, and the kernel grows the same rows.
    # GF(32) is where the product identities at (x, g) alone do not: its
    # homomorphism search grows 1,061 rows instead of 69.  Its 32**5
    # additive maps are too many to enumerate here
    ring = _ring({**CARRIERS, "gf32": {"kind": "GF", "p": 2, "k": 5}}[name])
    grown = grown_rows(monkeypatch)
    for cls in ([] if name == "gf32" else [ADDITIVE]) + PRODUCT:
        grown.clear()
        want = kernel.search(everywhere(cls), ("f",), ring, ring)
        wanted, grown[:] = list(grown), []
        got = kernel.search(maps.class_constraints(ring, "f", cls), ("f",),
                            ring, ring)
        assert np.array_equal(got, want) and grown == wanted, cls
    if name == "gf32":
        grown.clear()
        kernel.search(maps.class_constraints(ring, "f", HOMOMORPHISM),
                      ("f",), ring, ring)
        product, grown[:] = sum(grown), []
        kernel.search(everywhere(HOMOMORPHISM, ring.generator_pairs),
                      ("f",), ring, ring)
        assert (product, sum(grown)) == (69, 1061)


def product_pairs_oracle(ring):
    """The pairs (x, g) and E×E of the domain positions, E the positions
    before the last additive generator in the kernel's default order."""
    gens = set(ring.generators.tolist()) - {ring.zero}
    order = [ring.domain_elements[p] for p in ring.position_order()]
    early = order[:max((order.index(g) for g in gens), default=0)]
    pairs = {tuple(p) for p in ring.generator_pairs.tolist()}
    pairs |= {(x, y) for x in early for y in early}
    key = ring.position.tolist()
    return sorted(pairs, key=lambda p: (key[p[0]], key[p[1]]))


@pytest.mark.parametrize("name", ["z2", "z16", "gf9", "gf16", "ut2_3",
                                  "z2xz4", "z12{0,3,6,9}", "z6{0}"])
def test_product_pairs_are_generator_pairs_and_the_early_square(name):
    ring = _ring(CARRIERS[name])
    pairs = ring.product_pairs
    assert pairs.tolist() == [list(p) for p in product_pairs_oracle(ring)]
    assert pairs.dtype == np.int64 and ring.product_pairs is pairs
    with pytest.raises(ValueError):
        pairs[:1] = 0
    g = ring.generators.tolist()
    assert set(iproduct(g, g)) <= {tuple(p) for p in pairs.tolist()}


def test_product_pairs_of_a_cyclic_group_are_its_generator_pairs():
    # Z256's only additive generator is the unit, the first position of the
    # kernel's default order, so E is empty
    ring = fnq.zn(256)
    across = ring.generator_pairs
    assert len(across) == 512
    assert np.array_equal(ring.product_pairs, across)
    additive, multiplicative = maps.class_constraints(ring, "f", HOMOMORPHISM)
    assert additive.pairs is across and multiplicative.pairs is across


def test_product_pairs_of_gf32_add_the_square_before_its_last_generator():
    # GF(32)'s unit is index 16, and its generators are 16, 1, 2, 4 and 8.
    # In the default order 16, 0, 1, 2, ... the last of them, 8, comes
    # tenth, so E = {16, 0, 1, ..., 7}: the 32 * 6 pairs (x, g) and the 81
    # of E×E share the 9 * 5 pairs of E with a generator in E
    ring = fnq.gf(2, 5)
    assert ring.generators.tolist() == [0, 1, 2, 4, 8, 16]
    assert ring.position_order()[:3] == [16, 0, 1]
    pairs = {tuple(p) for p in ring.product_pairs.tolist()}
    early = [16, *range(8)]
    assert {(x, y) for x in early for y in early} <= pairs
    assert len(pairs) == len(ring.product_pairs) == 32 * 6 + 81 - 9 * 5


@pytest.mark.slow
@pytest.mark.parametrize("name", list(CARRIERS))
def test_product_pairs_give_the_rows_of_every_pair(name, monkeypatch):
    # every class that requires additivity and a product identity, stated
    # at Ring.product_pairs and at every pair: the same maps, and the same
    # rows entering every grown level
    ring = _ring(CARRIERS[name])
    grown = grown_rows(monkeypatch)
    for cls in [c for c in classes(ring) if c.kind in (
            "homomorphism", "derivation", "homo-deriv-mp", "homo-deriv-sofy")]:
        grown.clear()
        want = kernel.search(everywhere(cls), ("f",), ring, ring)
        wanted, grown[:] = list(grown), []
        got = kernel.search(maps.class_constraints(ring, "f", cls), ("f",),
                            ring, ring)
        assert np.array_equal(got, want), cls
        assert grown == wanted, cls


@pytest.mark.slow
@pytest.mark.parametrize("name", list(CARRIERS))
def test_every_class_enumerates_at_the_default_budget(name):
    # the kernel's charge refuses none of them, GF(25)'s and Z30's
    # multiplicative maps included, which a count of q**m candidates
    # refused; the zero map lies in every class
    ring = _ring(CARRIERS[name])
    zero = (ring.zero,) * len(ring.domain_elements)
    for cls in classes(ring):
        assert zero in {t.values for t in enumerate_maps(ring, ring, cls)}, cls
