"""Isomorphic presentations of one ring give the same solution sets.

Two presentations of a ring, such as Z6 and Z2×Z3, or GF(8) under two
moduli, number their elements differently, so the kernel runs a different
plan for the same question: another position order, other levels, other
computed digits.  Transported by the isomorphism φ, g ↦ φ∘g∘φ⁻¹, their
solution sets must still be equal.  This reaches where brute force cannot:
GF(8)'s Pexider space has 8**24 candidates.

φ is found here by backtracking over the images of an additive generating
set and is checked on both full tables, with code of its own that shares
nothing with :mod:`fnq`.
"""
import functools
from itertools import product as iproduct

import numpy as np
import pytest

import fnq
from fnq.maps import (ADDITIVE, ARBITRARY, FnTable, classify_map,
                      enumerate_maps, homo_deriv_sofy)
from fnq.theorems import homo_derivation_equation, pexider_equation

from test_generator_pairs import NAMED

PRESENTATIONS = {
    "z6/z2xz3": (lambda: fnq.zn(6),
                 lambda: fnq.product(fnq.zn(2), fnq.zn(3))),
    "z10/z5xz2": (lambda: fnq.zn(10),
                  lambda: fnq.product(fnq.zn(5), fnq.zn(2))),
    "z15/z3xz5": (lambda: fnq.zn(15),
                  lambda: fnq.product(fnq.zn(3), fnq.zn(5))),
    "z2xz4/z4xz2": (lambda: fnq.product(fnq.zn(2), fnq.zn(4)),
                    lambda: fnq.product(fnq.zn(4), fnq.zn(2))),
    "(z2xz2)xz3/z3x(z2xz2)": (
        lambda: fnq.product(fnq.product(fnq.zn(2), fnq.zn(2)), fnq.zn(3)),
        lambda: fnq.product(fnq.zn(3), fnq.product(fnq.zn(2), fnq.zn(2)))),
    # x^3+x+1 and x^3+x^2+1, constant term first
    "gf8": (lambda: fnq.gf(2, 3, modulus=(1, 1, 0, 1)),
            lambda: fnq.gf(2, 3, modulus=(1, 0, 1, 1))),
    # each other irreducible modulus against the default, x^2+1 for GF(9)
    # and x^4+x^3+1 for GF(16)
    "gf9/x2+x+2": (lambda: fnq.gf(3, 2),
                   lambda: fnq.gf(3, 2, modulus=(2, 1, 1))),
    "gf9/x2+2x+2": (lambda: fnq.gf(3, 2),
                    lambda: fnq.gf(3, 2, modulus=(2, 2, 1))),
    "gf16/x4+x+1": (lambda: fnq.gf(2, 4),
                    lambda: fnq.gf(2, 4, modulus=(1, 1, 0, 0, 1))),
    "gf16/x4+x3+x2+x+1": (lambda: fnq.gf(2, 4),
                          lambda: fnq.gf(2, 4, modulus=(1, 1, 1, 1, 1))),
}


def additive_generators(add: list[list[int]], zero: int) -> list[int]:
    """Each next generator is the smallest element outside the subgroup
    the ones before it generate."""
    gens, reached = [], {zero}
    for e in range(len(add)):
        if e in reached:
            continue
        gens.append(e)
        frontier = list(reached)
        while frontier:
            a = frontier.pop()
            for g in gens:
                if add[a][g] not in reached:
                    reached.add(add[a][g])
                    frontier.append(add[a][g])
    return gens


def _close(phi: dict, gens, images, add_r, add_s) -> dict | None:
    """``phi`` extended to the subgroup ``gens`` generate by
    φ(a + g) = φ(a) + φ(g); None when two sums disagree or two elements
    share an image."""
    phi = dict(phi)
    frontier = list(phi)
    while frontier:
        a = frontier.pop()
        for g, v in zip(gens, images):
            b, w = add_r[a][g], add_s[phi[a]][v]
            if b not in phi:
                phi[b] = w
                frontier.append(b)
            elif phi[b] != w:
                return None
    return phi if len(set(phi.values())) == len(phi) else None


@functools.cache
def presentations(name):
    r, s = (build() for build in PRESENTATIONS[name])
    return r, s, isomorphism(r, s)


def isomorphism(r, s) -> np.ndarray:
    """φ as an array, element of ``r`` to element of ``s``."""
    add_r, add_s = r.add.tolist(), s.add.tolist()
    mul_r, mul_s = r.mul.tolist(), s.mul.tolist()
    gens = additive_generators(add_r, r.zero)

    def extend(phi, images):
        if len(images) == len(gens):
            if all(phi[mul_r[a][b]] == mul_s[phi[a]][phi[b]]
                   for a in phi for b in phi):
                return phi
            return None
        for v in range(s.size):
            grown = _close(phi, gens[:len(images) + 1], images + [v],
                           add_r, add_s)
            found = grown and extend(grown, images + [v])
            if found:
                return found
        return None

    assert r.size == s.size
    phi = extend({r.zero: s.zero}, [])
    assert phi is not None and len(phi) == r.size
    return np.array([phi[a] for a in range(r.size)], dtype=np.int64)


def transported(phi: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """φ∘g∘φ⁻¹ of every row g, in lexicographic order."""
    moved = np.empty_like(rows)
    moved[..., phi] = phi[rows]
    flat = moved.reshape(len(moved), -1)
    return moved[np.lexsort(flat.T[::-1])]


def solved(ring, ast, params=None) -> np.ndarray:
    names = ast.free_functions
    sols = fnq.solve(fnq.SolveTask(ast=ast, ring=ring,
                                   classes=dict.fromkeys(names, ARBITRARY),
                                   params=params or {}))
    return np.array([[b.functions[n].values for n in names]
                     for b in sols.solutions],
                    dtype=np.int64).reshape(-1, len(names), ring.size)


def enumerated(ring, cls) -> np.ndarray:
    return np.array([t.values for t in enumerate_maps(ring, ring, cls)],
                    dtype=np.int64).reshape(-1, 1, ring.size)


@pytest.mark.parametrize("name", list(PRESENTATIONS))
def test_isomorphism_preserves_both_tables(name):
    r, s, phi = presentations(name)
    assert sorted(phi.tolist()) == list(range(s.size))
    assert np.array_equal(phi[r.add], s.add[phi[:, None], phi[None, :]])
    assert np.array_equal(phi[r.mul], s.mul[phi[:, None], phi[None, :]])


def test_presentations_number_their_elements_differently():
    # otherwise the two kernels would run one plan
    for name in PRESENTATIONS:
        r, s, phi = presentations(name)
        assert phi.tolist() != list(range(r.size)), name


def test_nestings_in_one_factor_order_build_one_table():
    # so they number their elements alike, and the presentations above
    # nest factors in different orders instead
    z2 = fnq.RingSpec(kind="Zn", n=2)
    left = fnq.product(fnq.product(z2, z2), z2)
    right = fnq.product(z2, fnq.product(z2, z2))
    assert left.table_hash == right.table_hash
    assert left.names != right.names


@pytest.mark.parametrize("name", list(PRESENTATIONS))
def test_every_named_class_is_transported(name):
    r, s, phi = presentations(name)
    shifts = [e for e in r.center if e != r.zero]
    assert sorted(phi[shifts].tolist()) == sorted(
        e for e in s.center if e != s.zero)
    pairs = [(cls, cls) for cls in NAMED] + [
        (homo_deriv_sofy(e), homo_deriv_sofy(int(phi[e]))) for e in shifts]
    for left, right in pairs:
        want = enumerated(s, right)
        assert len(want) and np.array_equal(
            transported(phi, enumerated(r, left)), want), left


@pytest.mark.parametrize("name", list(PRESENTATIONS))
def test_thm4_equation_is_transported_at_every_central_shift(name):
    r, s, phi = presentations(name)
    ast = homo_derivation_equation()
    for e in r.center:
        if e != r.zero:
            want = solved(s, ast, {"e": int(phi[e])})
            assert len(want) and np.array_equal(
                transported(phi, solved(r, ast, {"e": e})), want), e


@pytest.mark.parametrize("name", [
    "z6/z2xz3", pytest.param("gf8", marks=pytest.mark.slow)])
def test_pexider_equation_is_transported(name):
    r, s, phi = presentations(name)
    want = solved(s, pexider_equation())
    assert len(want) > 1
    assert np.array_equal(transported(phi, solved(r, pexider_equation())),
                          want)


# ------------------------------------------- the Frobenius automorphism


def frobenius(ring) -> np.ndarray:
    """x ↦ x^p as an array, p the characteristic, by repeated products."""
    elems = np.arange(ring.size)
    phi = elems
    for _ in range(ring.char - 1):
        phi = ring.mul[phi, elems]
    return phi


def automorphism(ring) -> np.ndarray:
    """The Frobenius φ, after checking that it is an automorphism other
    than the identity."""
    phi = frobenius(ring)
    assert sorted(phi.tolist()) == list(range(ring.size))
    assert phi.tolist() != list(range(ring.size))
    assert np.array_equal(phi[ring.add], ring.add[phi[:, None], phi[None, :]])
    assert np.array_equal(phi[ring.mul], ring.mul[phi[:, None], phi[None, :]])
    return phi


def moved(phi: np.ndarray, rows: np.ndarray) -> int:
    """How many rows g differ from φ∘g∘φ⁻¹."""
    image = np.empty_like(rows)
    image[..., phi] = phi[rows]
    return int((image != rows).any(axis=tuple(range(1, rows.ndim))).sum())


def conjugated(ring, rows: np.ndarray, count: int) -> np.ndarray:
    """φ∘g∘φ⁻¹ of every row g for the Frobenius φ, in lexicographic order,
    after checking that φ is an automorphism other than the identity and
    that it moves exactly ``count`` rows."""
    phi = automorphism(ring)
    assert moved(phi, rows) == count
    return transported(phi, rows)


@pytest.mark.parametrize("p,k,moved", [(2, 2, 144), (2, 3, 3168)],
                         ids=["gf4", "gf8"])
def test_frobenius_maps_the_pexider_solutions_onto_themselves(p, k, moved):
    ring = fnq.gf(p, k)
    rows = solved(ring, pexider_equation())
    assert np.array_equal(conjugated(ring, rows, moved), rows)


@pytest.mark.parametrize("p,k,moved", [(3, 2, 5112), (2, 4, 57792)],
                         ids=["gf9", "gf16"])
def test_frobenius_maps_the_family_images_onto_themselves(p, k, moved):
    # the distinct image rows in ascending id order, which is lexicographic
    from fnq.theorems import _Images
    ring = fnq.gf(p, k)
    images = _Images(ring)
    rows = images.rows[images.first]
    assert np.array_equal(conjugated(ring, rows, moved), rows)


FIELDS = {"gf4": (2, 2), "gf8": (2, 3), "gf9": (3, 2), "gf16": (2, 4)}


def shifts(ring) -> list[int]:
    return [e for e in ring.center if e != ring.zero]


@pytest.mark.parametrize("name,count", [
    ("gf4", 16), ("gf8", 522), ("gf9", 84), ("gf16", 65_576)])
def test_frobenius_transports_every_named_class(name, count):
    # each named class onto itself, and homo-deriv-sofy(e) onto
    # homo-deriv-sofy(φ(e)); ``count`` rows move over all the classes
    ring = fnq.gf(*FIELDS[name])
    phi = automorphism(ring)
    pairs = [(cls, cls) for cls in NAMED] + [
        (homo_deriv_sofy(e), homo_deriv_sofy(int(phi[e])))
        for e in shifts(ring)]
    total = 0
    for left, right in pairs:
        rows = enumerated(ring, left)
        assert len(rows) and np.array_equal(transported(phi, rows),
                                            enumerated(ring, right)), left
        total += moved(phi, rows)
    assert total == count


@pytest.mark.parametrize("name,count", [
    ("gf4", 8), ("gf8", 48), ("gf9", 54), ("gf16", 224)])
def test_frobenius_transports_thm4_at_every_shift(name, count):
    # the solutions at ε onto the solutions at φ(ε)
    ring = fnq.gf(*FIELDS[name])
    phi = automorphism(ring)
    ast = homo_derivation_equation()
    total = 0
    for e in shifts(ring):
        rows = solved(ring, ast, {"e": e})
        assert len(rows) and np.array_equal(
            transported(phi, rows), solved(ring, ast, {"e": int(phi[e])})), e
        total += moved(phi, rows)
    assert total == count


def classify_tables(name) -> np.ndarray:
    """Every map of GF(4); on the larger fields every row of a named or
    shifted class, but at most 512 additive ones at an even stride, and 64
    seeded random maps."""
    ring = fnq.gf(*FIELDS[name])
    if name == "gf4":
        return np.array(list(iproduct(range(4), repeat=4)), dtype=np.int64)
    additive = enumerated(ring, ADDITIVE)[:, 0]
    rows = [additive[::max(1, len(additive) // 512)],
            np.random.default_rng(7).integers(ring.size, size=(64, ring.size))]
    rows += [enumerated(ring, cls)[:, 0] for cls in NAMED if cls != ADDITIVE]
    rows += [enumerated(ring, homo_deriv_sofy(e))[:, 0] for e in shifts(ring)]
    return np.unique(np.concatenate(rows), axis=0)


@pytest.mark.parametrize("name", list(FIELDS))
def test_frobenius_transports_classify_map_tags(name):
    # the tags of φ∘f∘φ⁻¹ are the tags of f, each shift e sent to φ(e);
    # at least 85 % of the tables move, 240 of GF(4)'s 256
    ring = fnq.gf(*FIELDS[name])
    phi = automorphism(ring)
    tables = classify_tables(name)
    conjugates = np.empty_like(tables)
    conjugates[:, phi] = phi[tables]
    assert moved(phi, tables) >= 0.85 * len(tables)

    def image(cls):
        return cls if cls.eps is None else homo_deriv_sofy(int(phi[cls.eps]))
    for values, conjugate in zip(tables.tolist(), conjugates.tolist()):
        tags = classify_map(FnTable(ring, ring, tuple(values)))
        assert classify_map(FnTable(ring, ring, tuple(conjugate))) == {
            image(cls) for cls in tags}, values
