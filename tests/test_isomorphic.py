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

import numpy as np
import pytest

import fnq
from fnq.maps import ARBITRARY, enumerate_maps, homo_deriv_sofy
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
