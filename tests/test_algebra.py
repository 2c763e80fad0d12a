import json

import numpy as np
import pytest

import fnq
from fnq.algebra import RingSpec, _verify_axioms
from fnq.errors import (AxiomViolation, BudgetExceeded, InvalidRingSpec,
                        LiteralInNonUnitalRing, NonPrimeModulus,
                        ReducibleModulus)


def test_zn6_shape(z6):
    assert z6.size == 6
    assert z6.zero == 0 and z6.one == 1
    assert np.array_equal(z6.mul, z6.mul.T)  # commutative
    assert z6.char == 6


def test_gf4_is_a_field(gf4):
    assert gf4.size == 4
    assert set(gf4.units) == {1, 2, 3}
    assert gf4.is_field
    assert gf4.char == 2


def test_gf4_pinned_tables(gf4):
    # carrier order: coefficient vectors (constant first) lexicographically,
    # so 0 -> 0, 1 -> x, 2 -> 1, 3 -> 1+x
    assert gf4.one == 2
    assert gf4.names == ("0", "x", "1", "1+x")
    # x * x = x + 1 modulo x^2 + x + 1
    assert int(gf4.mul[1, 1]) == 3
    # (1+x)(1+x) = 1 + x^2 = x
    assert int(gf4.mul[3, 3]) == 1


def test_ut2_noncommutative(ut2_2):
    assert ut2_2.size == 8
    witness = [(a, b) for a in range(8) for b in range(8)
               if int(ut2_2.mul[a, b]) != int(ut2_2.mul[b, a])]
    assert witness


def test_poly_quot_nilpotent(pq22):
    # index 1 is x; x^2 reduces to 0 in F_2[x]/(x^2)
    assert int(pq22.mul[1, 1]) == 0
    assert not pq22.is_field


def test_center_examples(z6, gf3, ut2_2):
    assert fnq.center(z6) == tuple(range(6))
    assert fnq.center(gf3) == (0, 1, 2)
    brute = tuple(c for c in range(8)
                  if all(int(ut2_2.mul[c, x]) == int(ut2_2.mul[x, c])
                         for x in range(8)))
    assert fnq.center(ut2_2) == brute == (0, 5)


def test_is_regular_examples(z6, gf5):
    assert fnq.is_regular(z6, 3) is False  # 3 * 2 = 0
    assert fnq.is_regular(z6, 5) is True
    assert fnq.is_regular(gf5, 0) is False
    with pytest.raises(InvalidRingSpec):
        fnq.is_regular(z6, 99)


@pytest.mark.parametrize("q", [2, 3, 5, 7])
def test_prime_fields_units_equal_regular(q):
    ring = fnq.gf(q)
    assert set(ring.units) == set(range(1, q))
    assert ring.units == ring.regular


def test_product_center_is_product_of_centers(z4, ut2_2):
    prod = fnq.product(z4, ut2_2)
    assert prod.size == 32
    expected = sorted(a * ut2_2.size + b
                      for a in z4.center for b in ut2_2.center)
    assert list(prod.center) == expected
    assert prod.one == z4.one * ut2_2.size + ut2_2.one


def test_axiom_checker_rejects_corruption(z6):
    bad_mul = np.array(z6.mul, copy=True)
    bad_mul[2, 3] = (bad_mul[2, 3] + 1) % 6  # breaks associativity
    with pytest.raises(AxiomViolation):
        _verify_axioms(6, np.array(z6.add), bad_mul, np.array(z6.neg), 0, 1)


def test_constructor_errors():
    with pytest.raises(NonPrimeModulus):
        fnq.gf(4, 1)
    with pytest.raises(ReducibleModulus):
        fnq.gf(2, 2, modulus=(1, 0, 1))  # x^2 + 1 = (x+1)^2 over F_2
    with pytest.raises(BudgetExceeded):
        fnq.build_ring(RingSpec(kind="Zn", n=300))
    with pytest.raises(InvalidRingSpec):
        fnq.zn(1)
    with pytest.raises(InvalidRingSpec):
        fnq.build_ring(RingSpec(kind="GF", p=2, k=2, modulus=(1, 1)))


def test_default_gf_modulus_matches_explicit():
    auto = fnq.gf(2, 2)
    explicit = fnq.gf(2, 2, modulus=(1, 1, 1))
    assert np.array_equal(auto.mul, explicit.mul)
    bigger = fnq.gf(3, 2)
    assert bigger.size == 9 and bigger.is_field


def test_subring_declaration(z6):
    ring = fnq.zn(6, subring=(0, 2, 4))
    assert ring.domain_elements == (0, 2, 4)
    assert list(ring.position[[0, 2, 4]]) == [0, 1, 2]
    assert int(ring.position[1]) == -1
    with pytest.raises(InvalidRingSpec):
        fnq.zn(6, subring=(0, 1, 2))  # not closed: 1+2=3
    with pytest.raises(InvalidRingSpec):
        fnq.zn(6, subring=(2, 4))  # missing zero


def test_spec_json_round_trip():
    docs = [
        {"kind": "Zn", "n": 6},
        {"kind": "GF", "p": 2, "k": 2, "modulus": [1, 1, 1]},
        {"kind": "PolyQuot", "p": 2, "k": 2},
        {"kind": "Product", "left": {"kind": "Zn", "n": 2},
         "right": {"kind": "Zn", "n": 3}},
        {"kind": "UT2", "p": 2},
        {"kind": "Zn", "n": 6, "subring": [0, 2, 4]},
    ]
    for doc in docs:
        spec = RingSpec.from_json(json.dumps(doc))
        assert RingSpec.from_json(spec.to_json()) == spec
        ring = fnq.build_ring(spec)
        assert ring.size >= 2


def test_int_embed(z6, gf4):
    assert z6.int_embed(0) == 0
    assert z6.int_embed(7) == 1
    assert z6.int_embed(-1) == 5
    assert gf4.int_embed(2) == 0  # characteristic 2
    import dataclasses
    no_unit = dataclasses.replace(fnq.zn(2), one=None)
    with pytest.raises(LiteralInNonUnitalRing):
        no_unit.int_embed(1)


def test_table_hash_stable(z6):
    again = fnq.zn(6)
    assert z6.table_hash == again.table_hash
    assert z6.table_hash != fnq.zn(5).table_hash


def test_domain_units_match_scalar_scan(z4, z6, gf4, pq22, ut2_2, z6_sub, z2xz2):
    from conftest import domain_units
    rings = [z4, z6, gf4, pq22, ut2_2, z6_sub, z2xz2, fnq.ut2(5),
             fnq.zn(12, subring=(0, 3, 6, 9)), fnq.zn(36)]
    for ring in rings:
        assert list(ring.domain_units) == domain_units(ring)
    assert z6_sub.domain_units == ()  # 1 lies outside {0, 2, 4}
