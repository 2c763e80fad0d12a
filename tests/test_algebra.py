import hashlib
import json
import pathlib
import random
import tracemalloc
from itertools import permutations, product as iproduct

import numpy as np
import pytest

import fnq
from fnq import algebra
from fnq.algebra import RingSpec, _verify_axioms
from fnq.errors import (AxiomViolation, BudgetExceeded, InvalidRingSpec,
                        NonPrimeModulus, ReducibleModulus)


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
    # breaks distributivity and associativity; distributivity is checked first
    bad_mul[2, 3] = (bad_mul[2, 3] + 1) % 6
    with pytest.raises(AxiomViolation, match="left distributivity fails"):
        _verify_axioms(6, np.array(z6.add), bad_mul, np.array(z6.neg), 0, 1)



def test_left_distributivity_failing_off_the_generators_is_reported_first():
    # Z32, above the exhaustive size, whose additive generating set is {1},
    # with 5*1 = 2 and every other product 0: associative, left
    # distributive at 1 but not at 5 (5*(1+1) = 0, not 2+2), and not right
    # distributive ((4+1)*1 = 2, not 4*1+1*1).  The reference checks the
    # left law first
    from conftest import exhaustive_axioms
    size = 32
    add = np.add.outer(np.arange(size), np.arange(size)) % size
    mul = np.zeros_like(add)
    mul[5, 1] = 2
    args = (size, add, mul, -np.arange(size) % size, 0, None)
    assert size > algebra._EXHAUSTIVE_SIZE
    assert algebra._additive_generators(add, 0) == [1]
    for check in (exhaustive_axioms, _verify_axioms):
        assert _axiom_failure(check, args) == "left distributivity fails"


def _spec_sweep():
    """Every pinned spec, Zn for n = 2..256, GF and PolyQuot of p**k <= 256
    for p = 2, 3, 5, UT2, products of small rings and subrings."""
    pinned = json.loads((pathlib.Path(__file__).parent
                         / "table_hashes.json").read_text())
    specs = [entry["spec"] for entry in pinned]
    specs += [{"kind": "Zn", "n": n} for n in range(2, 257)]
    specs += [{"kind": kind, "p": p, "k": k} for kind in ("GF", "PolyQuot")
              for p in (2, 3, 5) for k in range(1, 9) if p ** k <= 256]
    specs += [{"kind": "UT2", "p": p} for p in (2, 3, 5)]
    small = [{"kind": "Zn", "n": 2}, {"kind": "Zn", "n": 3},
             {"kind": "Zn", "n": 4}, {"kind": "GF", "p": 2, "k": 2},
             {"kind": "PolyQuot", "p": 2, "k": 2}, {"kind": "UT2", "p": 2}]
    specs += [{"kind": "Product", "left": a, "right": b}
              for a in small for b in small]
    specs += [{"kind": "Zn", "n": n, "subring": sub} for n, sub in (
        (6, [0]), (6, [0, 2, 4]), (12, [0, 3, 6, 9]),
        (36, list(range(0, 36, 6))))]
    return specs


def test_generators_match_the_scalar_reference():
    # the one generating-set routine, called with the unit and the
    # complement of the domain, keeps Ring.generators' greedy rule
    from conftest import reference_generators
    for spec in _spec_sweep():
        ring = fnq.ring_from_json(spec)
        assert ring.generators.tolist() == reference_generators(ring), spec


_AXIOM_MESSAGES = {
    "add table is not total on the carrier",
    "mul table is not total on the carrier",
    "negation table is not total on the carrier",
    "addition is not commutative",
    "zero is not an additive identity",
    "negation does not give additive inverses",
    "addition is not associative",
    "left distributivity fails",
    "right distributivity fails",
    "declared unit is not a two-sided identity",
    "multiplication is not associative",
}


def _z2_cubed(product):
    """(Z_2)^3 with index bits as coordinates and the given product."""
    vecs = [((i >> 2) & 1, (i >> 1) & 1, i & 1) for i in range(8)]

    def index(v):
        return 4 * (v[0] % 2) + 2 * (v[1] % 2) + v[2] % 2
    mul = np.array([[index(product(a, b)) for b in vecs] for a in vecs])
    add = np.array([[i ^ j for j in range(8)] for i in range(8)])
    return 8, add, mul, np.arange(8), 0, None


def _s3_with_zero_product():
    """The symmetric group S3 as + and 0 as every product: a non-abelian
    group with an associative, distributive product, so only the
    commutativity of + can refuse it."""
    perms = list(permutations(range(3)))
    add = np.array([[perms.index(tuple(p[i] for i in q)) for q in perms]
                    for p in perms])
    neg = np.array([perms.index(tuple(p.index(i) for i in range(3)))
                    for p in perms])
    return 6, add, np.zeros((6, 6), dtype=np.int64), neg, 0, None


def _hand_built_tables(z6):
    """Tables that break one law that random corruptions rarely reach."""
    def cross(a, b):  # distributive, not associative
        return (a[1] * b[2] - a[2] * b[1], a[2] * b[0] - a[0] * b[2],
                a[0] * b[1] - a[1] * b[0])
    wrong_one = (6, np.array(z6.add), np.array(z6.mul), np.array(z6.neg), 0, 5)
    # Z3xZ3 with x*y = (1,0) for y off {0}xZ3, else 0: associative, and left
    # distributive along {0}xZ3 only, so just the generator (1,0) shows it
    z3xz3 = fnq.product(fnq.zn(3), fnq.zn(3))
    off_subgroup = np.array([[3 if y >= 3 else 0 for y in range(9)]] * 9)
    return [_z2_cubed(cross), wrong_one,
            _z2_cubed(lambda a, b: a),   # associative, not left distributive
            _z2_cubed(lambda a, b: b),   # associative, not right distributive
            (9, np.array(z3xz3.add), off_subgroup, np.array(z3xz3.neg), 0, None),
            _s3_with_zero_product()]


def _corrupted_tables(rings, cases, seed):
    """Ring tables with 1-2 cells of add, mul or neg overwritten; one value
    in twenty is off the carrier, for the totality checks."""
    rng = random.Random(seed)
    for _ in range(cases):
        ring = rng.choice(rings)
        tables = {"add": np.array(ring.add), "mul": np.array(ring.mul),
                  "neg": np.array(ring.neg)}
        for _ in range(rng.randint(1, 2)):
            table = tables[rng.choice(("add", "mul", "neg"))]
            cell = tuple(rng.randrange(n) for n in table.shape)
            if rng.random() < 0.05:
                table[cell] = rng.choice((-1, ring.size))
            else:
                table[cell] = rng.randrange(ring.size)
        yield (ring.size, tables["add"], tables["mul"], tables["neg"],
               ring.zero, ring.one)


def _axiom_failure(check, args):
    try:
        check(*args)
    except AxiomViolation as exc:
        return str(exc)
    return None


@pytest.mark.parametrize("exhaustive_size", [0, algebra._EXHAUSTIVE_SIZE])
def test_axiom_check_agrees_with_exhaustive_reference(
        monkeypatch, exhaustive_size, z4, z6, gf4, pq22, z2xz2, ut2_2):
    """The generator-based check raises exactly when the size**3 reference
    does, with the same message unless the reference's first failure is
    multiplicative associativity, which `_verify_axioms` checks last.
    Size 0 runs every carrier through the generating-set path."""
    from conftest import exhaustive_axioms
    monkeypatch.setattr(algebra, "_EXHAUSTIVE_SIZE", exhaustive_size)
    hand_built = _hand_built_tables(z6)
    cases = list(_corrupted_tables([z4, z6, gf4, pq22, z2xz2, ut2_2], 4000, 5))
    cases += hand_built
    seen = set()
    for args in cases:
        want = _axiom_failure(exhaustive_axioms, args)
        got = _axiom_failure(_verify_axioms, args)
        seen.add(want)
        assert (got is None) == (want is None), (want, got)
        if want != "multiplication is not associative":
            assert got == want
    assert seen == _AXIOM_MESSAGES | {None}
    cross = hand_built[0]
    assert _axiom_failure(_verify_axioms, cross) == "multiplication is not associative"


def test_axiom_check_in_row_blocks_agrees_with_exhaustive_reference(
        monkeypatch, z4, z6, gf4, pq22, z2xz2, ut2_2):
    """Blocks of at most eight cells split every check into blocks of one
    generator and one or two rows; the verdicts still match the size**3
    reference."""
    from conftest import exhaustive_axioms
    monkeypatch.setattr(algebra, "_EXHAUSTIVE_SIZE", 0)
    monkeypatch.setattr(algebra, "_CHUNK_CELLS", 8)
    assert [len(range(*xs.indices(4))) for xs, _ in algebra._blocks(4, np.arange(2))] == [2] * 4
    cases = list(_corrupted_tables([z4, z6, gf4, pq22, z2xz2, ut2_2], 1000, 7))
    cases += _hand_built_tables(z6)
    for args in cases:
        want = _axiom_failure(exhaustive_axioms, args)
        got = _axiom_failure(_verify_axioms, args)
        assert (got is None) == (want is None), (want, got)
        if want != "multiplication is not associative":
            assert got == want


def _one_sided_tables(ring, rng, cases):
    """Associative products on the ring's additive group, with no unit, that
    are distributive on one side, and their mirror images x*y := y*x.

    x*y = p(x) for y in T and 0 otherwise, with p additive and idempotent
    and T a set without 0 that holds y exactly when it holds p(y), is
    associative and right distributive, so the axiom check takes the left
    law at generator pairs.
    Its mirror image is left distributive.  T is a seeded subset and p the
    identity, or, on (Z_2)^k with the index bits as coordinates, p keeps a
    seeded set B of bits and T holds the y where the parity of some bits in
    B of y, plus at times the product of two bits in B, is 1.  Without the
    product such a table is a ring; with it the left law fails only at
    multipliers with a bit in B and at b+y with b one of the two bits."""
    size, add = ring.size, np.array(ring.add)
    neg = np.array(ring.neg)
    elems = np.arange(size)
    bits = size.bit_length() - 1
    coordinates = (add == elems[:, None] ^ elems).all()
    for i in range(cases):
        keep = elems
        in_t = np.array([rng.random() < 0.5 for _ in elems])
        if coordinates and i % 2:
            kept = rng.sample(range(bits), rng.randint(1, bits))
            keep = elems & sum(1 << b for b in kept)
            mask = rng.randrange(size) & sum(1 << b for b in kept)
            in_t = np.array([bin(y & mask).count("1") % 2 for y in elems])
            if len(kept) > 1 and i % 3:
                b1, b2 = rng.sample(kept, 2)
                in_t ^= (elems >> b1) & (elems >> b2) & 1
            in_t = in_t.astype(bool)
        in_t[ring.zero] = False
        mul = np.where(in_t[None, :], keep[:, None], ring.zero)
        yield size, add, mul, neg, ring.zero, None
        yield size, add, np.ascontiguousarray(mul.T), neg, ring.zero, None


def test_left_law_at_generator_pairs_agrees_with_exhaustive_reference():
    """Above ``_EXHAUSTIVE_SIZE``, at the default threshold, the left law is
    checked at a(y+b) for a and b in the generating set A once the right
    law holds.  Seeded one-cell corruptions (mul cells in the rows of
    non-generators, and with a third argument outside A, and cells of add
    and neg) and one-sided distributive tables must fail exactly when the
    size**3 reference fails, with its message unless the reference's first
    failure is multiplicative associativity."""
    from conftest import exhaustive_axioms
    rings = [fnq.zn(32), fnq.gf(2, 5), fnq.product(fnq.zn(2), fnq.zn(16)),
             fnq.ut2(3)]
    rng = random.Random(23)
    seen, right_only = set(), 0
    for ring in rings:
        assert ring.size > algebra._EXHAUSTIVE_SIZE
        gens = algebra._additive_generators(ring.add, ring.zero)
        others = [e for e in range(ring.size) if e not in gens]
        cases = list(_one_sided_tables(ring, rng, 30))
        for i in range(150):
            tables = {"add": np.array(ring.add), "mul": np.array(ring.mul),
                      "neg": np.array(ring.neg)}
            name = ("mul", "mul", "mul", "add", "neg")[i % 5]
            table = tables[name]
            if name == "mul":
                # a non-generator row; half the time a column outside A
                cell = (rng.choice(others), rng.choice(
                    others if i % 2 else range(ring.size)))
            else:
                cell = tuple(rng.randrange(n) for n in table.shape)
            table[cell] = (table[cell] + rng.randrange(1, ring.size)) % ring.size
            cases.append((ring.size, tables["add"], tables["mul"],
                          tables["neg"], ring.zero, ring.one))
        for args in cases:
            want = _axiom_failure(exhaustive_axioms, args)
            got = _axiom_failure(_verify_axioms, args)
            seen.add(want)
            assert (got is None) == (want is None), (want, got)
            if want != "multiplication is not associative":
                assert got == want
            add, mul = args[1], args[2]
            if args[5] is None and np.array_equal(
                    mul[add, :], add[mul[:, None, :], mul[None, :, :]]):
                right_only += want is not None
    assert {None, "left distributivity fails", "right distributivity fails",
            "addition is not associative"} <= seen
    # failures the generator-pair left law alone had to find
    assert right_only >= 100


@pytest.mark.parametrize("exhaustive_size", [0, algebra._EXHAUSTIVE_SIZE])
def test_non_abelian_group_fails_commutativity_alone(monkeypatch,
                                                      exhaustive_size):
    # every law but commutativity holds, so the check at the generators
    # refuses S3 without the full compare of the failing path
    from conftest import exhaustive_axioms
    monkeypatch.setattr(algebra, "_EXHAUSTIVE_SIZE", exhaustive_size)
    size, add, mul, neg, zero, one = _s3_with_zero_product()
    assert not np.array_equal(add, add.T)
    assert np.array_equal(add[add, :], add[:, add])  # + is associative
    for check in (exhaustive_axioms, _verify_axioms):
        assert (_axiom_failure(check, _s3_with_zero_product())
                == "addition is not commutative")


def _corrupted_zn_builder(n, table, cell, value):
    """``algebra._zn_tables`` with one cell of Z_n's add, mul or neg table
    overwritten; other moduli are built as they are."""
    build = algebra._zn_tables

    def corrupted(m):
        tables = build(m)
        if m == n:
            tables = list(tables)
            i = {"add": 1, "mul": 2, "neg": 3}[table]
            tables[i] = np.array(tables[i])
            tables[i][cell] = value
        return tuple(tables)
    return corrupted


def _pair_tables(left, right):
    """The product of two rings' (size, add, mul, neg, zero, one) tables,
    entry by entry, the pair (l, r) at index l * right size + r."""
    nl, nr = left[0], right[0]
    pairs = [(a, b) for a in range(nl) for b in range(nr)]

    def op(i):
        return np.array([[left[i][a][c] * nr + right[i][b][d]
                          for c, d in pairs] for a, b in pairs])
    neg = np.array([left[3][a] * nr + right[3][b] for a, b in pairs])
    return (nl * nr, op(1), op(2), neg, 0, left[5] * nr + right[5])


def test_a_corrupted_component_fails_as_its_product_does(monkeypatch):
    """A product's components are not proven on their own: a cell of Z4's
    tables, corrupted in its builder, makes the product raise what the
    size**3 reference raises on the product's tables, with Z4 left or
    right, unless that is multiplicative associativity, which the check
    takes last."""
    from conftest import exhaustive_axioms
    z4, z2 = RingSpec(kind="Zn", n=4), RingSpec(kind="Zn", n=2)
    rng = random.Random(11)
    seen = set()
    for i in range(60):
        table = ("add", "mul", "neg")[i % 3]
        cell = (rng.randrange(4),) if table == "neg" else (
            rng.randrange(4), rng.randrange(4))
        clean = algebra._zn_tables(4)[{"add": 1, "mul": 2, "neg": 3}[table]]
        value = (int(clean[cell]) + rng.randrange(1, 4)) % 4
        builder = _corrupted_zn_builder(4, table, cell, value)
        monkeypatch.setattr(algebra, "_zn_tables", builder)
        for left, right in ((z4, z2), (z2, z4)):
            want = _axiom_failure(exhaustive_axioms, _pair_tables(
                builder(left.n)[:6], builder(right.n)[:6]))
            assert want is not None
            with pytest.raises(AxiomViolation) as exc:
                fnq.product(left, right)
            if want != "multiplication is not associative":
                assert str(exc.value) == want
            seen.add(want)
        monkeypatch.undo()
    assert len(seen) >= 4, seen


_SPEC_ERRORS = [  # a bad component spec, its error and message
    (RingSpec(kind="GF", p=2, k=2, modulus=(1, 0, 1)), ReducibleModulus,
     "1+x^2 is reducible over F_2"),
    (RingSpec(kind="GF", p=3, k=2, modulus=(0, 0, 1)), ReducibleModulus,
     "x^2 is reducible over F_3"),
    (RingSpec(kind="GF", p=4, k=1), NonPrimeModulus, "4 is not prime"),
    (RingSpec(kind="GF", p=6, k=1), NonPrimeModulus, "6 is not prime"),
    (RingSpec(kind="Zn", n=1), InvalidRingSpec, "Zn needs n >= 2"),
    (RingSpec(kind="Zn", n=3), None, None),
]


@pytest.mark.parametrize("left", range(len(_SPEC_ERRORS)))
@pytest.mark.parametrize("right", range(len(_SPEC_ERRORS)))
def test_product_errors_come_left_component_first(left, right):
    """A product reports its components' errors as building them on their
    own would, the left component first; a size error of either component
    comes first, as the product's size is counted before any table is
    built."""
    (ls, l_err, l_msg), (rs, r_err, r_msg) = _SPEC_ERRORS[left], _SPEC_ERRORS[right]
    if l_err is None and r_err is None:
        assert fnq.product(ls, rs).size == 9
        return
    if InvalidRingSpec in (l_err, r_err):
        err, msg = InvalidRingSpec, "Zn needs n >= 2"
    else:
        err, msg = (l_err, l_msg) if l_err is not None else (r_err, r_msg)
    for spec in (RingSpec(kind="Product", left=ls, right=rs),
                 RingSpec(kind="Product", left=RingSpec(
                     kind="Product", left=ls, right=RingSpec(kind="Zn", n=2)),
                     right=rs)):
        with pytest.raises(err) as exc:
            fnq.build_ring(spec)
        assert str(exc.value) == msg and type(exc.value) is err


def test_a_build_proves_once_and_walks_the_generators_once(monkeypatch):
    """A product calls the axiom check once, on its own tables, and a
    carrier above ``_EXHAUSTIVE_SIZE`` without a declared subring hands
    the check's generating set to ``Ring.generators``; smaller carriers and
    subrings walk it when ``generators`` is read."""
    calls = {"_verify_axioms": 0, "_additive_generators": 0}
    for name in calls:
        original = getattr(algebra, name)

        def counted(*args, _name=name, _original=original, **kwargs):
            calls[_name] += 1
            return _original(*args, **kwargs)
        monkeypatch.setattr(algebra, name, counted)
    zn = lambda n: RingSpec(kind="Zn", n=n)
    for spec, walks in [
            (RingSpec(kind="Product", left=zn(16), right=zn(16)), 1),
            (RingSpec(kind="Product", left=RingSpec(
                kind="Product", left=zn(2), right=zn(2)), right=zn(2)), 1),
            (zn(256), 1), (RingSpec(kind="GF", p=2, k=8), 1), (zn(6), 1),
            (RingSpec(kind="Zn", n=36, subring=tuple(range(0, 36, 6))), 2),
            (RingSpec(kind="Zn", n=6, subring=(0, 2, 4)), 1)]:
        for name in calls:
            calls[name] = 0
        ring = fnq.build_ring(spec)
        assert ring.generators is ring.generators
        assert calls == {"_verify_axioms": 1, "_additive_generators": walks}, spec


@pytest.mark.parametrize("spec", [
    RingSpec(kind="Zn", n=12), RingSpec(kind="GF", p=2, k=3),
    RingSpec(kind="UT2", p=3), RingSpec(kind="Zn", n=12, subring=(0, 4, 8)),
    RingSpec(kind="Product", left=RingSpec(kind="Zn", n=2),
             right=RingSpec(kind="UT2", p=2))],
    ids=["z12", "gf8", "ut2_3", "z12{0,4,8}", "z2xut2_2"])
def test_center_units_and_regular_are_read_from_the_tables(spec):
    """A build leaves the center, units and regular elements unread; on
    first read each is its definition, checked element by element, also
    on a declared subring, where they are the carrier's.  The unit is an
    int, the characteristic its additive order, and a literal v its
    v-fold sum."""
    ring = fnq.build_ring(spec)
    assert not {"center", "units", "regular"} & set(vars(ring))
    mul, n = ring.mul.tolist(), ring.size
    assert ring.center == tuple(
        x for x in range(n) if all(mul[x][y] == mul[y][x] for y in range(n)))
    assert ring.units == tuple(
        x for x in range(n)
        if any(mul[x][y] == mul[y][x] == ring.one for y in range(n)))
    divides = [any(y != ring.zero and ring.zero in (mul[x][y], mul[y][x])
                   for y in range(n)) for x in range(n)]
    assert ring.regular == tuple(x for x in range(n)
                                 if x != ring.zero and not divides[x])
    assert ring.center is ring.center
    assert type(ring.one) is int
    add = ring.add.tolist()

    def times_one(v):
        """The |v|-fold sum of the unit, negated for v < 0."""
        acc = ring.zero
        for _ in range(abs(v)):
            acc = add[acc][ring.one]
        return acc if v >= 0 else int(ring.neg[acc])
    char = ring.char
    assert [times_one(v) == ring.zero for v in range(1, char + 1)] == (
        [False] * (char - 1) + [True])
    for v in range(-2 * char, 2 * char + 1):
        assert ring.int_embed(v) == times_one(v), v


def test_vectorized_builders_reproduce_pinned_tables():
    """Table hashes of GF(p^k) for every p^k <= 256 (three explicit moduli),
    PolyQuot, UT2 and products, as computed by the scalar builders, and of
    Zn for n = 2..16, 64, 100, 255 and 256.  Some entries also pin the
    SHA-256 of the element names, one per line."""
    pinned = json.loads((pathlib.Path(__file__).parent
                         / "table_hashes.json").read_text())
    kinds = {entry["spec"]["kind"] for entry in pinned}
    assert kinds == {"Zn", "GF", "PolyQuot", "UT2", "Product"}
    named = 0
    for entry in pinned:
        ring = fnq.ring_from_json(entry["spec"])
        assert ring.table_hash == entry["table_hash"], entry["spec"]
        if "names_hash" in entry:
            named += 1
            digest = hashlib.sha256("\n".join(ring.names).encode()).hexdigest()
            assert digest == entry["names_hash"], entry["spec"]
    assert named == 4  # Z12, GF(2^8), UT2(5) and Z16xZ16


def test_pinned_names_spot_checks():
    assert fnq.zn(12).names == tuple(str(i) for i in range(12))
    gf256 = fnq.gf(2, 8)
    assert gf256.names[:3] == ("0", "x^7", "x^6")
    assert gf256.names[-1] == "1+x+x^2+x^3+x^4+x^5+x^6+x^7"
    assert fnq.ut2(5).names[26] == "[1 0;0 1]"
    z16xz16 = fnq.product(fnq.zn(16), fnq.zn(16))
    assert z16xz16.names[:2] + z16xz16.names[-1:] == ("(0|0)", "(0|1)", "(15|15)")


def _boolean_ring_256():
    spec = RingSpec(kind="Zn", n=2)
    for _ in range(7):
        spec = RingSpec(kind="Product", left=RingSpec(kind="Zn", n=2), right=spec)
    return spec


@pytest.mark.parametrize("spec", [
    RingSpec(kind="Zn", n=256),
    RingSpec(kind="GF", p=2, k=8),
    RingSpec(kind="Product", left=RingSpec(kind="Zn", n=16),
             right=RingSpec(kind="Zn", n=16)),
    RingSpec(kind="UT2", p=5),
    _boolean_ring_256(),
], ids=["Z256", "GF256", "Z16xZ16", "UT2(5)", "Z2^8"])
def test_build_peak_memory_below_one_cube(spec):
    """No build allocates a size**3 temporary, even the Boolean ring, whose
    multiplicative generating sets are as large as the carrier."""
    cube_int16 = 256 ** 3 * 2
    tracemalloc.start()
    try:
        ring = fnq.build_ring(spec)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert ring.size in (125, 256)
    assert peak < cube_int16, peak


def test_constructor_errors():
    with pytest.raises(NonPrimeModulus):
        fnq.gf(4, 1)
    with pytest.raises(ReducibleModulus):
        fnq.gf(2, 2, modulus=(1, 0, 1))  # x^2 + 1 = (x+1)^2 over F_2
    with pytest.raises(ReducibleModulus):  # reported before the subring
        fnq.build_ring(RingSpec(kind="GF", p=2, k=2, modulus=(1, 0, 1),
                                subring=(1,)))
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


@pytest.mark.parametrize("p,k", [(2, 2), (2, 3), (2, 4), (2, 6), (2, 8),
                                 (3, 2), (3, 3), (3, 4), (5, 2), (5, 3),
                                 (7, 2), (7, 3), (11, 2), (13, 2)])
def test_default_modulus_is_first_irreducible_by_trial_division(p, k):
    # the sieve picks the first candidate, in lexicographic order from the
    # constant term, whose quotient has no zero divisor: F_p[x]/(m) is a
    # field exactly when m is irreducible.  The quotients' products are
    # tried, not their units
    def zero_divisor(modulus):
        mul = algebra._poly_ring_tables(p, k, modulus)[2]
        return bool((mul[1:, 1:] == 0).any())
    default = algebra._default_modulus(p, k)
    candidates = [lower + (1,) for lower in iproduct(range(p), repeat=k)]
    earlier = candidates[:candidates.index(default)]
    assert all(map(zero_divisor, earlier)) and not zero_divisor(default)


@pytest.mark.parametrize("p,k", [(2, 2), (2, 3), (3, 2), (3, 3), (5, 2),
                                 (5, 3), (7, 2)])
def test_explicit_modulus_is_refused_exactly_when_it_has_a_root(p, k):
    # a monic of degree 2 or 3 is reducible exactly when it has a linear
    # factor; 7**3 exceeds the size budget
    for lower in iproduct(range(p), repeat=k):
        modulus = lower + (1,)
        has_root = any(sum(c * a ** i for i, c in enumerate(modulus)) % p == 0
                       for a in range(p))
        try:
            ring = fnq.gf(p, k, modulus=modulus)
        except ReducibleModulus as exc:
            assert has_root, modulus
            assert str(exc) == (f"{algebra._poly_name(modulus)} is reducible "
                                f"over F_{p}")
        else:
            assert not has_root and ring.is_field, modulus


def test_subring_declaration(z6):
    ring = fnq.zn(6, subring=(0, 2, 4))
    assert ring.domain_elements == (0, 2, 4)
    assert list(ring.position[[0, 2, 4]]) == [0, 1, 2]
    assert int(ring.position[1]) == -1
    with pytest.raises(InvalidRingSpec):
        fnq.zn(6, subring=(0, 1, 2))  # not closed: 1+2=3
    with pytest.raises(InvalidRingSpec):
        fnq.zn(6, subring=(2, 4))  # missing zero


def test_subring_listing_order_and_repeats_do_not_matter():
    # the subring is a set: listed out of order or with a repeat, the ring
    # has one domain, spec and table hash, and equations solve over it once
    canonical = fnq.zn(6, subring=(0, 2, 4))
    for listed in ((0, 4, 2), (0, 2, 2, 4), (4, 2, 0, 0)):
        ring = fnq.zn(6, subring=listed)
        again = fnq.ring_from_json(json.dumps(ring.spec.to_json()))
        for r in (ring, again):
            assert r.spec == canonical.spec and r.subring == (0, 2, 4)
            assert r.domain_elements == (0, 2, 4)
            assert r.table_hash == canonical.table_hash
    ast = fnq.parse_equation("f(x+y)=f(x)+f(y)")
    ss = fnq.solve(fnq.SolveTask(ast, fnq.zn(6, subring=(0, 2, 2, 4)),
                                 {"f": fnq.ARBITRARY}))
    # f(2) is a of order dividing 3 in Z6, and f(4) = 2a
    assert sorted(b.functions["f"].values for b in ss.solutions) == [
        (0, 0, 0), (0, 2, 4), (0, 4, 2)]


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


def test_numpy_integers_build_the_same_spec():
    built = [(fnq.zn(6, subring=tuple(np.arange(0, 6, 2))),
              fnq.zn(6, subring=(0, 2, 4))),
             (fnq.gf(2, 2, modulus=tuple(np.array([1, 1, 1]))),
              fnq.gf(2, 2, modulus=(1, 1, 1))),
             (fnq.zn(np.int64(6)), fnq.zn(6))]
    for ring, plain in built:
        assert ring.spec == plain.spec
        assert ring.table_hash == plain.table_hash
        again = fnq.ring_from_json(json.dumps(ring.spec.to_json()))
        assert again.spec == plain.spec


@pytest.mark.parametrize("spec", [
    dict(kind="Zn", n=6.0), dict(kind="Zn", n=True),
    dict(kind="Zn", n=6, subring=(0, 2.0, 4)),
    dict(kind="GF", p=2, k=2, modulus=(1, True, 1)),
    dict(kind="UT2", p=np.float64(2))], ids=str)
def test_spec_refuses_floats_and_bools(spec):
    with pytest.raises(InvalidRingSpec, match="needs integers"):
        RingSpec(**spec)


def test_int_embed(z6, gf4):
    assert z6.int_embed(0) == 0
    assert z6.int_embed(7) == 1
    assert z6.int_embed(-1) == 5
    assert gf4.int_embed(2) == 0  # characteristic 2


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
