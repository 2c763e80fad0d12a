import fractions
import json
import os
import subprocess
import sys
from collections import Counter
from itertools import islice, product as iproduct
from pathlib import Path

import numpy as np
import pytest

import fnq
from fnq.eqdsl import grid_masks
from fnq.errors import (BothZero, BudgetExceeded, EpsilonZero, InvalidTask,
                        NotAField, NotCentral, ResidualNonzero,
                        Unclassifiable)
from fnq.maps import (LEIBNIZ, LOGARITHMIC, MULTIPLICATIVE, FnTable,
                      class_rows, enumerate_maps, identity_map, zero_map)
from fnq.solver import residual
from fnq.theorems import (annihilator_witness, classify_pexider,
                          multiplicative_shift, pexider_closure_samples,
                          pexider_equation, pexider_family_binding,
                          verify_alien, verify_mp, verify_pexider,
                          verify_sofy, verify_thm5_symbolic)

from conftest import (brute_tables, is_homo_deriv_at, is_leibniz_at,
                      is_multiplicative_at, reference_classify_pexider,
                      thm4_backward_violations)


def test_thm4_z2_bijection(z2):
    report = verify_sofy(z2, 1)
    assert report.solutions_found == 3
    assert report.predicted_count == 3
    assert report.forward_ok and report.backward_ok
    assert report.details["bijection"] is True
    assert report.holds()


def test_thm4_gf3_eps2(gf3):
    report = verify_sofy(gf3, 2)
    assert report.forward_ok and report.backward_ok
    assert report.solutions_found == report.predicted_count
    assert report.details["bijection"] is True
    # solutions equal 2*(m - id) pointwise, since 2 is its own inverse mod 3
    mult = [t.values for t in enumerate_maps(gf3, gf3, MULTIPLICATIVE)]
    expected = sorted(
        tuple(int(gf3.mul[2, gf3.sub(v, e)]) for v, e in zip(vals, range(3)))
        for vals in mult)
    # recompute the brute-force solutions independently
    oracle = sorted(v for v in iproduct(range(3), repeat=3)
                    if all(is_homo_deriv_at(gf3, v, x, y, 2)
                           for x in range(3) for y in range(3)))
    assert oracle == expected


def test_thm4_zero_divisor_probe_reports(z6):
    # eps = 3 is a central zero divisor: the forward direction must hold,
    # the converse is probed and its outcome reported, whatever it is
    report = verify_sofy(z6, 3)
    assert report.forward_ok
    assert report.backward_ok is not None
    assert not report.details["eps_is_regular"]
    if not report.backward_ok:
        assert report.details["backward_violation_count"] > 0
        ce = report.counterexamples[0]
        assert ce["direction"] == "backward"
        assert ce["violations"]


@pytest.mark.parametrize("ring", [fnq.zn(4), fnq.zn(6), fnq.poly_quot(2, 2),
                                  fnq.product(fnq.zn(2), fnq.zn(2))],
                         ids=["Z4", "Z6", "F2[x]/(x^2)", "Z2xZ2"])
def test_thm4_backward_count_matches_brute_force(ring):
    for eps in ring.center:
        if eps == ring.zero:
            continue
        report = verify_sofy(ring, eps)
        count = report.details["backward_violation_count"]
        assert count == thm4_backward_violations(ring, eps)
        assert report.backward_ok == (count == 0)
        # a finite ring's converse holds exactly for unit shift constants
        assert report.backward_ok == report.details["eps_is_unit"]


@pytest.mark.parametrize("n, eps, count", [
    (6, 3, 3_640), (8, 2, 12_272), (8, 4, 524_272), (9, 3, 177_138)])
def test_thm4_backward_count_matches_the_enumerated_one(n, eps, count):
    # the counts the full preimage enumeration reports on these rings
    ring = fnq.zn(n)
    report = verify_sofy(ring, eps, budget=10 ** 30)
    assert report.details["backward_violation_count"] == count
    assert not report.backward_ok and not report.holds()
    sample = [ce for ce in report.counterexamples
              if ce["direction"] == "backward"]
    assert len(sample) == 20
    for ce in sample:
        h = FnTable(ring, ring, tuple(ce["h"]))
        assert multiplicative_shift(h, eps).values == tuple(ce["m"])
        bind = fnq.eqdsl.Binding(functions={"h": h}, params={"e": eps})
        assert ce["violations"] == residual(
            fnq.theorems.homo_derivation_equation(), bind, ring)[:5] != []


CONVERSE_RINGS = {
    **{f"Z{n}": fnq.zn(n) for n in range(2, 11)},
    "GF4": fnq.gf(2, 2), "GF8": fnq.gf(2, 3),
    "F2[x]/(x^2)": fnq.poly_quot(2, 2), "F2[x]/(x^3)": fnq.poly_quot(2, 3),
    "F3[x]/(x^2)": fnq.poly_quot(3, 2), "UT2(2)": fnq.ut2(2),
    "Z2xZ2": fnq.product(fnq.zn(2), fnq.zn(2)),
    "Z2xZ4": fnq.product(fnq.zn(2), fnq.zn(4)),
}


@pytest.mark.parametrize("ring", CONVERSE_RINGS.values(),
                         ids=CONVERSE_RINGS.keys())
def test_thm4_converse_holds_exactly_for_unit_shifts(ring):
    for eps in ring.center:
        if eps == ring.zero:
            continue
        report = verify_sofy(ring, eps, budget=10 ** 30)
        is_unit = any(ring.mul[eps, w] == ring.one == ring.mul[w, eps]
                      for w in range(ring.size))
        assert report.details["eps_is_unit"] == is_unit
        assert report.forward_ok
        assert report.backward_ok == is_unit


def test_thm4_converse_fails_on_capped_preimage_sets():
    # eps = 5 in Z10: preimage sets of up to 5**10 maps, too many to
    # enumerate, still count towards the verdict
    ring = fnq.zn(10)
    report = verify_sofy(ring, 5, budget=10 ** 30)
    assert report.forward_ok
    assert report.details["backward_violation_count"] == 48_828_120
    assert report.backward_ok is False
    assert not report.holds()
    # the sample comes from the first, capped, preimage set
    sample = report.counterexamples
    assert len(sample) == 20
    assert all(ce["direction"] == "backward" for ce in sample)
    assert [ce["h"] for ce in sample] == sorted(ce["h"] for ce in sample)
    ast = fnq.theorems.homo_derivation_equation()
    for ce in sample:
        h = FnTable(ring, ring, tuple(ce["h"]))
        assert multiplicative_shift(h, 5).values == tuple(ce["m"])
        bind = fnq.eqdsl.Binding(functions={"h": h}, params={"e": 5})
        assert ce["violations"] == residual(ast, bind, ring)[:5] != []


def test_thm4_argument_guards(z6, ut2_2):
    with pytest.raises(EpsilonZero):
        verify_sofy(z6, 0)
    with pytest.raises(NotCentral):
        verify_sofy(ut2_2, 1)  # [[0,0],[0,1]] is not central


@pytest.mark.parametrize("eps", [-1, 8, 13], ids=["minus1", "size",
                                                   "size+5"])
def test_shift_constant_outside_the_ring_is_refused(eps):
    # a negative index would wrap to 7 and one past the carrier would be
    # an IndexError or a centrality verdict; each is an InvalidTask with
    # the wording of class_constraints, before the centrality check
    z8 = fnq.zn(8)
    message = f"shift constant {eps} is not an element of a ring of size 8"
    with pytest.raises(InvalidTask, match=message):
        multiplicative_shift(zero_map(z8), eps)
    with pytest.raises(InvalidTask, match=message):
        verify_sofy(z8, eps)
    with pytest.raises(InvalidTask, match=message):
        fnq.maps.class_constraints(z8, "f", fnq.maps.homo_deriv_sofy(eps))


@pytest.mark.parametrize("value", [-1, 8, 13], ids=["minus1", "size",
                                                     "size+5"])
def test_out_of_ring_parameters_share_the_shift_constant_wording(value):
    """A parameter outside the ring is refused by solve and by
    pexider_family_binding, in the field GF(8), with the wording of
    fnq.algebra.require_element that the shift constant has (see
    test_shift_constant_outside_the_ring_is_refused)."""
    calls = {
        "e": lambda: fnq.solve(fnq.SolveTask(
            fnq.parse_equation("f(x*y)=e*f(x)"), fnq.zn(8),
            {"f": fnq.ARBITRARY}, params={"e": value})),
        "lam1": lambda: pexider_family_binding("AllLinear", fnq.gf(2, 3),
                                               {"lam1": value, "lam2": 0})}
    for name, call in calls.items():
        with pytest.raises(InvalidTask) as caught:
            call()
        assert str(caught.value) == (f"parameter {name!r} = {value} is not an "
                                     "element of a ring of size 8")


def test_not_a_field_has_one_wording(z6):
    """Every check for field scalars raises fnq.algebra.require_field's
    NotAField, with one message."""
    ident, z = identity_map(z6), zero_map(z6)
    calls = [
        lambda: fnq.maps.lin_rank([ident], z6),
        lambda: fnq.maps.linear_combination(ident, [ident], z6),
        lambda: classify_pexider(z, z, z),
        lambda: verify_pexider(z6),
        lambda: verify_alien(z6, 1, 1),
        lambda: pexider_family_binding("AllLinear", z6,
                                       {"lam1": 1, "lam2": 1}),
        lambda: next(pexider_closure_samples(z6))]
    for call in calls:
        with pytest.raises(NotAField) as caught:
            call()
        assert str(caught.value) == "Zn of size 6 is not a field"


def test_multiplicative_shift_examples(z2, z4):
    ident = identity_map(z4)
    assert multiplicative_shift(zero_map(z4), 1).values == ident.values
    minus_id = FnTable(z4, z4, tuple(int(z4.neg[e]) for e in range(4)))
    assert multiplicative_shift(minus_id, 1).values == (0, 0, 0, 0)
    h = FnTable(z2, z2, (0, 1))
    shifted = multiplicative_shift(h, 1)
    assert shifted.values == (0, 0)  # 1 + 1 = 0 in Z_2


@pytest.mark.parametrize("ring", [fnq.zn(4), fnq.zn(6), fnq.zn(8),
                                  fnq.poly_quot(2, 2)],
                         ids=["Z4", "Z6", "Z8", "F2[x]/(x^2)"])
def test_prop1_probe_matches_brute_force(ring):
    # every annihilated value vector in order, skipping those an earlier
    # alpha probed, checked against the system point by point
    elems = ring.domain_elements
    probed, bad, sample = [], 0, []
    for alpha in range(ring.size):
        if alpha == ring.zero:
            continue
        ann = {v for v in range(ring.size)
               if ring.mul[alpha, v] == ring.zero == ring.mul[v, alpha]}
        for vals in iproduct(sorted(ann), repeat=len(elems)):
            if any(set(vals) <= earlier for earlier in probed):
                continue
            if not all(is_multiplicative_at(ring, vals, x, y)
                       and is_leibniz_at(ring, vals, x, y)
                       for x in elems for y in elems):
                bad += 1
                sample += [list(vals)][:5 - len(sample)]
        probed.append(ann)
    details = verify_mp(ring).details
    assert details["backward_counterexample_count"] == bad
    assert details["backward_sample"] == sample


@pytest.mark.parametrize("sizes,max_rows", [
    ((2, 3, 1, 2), 1), ((2, 3, 1, 2), 6), ((3, 3, 3), 100), ((2, 0, 3), 4),
    ((4,), 2)])
def test_product_blocks_walk_the_product_in_order(sizes, max_rows):
    options = [list(range(10, 10 + n)) for n in sizes]
    blocks = list(fnq.theorems._product_blocks(options, max_rows))
    assert all(len(b) <= max(max_rows, sizes[-1]) for b in blocks)
    rows = [r for b in blocks for r in b.tolist()]
    assert rows == [list(p) for p in iproduct(*options)]


def _masks(*sets, q=4):
    """(S, m, q) masks of product sets given as per-position value lists."""
    out = np.zeros((len(sets), len(sets[0]), q), dtype=bool)
    for s, options in enumerate(sets):
        for j, allowed in enumerate(options):
            out[s, j, allowed] = True
    return out


def test_outside_walks_each_set_once_in_order():
    def outside(sets, sol_ids, limit=100):
        return list(islice(fnq.theorems._outside(sets, sol_ids), limit))

    none = np.array([], dtype=np.int64)
    # the second set overlaps the first in the rows (1, 2) and (1, 3)
    sets = _masks([[0, 1], [2, 3]], [[1, 2], [2, 3]])
    assert outside(sets, none) == [
        (0, [0, 2]), (0, [0, 3]), (0, [1, 2]), (0, [1, 3]),
        (1, [2, 2]), (1, [2, 3])]
    # solutions are skipped wherever they lie
    sol_ids = fnq.maps.row_ids(np.array([[0, 3], [2, 2]]), 4)
    assert outside(sets, sol_ids) == [
        (0, [0, 2]), (0, [1, 2]), (0, [1, 3]), (1, [2, 3])]
    assert outside(sets, sol_ids, 2) == [(0, [0, 2]), (0, [1, 2])]
    # a set with an empty position holds no row
    assert outside(_masks([[0], []], [[3], [1]]), none) == [(1, [3, 1])]
    # a row an earlier set holds is skipped even when that set was walked
    # in several blocks
    wide = _masks([[0, 1, 2, 3]] * 7, [[0, 1]] * 6 + [[0, 1, 2, 3]])
    taken = outside(wide, none, 4 ** 7 + 1)
    assert [row for _, row in taken] == [list(p) for p in
                                         iproduct(range(4), repeat=7)]


def _prop1_brute_count(ring):
    """Value vectors with an annihilated image that fail the system, by a
    scan of every vector with scalar pair checks."""
    add, mul = ring.add.tolist(), ring.mul.tolist()
    zero, elems = ring.zero, ring.domain_elements
    at = {x: i for i, x in enumerate(elems)}
    pairs = [(at[x], at[y], at[mul[x][y]], x, y) for x in elems for y in elems]
    anns = [{v for v in range(ring.size) if mul[a][v] == zero == mul[v][a]}
            for a in range(ring.size) if a != zero]
    count = 0
    for f in brute_tables(ring):
        image = set(f)
        if any(image <= ann for ann in anns) and not all(
                f[p] == mul[f[i]][f[j]] == add[mul[f[i]][y]][mul[x][f[j]]]
                for i, j, p, x, y in pairs):
            count += 1
    return count


BRUTE_RINGS = {
    **{f"Z{n}": fnq.zn(n) for n in range(2, 7)},
    "GF4": fnq.gf(2, 2), "F2[x]/(x^2)": fnq.poly_quot(2, 2),
    "Z2xZ2": fnq.product(fnq.zn(2), fnq.zn(2)),
    "Z2xZ3": fnq.product(fnq.zn(2), fnq.zn(3)),
    "Z6{0,2,4}": fnq.zn(6, subring=(0, 2, 4)),
}


@pytest.mark.parametrize("ring", BRUTE_RINGS.values(), ids=BRUTE_RINGS.keys())
def test_prop1_converse_count_matches_brute_force(ring):
    count = verify_mp(ring).details["backward_counterexample_count"]
    assert count == _prop1_brute_count(ring)


@pytest.mark.parametrize("ring, count", [
    (fnq.zn(6), 791), (fnq.zn(8), 65_535), (fnq.zn(9), 19_682),
    (fnq.zn(6, subring=(0, 2, 4)), 33),
    # Z10: Ann(5) = {0,2,4,6,8} and Ann(2) = {0,5} meet in {0}, the zero
    # map is the one solution: 5**10 + 2**10 - 1 - 1
    (fnq.zn(10), 5 ** 10 + 2 ** 10 - 1 - 1),
    # Z12: the union of Ann(6)^12 and Ann(4)^12, which meet in {0, 6},
    # minus the zero map: 6**12 + 4**12 - 2**12 - 1 = 2,193,555,455
    (fnq.zn(12), 2_193_555_455),
    # Z16: every annihilator lies in Ann(8), the evens: 8**16 - 1
    (fnq.zn(16), 281_474_976_710_655)],
    ids=["Z6", "Z8", "Z9", "Z6{0,2,4}", "Z10", "Z12", "Z16"])
def test_prop1_converse_count_is_exact(ring, count):
    report = verify_mp(ring)
    details = report.details
    assert details["backward_counterexample_count"] == count
    assert "backward_enumeration_capped" not in details
    # the sample: the first five non-solutions with an annihilated image,
    # here all from one annihilator, so in lexicographic order
    sample = details["backward_sample"]
    assert len(sample) == 5
    elems = ring.domain_elements
    for vals in sample:
        assert annihilator_witness(FnTable(ring, ring, tuple(vals))) is not None
        assert not all(is_multiplicative_at(ring, vals, x, y)
                       and is_leibniz_at(ring, vals, x, y)
                       for x in elems for y in elems)
    assert sample == sorted(sample)


def _scalar_witness(ring, values):
    for alpha in range(ring.size):
        if alpha != ring.zero and all(
                ring.mul[alpha, v] == ring.zero == ring.mul[v, alpha]
                for v in values):
            return alpha
    return None


@pytest.mark.parametrize("ring", [fnq.zn(6), fnq.zn(8), fnq.ut2(2),
                                  fnq.product(fnq.zn(2), fnq.zn(4)),
                                  fnq.poly_quot(2, 2)],
                         ids=["Z6", "Z8", "UT2(2)", "Z2xZ4", "F2[x]/(x^2)"])
def test_annihilator_witness_matches_a_scalar_scan(ring):
    # the witness depends on the image only: try every nonempty image
    q = ring.size
    for bits in range(1, 1 << q):
        image = [v for v in range(q) if bits >> v & 1]
        values = tuple(image + image[:1] * (q - len(image)))
        f = FnTable(ring, ring, values)
        assert annihilator_witness(f) == _scalar_witness(ring, image)


def _prop1_brute_solutions(ring):
    """The maps solving f(xy) = f(x)f(y) = f(x)y + xf(y) at every domain
    pair, by brute force over plain lists, in lexicographic order."""
    add, mul = ring.add.tolist(), ring.mul.tolist()
    elems = ring.domain_elements
    at = {x: i for i, x in enumerate(elems)}
    pairs = [(at[x], at[y], at[mul[x][y]], x, y) for x in elems for y in elems]
    return [list(f) for f in brute_tables(ring) if all(
        f[p] == mul[f[i]][f[j]] == add[mul[f[i]][y]][mul[x][f[j]]]
        for i, j, p, x, y in pairs)]


@pytest.mark.parametrize("n, subring, count", [
    (4, (0, 2), 2), (8, (0, 2, 4, 6), 4), (9, (0, 3, 6), 9),
    (16, (0, 4, 8, 12), 64), (16, tuple(range(0, 16, 2)), 32)],
    ids=["Z4{0,2}", "Z8{0,2,4,6}", "Z9{0,3,6}", "Z16{0,4,8,12}", "Z16evens"])
def test_prop1_on_non_unital_subrings(n, subring, count):
    # every solution carries an annihilator witness; the carriers of at
    # most 16**4 maps are cross-checked by brute force
    ring = fnq.zn(n, subring=subring)
    report = verify_mp(ring)
    assert report.forward_ok and report.solutions_found == count
    assert len(report.details["solutions"]) == count
    if n ** len(subring) <= 16 ** 4:
        assert report.details["solutions"] == _prop1_brute_solutions(ring)


def test_prop1_no_zero_divisors(gf3, gf5, gf4):
    for ring in (gf3, gf5, gf4):
        report = verify_mp(ring)
        assert report.forward_ok
        assert report.details["solution_set_is_zero"]
        assert report.details["solutions"] == [[0] * ring.size]


def test_prop1_zero_divisor_rings(z4, z6, pq22):
    for ring in (z4, z6, pq22):
        report = verify_mp(ring)
        assert report.forward_ok  # every solution carries a witness
        for vals, witness in report.details["witnesses"].items():
            assert witness is not None
    z6_report = verify_mp(z6)
    assert z6_report.details["enumerated_count"] == 6 ** 6


def test_annihilator_witness_examples(z6):
    assert annihilator_witness(zero_map(z6)) == 1
    assert annihilator_witness(identity_map(z6)) is None
    in_three = FnTable(z6, z6, (0, 3, 0, 3, 0, 3))
    assert annihilator_witness(in_three) == 2


def test_classify_all_linear(gf3):
    two_x = FnTable(gf3, gf3, (0, 2, 1))
    ident = identity_map(gf3)
    result = classify_pexider(two_x, ident, two_x)
    assert result.tag.name == "AllLinear"
    assert result.tag.params == {"lam1": 1, "lam2": 2}
    assert result.rank == 1


def test_classify_zero_triple(gf3):
    z = zero_map(gf3)
    result = classify_pexider(z, z, z)
    assert result.tag.name == "AllLinear"
    assert result.tag.params == {"lam1": 0, "lam2": 0}


def test_classify_frobenius_square_on_gf4(gf4):
    frob = FnTable(gf4, gf4, tuple(int(gf4.mul[e, e]) for e in range(4)))
    result = classify_pexider(frob, frob, zero_map(gf4))
    assert result.tag.name == "MultiplicativeSquare"
    assert result.tag.params["h1"] == gf4.one
    assert result.tag.params["lam"] == gf4.zero
    assert result.tag.witnesses["m"].values == frob.values
    assert result.details["characteristic"] == 2
    assert "completeness_caveat" in result.details


def test_classify_rejects_non_solutions(gf3):
    ident = identity_map(gf3)
    with pytest.raises(ResidualNonzero):
        classify_pexider(ident, ident, ident)


def test_classify_two_exponential(gf3):
    # h = x + 2m, k = x + m with m the unit indicator: no dependent pair
    m = FnTable(gf3, gf3, (0, 1, 1))
    binding = pexider_family_binding("TwoExponential", gf3,
                                     {"b1": 1, "b2": 2, "g1": 1}, {"m": m})
    assert residual(pexider_equation(), binding, gf3) == []
    result = classify_pexider(binding.functions["f"], binding.functions["h"],
                              binding.functions["k"])
    assert result.tag.name == "TwoExponential"
    assert result.rank == 2
    assert result.tag.params["b2"] != 0
    # the read-off recovers the instance, with g2 = -b1*b2
    assert result.tag.params == {"b1": 1, "b2": 2, "g1": 1, "g2": 1}
    assert result.tag.witnesses["m"].values == m.values


@pytest.mark.parametrize("k", [6, 8], ids=["gf64", "gf256"])
def test_classify_reaches_fields_whose_classes_are_not_enumerated(k):
    # the default budget enumerates no multiplicative map of GF(64) or
    # GF(256); the lookup builds only the instances that may build the
    # triple, their witnesses taken from its span
    ring = fnq.gf(2, k)
    with pytest.raises(BudgetExceeded):
        class_rows(ring, ring, MULTIPLICATIVE)
    cube = FnTable(ring, ring, tuple(int(ring.mul[x, ring.mul[x, x]])
                                     for x in ring.domain_elements))
    for name, params in [("MultiplicativeSquare", {"h1": 4, "lam": 6}),
                         ("LambdaKFamilyB", {"lam": 2, "gamma": 9}),
                         ("TwoExponential", {"b1": 3, "b2": 5, "g1": 7})]:
        built = pexider_family_binding(name, ring, params,
                                       {"m": cube}).functions
        result = classify_pexider(*(built[n] for n in "fhk"))
        assert (result.tag.name, result.rank) == (name, 2)
        assert {n: result.tag.params[n] for n in params} == params
        assert result.tag.witnesses["m"].values == cube.values


def test_family_instantiations_solve(gf5):
    count = 0
    for name, binding in pexider_closure_samples(gf5):
        assert residual(pexider_equation(), binding, gf5) == [], name
        count += 1
    assert count == len(fnq.theorems._Images(gf5).rows) == 1095


def test_verify_pexider_gf3(gf3):
    report = verify_pexider(gf3)
    assert report.forward_ok and report.backward_ok
    assert report.details["unclassifiable"] == 0
    assert report.solutions_found == sum(report.details["families"].values())
    assert report.details["enumerated_count"] == 729


def test_classify_requires_field(z6):
    z = zero_map(z6)
    with pytest.raises(NotAField):
        classify_pexider(z, z, z)


def test_alien_multiplicative_case(gf5):
    report = verify_alien(gf5, 0, 1)
    assert report.holds()
    assert report.details["case"] == "multiplicative"
    mult = sorted(t.values for t in enumerate_maps(gf5, gf5, MULTIPLICATIVE))
    assert [list(v) for v in mult] == report.details["solutions"]


def test_alien_leibniz_case(gf5):
    report = verify_alien(gf5, 1, 0)
    assert report.holds()
    assert report.details["case"] == "leibniz"


def test_alien_scaled_identity(gf5, gf3):
    report = verify_alien(gf5, 1, 2)
    assert report.holds()
    scaled = [int(gf5.mul[3, e]) for e in range(5)]  # (2-1)/2 = 3 in GF(5)
    assert report.details["solutions"] == [[0] * 5, scaled]
    collapse = verify_alien(gf3, 1, 1)
    assert collapse.holds()
    assert collapse.details["solutions"] == [[0, 0, 0]]


def test_alien_guards(gf5, z6):
    with pytest.raises(BothZero):
        verify_alien(gf5, 0, 0)
    with pytest.raises(NotAField):
        verify_alien(z6, 1, 1)


def test_thm5_symbolic_report():
    report = verify_thm5_symbolic()
    assert report.holds()
    assert report.details["constraints"] == ["g3 + b2*b3"]
    assert "b3 != 0" in report.details["side_conditions"]


def test_report_serialization(z2):
    report = verify_sofy(z2, 1)
    doc = report.to_json()
    assert doc["theorem"] == "thm4"
    assert doc["solutions_found"] == 3
    text = report.render_text()
    assert "verdict: holds" in text


def test_numpy_check_parameters_serialize():
    sofy = verify_sofy(fnq.zn(6), np.int64(1))
    alien = verify_alien(fnq.gf(5), np.int64(1), np.int64(2))
    assert json.loads(json.dumps(sofy.to_json()))["params"] == {"eps": 1}
    assert json.loads(json.dumps(alien.to_json()))["params"] == {
        "lam": 1, "mu": 2}


def test_verify_sofy_on_declared_subring():
    ring = fnq.zn(6, subring=(0, 2, 4))
    report = verify_sofy(ring, 3)
    assert report.forward_ok
    assert report.details["enumerated_count"] == 6 ** 3


def test_pexider_completeness_on_gf5():
    report = verify_pexider(fnq.gf(5))
    # N(q) = q^2 + q(q-1)^2 + (q-1)^3 + (q-1)^4 solutions over GF(q)
    q = 5
    n_q = q ** 2 + q * (q - 1) ** 2 + (q - 1) ** 3 + (q - 1) ** 4
    assert report.solutions_found == n_q == 425
    assert report.details["unclassifiable"] == 0
    assert report.forward_ok and report.backward_ok
    assert sum(report.details["families"].values()) == report.solutions_found


def test_classify_accepts_only_an_exact_rebuild(gf3, monkeypatch):
    # with the residual check out of the way, a triple whose h and k are
    # those of an AllLinear instance but whose f is not is refused
    import fnq.theorems
    monkeypatch.setattr(fnq.theorems, "residual", lambda *args: [])
    z = zero_map(gf3)
    with pytest.raises(Unclassifiable, match="in no family image"):
        classify_pexider(identity_map(gf3), z, z)


@pytest.mark.parametrize("ring", [fnq.gf(3), fnq.gf(2, 2)],
                         ids=lambda r: f"gf{r.size}")
def test_closure_samples_cover_every_parameter(ring):
    q = ring.size
    n_leibniz = len(list(enumerate_maps(ring, ring, LEIBNIZ)))
    n_mult = len(list(enumerate_maps(ring, ring, MULTIPLICATIVE)))
    counts: dict[str, int] = {}
    for name, _ in pexider_closure_samples(ring):
        counts[name] = counts.get(name, 0) + 1
    assert counts == {"AllLinear": q * q, "LinearPlusLeibniz": q * q * n_leibniz,
                      "MultiplicativeSquare": q * q * n_mult,
                      "LambdaKFamilyA": q * q,
                      "LambdaKFamilyB": (q - 1) * q * n_mult,
                      "TwoExponential": q ** 3 * n_mult}


@pytest.mark.parametrize("ring", [fnq.gf(3), fnq.gf(2, 2), fnq.gf(5),
                                  fnq.gf(7)], ids=lambda r: f"gf{r.size}")
def test_classification_rebuilds_every_closure_sample(ring):
    # a tag is a family instance: its parameters and witnesses rebuild the
    # looked-up triple exactly, though an instance may land in an earlier
    # family that ties with its own (LambdaKFamilyA -> AllLinear)
    images = fnq.theorems._Images(ring)
    found = images.find(images.rows)
    assert (found >= 0).all()
    for instance, triple in zip(found.tolist(), images.rows.tolist()):
        tag = images.classify(instance).tag
        rebuilt = pexider_family_binding(tag.name, ring, tag.params,
                                         tag.witnesses).functions
        assert [list(rebuilt[n].values) for n in "fhk"] == triple, (
            tag.to_json())


@pytest.mark.parametrize("p,k", [(2, 1), (3, 1), (2, 2), (5, 1), (7, 1),
                                 (2, 3), (3, 2)])
def test_every_family_instance_solves_the_equation(p, k):
    # every family at every parameter and witness, NonDegenerate included,
    # checked by the grid evaluator, which shares no code with the templates
    from fnq.theorems import _Images, _family_rows
    ring = fnq.gf(p, k)
    q, m = ring.size, len(ring.domain_elements)

    def witness_rows(cls):
        return np.array([t.values for t in enumerate_maps(ring, ring, cls)],
                        dtype=np.int64).reshape(-1, m)

    rows = [tuple(_Images(ring).rows.swapaxes(0, 1))]
    mult, log = witness_rows(MULTIPLICATIVE), witness_rows(LOGARITHMIC)
    grid = np.array(list(iproduct(range(q), range(q), range(q), range(q),
                                  range(len(mult)), range(len(log)))))
    rows.append(_family_rows(
        "NonDegenerate", ring,
        {n: grid[:, i, None] for i, n in enumerate(("b2", "b3", "g1", "g2"))},
        {"m": mult[grid[:, 4]], "l": log[grid[:, 5]]}))
    n_leibniz = len(witness_rows(LEIBNIZ))
    assert sum(len(r[0]) for r in rows) == (
        2 * q * q + q * q * n_leibniz + q * q * len(mult)
        + (q - 1) * q * len(mult) + q ** 3 * len(mult)
        + q ** 4 * len(mult) * len(log))
    tables = {n: np.concatenate([r[i] for r in rows])
              for i, n in enumerate("fhk")}
    assert grid_masks([pexider_equation()], None, ring, ring,
                      tables, {})[0].all()


@pytest.mark.parametrize("name,params,witness_field", [
    ("NoSuchFamily", {}, None),
    ("LambdaKFamilyB", {"lam": 0, "gamma": 1}, 5),
    ("AllLinear", {"lam1": 1}, None),
    ("MultiplicativeSquare", {"h1": 1, "lam": 1}, None),
    ("AllLinear", {"lam1": 7, "lam2": 0}, None),
    ("AllLinear", {"lam1": -1, "lam2": 0}, None),
    ("MultiplicativeSquare", {"h1": 1, "lam": 1}, 3),
], ids=["unknown-family", "zero-ratio", "missing-parameter",
        "missing-witness", "parameter-too-large", "negative-parameter",
        "witness-over-another-field"])
def test_family_binding_rejects_what_is_no_instance(gf5, name, params,
                                                    witness_field):
    witnesses = (None if witness_field is None
                 else {"m": identity_map(fnq.gf(witness_field))})
    with pytest.raises(InvalidTask):
        pexider_family_binding(name, gf5, params, witnesses)


@pytest.mark.parametrize("name,params,witnesses,bad,violations", [
    ("MultiplicativeSquare", {"h1": 1, "lam": 0}, {"m": (0, 1, 1, 1, 2)},
     "m", 7),
    ("LinearPlusLeibniz", {"lam": 1, "k1": 0}, {"delta": (0, 1, 0, 0, 0)},
     "delta", 10),
    ("NonDegenerate", {"b2": 1, "b3": 1, "g1": 1, "g2": 0},
     {"m": (0, 1, 2, 3, 4), "l": (0, 1, 0, 0, 0)}, "l", 10),
], ids=["non-multiplicative-m", "non-leibniz-delta", "non-logarithmic-l"])
def test_family_binding_rejects_a_witness_outside_its_class(
        gf5, name, params, witnesses, bad, violations):
    # the template alone builds a triple that breaks the equation at this
    # many pairs; the binding refuses the witness instead
    from fnq.theorems import _family_rows
    rows = _family_rows(name, gf5, {n: np.array([[v]]) for n, v in
                                    params.items()},
                        {n: np.array([v]) for n, v in witnesses.items()})
    built = fnq.eqdsl.Binding({n: FnTable(gf5, gf5, tuple(r[0].tolist()))
                               for n, r in zip("fhk", rows)}, {})
    assert len(residual(pexider_equation(), built, gf5)) == violations
    with pytest.raises(InvalidTask, match=f"witness '{bad}' is not"):
        pexider_family_binding(name, gf5, params, {
            n: FnTable(gf5, gf5, v) for n, v in witnesses.items()})


def test_family_binding_reads_rational_coefficients(gf5, monkeypatch):
    # a coefficient p/q is int_embed(p) over int_embed(q); no Pexider
    # template has one, so a template is added for the test
    import fnq.symbolic
    half = (fnq.symbolic.SymExpr.constant(fractions.Fraction(1, 2))
            * fnq.symbolic.symbol("c") * fnq.symbolic.T)
    monkeypatch.setitem(fnq.symbolic.PEXIDER_FAMILIES, "Half",
                        fnq.symbolic.SolutionFamily(dict.fromkeys("fhk", half)))
    binding = pexider_family_binding("Half", gf5, {"c": 1})
    assert binding.functions["f"].values == (0, 3, 1, 4, 2)
    with pytest.raises(InvalidTask):
        pexider_family_binding("Half", fnq.gf(2), {"c": 1})


@pytest.mark.parametrize("p,k", [(3, 1), (2, 2), (5, 1), (7, 1), (2, 3),
                                 (3, 2), (7, 2), (2, 6), (5, 3)])
def test_logarithmic_maps_of_a_field_vanish(p, k):
    # the premise of the rank-3 branch of classify_pexider: a logarithmic
    # map sends a unit group of order q-1 into an additive group of
    # exponent p, which does not divide q-1
    ring = fnq.gf(p, k)
    maps = list(enumerate_maps(ring, ring, LOGARITHMIC))
    assert [t.values for t in maps] == [zero_map(ring).values]


@pytest.mark.parametrize("ring", [fnq.gf(3), fnq.gf(2, 2), fnq.gf(5),
                                  fnq.gf(7), fnq.gf(2, 3)],
                         ids=["gf3", "gf4", "gf5", "gf7", "gf8"])
def test_pexider_family_counts_match_closed_forms(ring):
    # at the default budget: N(q) = q^2 + q(q-1)^2 + (q-1)^3 + (q-1)^4,
    # so N(7) = 1,813 and N(8) = 3,200
    report = verify_pexider(ring)
    q = ring.size
    assert report.details["families"] == {
        "AllLinear": q ** 2, "LambdaKFamilyB": (q - 1) ** 3,
        "MultiplicativeSquare": q * (q - 1) ** 2,
        "TwoExponential": (q - 1) ** 4}
    assert report.solutions_found == sum(report.details["families"].values())
    assert report.predicted_count == report.solutions_found
    assert report.holds()


def _n_q(q):
    return q ** 2 + q * (q - 1) ** 2 + (q - 1) ** 3 + (q - 1) ** 4


@pytest.mark.parametrize("p,k", [(3, 2), (11, 1), (13, 1), (2, 4)],
                         ids=["gf9", "gf11", "gf13", "gf16"])
def test_family_images_have_the_closed_form_size(p, k):
    # beyond the default budget's reach for the kernel (GF(13) is refused
    # below), the distinct image rows still number N(q)
    q = p ** k
    assert len(fnq.theorems._Images(fnq.gf(p, k)).ids) == _n_q(q) == {
        9: 5265, 11: 12221, 13: 24505, 16: 57856}[q]


@pytest.mark.slow
def test_pexider_gf9_solutions_are_the_family_images():
    report = verify_pexider(fnq.gf(3, 2), budget=10 ** 12)
    assert report.predicted_count == report.solutions_found == _n_q(9) == 5265
    assert report.details["unclassifiable"] == 0 and report.holds()


def test_checks_fail_loudly_on_oversized_carriers():
    # the kernel refuses a level before growing it, names it and reports
    # its charge
    from fnq.errors import BudgetExceeded
    with pytest.raises(BudgetExceeded, match=r"^search level \d+ needs") as e:
        verify_pexider(fnq.gf(13))
    assert e.value.needed > fnq.DEFAULT_BUDGET


_REFUSED_IN_A_SUBPROCESS = """
import json, resource, sys
import fnq
from fnq.errors import BudgetExceeded
from fnq.theorems import pexider_equation
ring = fnq.ring_from_json(sys.argv[1])
try:
    if ring.is_field:
        fnq.verify_pexider(ring)
    else:
        fnq.solve(fnq.SolveTask(pexider_equation(), ring,
                                {n: fnq.ARBITRARY for n in "fhk"}))
    message = None
except BudgetExceeded as exc:
    message = str(exc)
print(json.dumps({"message": message, "peak_kb":
                  resource.getrusage(resource.RUSAGE_SELF).ru_maxrss}))
"""


@pytest.mark.parametrize("spec", [
    '{"kind": "GF", "p": 3, "k": 2}', '{"kind": "GF", "p": 13, "k": 1}',
    '{"kind": "Zn", "n": 9}'], ids=["GF9", "GF13", "Z9"])
def test_the_default_budget_refuses_pexider_before_memory_runs_out(spec):
    # each case in its own process, so that the peak RSS is its own: the
    # digits of a grown row in the charge bound the rows a level allocates
    src = str(Path(fnq.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p)}
    proc = subprocess.run([sys.executable, "-c", _REFUSED_IN_A_SUBPROCESS,
                           spec], capture_output=True, env=env, timeout=120,
                          check=True)
    doc = json.loads(proc.stdout)
    assert doc["message"] is not None
    assert doc["message"].startswith("search level ")
    assert doc["peak_kb"] < 400 * 1024


@pytest.mark.parametrize("p,k", [(2, 2), (7, 1), (2, 3), (3, 2), (2, 4),
                                 (5, 2)])
def test_a_field_has_q_plus_one_multiplicative_maps(p, k):
    # zero, the constant 1, and x -> x^e for e = 1..q-1 with 0^e = 0; the
    # budget no longer counts q^q candidates, so GF(16) and GF(25) run by
    # default
    ring = fnq.gf(p, k)
    elems = np.arange(ring.size)
    power = np.full(ring.size, ring.one)
    powers = {zero_map(ring).values, tuple(power.tolist())}
    for _ in range(ring.size - 1):
        power = ring.mul[power, elems]
        powers.add(tuple(power.tolist()))
    maps = [t.values for t in enumerate_maps(ring, ring, MULTIPLICATIVE)]
    assert len(maps) == ring.size + 1 == len(powers)
    assert set(maps) == powers


def test_sofy_and_prop1_on_carriers_the_candidate_count_refused():
    # GF(16): eps = 1 is a unit, so the q+1 = 17 solutions shift
    # bijectively onto the 17 multiplicative maps; no zero divisor, so
    # prop1's system has only the zero map
    big = fnq.gf(2, 4)
    report = verify_sofy(big, big.one)
    assert report.solutions_found == report.predicted_count == 17
    assert report.details["bijection"] is True and report.holds()
    report = verify_mp(big)
    assert report.details["solutions"] == [list(zero_map(big).values)]
    assert report.details["solution_set_is_zero"] and report.holds()
    # Z12: h -> h + id is a bijection onto its 160 multiplicative maps
    report = verify_sofy(fnq.zn(12), 1)
    assert report.solutions_found == report.predicted_count == 160
    assert report.details["bijection"] is True


def test_additive_solutions_shift_to_homomorphisms(z4, gf4):
    # additive variant of the shift characterization: with eps = 1, additive
    # solutions correspond exactly to homomorphisms via m = h + id
    from fnq.maps import ADDITIVE, HOMOMORPHISM
    from fnq.solver import SolveTask, solve
    from fnq.theorems import homo_derivation_equation
    for ring in (z4, gf4):
        ss = solve(SolveTask(homo_derivation_equation(), ring,
                             {"h": ADDITIVE}, params={"e": ring.one}))
        shifted = sorted(multiplicative_shift(b.functions["h"], ring.one).values
                         for b in ss.solutions)
        homs = sorted(t.values for t in enumerate_maps(ring, ring,
                                                       HOMOMORPHISM))
        assert shifted == homs


def test_alien_additive_remark(gf5):
    # restricting the weighted combination to additive unknowns turns the
    # multiplicative case into homomorphisms and the Leibniz case into
    # derivations; the scaled-identity case is already additive
    from fnq.maps import ADDITIVE, DERIVATION, HOMOMORPHISM
    from fnq.solver import SolveTask, solve
    from fnq.theorems import alien_combination_equation
    ast = alien_combination_equation()

    def additive_solutions(lam, mu):
        ss = solve(SolveTask(ast, gf5, {"f": ADDITIVE},
                             params={"lam": lam, "mu": mu}))
        return sorted(b.functions["f"].values for b in ss.solutions)

    assert additive_solutions(0, 1) == sorted(
        t.values for t in enumerate_maps(gf5, gf5, HOMOMORPHISM))
    assert additive_solutions(1, 0) == sorted(
        t.values for t in enumerate_maps(gf5, gf5, DERIVATION))
    scaled = tuple(int(gf5.mul[3, e]) for e in range(5))
    assert additive_solutions(1, 2) == [(0, 0, 0, 0, 0), scaled]


def test_pivot_respects_declared_class(gf3):
    from fnq.maps import ADDITIVE
    from fnq.solver import SolveTask, solve
    ast = pexider_equation()
    ss = solve(SolveTask(ast, gf3, {"f": ADDITIVE, "h": fnq.ARBITRARY,
                                    "k": fnq.ARBITRARY}))
    assert ss.pruned_by_pivot
    all_sols = solve(SolveTask(ast, gf3, {"f": fnq.ARBITRARY,
                                          "h": fnq.ARBITRARY,
                                          "k": fnq.ARBITRARY}))
    from conftest import in_class
    expected = [b for b in all_sols.solutions
                if in_class(gf3, b.functions["f"].values, ADDITIVE)]
    assert len(ss.solutions) == len(expected)
    assert ({tuple(b.functions[n].values for n in ("f", "h", "k"))
             for b in ss.solutions}
            == {tuple(b.functions[n].values for n in ("f", "h", "k"))
                for b in expected})


# --------------------------- Pexider image lookup vs the scalar classifier

# the reasons the scalar oracle refuses a triple for
_PEXIDER_REASONS = {
    "rank-1 triple is not a pair of scalings",
    "rank-3 triple admits no consistent extraction",
    "dependent {id,h} but no Leibniz remainder",
    "vanishing h(1) with nonlinear h",
    "dependent {id,k} but no multiplicative core",
    "degenerate mixed family (gamma = 0)",
    "dependent {h,k} but no multiplicative core",
    "rank-2 triple admits no two-generator extraction",
}


def _same_fit(fit, ref):
    assert (fit.tag.name, list(fit.tag.params.items()), fit.rank) == (
        ref.tag.name, list(ref.tag.params.items()), ref.rank)
    assert {n: t.values for n, t in fit.tag.witnesses.items()} == {
        n: t.values for n, t in ref.tag.witnesses.items()}
    assert fit.details == ref.details


def _matches_reference(ring, triples):
    """Look all triples up at once, both in the full family images and
    among the instances that may build them, compare each row with the
    scalar oracle, and return the families reached and the oracle's
    reasons for the triples it refuses.  Both lookups must hit exactly
    where the oracle accepts, with its tag."""
    rows = np.array([np.stack(t) for t in triples])
    full = fnq.theorems._Images(ring)
    part = fnq.theorems._Images(ring, rows)
    reached = set()
    for triple, i, j in zip(triples, full.find(rows).tolist(),
                            part.find(rows).tolist()):
        tables = [FnTable(ring, ring, tuple(int(v) for v in t)) for t in triple]
        try:
            ref = reference_classify_pexider(*tables)
        except Unclassifiable as exc:
            assert i < 0 and j < 0, [list(t.values) for t in tables]
            reached.add(str(exc))
            continue
        assert i >= 0 and j >= 0, (ref.tag.to_json(),
                                   [list(t.values) for t in tables])
        _same_fit(full.classify(i), ref)
        _same_fit(part.classify(j), ref)
        reached.add(ref.tag.name)
    return reached


@pytest.mark.parametrize("ring", [fnq.gf(3), fnq.gf(2, 2), fnq.gf(5),
                                  fnq.gf(7)],
                         ids=["gf3", "gf4", "gf5", "gf7"])
def test_batched_classifier_matches_the_scalar_one_on_solutions(ring):
    ss = fnq.solve(fnq.SolveTask(pexider_equation(), ring,
                                 {n: fnq.ARBITRARY for n in "fhk"}))
    triples = [tuple(b.functions[n].values for n in "fhk")
               for b in ss.solutions]
    assert _matches_reference(ring, triples) == {
        "AllLinear", "LambdaKFamilyB", "MultiplicativeSquare",
        "TwoExponential"}


@pytest.mark.parametrize("ring", [fnq.gf(3), fnq.gf(2, 2), fnq.gf(5)],
                         ids=lambda r: f"gf{r.size}")
def test_candidates_of_all_instances_are_the_grid_in_order(ring):
    # given every instance's triple, each family's candidates are its grid,
    # less, for a family with a witness, the instances whose triple lies in
    # span{id} (AllLinear's), in grid order, once per triple each builds
    full = fnq.theorems._Images(ring)
    part = fnq.theorems._Images(ring, full.rows)
    linear = (full.rows == ring.mul[full.rows[:, :, ring.position[ring.one],
                                              None], ring.element_array]
              ).all(axis=(1, 2))
    for j, ((_, grid), (_, found)) in enumerate(zip(full.families,
                                                    part.families)):
        witness = any(v.ndim == 2 for v in grid.values())
        grid, found = (np.column_stack(list(v.values())) for v in (grid, found))
        if witness:
            grid = grid[~linear[full.family == j]]
        assert np.array_equal(np.unique(found, axis=0), grid)
        assert (np.lexsort(found.T[::-1]) == np.arange(len(found))).all()


def _probe_triples(ring, rng):
    """Triples, mostly non-solutions, that reach every branch and reason of
    the classifier: f is the value f(x) = f(x*1) the equation forces, or
    random."""
    q = ring.size
    add, mul, neg, inv = ring.add, ring.mul, ring.neg, ring.inverse
    elems = np.asarray(ring.domain_elements, dtype=np.int64)
    one = int(ring.position[ring.one])
    nonzero = [c for c in range(q) if c != ring.zero]
    rand = [rng.integers(0, q, q) for _ in range(4)]
    vanishing = [np.where(elems == ring.one, ring.zero, v) for v in rand]
    witnesses = [np.array(t.values) for cls in (LEIBNIZ, MULTIPLICATIVE)
                 for t in enumerate_maps(ring, ring, cls)]
    pool = [mul[c, elems] for c in range(q)] + rand + vanishing + witnesses
    pairs = [(h, k) for h in pool for k in pool]
    for v in rand:
        # k in span{id, h}, which includes b2 = 0 at a = -h(1)
        pairs += [(v, add[mul[a, elems], mul[b, v]])
                  for a in range(q) for b in range(q)]
        for lam in nonzero:
            # h = lam*k, with gamma = k(1) + 1/lam^2 = 0 for the second
            zeroed = v.copy()
            zeroed[one] = neg[inv[mul[lam, lam]]]
            pairs += [(mul[lam, v], v), (mul[lam, zeroed], zeroed)]
    triples = []
    for h, k in pairs:
        forced = add[add[mul[h, h[one]], mul[k[one], elems]], k]
        triples += [(forced, h, k), (rng.integers(0, q, q), h, k)]
    return triples


@pytest.mark.parametrize("ring", [fnq.gf(3), fnq.gf(2, 2), fnq.gf(5)],
                         ids=lambda r: f"gf{r.size}")
def test_batched_classifier_matches_the_scalar_one_off_solutions(
        ring, monkeypatch):
    probes = _probe_triples(ring, np.random.default_rng(ring.size))
    assert _PEXIDER_REASONS <= _matches_reference(ring, probes)
    # classify_pexider, with the residual check out of the way, on a
    # sample: it refuses exactly where the oracle does, and says why
    import fnq.theorems
    monkeypatch.setattr(fnq.theorems, "residual", lambda *args: [])
    reasons = set()
    for triple in probes[::20]:
        tables = [FnTable(ring, ring, tuple(int(v) for v in t)) for t in triple]
        try:
            ref = reference_classify_pexider(*tables)
        except Unclassifiable:
            with pytest.raises(Unclassifiable) as exc:
                classify_pexider(*tables)
            reasons.add(str(exc.value))
            continue
        _same_fit(classify_pexider(*tables), ref)
    assert reasons == {"in no family image"}


def test_closure_failure_is_reported_with_its_violations(gf5, monkeypatch):
    # break one LambdaKFamilyA instance, a family the classifier never
    # returns, so only the closure check sees it
    import fnq.theorems
    build = fnq.theorems._family_rows

    def broken(name, ring, params, witnesses):
        f, h, k = (np.array(v) for v in build(name, ring, params, witnesses))
        if name == "LambdaKFamilyA":
            hit = np.broadcast_to((params["gamma"] == 1) & (params["lam"] == 2),
                                  (len(f), 1))[:, 0]
            f[hit, 2] = ring.add[f[hit, 2], ring.one]
        return f, h, k

    monkeypatch.setattr(fnq.theorems, "_family_rows", broken)
    report = verify_pexider(gf5)
    assert report.details["closure_failures"] == 1
    assert report.details["unclassifiable"] == 0
    assert report.forward_ok and not report.backward_ok
    (ce,) = report.counterexamples
    binding = pexider_family_binding("LambdaKFamilyA", gf5,
                                     {"gamma": 1, "lam": 2})
    assert ce["family"] == "LambdaKFamilyA"
    assert ce["f"] == list(binding.functions["f"].values)
    assert ce["violations"] == residual(pexider_equation(), binding,
                                        gf5)[:5] != []


def test_pexider_work_is_batched(gf5, gf3, monkeypatch):
    # classification and closure make no scalar re-check and no scalar
    # linear algebra; solve re-verifies through fnq.solver.residual
    import fnq.maps
    import fnq.theorems
    calls = Counter()

    def count(module, name):
        original = getattr(module, name)

        def counted(*args, **kwargs):
            calls[name] += 1
            return original(*args, **kwargs)
        monkeypatch.setattr(module, name, counted)

    count(fnq.theorems, "residual")
    count(fnq.maps, "lin_rank")
    count(fnq.maps, "linear_combination")
    assert verify_pexider(gf5).holds()
    assert calls == Counter()
    # the wrappers are live
    two_x, ident = FnTable(gf3, gf3, (0, 2, 1)), identity_map(gf3)
    classify_pexider(two_x, ident, two_x)
    reference_classify_pexider(two_x, ident, two_x)
    assert calls["residual"] == 1 and calls["lin_rank"] == 1
