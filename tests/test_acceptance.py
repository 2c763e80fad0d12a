"""Acceptance suite: one test per criterion, one printed verdict line each.

All arithmetic is finite and exact, so every comparison is exact equality
(tolerance zero); the only tolerances are the stated wall-clock budgets.
Run with ``pytest tests/test_acceptance.py -v -s`` to see the verdict lines.
"""
import time
from contextlib import contextmanager
from itertools import product as iproduct

import fnq
from fnq.eqdsl import parse_equation
from fnq.maps import ARBITRARY, DERIVATION, LOGARITHMIC, enumerate_maps
from fnq.solver import SolveTask, residual, solve
from fnq.theorems import (pexider_closure_samples, pexider_equation,
                          verify_alien, verify_mp, verify_pexider,
                          verify_sofy, verify_thm5_symbolic)

from conftest import is_homo_deriv_at
from test_solver import free_order_rows


@contextmanager
def verdict(criterion: str, summary: str):
    started = time.monotonic()
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {criterion}: FAIL — {summary}")
        raise
    elapsed = time.monotonic() - started
    print(f"ACCEPTANCE {criterion}: PASS — {summary} ({elapsed:.1f}s)")


def rings_for_forward():
    return [fnq.zn(2), fnq.zn(3), fnq.zn(4), fnq.zn(6),
            fnq.gf(2, 2, modulus=(1, 1, 1)), fnq.poly_quot(2, 2), fnq.ut2(2)]


def test_c1_shift_forward_exhaustive():
    with verdict("1", "every solution shifts to a multiplicative map on all "
                      "seven rings, all central nonzero shift constants"):
        started = time.monotonic()
        checked = 0
        for ring in rings_for_forward():
            for eps in ring.center:
                if eps == ring.zero:
                    continue
                report = verify_sofy(ring, eps)
                assert report.forward_ok, (ring.spec, eps)
                checked += 1
        assert checked >= 18
        assert time.monotonic() - started <= 60.0


def test_c2_shift_bijection_for_unit_shifts():
    with verdict("2", "unit shift constants give a count-preserving "
                      "bijection with the multiplicative maps"):
        cases = [(fnq.zn(2), (1,)), (fnq.gf(3), (1, 2)), (fnq.zn(4), (1, 3))]
        for ring, eps_list in cases:
            for eps in eps_list:
                report = verify_sofy(ring, eps)
                assert report.forward_ok and report.backward_ok
                assert report.solutions_found == report.predicted_count
                assert report.details["bijection"] is True
        # expected count on the two-element carrier, against an independent
        # all-functions filter
        z2 = fnq.zn(2)
        oracle = [v for v in iproduct(range(2), repeat=2)
                  if all(is_homo_deriv_at(z2, v, x, y, 1)
                         for x in range(2) for y in range(2))]
        assert len(oracle) == 3
        assert verify_sofy(z2, 1).solutions_found == 3


def test_c3_annihilator_system():
    with verdict("3", "system solutions are {0} on zero-divisor-free "
                      "carriers and always admit annihilator witnesses"):
        for ring in (fnq.gf(3), fnq.gf(5), fnq.zn(4),
                     fnq.gf(2, 2, modulus=(1, 1, 1))):
            report = verify_mp(ring)
            assert report.forward_ok
            assert report.details["solutions"] == [[0] * ring.size], ring.spec
        started = time.monotonic()
        z6_report = verify_mp(fnq.zn(6))
        elapsed = time.monotonic() - started
        assert z6_report.details["enumerated_count"] == 6 ** 6 == 46656
        assert elapsed <= 5.0
        for ring_report in (z6_report, verify_mp(fnq.poly_quot(2, 2))):
            assert ring_report.forward_ok
            for witness in ring_report.details["witnesses"].values():
                assert witness is not None


def test_c4_degenerate_family_closure():
    with verdict("4", "every instantiation of every family has empty "
                      "residual over GF(3) and GF(5), zero failures"):
        ast = pexider_equation()
        for q in (3, 5):
            field = fnq.gf(q)
            failures = 0
            per_family = {}
            for name, binding in pexider_closure_samples(field):
                per_family[name] = per_family.get(name, 0) + 1
                if residual(ast, binding, field):
                    failures += 1
            assert failures == 0
            # GF(q) has q + 1 multiplicative maps: 0, 1 and x^e for
            # e = 1..q-1
            assert per_family["TwoExponential"] == q ** 3 * (q + 1)
            assert per_family["LambdaKFamilyB"] == (q - 1) * q * (q + 1)
            assert {per_family[n] for n in ("AllLinear", "LambdaKFamilyA")
                    } == {q * q}
            assert len(per_family) == 6


def test_c5_pexider_completeness_on_gf3():
    with verdict("5", "all pivoted-search solutions over GF(3) classify "
                      "into a rank<=2 family, zero unclassifiable"):
        report = verify_pexider(fnq.gf(3))
        assert report.details["enumerated_count"] == 729
        assert report.details["pruned_by_pivot"] is True
        assert report.details["unclassifiable"] == 0
        assert report.forward_ok
        assert sum(report.details["families"].values()) == report.solutions_found


def test_c6_symbolic_constraint_derivation():
    with verdict("6", "coefficient comparison yields exactly g3 + b2*b3 and "
                      "the identity flips when it is violated"):
        started = time.monotonic()
        report = verify_thm5_symbolic()
        elapsed = time.monotonic() - started
        assert report.details["constraints"] == ["g3 + b2*b3"]
        assert report.forward_ok and report.backward_ok
        assert elapsed < 1.0


def test_c7_weighted_combination_sweep():
    with verdict("7", "solution sets match the prediction for every weight "
                      "pair over GF(3) and GF(5)"):
        for q in (3, 5):
            field = fnq.gf(q)
            for lam in range(q):
                for mu in range(q):
                    if lam == 0 and mu == 0:
                        continue
                    report = verify_alien(field, lam, mu)
                    assert report.forward_ok and report.backward_ok, \
                        (q, lam, mu)
        gf5 = fnq.gf(5)
        witness = verify_alien(gf5, 1, 2)
        scaled = [int(gf5.mul[3, e]) for e in range(5)]
        assert scaled in witness.details["solutions"]


def test_c8_structural_nulls():
    with verdict("8", "logarithmic and derivation enumerations collapse to "
                      "zero on fields up to order 9; the coefficient map "
                      "survives on the nilpotent quotient"):
        fields = [fnq.gf(2), fnq.gf(3), fnq.gf(2, 2), fnq.gf(5),
                  fnq.gf(7), fnq.gf(2, 3), fnq.gf(3, 2)]
        for field in fields:
            logs = [t.values for t in enumerate_maps(field, field,
                                                     LOGARITHMIC)]
            assert logs == [(0,) * field.size], field.spec
            ders = [t.values for t in enumerate_maps(field, field,
                                                     DERIVATION)]
            assert ders == [(0,) * field.size], field.spec
        pq = fnq.poly_quot(2, 2)
        ders = [t.values for t in enumerate_maps(pq, pq, DERIVATION)]
        assert (0, 2, 0, 2) in ders  # the a+bx -> b coefficient map


def test_c9_solver_self_consistency():
    with verdict("9", "pivot pruning never changes the solution set"):
        instances = [
            ("f(x*y)=h(x)*h(y)+x*k(y)+k(x)*y", fnq.gf(2)),
            ("f(x*y)=h(x)*h(y)+x*k(y)+k(x)*y", fnq.gf(3)),
            ("f(x*y)=h(x)*y+x*h(y)", fnq.zn(4)),
            ("f(x*y)=f(x)*y+x*f(y)+f(x)*f(y)", fnq.zn(4)),
        ]
        for text, ring in instances:
            ast = parse_equation(text)
            classes = {n: ARBITRARY for n in ast.free_functions}
            task = SolveTask(ast, ring, classes)
            pruned = solve(task)
            names = ast.free_functions
            assert [tuple(b.functions[n].values for n in names)
                    for b in pruned.solutions] == free_order_rows(task), text
