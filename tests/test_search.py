"""Digits a check defines: the kernel computes them instead of growing rows.

A pair whose one side is a lone application reading the level's digit,
and whose other side reads only earlier digits, fixes that digit; the
kernel writes the other side's value there, and the checks of a run of
computed levels wait and run together (:mod:`fnq.search`).  These tests
hold the enumerations to oracles that do not compute digits: a filter of
every table by the grid check where the tables are few, the kernel with
computed digits switched off where they are not, and closed forms; and
the waiting checks to the same rows when they run level by level.
"""
import functools
import itertools
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import fnq
from fnq import maps, search as kernel
from fnq.eqdsl import PairConstraint, grid_masks, parse_equation
from fnq.errors import BudgetExceeded, EvalDomainError
from fnq.maps import (ADDITIVE, DERIVATION, HOMO_DERIV_MP, HOMOMORPHISM,
                      LEIBNIZ, LOGARITHMIC, MULTIPLICATIVE, class_mask,
                      enumerate_maps, homo_deriv_sofy)

LIFTED = 10 ** 30
# tables filtered one by one when there are at most this many
BRUTE_LIMIT = 10 ** 6

RINGS = {
    **{f"z{n}": (lambda n=n: fnq.zn(n)) for n in range(2, 13)},
    "gf4": lambda: fnq.gf(2, 2),
    "gf8": lambda: fnq.gf(2, 3),
    "gf9": lambda: fnq.gf(3, 2),
    "f2[x]/(x^2)": lambda: fnq.poly_quot(2, 2),
    "ut2_2": lambda: fnq.ut2(2),
    "z2xz4": lambda: fnq.product(fnq.zn(2), fnq.zn(4)),
}
NAMED = [ADDITIVE, MULTIPLICATIVE, HOMOMORPHISM, LEIBNIZ, DERIVATION,
         LOGARITHMIC, HOMO_DERIV_MP]


@functools.cache
def ring(name):
    return RINGS[name]()


def classes(r):
    """Every class but ``arbitrary``, the shifted one at each central
    nonzero shift."""
    return NAMED + [homo_deriv_sofy(e) for e in r.center if e != r.zero]


def enumerated(r, cls):
    return np.array([t.values for t in enumerate_maps(r, r, cls, LIFTED)],
                    dtype=np.int64).reshape(-1, len(r.domain_elements))


def all_tables(q, m, chunk=1 << 15):
    """Every value vector in lexicographic order, in blocks of rows."""
    weights = q ** np.arange(m - 1, -1, -1, dtype=np.int64)
    for start in range(0, q ** m, chunk):
        ids = np.arange(start, min(start + chunk, q ** m), dtype=np.int64)
        yield ids[:, None] // weights % q


@pytest.mark.parametrize("name", list(RINGS))
def test_class_enumeration_matches_an_oracle_without_computed_digits(
        name, monkeypatch):
    r = ring(name)
    q, m = r.size, len(r.domain_elements)
    if q ** m <= BRUTE_LIMIT:
        want = {cls: [] for cls in classes(r)}
        for block in all_tables(q, m):
            additive = block[class_mask(r, r, block, ADDITIVE)]
            for cls, found in want.items():
                # the additive maps, for a class that requires additivity
                rows = (additive if "additive" in
                        maps._CLASS_IDENTITIES.get(cls.kind, ()) else block)
                found.append(rows[class_mask(r, r, rows, cls)])
        for cls, found in want.items():
            assert np.array_equal(enumerated(r, cls), np.concatenate(found)), cls
        return
    got = {cls: enumerated(r, cls) for cls in classes(r)}
    for cls, rows in got.items():
        assert class_mask(r, r, rows, cls).all(), cls
    compile_ = kernel._Planner.compile
    cleared = []

    def enumerating(planner, constraint):
        plan = compile_(planner, constraint)
        if plan is not None:
            cleared.append(len(plan.defines))
            plan.defines.clear()
        return plan
    monkeypatch.setattr(kernel._Planner, "compile", enumerating)
    for cls, rows in got.items():
        assert np.array_equal(enumerated(r, cls), rows), cls
    assert any(cleared)


def test_zn_homomorphisms_are_idempotent_scalings_up_to_256():
    for n in range(2, 257):
        r = fnq.zn(n)
        got = [t.values for t in enumerate_maps(r, r, HOMOMORPHISM)]
        assert got == sorted(tuple(e * x % n for x in range(n))
                             for e in range(n) if e * e % n == e), n


def test_solutions_come_in_lexicographic_order_of_wide_digits(monkeypatch):
    # x -> a*x for every a: f(1) = a orders them, past the signed range of
    # a byte on Z256 and past one byte per digit on Z300
    monkeypatch.setattr(fnq.algebra, "DEFAULT_SIZE_BUDGET", 300)
    for n in (256, 300):
        r = fnq.zn(n)
        got = [t.values for t in enumerate_maps(r, r, ADDITIVE)]
        assert got == [tuple(a * x % n for x in range(n)) for a in range(n)]


def test_logarithmic_maps_on_z16xz16():
    # U(Z16) = Z2 x Z4, and Hom(Z2 x Z4, Z16) has 2 * 4 elements, so
    # Hom(U(Z16 x Z16), Z16 x Z16) has 8**4; the kernel reaches them in
    # well under a second once the non-generator unit digits are computed
    r = fnq.ring_from_json(json.dumps(
        {"kind": "Product", "left": {"kind": "Zn", "n": 16},
         "right": {"kind": "Zn", "n": 16}}))
    rows = enumerated(r, LOGARITHMIC)
    assert len(rows) == 8 ** 4
    assert all(class_mask(r, r, rows[i:i + 256], LOGARITHMIC).all()
               for i in range(0, len(rows), 256))


def recording(monkeypatch):
    """Record the width of the rows entering each grown level, and the
    pairs of each check run outside a grown level."""
    grown, flushed = [], []
    grow, filter_ = kernel._grow, kernel._filter

    def growing(rows, q, checks):
        grown.append(rows.shape[1])
        monkeypatch.setattr(kernel, "_filter", filter_)
        try:
            return grow(rows, q, checks)
        finally:
            monkeypatch.setattr(kernel, "_filter", filtering)

    def filtering(rows, checks):
        if checks:
            flushed.append(sum(stop - start for _, start, stop in checks))
        return filter_(rows, checks)
    monkeypatch.setattr(kernel, "_grow", growing)
    monkeypatch.setattr(kernel, "_filter", filtering)
    return grown, flushed


def test_hom_z256_grows_only_the_levels_no_check_defines(monkeypatch):
    # f(1) (level 0) and f(0) (level 1) are fixed by no pair whose other
    # side reads only earlier digits; f(k) for k >= 2 is f(1) + f(k-1).
    # The checks of those 254 computed levels wait and run in one pass.
    # Z256 is cyclic, so both identities are stated at the same 512 pairs
    # (x, 0) and (x, 1) (Ring.product_pairs); the pass takes them all but
    # the ones that read only f(1) and f(0): the additive identity's 3,
    # (0, 0), (0, 1) and (1, 0), and the multiplicative one's 4, which
    # add (1, 1).
    grown, flushed = recording(monkeypatch)
    r = fnq.zn(256)
    assert len(r.product_pairs) == 512
    assert len(list(enumerate_maps(r, r, HOMOMORPHISM))) == 2
    assert grown == [0, 1]
    assert flushed == [512 + 512 - 3 - 4]


def test_waiting_checks_run_in_many_passes_give_the_same_rows(
        monkeypatch):
    # with at most 8 waiting (row, pair) cells the checks of a run of
    # computed levels run after every level or every few levels: Z64's
    # homomorphisms state about 4 pairs per level, for 2 rows
    rings = {"ut2_2": [ADDITIVE, DERIVATION],
             "z2xz4": [ADDITIVE, DERIVATION, LOGARITHMIC]}
    want = {(n, c): enumerated(ring(n), c) for n, cs in rings.items() for c in cs}
    homs = {n: enumerated(fnq.zn(n), HOMOMORPHISM) for n in range(2, 65)}
    monkeypatch.setattr(kernel, "_CELLS", 8)
    _, flushed = recording(monkeypatch)
    for (name, cls), rows in want.items():
        assert np.array_equal(enumerated(ring(name), cls), rows), (name, cls)
    for n, rows in homs.items():
        flushed.clear()
        assert np.array_equal(enumerated(fnq.zn(n), HOMOMORPHISM), rows), n
    assert len(flushed) > 32  # Z64's 62 computed levels, not in one pass


def test_waiting_checks_run_before_the_budget_of_the_next_grown_level():
    # in the order f(1), f(2), f(0), ... f(2) = f(1)+f(1) is computed and
    # f(0) is grown; the check f(1+1) = 0 keeps the 2 of the 12 rows with
    # 2*f(1) = 0 before f(0)'s level is charged.  That level grows 2 * 12
    # rows, each checked at the 5 pairs (0, 0), (0, 1), (1, 0), (0, 2),
    # (2, 0) of the additive identity whose last digit is f(0), and each
    # holding 3 digits; 12 rows would be charged 12 * 12 * (5 + 3)
    r = fnq.zn(12)
    constraints = [PairConstraint(parse_equation("f(x+y)=f(x)+f(y)")),
                   PairConstraint(parse_equation("f(x+x)=0"), ((1, 1),))]
    order = [1, 2, 0] + list(range(3, 12))
    needed = 2 * 12 * (5 + 3)
    with pytest.raises(BudgetExceeded, match="search level 2 ") as refused:
        kernel.search(constraints, ("f",), r, r, budget=needed - 1,
                      order=order)
    assert refused.value.needed == needed
    rows = kernel.search(constraints, ("f",), r, r, budget=needed,
                         order=order)
    assert rows[:, 0].tolist() == [[a * x % 12 for x in range(12)]
                                   for a in (0, 6)]


_WIDENED_IN_A_SUBPROCESS = """
import json, resource, time
import fnq
from fnq.errors import BudgetExceeded
ring = fnq.ut2(5)
start = time.perf_counter()
try:
    list(fnq.enumerate_maps(ring, ring, fnq.ADDITIVE))
    message = None
except BudgetExceeded as exc:
    message = str(exc)
print(json.dumps({"message": message, "seconds": time.perf_counter() - start,
                  "peak_kb": resource.getrusage(
                      resource.RUSAGE_SELF).ru_maxrss}))
"""


def test_widening_a_computed_run_is_charged_before_memory_runs_out():
    # additive UT2(5) grows its three generator digits, 125**3 rows, and
    # then computes the other 122: widening every row to 125 digits is
    # charged 1,953,125 * 125 at level 7, before anything is allocated.
    # In its own process, so that the peak RSS is its own
    src = str(Path(fnq.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p)}
    proc = subprocess.run([sys.executable, "-c", _WIDENED_IN_A_SUBPROCESS],
                          capture_output=True, env=env, timeout=120,
                          check=True)
    doc = json.loads(proc.stdout)
    assert doc["message"] == (
        f"search level 7 needs {125 ** 3 * 125} widened digits, "
        f"budget is {fnq.DEFAULT_BUDGET}")
    assert doc["seconds"] < 2
    assert doc["peak_kb"] < 400 * 1024


def test_waiting_checks_that_leave_no_row_end_the_search(monkeypatch):
    # in the same order, f(1+1) = 1 asks 2*f(1) = 1, which no element of
    # Z12 solves: the waiting checks of the computed level f(2) drop every
    # row, and f(0)'s level is not grown
    grown, _ = recording(monkeypatch)
    r = fnq.zn(12)
    constraints = [PairConstraint(parse_equation("f(x+y)=f(x)+f(y)")),
                   PairConstraint(parse_equation("f(x+x)=1"), ((1, 1),))]
    rows = kernel.search(constraints, ("f",), r, r,
                         order=[1, 2, 0] + list(range(3, 12)))
    assert rows.shape == (0, 1, 12) and rows.dtype == np.int64
    assert grown == [0]


def test_a_lone_application_on_either_side_defines_its_digit(monkeypatch):
    # Z12's additive maps are x -> a*x; either way round, f(1) and f(0)
    # are grown and every other digit is computed
    grown, _ = recording(monkeypatch)
    r = fnq.zn(12)
    for text in ("f(x+y)=f(x)+f(y)", "f(x)+f(y)=f(x+y)"):
        rows = kernel.search([PairConstraint(parse_equation(text))], ("f",),
                             r, r)
        assert rows[:, 0].tolist() == [[a * x % 12 for x in range(12)]
                                       for a in range(12)], text
    assert grown == [0, 1, 0, 1]


def test_grid_check_on_a_subring_fails_outside_the_domain():
    # on Z6 restricted to {0, 2, 4}, x+1 leaves the domain at every x: the
    # equation fails in every row, alone and among several equations, at
    # all pairs and at a listed one, and the others still hold
    r = fnq.zn(6, subring=(0, 2, 4))
    rows = np.zeros((2, 3), dtype=np.int64)
    leaving = parse_equation("f(x+1)=f(x)")
    for pairs in (None, np.array([(2, 4)])):
        alone, = grid_masks([leaving], pairs, r, r, {"f": rows}, {})
        assert alone.tolist() == [False, False]
        verdicts = grid_masks([leaving, parse_equation("f(x)=f(x)")],
                              pairs, r, r, {"f": rows}, {})
        assert verdicts[0].tolist() == [False, False]
        assert verdicts[1].tolist() == [True, True]
    # the kernel raises where the grid check fails the equation
    with pytest.raises(EvalDomainError):
        kernel.search([PairConstraint(leaving)], ("f",), r, r)


def test_nested_pair_defines_no_digit_on_a_subring():
    # on Z6 restricted to {0, 2, 4}, g(g(x)) reads outside the domain
    # wherever g(x) is odd; the plain check at f(x)'s level drops those rows
    # first, so computing f(x) from the nested pair would raise where the
    # grown level keeps the 27 tables with even values
    r = fnq.zn(6, subring=(0, 2, 4))
    constraints = [PairConstraint(parse_equation("f(x)=g(g(x))")),
                   PairConstraint(parse_equation("f(x)+g(x)*3=f(x)"))]
    rows = kernel.search(constraints, ("g", "f"), r, r)
    expected = sorted(
        (g, tuple(g[g[x // 2] // 2] for x in (0, 2, 4)))
        for g in itertools.product((0, 2, 4), repeat=3))
    assert [(tuple(g), tuple(f)) for g, f in rows.tolist()] == expected


@pytest.mark.parametrize("shape,high", [((0, 2, 4), 4), ((1, 3, 2), 7),
                                        ((300, 2, 3), 3), ((200, 1, 4), 300),
                                        ((50, 0, 3), 2)])
def test_lex_sorted_orders_rows_as_python_sorts_them(shape, high):
    values = np.random.default_rng(0).integers(0, high, size=shape)
    got = kernel.lex_sorted(values)
    assert got.shape == values.shape and got.dtype == values.dtype
    assert [r.ravel().tolist() for r in got] == sorted(
        r.ravel().tolist() for r in values)
