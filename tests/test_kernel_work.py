"""The work of the search kernel, pinned by digest.

Each enumeration below is recorded as the kernel runs it: the rows
entering every grown level (:func:`fnq.search._grow`) and the rows every
other pass of checks keeps (:func:`fnq.search._filter` outside a grown
level: the checks that read no digit, and each flush of the waiting checks
of a run of computed levels).  Each record is the sha256 of the rows'
dtype, shape and bytes, over the digits assigned when it is taken.  The
digests in ``kernel_work.json`` pin the rows the kernel works on, not only
the solutions it returns: a change to how the kernel evaluates, plans or
grows must leave every one of them as it is.

Regenerate the fixture only for a change that is meant to alter the rows
the kernel examines, and say so where the change is described::

    PYTHONPATH=src python tests/test_kernel_work.py

Tier-1 holds every named class on five small carriers, the homomorphisms
of Z256 and the Pexider equation over GF(5); the sweep of every class over
the 28 carriers of ``test_generator_pairs`` at a lifted budget runs under
``slow``.
"""
import bisect
import contextlib
import hashlib
import json
from pathlib import Path

import pytest

import fnq
from fnq import search as kernel
from fnq.maps import ARBITRARY, HOMOMORPHISM, enumerate_maps
from fnq.theorems import pexider_equation

from test_generator_pairs import CARRIERS, _ring, classes

FIXTURE = Path(__file__).with_name("kernel_work.json")
LIFTED = 10 ** 30
SMALL = {
    "z4": lambda: fnq.zn(4),
    "z6{0,2,4}": lambda: fnq.zn(6, subring=(0, 2, 4)),
    "gf4": lambda: fnq.gf(2, 2),
    "ut2_2": lambda: fnq.ut2(2),
    "z2xz4": lambda: fnq.product(fnq.zn(2), fnq.zn(4)),
}


def _digest(rows) -> str:
    h = hashlib.sha256(f"{rows.dtype.str} {rows.shape}".encode())
    h.update(rows.copy(order="C").data)
    return h.hexdigest()


def _assigned(checks) -> int:
    """The digits assigned when ``checks`` run: one past the last level
    they read.  A flush always holds a pair of the last level it covers,
    the pair that computed that level's digit."""
    width = 0
    for plan, _, stop in checks:
        # pair i is at level L when cuts[L+1] <= i < cuts[L+2]
        width = max(width, bisect.bisect_right(plan.cuts, stop - 1) - 1)
    return width


@contextlib.contextmanager
def recording():
    """Record, in order, ``g<width>:<rows>`` for the rows entering each
    grown level and ``f<width>:<rows>`` for the rows each other pass of
    checks keeps, with their digests."""
    events, digests = [], []
    grow, filter_ = kernel._grow, kernel._filter
    with pytest.MonkeyPatch.context() as patch:
        def growing(rows, q, checks):
            events.append(f"g{rows.shape[1]}:{len(rows)}")
            digests.append(_digest(rows))
            patch.setattr(kernel, "_filter", filter_)
            try:
                return grow(rows, q, checks)
            finally:
                patch.setattr(kernel, "_filter", filtering)

        def filtering(rows, checks):
            kept = filter_(rows, checks)
            if checks:
                width = _assigned(checks)
                events.append(f"f{width}:{len(kept)}")
                digests.append(_digest(kept[:, :width]))
            return kept
        patch.setattr(kernel, "_grow", growing)
        patch.setattr(kernel, "_filter", filtering)
        yield events, digests


def work(run) -> dict:
    """The recorded work of ``run()``: its events and one digest of them."""
    with recording() as (events, digests):
        run()
    return {"events": " ".join(events),
            "sha256": hashlib.sha256(" ".join(digests).encode()).hexdigest()}


def _enumeration(ring, cls, budget=fnq.DEFAULT_BUDGET):
    return lambda: list(enumerate_maps(ring, ring, cls, budget))


def tier1_cases() -> dict:
    cases = {}
    for name, build in SMALL.items():
        ring = build()
        for cls in classes(ring):
            cases[f"{name} {cls}"] = _enumeration(ring, cls)
    z256 = fnq.zn(256)
    cases[f"z256 {HOMOMORPHISM}"] = _enumeration(z256, HOMOMORPHISM)
    gf5 = fnq.gf(5, 1)
    cases["gf5 pexider"] = lambda: fnq.solve(fnq.SolveTask(
        ast=pexider_equation(), ring=gf5,
        classes={"f": ARBITRARY, "h": ARBITRARY, "k": ARBITRARY}))
    return cases


def sweep_cases() -> dict:
    cases = {}
    for name, doc in CARRIERS.items():
        ring = _ring(doc)
        for cls in classes(ring):
            cases[f"{name} {cls}"] = _enumeration(ring, cls, LIFTED)
    return cases


def _pinned(part: str) -> dict:
    return json.loads(FIXTURE.read_text())[part]


def test_fixture_covers_every_case():
    assert list(_pinned("tier1")) == list(tier1_cases())


@pytest.mark.parametrize("case", list(tier1_cases()))
def test_kernel_work_is_pinned(case):
    assert work(tier1_cases()[case]) == _pinned("tier1")[case]


@pytest.mark.slow
def test_sweep_work_is_pinned():
    cases, pinned = sweep_cases(), _pinned("sweep")
    assert list(pinned) == list(cases) and len(cases) == 425
    for case, run in cases.items():
        assert work(run) == pinned[case], case


if __name__ == "__main__":
    doc = {"tier1": {c: work(run) for c, run in tier1_cases().items()},
           "sweep": {c: work(run) for c, run in sweep_cases().items()}}
    FIXTURE.write_text(json.dumps(doc, indent=1) + "\n")
