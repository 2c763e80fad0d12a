"""Host speed, read from a fixed reference loop that interrupts the workload.

The benchmark was tuned on 2 vCPUs of a shared host whose speed drifts by
up to 1.5x in phases of a few seconds to a minute, on both vCPUs at once.
Wall times that a run measures move with that drift more than with the
code.  So every time the benchmark bounds is given in *reference seconds*:
wall seconds times ``REFERENCE_S`` over what the reference loop took while
the measurement ran.  A task that runs while the loop takes 1.2 x
``REFERENCE_S`` is charged its wall time over 1.2.  The loop touches no fnq
code, so only a change of fnq's own cost moves a reference time.

``Sampler`` runs the loop in the workload process itself, from a SIGALRM
handler every ``EVERY_S``, so that it also covers the inside of a task that
runs for many seconds, on the same vCPU and caches as the task.  The time
spent in the handler is taken out of the task's wall time.

The loop mixes the kinds of work fnq does, in equal parts: numpy arithmetic
on a small int64 table with its rows made into tuples and sets, and plain
interpreter work on lists, tuples and dicts.  When the host slowed down,
fnq's tasks slowed by 0.3 to 2 times as much as either part alone,
depending on the task; scaling by the mix took out the most drift (see
README.md).
"""
from __future__ import annotations

import bisect
import gc
import signal
import statistics
import time

import numpy as np

# what one run of the loop took on the host the benchmark was tuned on
# (Xeon under KVM, 2 vCPUs) in a typical phase; it sets the scale only, and
# must stay fixed so that reference times of two commits compare
REFERENCE_S = 0.009
# a sample takes ~27 ms, so sampling costs ~5 % of a run
EVERY_S = 0.5
_TABLE = np.arange(64 * 64, dtype=np.int64).reshape(64, 64)
_ROW = list(range(251))


def _reference_loop() -> int:
    # half the time: numpy arithmetic on a small table, rows made tuples
    acc = 0
    for i in range(100):
        table = (_TABLE * (i % 7) + _TABLE.T) % 251
        acc += int(table[i % 64, 3])
        acc += len({tuple(row) for row in table[:8].tolist()})
    # the other half: list indexing, tuple keys and dict updates
    counts: dict[tuple[int, int], int] = {}
    for i in range(9_000):
        key = (_ROW[i % 251], _ROW[i * 7 % 251])
        counts[key] = counts.get(key, 0) + 1
        acc += key[0] * key[1] % 13
    return acc


def sample() -> float:
    """Wall seconds of the reference loop: the median of three runs, so
    that one run hit by an interrupt does not count.  Automatic garbage
    collection is off meanwhile, so the loop never pays for a collection of
    the program's garbage."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        runs = []
        for _ in range(3):
            t0 = time.monotonic()
            _reference_loop()
            runs.append(time.monotonic() - t0)
    finally:
        if enabled:
            gc.enable()
    return sorted(runs)[1]


def warm_up() -> None:
    """Run the loop once untimed, so that the first timed sample is warm."""
    _reference_loop()


def to_reference(elapsed: float, loop_s: float) -> float:
    """Wall seconds, measured while the loop took ``loop_s``, in reference seconds."""
    return elapsed * REFERENCE_S / loop_s


class Sampler:
    """Samples every ``EVERY_S`` from a SIGALRM handler, for the length of a
    ``with`` block.  Only the main thread may use it."""

    def __init__(self) -> None:
        self.mids: list[float] = []
        self.took: list[float] = []
        self.paused = 0.0  # seconds spent in the handler so far

    def _tick(self, signum, frame) -> None:
        t0 = time.monotonic()
        took = sample()
        t1 = time.monotonic()
        self.mids.append((t0 + t1) / 2)
        self.took.append(took)
        self.paused += t1 - t0

    def __enter__(self) -> "Sampler":
        warm_up()
        self._tick(signal.SIGALRM, None)
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, EVERY_S, EVERY_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
        self._tick(signal.SIGALRM, None)

    def loop_s(self, start: float, end: float) -> float:
        """Mean loop time over the samples taken from ``EVERY_S`` before
        ``start`` to ``EVERY_S`` after ``end``, so that a short interval
        still sees a sample on each side of it."""
        lo = bisect.bisect_left(self.mids, start - EVERY_S)
        hi = bisect.bisect_right(self.mids, end + EVERY_S)
        if lo == hi:  # a long C call held the signal back: use the nearest
            lo, hi = max(lo - 1, 0), min(hi + 1, len(self.mids))
        return statistics.fmean(self.took[lo:hi])
