"""Stretch rows: checks that exceed fnq's default budgets today.

    python3 perfbench/stretch.py > perfbench/stretch.json

Each row calls the public library with its default budget.  A row that
raises ``BudgetExceeded`` is recorded as ``{"status": "budget", "needed": n}``
with the size the error reports; fnq raises it before allocating.  A row
that completes is recorded with its wall time and solution count.  These
rows are not timed workloads; a later change turns them into one once they
run within the default budgets.
"""
from __future__ import annotations

import json
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import fnq  # noqa: E402
from fnq.errors import BudgetExceeded  # noqa: E402

ROWS = {
    "pexider_gf7": lambda: fnq.verify_pexider(fnq.gf(7)).solutions_found,
    "pexider_gf8": lambda: fnq.verify_pexider(fnq.gf(2, 3)).solutions_found,
    "pexider_gf9": lambda: fnq.verify_pexider(fnq.gf(3, 2)).solutions_found,
    "multiplicative_z16": lambda: len(list(fnq.enumerate_maps(
        fnq.zn(16), fnq.zn(16), fnq.MULTIPLICATIVE))),
    "thm4_z12": lambda: fnq.verify_sofy(fnq.zn(12), 1).solutions_found,
}


def main() -> int:
    rows = {}
    for name, call in ROWS.items():
        start = time.perf_counter()
        try:
            solutions = call()
        except BudgetExceeded as exc:
            rows[name] = {"status": "budget", "needed": exc.needed}
            continue
        rows[name] = {"status": "ran", "solutions": solutions,
                      "seconds": time.perf_counter() - start}
    print(json.dumps(rows, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
