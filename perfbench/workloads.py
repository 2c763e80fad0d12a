"""The benchmark's workloads: task lists and the oracle each answer must pass.

A task is a zero-argument callable whose return value goes to the task's
``check``; ``check`` returns a list of problems, empty when the answer is
right.  Only the call is timed; the check runs after the pass.  Every task
builds its ring from a JSON spec, as ``fnq ... --ring`` does, so ring
construction is part of the time a user waits.
"""
from __future__ import annotations

import contextlib
import io
import json
import random
from dataclasses import dataclass
from typing import Any, Callable

import fnq
from fnq import cli

import solves

WORKLOADS = ("verify-solve", "rings")


@dataclass
class Task:
    task_id: str
    run: Callable[[], Any]
    check: Callable[[Any], list[str]]
    # for a seeded solve task: its spec, whose digest the oracle supplies
    spec: solves.SolveSpec | None = None


@dataclass
class CliAnswer:
    code: int
    text: str


def run_cli(argv: list[str]) -> CliAnswer:
    """``fnq`` in-process, with its report captured instead of printed."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(argv)
    return CliAnswer(code, buf.getvalue())


def _zn(n: int) -> dict:
    return {"kind": "Zn", "n": n}


def _gf(p: int, k: int = 1) -> dict:
    return {"kind": "GF", "p": p, "k": k}


# ------------------------------------------------------- the six checks

def _verdict(answer: CliAnswer, code: int, **fields) -> tuple[list[str], dict]:
    problems = []
    if answer.code != code:
        problems.append(f"exit code {answer.code}, expected {code}")
    try:
        doc = json.loads(answer.text)
    except json.JSONDecodeError:
        return problems + ["report is not JSON"], {}
    for key, want in fields.items():
        if doc.get(key) != want:
            problems.append(f"{key} = {doc.get(key)!r}, expected {want!r}")
    return problems, doc


def _check_thm4_z8(answer: CliAnswer) -> list[str]:
    problems, doc = _verdict(answer, 0, solutions_found=50, predicted_count=50,
                             forward_ok=True, backward_ok=True)
    if doc and doc["details"].get("bijection") is not True:
        problems.append("bijection does not hold")
    return problems


def _check_thm4_z6(answer: CliAnswer) -> list[str]:
    # a correct exit 1: the converse fails at the central zero divisor 3
    problems, _ = _verdict(answer, 1, solutions_found=5, predicted_count=35,
                           forward_ok=True, backward_ok=False)
    return problems


def _check_prop1_z8(answer: CliAnswer) -> list[str]:
    problems, doc = _verdict(answer, 0, solutions_found=1, forward_ok=True)
    if doc and doc["details"].get("solutions") != [[0] * 8]:
        problems.append("solution set is not exactly the zero map")
    return problems


def _check_alien_gf7(answer: CliAnswer) -> list[str]:
    problems, doc = _verdict(answer, 0, solutions_found=2, predicted_count=2,
                             forward_ok=True, backward_ok=True)
    # lam=1, mu=2: the zero map and ((mu-lam)/mu)*id = 4*id over GF(7)
    want = [[0] * 7, [4 * x % 7 for x in range(7)]]
    if doc and doc["details"].get("solutions") != want:
        problems.append("solutions are not {0, 4*id}")
    return problems


def _check_thm5(answer: CliAnswer) -> list[str]:
    problems, doc = _verdict(answer, 0, forward_ok=True, backward_ok=True)
    if doc and doc["details"].get("constraints") != ["g3 + b2*b3"]:
        problems.append(f"constraints {doc['details'].get('constraints')}")
    return problems


def _verify(check: str, ring: dict | None = None, *flags: str) -> Callable:
    argv = ["verify", check, "--out", "json", *flags]
    if ring is not None:
        argv += ["--ring", json.dumps(ring)]
    return lambda: run_cli(argv)


def checks_tasks() -> list[Task]:
    return [
        Task("thm4_z8", _verify("thm4", _zn(8), "--eps", "1"), _check_thm4_z8),
        Task("thm4_z6", _verify("thm4", _zn(6), "--eps", "3"), _check_thm4_z6),
        Task("prop1_z8", _verify("prop1", _zn(8)), _check_prop1_z8),
        Task("alien_gf7", _verify("alien", _gf(7), "--lam", "1", "--mu", "2"),
             _check_alien_gf7),
        Task("thm5_symbolic", _verify("thm5-symbolic"), _check_thm5),
        Task("pexider_gf5", _verify("pexider", _gf(5)), _check_pexider_gf5),
    ]


def pexider_count(q: int) -> dict[str, int]:
    """Closed-form Pexider family counts over GF(q), q odd; they sum to N(q)."""
    return {"AllLinear": q * q, "MultiplicativeSquare": q * (q - 1) ** 2,
            "LambdaKFamilyB": (q - 1) ** 3, "TwoExponential": (q - 1) ** 4}


def _check_pexider_gf5(answer: CliAnswer) -> list[str]:
    families = pexider_count(5)
    problems, doc = _verdict(answer, 0, solutions_found=sum(families.values()),
                             forward_ok=True, backward_ok=True)
    if doc:
        details = doc["details"]
        if details.get("families") != families:
            problems.append(f"family histogram {details.get('families')}")
        if details.get("unclassifiable") != 0:
            problems.append(f"{details.get('unclassifiable')} unclassifiable")
        if details.get("closure_failures") != 0:
            problems.append(f"{details.get('closure_failures')} closure failures")
    return problems


# ------------------------------------------------------------------ rings

RING_SPECS = {
    "z256": _zn(256),
    "gf256": _gf(2, 8),
    "z16xz16": {"kind": "Product", "left": _zn(16), "right": _zn(16)},
    "ut2_5": {"kind": "UT2", "p": 5},
}
# carrier size and number of units
EXPECTED = {"z256": (256, 128), "gf256": (256, 255), "z16xz16": (256, 64),
            "ut2_5": (125, 80)}


def _build(name: str) -> Callable:
    text = json.dumps(RING_SPECS[name])
    return lambda: fnq.ring_from_json(text)


def _check_build(name: str) -> Callable[[Any], list[str]]:
    size, units = EXPECTED[name]

    def check(ring) -> list[str]:
        problems = []
        if ring.size != size:
            problems.append(f"size {ring.size}, expected {size}")
        if len(ring.units) != units:
            problems.append(f"{len(ring.units)} units, expected {units}")
        if name == "ut2_5" and len(ring.center) != 5:
            problems.append(f"center of size {len(ring.center)}, expected 5")
        return problems
    return check


def _hom_z256():
    ring = fnq.ring_from_json(json.dumps(RING_SPECS["z256"]))
    return list(fnq.enumerate_maps(ring, ring, fnq.HOMOMORPHISM))


def _check_hom_z256(maps) -> list[str]:
    # ring endomorphisms of Z_n are x -> e*x for the idempotents e,
    # 2**omega(n) of them; 256 = 2**8 has omega = 1
    n = 256
    want = sorted(tuple(e * x % n for x in range(n))
                  for e in range(n) if e * e % n == e)
    got = sorted(t.values for t in maps)
    if got != want:
        return [f"{len(got)} homomorphisms, expected {len(want)}"]
    return []


def _classify_ut2_5():
    ring = fnq.ring_from_json(json.dumps(RING_SPECS["ut2_5"]))
    out = []
    for b in ring.domain_elements:
        table = fnq.inner_derivation(ring, b)
        out.append((b, table.values, fnq.classify_map(table)))
    return out


def _check_classify_ut2_5(tagged) -> list[str]:
    problems = []
    if len(tagged) != 125:
        problems.append(f"{len(tagged)} inner derivations, expected 125")
    if any(fnq.DERIVATION not in tags for _, _, tags in tagged):
        problems.append("an inner derivation is not tagged derivation")
    # [[a,b],[0,c]] commutes with everything exactly when b = 0 and a = c;
    # the carrier index of (a, b, c) is 25a + 5b + c
    central = {25 * a + a for a in range(5)}
    zero = {b for b, values, _ in tagged if not any(values)}
    if zero != central:
        problems.append(f"zero map at b in {sorted(zero)}, expected {sorted(central)}")
    return problems


def rings_tasks() -> list[Task]:
    tasks = [Task(f"build_{name}", _build(name), _check_build(name))
             for name in RING_SPECS]
    tasks.append(Task("hom_z256", _hom_z256, _check_hom_z256))
    tasks.append(Task("classify_ut2_5", _classify_ut2_5, _check_classify_ut2_5))
    return tasks


# ------------------------------------------------------ the small solves

def solve_tasks(seed: int) -> list[Task]:
    """Seeded solve tasks; their answer is a digest for the oracle to match."""
    def make(spec: solves.SolveSpec) -> Task:
        argv = spec.argv()
        return Task(spec.task_id, lambda: run_cli(argv), _no_check, spec)
    return [make(spec) for spec in solves.generate(seed)]


def _no_check(answer) -> list[str]:
    return []


def solve_digest(task: Task, answer: CliAnswer) -> str:
    if answer.code != 0:
        return f"exit {answer.code}"
    return solves.digest(solves.parse_solutions(task.spec.out, answer.text))


# ---------------------------------------------------------------- lookup

def tasks_for(workload: str, seed: int) -> list[Task]:
    if workload == "verify-solve":
        return checks_tasks() + solve_tasks(seed)
    if workload == "rings":
        return rings_tasks()
    raise ValueError(f"unknown workload {workload!r}")


def pass_order(tasks: list[Task], rng: random.Random) -> list[Task]:
    """The seed permutes the task order of every pass."""
    order = list(tasks)
    rng.shuffle(order)
    return order
