"""Spans around fnq's public functions, recorded from outside the package.

``install`` replaces each listed function with a wrapper in every fnq module
that binds its name (``theorems`` imports ``solve``, ``residual`` and
``batch_satisfies`` by name, so patching the defining module alone would
miss those calls).  A wrapper records one span per call: function, start,
end, parent span and task id, plus the counts at the same boundary.  Spans
stay in memory; the harness writes them out when the run ends.

Layers do not queue work for one another and the only concurrency is
``solve(..., workers=2)``, so no span waits and waiting time is not measured.
A span opened on a worker thread takes the main thread's innermost open
span as its parent: fnq starts its threads only from inside ``solve``.
"""
from __future__ import annotations

import functools
import importlib
import inspect
import threading
import time
from dataclasses import dataclass, field

MODULES = ("fnq", "fnq.algebra", "fnq.maps", "fnq.eqdsl", "fnq.solver",
           "fnq.theorems", "fnq.symbolic", "fnq.cli")

# module -> public functions wrapped in that module
TRACED = {
    "algebra": ("build_ring", "ring_from_json"),
    "maps": ("filter_tables", "enumerate_maps", "classify_map", "lin_rank",
             "linear_combination"),
    "eqdsl": ("parse_equation", "pivot_reduce"),
    "solver": ("solve", "batch_satisfies", "residual", "solution_set_to_json",
               "solution_set_to_json_bytes", "solution_set_to_csv"),
    "theorems": ("verify_sofy", "verify_mp", "verify_pexider", "verify_alien",
                 "verify_thm5_symbolic", "classify_pexider",
                 "pexider_closure_samples"),
    "symbolic": ("derive_constraints", "check_identity"),
    "cli": ("main",),
}
ROOT = "task"


@dataclass
class Span:
    sid: int
    parent: int | None
    name: str           # "<layer>.<function>", or ROOT for a task
    start: float
    end: float = 0.0
    task: str = ""
    attrs: dict = field(default_factory=dict)


def _attrs(name: str, signature, args, kwargs, result) -> dict:
    """Work counts taken at the boundary of one call."""
    if name == "algebra.build_ring":
        return {"cells": result.size ** 3}
    if name == "maps.filter_tables":
        bound = signature.bind(*args, **kwargs)
        domain, codomain = bound.arguments["domain"], bound.arguments["codomain"]
        total = codomain.size ** len(domain.domain_elements)
        lo, hi = bound.arguments.get("id_range") or (0, total)
        return {"candidates": hi - lo, "survivors": int(result.size)}
    if name == "maps.enumerate_maps":
        return {"tables": len(result)}
    if name == "solver.solve":
        return {"candidates": result.enumerated_count,
                "solutions": len(result.solutions)}
    if name == "solver.batch_satisfies":
        batch = args[3] if len(args) > 3 else kwargs["batch"]
        return {"rows": max((a.shape[0] for a in batch.values()), default=1)}
    if name == "solver.residual":
        ring = args[2] if len(args) > 2 else kwargs["ring"]
        return {"pairs": len(ring.domain_elements) ** 2}
    return {}


# generator functions: the wrapper drains them inside the span
_MATERIALIZED = {"maps.enumerate_maps", "theorems.pexider_closure_samples"}


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self.task = ""
        self._local = threading.local()
        self._main_stack: list[Span] = []
        self._main = threading.main_thread()
        self._lock = threading.Lock()
        self._installed: list[tuple[object, str, object]] = []

    def _stack(self) -> list[Span]:
        if threading.current_thread() is self._main:
            return self._main_stack
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def open(self, name: str) -> Span:
        stack = self._stack()
        if stack:
            parent = stack[-1].sid
        elif self._main_stack:
            parent = self._main_stack[-1].sid
        else:
            parent = None
        with self._lock:
            span = Span(len(self.spans), parent, name, 0.0, task=self.task)
            self.spans.append(span)
        stack.append(span)
        span.start = time.perf_counter()
        return span

    def close(self, span: Span) -> None:
        span.end = time.perf_counter()
        self._stack().pop()

    def wrap(self, name: str, func):
        tracer = self
        materialize = name in _MATERIALIZED
        signature = inspect.signature(func)

        @functools.wraps(func)
        def traced(*args, **kwargs):
            span = tracer.open(name)
            try:
                result = func(*args, **kwargs)
                if materialize:
                    result = list(result)
            finally:
                tracer.close(span)
            span.attrs = _attrs(name, signature, args, kwargs, result)
            return iter(result) if materialize else result
        return traced

    def install(self) -> None:
        modules = [importlib.import_module(m) for m in MODULES]
        for layer, names in TRACED.items():
            home = importlib.import_module(f"fnq.{layer}")
            for fname in names:
                original = getattr(home, fname)
                wrapper = self.wrap(f"{layer}.{fname}", original)
                for module in modules:
                    if getattr(module, fname, None) is original:
                        self._installed.append((module, fname, original))
                        setattr(module, fname, wrapper)

    def uninstall(self) -> None:
        for module, fname, original in reversed(self._installed):
            setattr(module, fname, original)
        self._installed.clear()

    def take(self) -> list[Span]:
        spans, self.spans = self.spans, []
        return spans


# ------------------------------------------------------------- attribution

def exclusive_times(spans: list[Span]) -> dict[int, float]:
    """Each span's share of its task's wall time.

    At every instant the open spans with no open child share the instant
    equally, so the shares of one task add up to its root span exactly, even
    while worker threads overlap.  Without threads this is the span's
    duration minus the time its children cover.
    """
    events = []
    for s in spans:
        events.append((s.start, 1, s.sid))
        events.append((s.end, 0, s.sid))
    events.sort()
    by_id = {s.sid: s for s in spans}
    open_children: dict[int, int] = {}
    open_spans: set[int] = set()
    share = {s.sid: 0.0 for s in spans}
    last = None
    for t, kind, sid in events:
        if last is not None and t > last and open_spans:
            leaves = [o for o in open_spans if not open_children.get(o)]
            part = (t - last) / len(leaves)
            for o in leaves:
                share[o] += part
        last = t
        parent = by_id[sid].parent
        if kind == 1:
            open_spans.add(sid)
            if parent in by_id:
                open_children[parent] = open_children.get(parent, 0) + 1
        else:
            open_spans.discard(sid)
            if parent in by_id:
                open_children[parent] -= 1
    return share


def _ancestors(span: Span, by_id: dict[int, Span]):
    parent = by_id.get(span.parent)
    while parent is not None:
        yield parent
        parent = by_id.get(parent.parent)


def bucket(span: Span, by_id: dict[int, Span]) -> str:
    """The per-layer time metric a span's exclusive time counts towards."""
    name = span.name
    if name == ROOT:
        return "bench.self_s"
    layer, _, func = name.partition(".")
    if layer == "algebra":
        return "algebra.build_s"
    if layer == "maps":
        return {"filter_tables": "maps.scan_s",
                "enumerate_maps": "maps.enumerate_s",
                "classify_map": "maps.classify_s"}.get(func, "maps.linalg_s")
    if layer == "eqdsl":
        return "eqdsl.parse_s" if func == "parse_equation" else "eqdsl.pivot_s"
    if layer == "solver":
        if func.startswith("solution_set_to"):
            return "solver.serialize_s"
        parent = by_id.get(span.parent)
        if func == "residual" and parent is not None:
            if parent.name == "solver.solve":
                return "solver.reverify_s"
            if parent.name == "theorems.verify_pexider":
                return "theorems.closure_s"
            if parent.name == "theorems.classify_pexider":
                return "theorems.classify_s"
            if parent.name.startswith("theorems."):
                return "theorems.self_s"
        if func == "batch_satisfies" and not any(
                a.name == "solver.solve" for a in _ancestors(span, by_id)):
            return "solver.probe_s"
        if func == "residual":
            return "solver.reverify_s"
        return "solver.search_s"
    if layer == "theorems":
        if func == "classify_pexider":
            return "theorems.classify_s"
        return "theorems.self_s"
    if layer == "symbolic":
        return "symbolic.derive_s"
    return "cli.self_s"


TIME_METRICS = (
    "algebra.build_s", "maps.scan_s", "maps.enumerate_s", "maps.classify_s",
    "maps.linalg_s", "eqdsl.parse_s", "eqdsl.pivot_s", "solver.search_s",
    "solver.probe_s", "solver.reverify_s", "solver.serialize_s",
    "theorems.self_s", "theorems.classify_s", "theorems.closure_s",
    "symbolic.derive_s", "cli.self_s", "bench.self_s")

COUNT_METRICS = (
    "algebra.builds", "algebra.axiom_cells", "maps.scan_candidates",
    "maps.scan_survivors", "maps.tables_enumerated", "maps.linalg_calls",
    "eqdsl.parses", "solver.candidates", "solver.solutions",
    "solver.batch_calls", "solver.batch_rows", "solver.reverify_pairs",
    "theorems.classified", "cli.report_bytes")


def pass_metrics(spans: list[Span]) -> tuple[dict[str, float], dict[str, int],
                                              float]:
    """Layer times, work counts and the largest per-task sum error of a pass.

    The sum error is, over the pass's tasks, the largest gap between a root
    span and the exclusive times of all spans of its task; it is zero up to
    float rounding.
    """
    by_id = {s.sid: s for s in spans}
    share = exclusive_times(spans)
    times = dict.fromkeys(TIME_METRICS, 0.0)
    counts = dict.fromkeys(COUNT_METRICS, 0)
    per_task: dict[str, float] = {}
    roots: dict[str, float] = {}
    for s in spans:
        times[bucket(s, by_id)] += share[s.sid]
        per_task[s.task] = per_task.get(s.task, 0.0) + share[s.sid]
        if s.name == ROOT:
            roots[s.task] = roots.get(s.task, 0.0) + (s.end - s.start)
        a = s.attrs
        parent = by_id.get(s.parent)
        if s.name == "algebra.build_ring":
            counts["algebra.builds"] += 1
            counts["algebra.axiom_cells"] += a.get("cells", 0)
        elif s.name == "maps.filter_tables":
            counts["maps.scan_candidates"] += a.get("candidates", 0)
            counts["maps.scan_survivors"] += a.get("survivors", 0)
        elif s.name == "maps.enumerate_maps":
            counts["maps.tables_enumerated"] += a.get("tables", 0)
        elif s.name in ("maps.lin_rank", "maps.linear_combination"):
            counts["maps.linalg_calls"] += 1
        elif s.name == "eqdsl.parse_equation":
            counts["eqdsl.parses"] += 1
        elif s.name == "solver.solve":
            counts["solver.candidates"] += a.get("candidates", 0)
            counts["solver.solutions"] += a.get("solutions", 0)
        elif s.name == "solver.batch_satisfies":
            counts["solver.batch_calls"] += 1
            counts["solver.batch_rows"] += a.get("rows", 0)
        elif (s.name == "solver.residual" and parent is not None
              and parent.name == "solver.solve"):
            counts["solver.reverify_pairs"] += a.get("pairs", 0)
        elif s.name == "theorems.classify_pexider":
            counts["theorems.classified"] += 1
        elif s.name == ROOT:
            counts["cli.report_bytes"] += a.get("report_bytes", 0)
    error = max((abs(per_task[t] - roots[t]) for t in roots), default=0.0)
    return times, counts, error
