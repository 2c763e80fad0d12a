"""One workload in one fresh process: the caller of the closed loop.

    python3 perfbench/bench.py {setup,oracle,run,trace} --workload W --seed N
                               --seconds S --t0 T

``run`` and ``trace`` repeat passes over the workload's task list until
``--seconds`` have gone by, each task starting when the previous one
returns.  ``run`` samples the host's speed while it runs (hostspeed.py)
and reports each task's time in wall and in reference seconds; ``trace``
instead wraps fnq's public functions (see tracing.py) and reports wall
seconds.  ``setup`` stops where the first task would start and reports that moment;
``oracle`` prints the digests of the solve tasks' oracle.  ``--t0`` is the
CLOCK_MONOTONIC reading taken just before this process was started, so
set-up time covers the interpreter, ``import fnq`` and input generation.

The last line of standard output is one JSON object for run.py.
"""
from __future__ import annotations

import argparse
import contextlib
import gc
import gzip
import json
import random
import resource
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
CHECKOUT = HERE.parent
sys.path.insert(0, str(CHECKOUT / "src"))

import fnq  # noqa: E402

import hostspeed  # noqa: E402
import solves  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

OUT_DIR = CHECKOUT / ".perfbench_out"


def run_pass(tasks, order_rng, tracer, speed):
    """One pass; returns its task records, answers and spans.

    A record holds the task's CLOCK_MONOTONIC start and its wall time
    without the time the host-speed sampler ``speed`` took from it.
    """
    order = workloads.pass_order(tasks, order_rng)
    done = []
    gc.collect()
    for task in order:
        root = None
        if tracer is not None:
            tracer.task = task.task_id
            root = tracer.open(tracing.ROOT)
        paused = speed.paused if speed is not None else 0.0
        t0 = time.monotonic()
        try:
            answer, error = task.run(), None
        except Exception as exc:  # a failed task is counted, not fatal
            answer, error = None, f"{type(exc).__name__}: {exc}"
        elapsed = time.monotonic() - t0
        if speed is not None:
            elapsed -= speed.paused - paused
        if root is not None:
            tracer.close(root)
        done.append((task, t0, elapsed, answer, error, root))

    records, texts = [], {}
    for task, t0, elapsed, answer, error, root in done:
        digest = None
        if error is None:
            if task.spec is not None:
                digest = workloads.solve_digest(task, answer)
            else:
                error = "; ".join(task.check(answer)) or None
        if isinstance(answer, workloads.CliAnswer):
            texts[task.task_id] = answer.text
            if root is not None:
                root.attrs["report_bytes"] = len(answer.text.encode())
        records.append([task.task_id, t0, elapsed, error, digest])
    spans = tracer.take() if tracer is not None else []
    return records, texts, spans


def to_reference(passes: list, speed) -> None:
    """Replace each record's start with its time in reference seconds, or
    None without a sampler, in place: records become
    [task, wall, reference, error, digest]."""
    for p in passes:
        for record in p["tasks"]:
            start, elapsed = record[1], record[2]
            ref = None
            if speed is not None:
                ref = hostspeed.to_reference(elapsed, speed.loop_s(start, start + elapsed))
            record[1:3] = [elapsed, ref]
        if speed is not None:
            p["ref"] = sum(r[2] for r in p["tasks"])


def workers_agree(tasks, texts) -> dict[str, str]:
    """Re-run every --workers 2 task with one worker; the bytes must match."""
    problems = {}
    for task in tasks:
        if task.spec is None or task.spec.workers == 1:
            continue
        argv = task.spec.argv()
        argv[argv.index("--workers") + 1] = "1"
        if workloads.run_cli(argv).text != texts.get(task.task_id):
            problems[task.task_id] = "--workers 2 output differs from --workers 1"
    return problems


def write_spans(workload: str, seed: int, passes: list) -> str:
    OUT_DIR.mkdir(exist_ok=True)
    path = OUT_DIR / f"spans-{workload}-seed{seed}.json.gz"
    doc = [[[s.sid, s.parent, s.name, s.task, s.start, s.end, s.attrs]
            for s in spans] for spans in passes]
    with gzip.open(path, "wt", encoding="utf-8") as fh:
        json.dump({"fields": ["sid", "parent", "name", "task", "start", "end",
                              "attrs"], "passes": doc}, fh)
    return str(path.relative_to(CHECKOUT))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("mode", choices=("setup", "oracle", "run", "trace"))
    parser.add_argument("--workload", required=True,
                        choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=1.0)
    parser.add_argument("--t0", type=float, default=None)
    args = parser.parse_args(argv)
    if not Path(fnq.__file__).resolve().is_relative_to(CHECKOUT / "src"):
        raise SystemExit(f"fnq imported from {fnq.__file__}, not this checkout")

    tasks = workloads.tasks_for(args.workload, args.seed)
    if args.mode == "setup":
        print(json.dumps({"ready": time.monotonic()}))
        return 0
    if args.mode == "oracle":
        print(json.dumps(solves.oracle_digests(
            [t.spec for t in tasks if t.spec is not None])))
        return 0
    # a traced run reports wall times only, so it needs no sampler
    tracer = speed = None
    if args.mode == "trace":
        tracer = tracing.Tracer()
        tracer.install()
    else:
        speed = hostspeed.Sampler()
    order_rng = random.Random(args.seed)
    passes, span_passes, first_texts = [], [], None
    with speed or contextlib.nullcontext():
        begin = time.perf_counter()
        while True:
            started = time.perf_counter()
            records, texts, spans = run_pass(tasks, order_rng, tracer, speed)
            took = time.perf_counter() - started
            doc = {"wall": sum(r[2] for r in records), "tasks": records}
            if tracer is not None:
                times, counts, error = tracing.pass_metrics(spans)
                doc.update(times=times, counts=counts, sum_error=error)
                span_passes.append(spans)
            passes.append(doc)
            if first_texts is None:
                first_texts = texts
            # stop before a pass that would end after --seconds
            if time.perf_counter() - begin + took > args.seconds:
                break
    if tracer is not None:
        tracer.uninstall()
    to_reference(passes, speed)

    for task_id, problem in workers_agree(tasks, first_texts).items():
        for record in passes[0]["tasks"]:
            if record[0] == task_id and record[3] is None:
                record[3] = problem
    result = {
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "passes": passes,
        "median_pass_s": statistics.median(p["wall"] for p in passes),
    }
    if speed is not None:
        result["median_pass_ref_s"] = statistics.median(p["ref"] for p in passes)
        result["samples"] = [speed.mids, speed.took]
    if span_passes:
        result["spans_file"] = write_spans(args.workload, args.seed, span_passes)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
