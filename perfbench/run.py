"""fnq's benchmark: one command, two closed-loop workloads, checked answers.

    python3 perfbench/run.py --workload verify-solve --seed 1 --seconds 45 --trace 0

Each workload runs in fresh child processes (bench.py).  With ``--trace 0``
the last line of standard output holds the end-to-end metrics, measured
with tracing off; with ``--trace 1`` it holds the per-layer metrics of a
traced run plus, from an untraced run, each fixed task's median time and the
tracing overhead.  End-to-end and per-task times are in reference seconds,
which take out the host's speed drift (hostspeed.py); layer self times and
the metrics named ``*_wall_*`` are wall seconds.
See README.md for the workloads and what each metric is expected to move.
"""
from __future__ import annotations

import argparse
import json
import math
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
CHECKOUT = HERE.parent
sys.path.insert(0, str(HERE))

import hostspeed  # noqa: E402
import solves  # noqa: E402  (stdlib only at import time)
import tracing  # noqa: E402  (stdlib only at import time)

WORKLOADS = ("verify-solve", "rings")
FIXED_TASK_IDS = (
    "thm4_z8", "thm4_z6", "prop1_z8", "alien_gf7", "thm5_symbolic",
    "pexider_gf5",
    "build_z256", "build_gf256", "build_z16xz16", "build_ut2_5", "hom_z256",
    "classify_ut2_5")
# set-up is sampled this many times, each in a process of its own
SETUP_SAMPLES = 6
CHILD_TIMEOUT_S = 150
DIGESTS = HERE / f"small_solves_seed{solves.DEFAULT_SEED}.json"


class BenchError(Exception):
    pass


def child(mode: str, args, seconds: float = 0.0) -> dict:
    """Run bench.py in a fresh process and return its JSON report."""
    cmd = [sys.executable, str(HERE / "bench.py"), mode,
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(seconds)]
    t0 = time.monotonic()
    cmd += ["--t0", repr(t0)]
    try:
        proc = subprocess.run(cmd, cwd=CHECKOUT, capture_output=True, text=True,
                              timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"{mode} child timed out after {exc.timeout} s") from None
    if proc.returncode != 0:
        raise BenchError(f"{mode} child exited {proc.returncode}: "
                         f"{proc.stderr.strip()[-2000:]}")
    doc = json.loads(proc.stdout.strip().splitlines()[-1])
    if mode == "setup":
        return {"setup_s": doc["ready"] - t0}
    return doc


def setup_sample(args) -> tuple[float, float]:
    """One set-up time, in wall and in reference seconds.

    The reference loop samples the host speed in this process just before
    and just after the set-up process runs.
    """
    before = hostspeed.sample()
    wall = child("setup", args)["setup_s"]
    after = hostspeed.sample()
    return wall, hostspeed.to_reference(wall, (before + after) / 2)


def percentile(values: list[float], pct: float) -> float:
    """The ``pct`` percentile, interpolated linearly between the two
    nearest ranks (numpy's default), so the median of six is the mean of
    the middle two."""
    ordered = sorted(values)
    pos = pct / 100 * (len(ordered) - 1)
    low = math.floor(pos)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (pos - low)


def expected_digests(args) -> dict[str, str] | None:
    """The solve tasks' oracle answers: committed for the default seed."""
    if args.workload != "verify-solve":
        return None
    if args.seed == solves.DEFAULT_SEED:
        return json.loads(DIGESTS.read_text())
    return child("oracle", args)


def failures(report: dict, expected: dict[str, str] | None) -> tuple[int, int, list]:
    """Attempted tasks, failed tasks and the first few failure reasons."""
    attempted, failed, reasons = 0, 0, []
    for p in report["passes"]:
        for task_id, _, _, error, digest in p["tasks"]:
            attempted += 1
            if error is None and expected is not None and digest != expected.get(task_id):
                error = f"solution set {digest}, oracle says {expected.get(task_id)}"
            if error is not None:
                failed += 1
                if len(reasons) < 5:
                    reasons.append(f"{task_id}: {error}")
    return attempted, failed, reasons


def task_medians(report: dict, wall: bool = False) -> dict[str, float]:
    """Each task's median latency over the run's passes, in reference
    seconds, or in wall seconds if ``wall``."""
    by_task: dict[str, list[float]] = {}
    for p in report["passes"]:
        for t in p["tasks"]:
            by_task.setdefault(t[0], []).append(t[1 if wall else 2])
    return {task_id: statistics.median(v) for task_id, v in by_task.items()}


def task_ms(report: dict, pct: float, wall: bool = False) -> float:
    """Percentile of per-task latency over the workload's tasks, each task
    counted once with its median over the passes.  Pooling every sample
    instead puts the median of ``rings`` (six tasks, three short and three
    long) on the gap between the two groups, where it jumps."""
    return 1000 * percentile(list(task_medians(report, wall).values()), pct)


def host_loop_ms(report: dict) -> float:
    """The reference loop's median time over the run's samples."""
    return 1000 * statistics.median(report["samples"][1])


def end_to_end(report: dict, setups: list[tuple[float, float]]) -> dict:
    """Every time in reference seconds (hostspeed.py)."""
    return {
        "setup_s": (statistics.median(ref for _, ref in setups), "s"),
        "pass_s": (report["median_pass_ref_s"], "s"),
        "task_p50_ms": (task_ms(report, 50), "ms"),
        "peak_rss_mb": (report["peak_rss_mb"], "MB"),
    }


def per_layer(untraced: dict, traced: dict) -> tuple[dict, list[str]]:
    """Layer metrics from the traced run, task times from the untraced one."""
    problems = []
    passes = traced["passes"]
    metrics = {}
    for name in tracing.TIME_METRICS:
        metrics[name] = (statistics.median(p["times"][name] for p in passes), "s")
    counts = passes[0]["counts"]
    if any(p["counts"] != counts for p in passes[1:]):
        problems.append("work counters differ between passes")
    for name in tracing.COUNT_METRICS:
        metrics[name] = (counts[name], "bytes" if name == "cli.report_bytes"
                         else "count")
    ratio = lambda a, b: a / b if b else 0.0  # noqa: E731
    metrics["maps.scan_yield"] = (ratio(counts["maps.scan_survivors"],
                                        counts["maps.scan_candidates"]), "ratio")
    metrics["solver.rows_per_batch"] = (ratio(counts["solver.batch_rows"],
                                              counts["solver.batch_calls"]),
                                        "ratio")
    worst = max(p["sum_error"] for p in passes)
    if worst > 1e-6:
        problems.append(f"layer self times miss their root span by {worst:.3g} s")
    by_task = task_medians(untraced)
    for task_id in FIXED_TASK_IDS:
        metrics[f"task.{task_id}_s"] = (by_task.get(task_id, 0.0), "s")
    metrics["task_p90_ms"] = (task_ms(untraced, 90), "ms")
    metrics["trace.overhead_frac"] = (
        traced["median_pass_s"] / untraced["median_pass_s"] - 1, "ratio")
    metrics["pass_wall_s"] = (untraced["median_pass_s"], "s")
    metrics["task_p50_wall_ms"] = (task_ms(untraced, 50, wall=True), "ms")
    metrics["host.loop_ms"] = (host_loop_ms(untraced), "ms")
    return metrics, problems


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (CHECKOUT / "src" / "fnq" / "__init__.py").is_file():
        print("error: no fnq sources under src/ next to the benchmark",
              file=sys.stderr)
        return 2

    try:
        expected = expected_digests(args)
        if args.trace == 0:
            # half the set-up samples before the measured process and half
            # after it, so that they span the run's stretch of machine time
            hostspeed.warm_up()
            setups = [setup_sample(args) for _ in range(SETUP_SAMPLES // 2)]
            runs = [child("run", args, args.seconds)]
            setups += [setup_sample(args)
                       for _ in range(SETUP_SAMPLES - SETUP_SAMPLES // 2)]
        else:
            # the untraced and the traced run share the run's time
            runs = [child("run", args, args.seconds / 2),
                    child("trace", args, args.seconds / 2)]
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    if args.trace == 0:
        report = runs[0]
        metrics = end_to_end(report, setups)
        problems = []
        samples = sum(len(p["tasks"]) for p in report["passes"])
        print(f"# {args.workload}: {len(report['passes'])} passes, "
              f"{samples} task samples of {len(task_medians(report))} tasks, "
              f"set-up samples {len(setups)}, task_p90_ms "
              f"{task_ms(report, 90):.4g}; wall: pass_s "
              f"{report['median_pass_s']:.4g}, setup_s "
              f"{statistics.median(wall for wall, _ in setups):.4g}; "
              f"reference loop {host_loop_ms(report):.4g} ms over "
              f"{len(report['samples'][1])} samples")
    else:
        metrics, problems = per_layer(*runs)
        print(f"# {args.workload}: spans in {runs[1]['spans_file']}")

    attempted = failed = 0
    reasons: list[str] = []
    for report in runs:
        a, f, r = failures(report, expected)
        attempted, failed = attempted + a, failed + f
        reasons += r
    for reason in (problems + reasons)[:10]:
        print(f"# FAIL {reason}")
    print(f"# fail_frac {failed}/{attempted} = {failed / attempted:.4g}")
    print(json.dumps({
        "correct": failed == 0 and not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
