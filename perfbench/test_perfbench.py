"""Self-tests of the benchmark: python3 -m pytest -q perfbench"""
from __future__ import annotations

import json
import signal
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import fnq  # noqa: E402

import hostspeed  # noqa: E402
import run  # noqa: E402
import solves  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from tracing import Span  # noqa: E402


def test_same_seed_gives_identical_task_list():
    first = [t.argv() for t in solves.generate(7)]
    again = [t.argv() for t in solves.generate(7)]
    other = [t.argv() for t in solves.generate(8)]
    assert first == again
    assert first != other
    assert len(first) == solves.TASK_COUNT


def test_generated_tasks_fit_the_default_budget():
    for spec in solves.generate(3):
        template = next(t for t in solves.TEMPLATES if t.text == spec.equation)
        pairs = solves.estimated_pairs(template, spec.carrier, dict(spec.classes))
        assert pairs <= solves.PAIR_CAP < fnq.DEFAULT_BUDGET


def test_fixed_task_ids_match_the_workloads():
    ids = [t.task_id for w in workloads.WORKLOADS
           for t in workloads.tasks_for(w, 0) if t.spec is None]
    assert tuple(ids) == run.FIXED_TASK_IDS


def test_self_times_on_a_hand_built_span_tree():
    # task [0,10]: cli [1,9] -> solve [2,8] -> two worker scans that overlap
    # on [4,5]; solve -> residual [7,8]
    spans = [
        Span(0, None, tracing.ROOT, 0.0, 10.0, "t"),
        Span(1, 0, "cli.main", 1.0, 9.0, "t"),
        Span(2, 1, "solver.solve", 2.0, 8.0, "t"),
        Span(3, 2, "maps.filter_tables", 3.0, 5.0, "t"),
        Span(4, 2, "maps.filter_tables", 4.0, 6.0, "t"),
        Span(5, 2, "solver.residual", 7.0, 8.0, "t"),
    ]
    share = tracing.exclusive_times(spans)
    assert share == {0: 2.0, 1: 2.0, 2: 2.0, 3: 1.5, 4: 1.5, 5: 1.0}
    times, _, error = tracing.pass_metrics(spans)
    assert times["maps.scan_s"] == 3.0
    assert times["solver.search_s"] == 2.0
    assert times["solver.reverify_s"] == 1.0
    assert times["cli.self_s"] == 2.0
    assert times["bench.self_s"] == 2.0
    assert sum(times.values()) == 10.0
    assert error == 0.0


def test_probe_and_closure_buckets():
    spans = [
        Span(0, None, tracing.ROOT, 0.0, 6.0, "t"),
        Span(1, 0, "theorems.verify_pexider", 0.0, 6.0, "t"),
        Span(2, 1, "solver.batch_satisfies", 1.0, 2.0, "t"),
        Span(3, 1, "solver.residual", 2.0, 3.0, "t"),
        Span(4, 1, "theorems.classify_pexider", 3.0, 5.0, "t"),
        Span(5, 4, "maps.lin_rank", 3.0, 4.0, "t"),
    ]
    times, counts, _ = tracing.pass_metrics(spans)
    assert times["solver.probe_s"] == 1.0
    assert times["theorems.closure_s"] == 1.0
    assert times["theorems.classify_s"] == 1.0
    assert times["maps.linalg_s"] == 1.0
    assert times["theorems.self_s"] == 2.0
    assert counts["theorems.classified"] == 1


def test_tracer_wraps_every_binding_and_restores_it():
    original = fnq.solver.solve
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert fnq.theorems.solve is fnq.solver.solve is fnq.cli.solve
        assert fnq.solve is fnq.solver.solve is not original
        workloads.run_cli(["solve", "--ring", '{"kind":"Zn","n":3}',
                           "--eq", "f(x*y)=f(x)*f(y)", "--out", "json"])
    finally:
        tracer.uninstall()
    assert fnq.theorems.solve is fnq.solver.solve is original
    names = {s.name for s in tracer.take()}
    assert {"cli.main", "solver.solve", "solver.residual",
            "eqdsl.parse_equation", "algebra.ring_from_json"} <= names


def _report(tasks):
    return {"passes": [{"wall": 1.0, "tasks": tasks}]}


def test_one_solution_removed_counts_as_a_failure():
    spec = solves.generate(solves.DEFAULT_SEED)[0]
    rows = solves.oracle_solutions(spec)
    assert rows, "the first default-seed task has solutions"
    expected = {spec.task_id: solves.digest(rows)}
    good = _report([[spec.task_id, 0.1, 0.1, None, solves.digest(rows)]])
    short = _report([[spec.task_id, 0.1, 0.1, None, solves.digest(rows[1:])]])
    assert run.failures(good, expected)[:2] == (1, 0)
    assert run.failures(short, expected)[:2] == (1, 1)


def test_pexider_report_with_one_solution_removed_fails_its_oracle():
    families = workloads.pexider_count(5)
    doc = {"solutions_found": 425, "forward_ok": True, "backward_ok": True,
           "details": {"families": dict(families), "unclassifiable": 0,
                       "closure_failures": 0}}
    good = workloads.CliAnswer(0, json.dumps(doc))
    assert workloads._check_pexider_gf5(good) == []
    doc["solutions_found"] = 424
    doc["details"]["families"]["TwoExponential"] -= 1
    assert workloads._check_pexider_gf5(workloads.CliAnswer(0, json.dumps(doc)))


def test_check_answers_pass_their_oracles():
    tasks = {t.task_id: t for t in workloads.checks_tasks()}
    for task_id in ("thm4_z6", "alien_gf7", "thm5_symbolic"):
        task = tasks[task_id]
        assert task.check(task.run()) == []
    answer = tasks["alien_gf7"].run()
    doc = json.loads(answer.text)
    doc["details"]["solutions"].pop()
    doc["solutions_found"] -= 1
    assert tasks["alien_gf7"].check(workloads.CliAnswer(0, json.dumps(doc)))


def test_oracle_agrees_with_committed_digests_and_fnq():
    committed = json.loads(run.DIGESTS.read_text())
    specs = solves.generate(solves.DEFAULT_SEED)
    assert solves.oracle_digests(specs) == committed
    for task in workloads.solve_tasks(solves.DEFAULT_SEED)[:40]:
        answer = task.run()
        assert workloads.solve_digest(task, answer) == committed[task.task_id]


def test_metric_names_match_benchmark_json():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    tasks = [[task_id, 0.5, 0.4, None, None] for task_id in run.FIXED_TASK_IDS]
    untraced = {"passes": [{"wall": 6.0, "ref": 4.8, "tasks": tasks}],
                "samples": [[0.0, 0.5], [0.008, 0.009]],
                "median_pass_s": 6.0, "median_pass_ref_s": 4.8,
                "peak_rss_mb": 100.0}
    traced_pass = {"wall": 6.5, "tasks": tasks, "sum_error": 0.0,
                   "times": dict.fromkeys(tracing.TIME_METRICS, 0.1),
                   "counts": dict.fromkeys(tracing.COUNT_METRICS, 3)}
    traced = {"passes": [traced_pass], "median_pass_s": 6.5}
    e2e = run.end_to_end(untraced, [(0.3, 0.25)])
    layers, problems = run.per_layer(untraced, traced)
    assert problems == []
    assert list(e2e) == [m["name"] for m in spec["end_to_end"]]
    assert list(layers) == [m["name"] for m in spec["per_layer"]]
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    assert all(units[name] == unit for name, (_, unit) in {**e2e, **layers}.items())
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert all(m["bound"] <= 0.25 for m in spec["end_to_end"])
    assert all(len(w["why"]) <= 200 for w in spec["workloads"])


def test_reference_time_scales_wall_time_by_host_speed():
    ref = hostspeed.REFERENCE_S
    speed = hostspeed.Sampler()
    speed.mids = [0.0, 1.0, 2.0, 3.0, 4.0]
    speed.took = [ref, 1.4 * ref, 1.6 * ref, ref, ref]
    assert hostspeed.to_reference(0.2, speed.loop_s(3.5, 3.7)) == 0.2
    # the loop ran 1.5 times slower around the task: charge it 1/1.5
    loop_s = speed.loop_s(1.1, 2.0)
    assert abs(hostspeed.to_reference(0.9, loop_s) - 0.6) < 1e-12
    # no sample within EVERY_S: the nearest one on each side counts
    speed.mids = [0.0, 4.0]
    speed.took = [ref, 2 * ref]
    assert hostspeed.to_reference(1.5, speed.loop_s(2.0, 2.1)) == 1.0


def test_sampler_interrupts_samples_and_restores_the_signal():
    before = signal.getsignal(signal.SIGALRM)
    with hostspeed.Sampler() as speed:
        end = time.monotonic() + 2.2 * hostspeed.EVERY_S
        while time.monotonic() < end:
            sum(range(1000))
    # one sample on entry, two from the timer, one on exit
    assert len(speed.took) >= 4
    assert 0 < speed.paused < 1.0
    assert signal.getsignal(signal.SIGALRM) is before
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)


def test_percentile_interpolates_between_ranks():
    assert run.percentile([4.0, 1.0, 3.0, 2.0, 6.0, 5.0], 50) == 3.5
    assert run.percentile([1.0, 2.0, 3.0], 50) == 2.0
    assert run.percentile([1.0, 2.0, 3.0], 100) == 3.0
    assert run.percentile([7.0], 90) == 7.0
