import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import fnq
from fnq import cli
from fnq.cli import main


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_verify_thm4_z2(capsys):
    code, out, _ = run_cli(capsys, "verify", "thm4",
                           "--ring", '{"kind":"Zn","n":2}',
                           "--eps", "1", "--out", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc["solutions_found"] == 3
    assert doc["forward_ok"] and doc["backward_ok"]
    assert doc["ring"]["hash"]


def test_solve_leibniz_gf3(capsys):
    code, out, _ = run_cli(capsys, "solve",
                           "--ring", '{"kind":"GF","p":3,"k":1}',
                           "--eq", "f(x*y)=f(x)*y+x*f(y)",
                           "--class", "f=arbitrary", "--out", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc["solution_count"] == 1
    assert doc["solutions"] == [{"f": [0, 0, 0]}]


def test_solve_syntax_error_exit_2(capsys):
    code, _, err = run_cli(capsys, "solve", "--eq", "f(x*y)=",
                           "--json-errors")
    assert code == 2
    doc = json.loads(err)
    assert doc["error"] == "EquationSyntaxError"
    assert doc["offset"] == 8


def test_dry_run_prints_task_without_solving(capsys):
    code, out, _ = run_cli(capsys, "solve",
                           "--ring", '{"kind":"Zn","n":6}',
                           "--eq", "f(x*y)=f(x)*y+x*f(y)",
                           "--dry-run")
    assert code == 0
    doc = json.loads(out)
    assert doc["candidate_spaces"] == {"f": 6 ** 6}
    # the budget charges the kernel's levels, so no up-front bound is printed
    assert list(doc) == ["action", "equation", "ast", "ring_size",
                         "domain_size", "candidate_spaces", "budget"]


def test_text_solve_reports_the_candidate_space(capsys):
    code, out, _ = run_cli(capsys, "solve", "--ring", '{"kind":"Zn","n":3}',
                           "--eq", "f(x*y)=f(x)*f(y)", "--out", "text")
    assert code == 0
    assert out.splitlines()[2:5] == ["candidate space: 27",
                                     "pivot pruning: no", "solutions: 4"]


def test_budget_env_respected(capsys, monkeypatch):
    monkeypatch.setenv("FNQ_BUDGET", "10")
    code, _, err = run_cli(capsys, "solve",
                           "--ring", '{"kind":"Zn","n":6}',
                           "--eq", "f(x*y)=f(x)*y+x*f(y)",
                           "--json-errors")
    assert code == 2
    assert json.loads(err)["error"] == "BudgetExceeded"


def test_verify_passes_the_budget_through(capsys, monkeypatch):
    gf3 = '{"kind":"GF","p":3,"k":1}'
    code, out, err = run_cli(capsys, "verify", "pexider", "--ring", gf3,
                             "--budget", "10", "--json-errors")
    assert code == 2
    assert out == ""
    doc = json.loads(err)
    assert doc["error"] == "BudgetExceeded"
    # the kernel grows h(1) and then k(1), and no pair is decided before
    # f(1): k(1)'s level is charged 3 rows times 3 values times 2 digits
    assert doc["message"] == ("search level 1 needs 18 evaluated pairs, "
                              "budget is 10")
    monkeypatch.setenv("FNQ_BUDGET", "10")
    code, _, err = run_cli(capsys, "verify", "thm4", "--ring",
                           '{"kind":"Zn","n":4}', "--eps", "1",
                           "--json-errors")
    assert code == 2
    assert json.loads(err)["error"] == "BudgetExceeded"


def test_verify_dry_run_prints_the_budget_it_uses(capsys, monkeypatch):
    argv = ("verify", "pexider", "--ring", '{"kind":"GF","p":5,"k":1}',
            "--dry-run")
    code, out, _ = run_cli(capsys, *argv)
    assert code == 0
    assert list(json.loads(out)) == ["action", "check", "ring_size", "budget"]
    # one default for every subcommand, the kernel's
    assert json.loads(out)["budget"] == fnq.DEFAULT_BUDGET == 10 ** 8
    code, out, _ = run_cli(capsys, *argv, "--budget", "12345")
    assert json.loads(out)["budget"] == 12345


def test_worker_bytes_identical(capsys):
    outs = []
    for workers in ("1", "2", "8"):
        code, out, _ = run_cli(capsys, "solve",
                               "--ring", '{"kind":"GF","p":3,"k":1}',
                               "--eq", "f(x*y)=h(x)*h(y)+x*k(y)+k(x)*y",
                               "--workers", workers, "--out", "json")
        assert code == 0
        outs.append(out)
    assert outs[0] == outs[1] == outs[2]


def test_enumerate_csv_golden(capsys):
    code, out, _ = run_cli(capsys, "enumerate",
                           "--ring", '{"kind":"Zn","n":2}',
                           "--class", "multiplicative", "--out", "csv")
    assert code == 0
    assert out == "v0,v1\n0,0\n0,1\n1,1\n"


def test_classify_triple(capsys):
    solution = json.dumps({"f": [0, 2, 1], "h": [0, 1, 2], "k": [0, 2, 1]})
    code, out, _ = run_cli(capsys, "classify",
                           "--ring", '{"kind":"GF","p":3,"k":1}',
                           "--solution", solution, "--out", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc["family"] == "AllLinear"
    assert doc["params"] == {"lam1": 1, "lam2": 2}


def test_classify_rejects_non_solution(capsys):
    solution = json.dumps({"f": [0, 1, 2], "h": [0, 1, 2], "k": [0, 1, 2]})
    code, out, _ = run_cli(capsys, "classify",
                           "--ring", '{"kind":"GF","p":3,"k":1}',
                           "--solution", solution, "--out", "json")
    assert code == 1
    assert json.loads(out)["error"] == "ResidualNonzero"


def test_at_file_arguments_match_inline_ones(capsys, tmp_path):
    ring = tmp_path / "ring.json"
    ring.write_text('{"kind":"GF","p":3,"k":1}\n')
    eq = tmp_path / "eq.txt"
    eq.write_text("  f(x*y)=f(x)*y+x*f(y)\n")
    solution = tmp_path / "solution.json"
    solution.write_text(json.dumps({"f": [0, 2, 1], "h": [0, 1, 2],
                                    "k": [0, 2, 1]}))
    for solve_argv in (["--ring", f"@{ring}", "--eq", f"@{eq}"],
                       ["--ring", '{"kind":"GF","p":3,"k":1}',
                        "--eq", "f(x*y)=f(x)*y+x*f(y)"]):
        code, out, _ = run_cli(capsys, "solve", *solve_argv, "--out", "json")
        assert code == 0
        assert json.loads(out)["solutions"] == [{"f": [0, 0, 0]}]
    code, out, _ = run_cli(capsys, "classify", "--ring", f"@{ring}",
                           "--solution", f"@{solution}", "--out", "json")
    assert code == 0
    assert json.loads(out)["family"] == "AllLinear"


def test_symbolic_subcommand(capsys):
    code, out, _ = run_cli(capsys, "symbolic", "--family", "thm5",
                           "--out", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc["constraints"] == ["g3 + b2*b3"]
    code, out, _ = run_cli(capsys, "symbolic", "--family", "thm5",
                           "--param", "b2=1", "--param", "b3=1",
                           "--param", "g1=1", "--param", "g2=0",
                           "--param", "g3=-1", "--out", "json")
    assert code == 0
    assert json.loads(out)["identity_holds"] is True


def test_verify_alien_cli(capsys):
    code, out, _ = run_cli(capsys, "verify", "alien",
                           "--ring", '{"kind":"GF","p":5,"k":1}',
                           "--lam", "1", "--mu", "2", "--out", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc["params"] == {"lam": 1, "mu": 2}


def test_verify_exit_1_on_counterexamples(capsys):
    # eps = 3 is a central zero divisor of Z_6; the converse direction of
    # the shift characterization fails there, so the report carries
    # counterexamples and the command exits 1, still writing the report
    code, out, _ = run_cli(capsys, "verify", "thm4",
                           "--ring", '{"kind":"Zn","n":6}',
                           "--eps", "3", "--out", "json")
    doc = json.loads(out)
    assert doc["forward_ok"] is True
    if not doc["backward_ok"]:
        assert code == 1
        assert doc["counterexamples"]
    else:  # outcome is reported, never assumed
        assert code == 0


def test_verify_thm5_symbolic_cli(capsys):
    code, out, _ = run_cli(capsys, "verify", "thm5-symbolic", "--out", "json")
    assert code == 0
    assert json.loads(out)["details"]["constraints"] == ["g3 + b2*b3"]


def test_output_to_file(tmp_path, capsys):
    target = tmp_path / "report.json"
    code, out, _ = run_cli(capsys, "verify", "thm4",
                           "--ring", '{"kind":"Zn","n":2}',
                           "--eps", "1", "--out", "json",
                           "--output", str(target))
    assert code == 0
    assert out == ""
    assert json.loads(target.read_text())["solutions_found"] == 3


def test_usage_error_exit_2(capsys):
    assert main(["solve"]) == 2  # missing --eq
    capsys.readouterr()
    assert main(["bogus"]) == 2
    capsys.readouterr()


def test_ring_spec_missing_field_is_typed(capsys):
    code, _, err = run_cli(capsys, "solve", "--ring", '{"kind":"Zn"}',
                           "--eq", "f(x)=f(x)", "--json-errors")
    assert code == 2
    assert json.loads(err)["error"] == "InvalidRingSpec"


def test_ring_spec_non_integer_field_is_typed(capsys):
    code, _, err = run_cli(capsys, "solve", "--ring", '{"kind":"Zn","n":"abc"}',
                           "--eq", "f(x)=f(x)", "--json-errors")
    assert code == 2
    assert json.loads(err)["error"] == "InvalidRingSpec"


def test_budget_must_be_positive(capsys, monkeypatch):
    solve_args = ("solve", "--ring", '{"kind":"Zn","n":2}', "--eq", "f(x)=f(x)",
                  "--json-errors")
    for budget in ("-5", "0"):
        code, out, err = run_cli(capsys, *solve_args, "--budget", budget)
        assert code == 2
        assert out == ""
        assert json.loads(err)["error"] == "InvalidBudget"
    monkeypatch.setenv("FNQ_BUDGET", "-5")
    code, out, err = run_cli(capsys, *solve_args)
    assert code == 2
    assert out == ""
    assert json.loads(err)["error"] == "InvalidBudget"
    # subcommands that take no budget ignore it
    solution = json.dumps({"f": [0, 2, 1], "h": [0, 1, 2], "k": [0, 2, 1]})
    code, _, _ = run_cli(capsys, "classify", "--ring", '{"kind":"GF","p":3,"k":1}',
                         "--solution", solution, "--out", "json")
    assert code == 0


@pytest.mark.parametrize("text", [
    "homo-deriv-sofy:9",    # not an element of Z4
    "homo-deriv-sofy:-1",   # negative index
    "homo-deriv-sofy:abc",  # not an integer
    "additive:1",           # class without a parameter
    "no-such-class",
])
@pytest.mark.parametrize("command", ["solve", "enumerate"])
def test_bad_class_string_is_typed(text, command, capsys):
    args = (("solve", "--eq", "f(x*y)=f(x)*f(y)", "--class", f"f={text}")
            if command == "solve" else ("enumerate", "--class", text))
    code, out, err = run_cli(capsys, *args, "--ring", '{"kind":"Zn","n":4}',
                             "--json-errors")
    assert code == 2
    assert out == ""
    assert json.loads(err)["error"] == "InvalidTask"


def test_shift_constant_at_the_top_of_the_carrier(capsys):
    code, out, _ = run_cli(capsys, "enumerate", "--ring", '{"kind":"Zn","n":4}',
                           "--class", "homo-deriv-sofy:3", "--out", "json")
    assert code == 0
    assert json.loads(out)["class"] == "homo-deriv-sofy:3"


_Z2 = '{"kind":"Zn","n":2}'
_Z3 = '{"kind":"Zn","n":3}'
_MULT = "f(x*y)=f(x)*f(y)"
# every kind of call main answers: reports in each format, a check, a
# listing, a syntax error, usage errors and help, interleaved
_INTERLEAVED = (
    ("solve", "--ring", _Z3, "--eq", _MULT, "--out", "json"),
    ("verify", "thm4", "--ring", _Z2, "--eps", "1", "--out", "json"),
    ("solve", "--ring", _Z3, "--eq", _MULT, "--out", "csv"),
    ("solve",),
    ("enumerate", "--ring", _Z2, "--class", "multiplicative"),
    ("solve", "--ring", _Z3, "--eq", "f(x*y)=", "--json-errors"),
    ("--help",),
    ("solve", "--ring", _Z3, "--eq", _MULT, "--param", "a=1", "--out", "text"),
    ("verify", "bogus"),
    ("solve", "--ring", _Z3, "--eq", "f(x*y)="),
    ("verify", "--help"),
    ("verify", "thm4", "--ring", _Z2, "--eps", "1", "--out", "text"),
)


def _run_all(capsys, calls):
    results = []
    for argv in calls:
        code = main(list(argv))
        captured = capsys.readouterr()
        results.append((code, captured.out, captured.err))
    return results


def test_parser_is_built_once_and_reused(capsys, monkeypatch):
    built = []
    init = argparse.ArgumentParser.__init__

    def counting_init(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        init(self, *args, **kwargs)

    cli._build_parser.cache_clear()
    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
    try:
        reused = _run_all(capsys, _INTERLEAVED)
    finally:
        cli._build_parser.cache_clear()
    # the top-level parser and each subcommand's parser, once each
    assert built.count("fnq") == 1
    assert len(built) == len(set(built))

    monkeypatch.setattr(cli, "_build_parser", cli._build_parser.__wrapped__)
    fresh = _run_all(capsys, _INTERLEAVED)
    assert reused == fresh
    assert [code for code, _, _ in reused] == [0, 0, 0, 2, 0, 2, 0, 0, 2, 2,
                                               0, 0]


def test_python_m_fnq_matches_the_in_process_call(capsys):
    argv = ["verify", "thm4", "--ring", _Z2, "--eps", "1", "--out", "json"]
    code, out, err = run_cli(capsys, *argv)
    src = str(Path(fnq.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p)}
    proc = subprocess.run([sys.executable, "-m", "fnq", *argv],
                          capture_output=True, env=env, timeout=120)
    assert proc.returncode == code == 0
    assert proc.stdout == out.encode()
    assert proc.stderr == err.encode() == b""
