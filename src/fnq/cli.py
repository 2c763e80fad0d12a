"""Command line front end producing reproducible batch reports.

Exit codes: 0 on success (verifications that hold), 1 when a verification
produced counterexamples (the report is still written), 2 on usage or
parse errors.  Reports are byte-deterministic for a fixed configuration;
``--workers`` is accepted and ignored.  The environment variable
``FNQ_BUDGET`` overrides :data:`fnq.search.DEFAULT_BUDGET`, every
subcommand's default, when ``--budget`` is not given; either must be a
positive integer.

The argument parser is built once per process, on the first call of
:func:`main`, and reused by every later call: ``parse_args`` returns a fresh
namespace and leaves the parser unchanged, no default is mutable, and the
budget and the help width are read when they are used, not when the parser
is built.  Importing the module builds nothing.
"""
from __future__ import annotations

import argparse
import functools
import json
import os
import sys
from fractions import Fraction

from . import symbolic
from .algebra import ring_from_json
from .eqdsl import ast_to_json, equation_to_text, parse_equation
from .errors import (EquationSyntaxError, FnqError, InvalidBudget,
                     ResidualNonzero, Unclassifiable)
from .maps import FnTable, class_from_string, class_rows, class_space_size
from .search import DEFAULT_BUDGET
from .solver import (SolveTask, solve, solution_set_to_csv,
                     solution_set_to_json, solution_set_to_json_bytes)
from .theorems import (classify_pexider, verify_alien, verify_mp,
                       verify_pexider, verify_sofy, verify_thm5_symbolic)


def _budget(args) -> int:
    raw = os.environ.get("FNQ_BUDGET") if args.budget is None else args.budget
    if raw is None or raw == "":
        return DEFAULT_BUDGET
    try:
        budget = int(raw)
    except ValueError:
        budget = 0
    if budget <= 0:
        raise InvalidBudget(f"the pair budget must be a positive integer, got {raw!r}")
    return budget


def _read_arg(text: str, strip: bool = False) -> str:
    """``text``, or the contents of the file it names after a leading ``@``
    (stripped when ``strip`` is set)."""
    if not text.startswith("@"):
        return text
    with open(text[1:], "r", encoding="utf-8") as fh:
        body = fh.read()
    return body.strip() if strip else body


def _load_ring(args):
    if args.ring is None:
        raise FnqError("--ring is required for this subcommand")
    return ring_from_json(_read_arg(args.ring))


def _write(args, text: str) -> None:
    if args.output:
        with open(args.output, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _json_dump(doc) -> str:
    return json.dumps(doc, indent=2) + "\n"


def _emit_error(args, exc: Exception) -> None:
    if getattr(args, "json_errors", False) or getattr(args, "out", "") == "json":
        doc = {"error": type(exc).__name__, "message": str(exc)}
        if isinstance(exc, EquationSyntaxError):
            doc["offset"] = exc.offset
        sys.stderr.write(json.dumps(doc) + "\n")
    else:
        sys.stderr.write(f"error: {exc}\n")


def _parse_kv(pairs: list[str], what: str) -> dict[str, str]:
    out = {}
    for pair in pairs:
        if "=" not in pair:
            raise FnqError(f"{what} must look like name=value, got {pair!r}")
        name, _, value = pair.partition("=")
        out[name] = value
    return out


# ------------------------------------------------------------- subcommands

def _cmd_solve(args) -> int:
    ast = parse_equation(_read_arg(args.eq, strip=True))
    ring = _load_ring(args)
    class_strings = _parse_kv(args.cls or [], "--class")
    classes = {name: class_from_string(text)
               for name, text in class_strings.items()}
    for name in ast.free_functions:
        classes.setdefault(name, class_from_string("arbitrary"))
    params = {name: ring.int_embed(int(value))
              for name, value in _parse_kv(args.param or [], "--param").items()}
    task = SolveTask(ast=ast, ring=ring, classes=classes, params=params,
                     budget=_budget(args))
    if args.dry_run:
        _write(args, _json_dump({
            "action": "solve", "equation": equation_to_text(ast),
            "ast": ast_to_json(ast),
            "ring_size": ring.size, "domain_size": len(ring.domain_elements),
            "candidate_spaces": {n: class_space_size(ring, ring, classes[n])
                                 for n in ast.free_functions},
            "budget": task.budget}))
        return 0
    result = solve(task)
    if args.out == "json":
        _write(args, solution_set_to_json_bytes(result).decode())
    elif args.out == "csv":
        _write(args, solution_set_to_csv(result))
    else:
        doc = solution_set_to_json(result)
        lines = [f"equation: {doc['task']['equation']}",
                 f"ring: {json.dumps(doc['task']['ring'])}",
                 f"candidate space: {result.enumerated_count}",
                 f"pivot pruning: {'yes' if result.pruned_by_pivot else 'no'}",
                 f"solutions: {doc['solution_count']}"]
        lines += ["  " + json.dumps(sol) for sol in doc["solutions"]]
        _write(args, "\n".join(lines) + "\n")
    return 0


def _cmd_enumerate(args) -> int:
    ring = _load_ring(args)
    cls = class_from_string(args.cls_single)
    if args.dry_run:
        _write(args, _json_dump({
            "action": "enumerate", "class": str(cls),
            "ring_size": ring.size,
            "candidate_space": class_space_size(ring, ring, cls),
            "budget": _budget(args)}))
        return 0
    rows = class_rows(ring, ring, cls, budget=_budget(args)).tolist()
    if args.out == "csv":
        m = len(ring.domain_elements)
        lines = [",".join(f"v{i}" for i in range(m))]
        lines += [",".join(map(str, row)) for row in rows]
        _write(args, "\n".join(lines) + "\n")
    elif args.out == "json":
        _write(args, _json_dump({
            "class": str(cls), "ring": ring.spec.to_json(),
            "count": len(rows), "maps": rows}))
    else:
        lines = [f"{len(rows)} maps of class {cls}"]
        lines += ["  " + ",".join(map(str, row)) for row in rows]
        _write(args, "\n".join(lines) + "\n")
    return 0


def _cmd_classify(args) -> int:
    ring = _load_ring(args)
    doc = json.loads(_read_arg(args.solution))
    tables = {name: FnTable(ring, ring, tuple(doc[name]))
              for name in ("f", "h", "k")}
    if args.dry_run:
        _write(args, _json_dump({"action": "classify",
                                 "ring_size": ring.size}))
        return 0
    try:
        result = classify_pexider(tables["f"], tables["h"], tables["k"])
    except (ResidualNonzero, Unclassifiable) as exc:
        report = {"error": type(exc).__name__, "message": str(exc)}
        if isinstance(exc, ResidualNonzero):
            report["violations"] = exc.pairs[:10]
        _write(args, _json_dump(report))
        return 1
    doc = {"rank": result.rank, **result.tag.to_json(),
           "details": result.details}
    if args.out == "text":
        _write(args, f"family: {result.tag.name} rank={result.rank} "
                     f"params={json.dumps(result.tag.to_json()['params'])}\n")
    else:
        _write(args, _json_dump(doc))
    return 0


def _cmd_symbolic(args) -> int:
    if args.family not in symbolic.BUILTIN_FAMILIES:
        raise FnqError(f"unknown family {args.family!r}; choose from "
                       f"{sorted(symbolic.BUILTIN_FAMILIES)}")
    family = symbolic.BUILTIN_FAMILIES[args.family]()
    eq_text = (_read_arg(args.eq, strip=True) if args.eq
               else family.equation_text)
    if eq_text is None:
        raise FnqError("this family has no default equation; pass --eq")
    ast = parse_equation(eq_text)
    if args.dry_run:
        _write(args, _json_dump({"action": "symbolic", "family": args.family,
                                 "equation": eq_text}))
        return 0
    constraints = sorted(c.render()
                         for c in symbolic.derive_constraints(family, ast))
    doc = {"family": args.family, "equation": eq_text,
           "constraints": constraints,
           "side_conditions": list(family.side_conditions)}
    if args.param:
        params = {name: Fraction(value) for name, value
                  in _parse_kv(args.param, "--param").items()}
        doc["params"] = {n: str(v) for n, v in sorted(params.items())}
        doc["identity_holds"] = symbolic.check_identity(family, ast, params)
    if args.out == "text":
        lines = [f"family {args.family} in {eq_text}",
                 "constraints: " + ("; ".join(constraints) or "(none)")]
        if family.side_conditions:
            lines.append("side conditions: " + "; ".join(family.side_conditions))
        if "identity_holds" in doc:
            lines.append(f"identity holds: {doc['identity_holds']}")
        _write(args, "\n".join(lines) + "\n")
    else:
        _write(args, _json_dump(doc))
    return 0


def _cmd_verify(args) -> int:
    check = args.check
    if check == "thm5-symbolic":
        if args.dry_run:
            _write(args, _json_dump({"action": "verify", "check": check}))
            return 0
        report = verify_thm5_symbolic()
    else:
        ring = _load_ring(args)
        budget = _budget(args)
        if args.dry_run:
            _write(args, _json_dump({
                "action": "verify", "check": check, "ring_size": ring.size,
                "budget": budget}))
            return 0
        if check == "thm4":
            if args.eps is None:
                raise FnqError("thm4 needs --eps")
            report = verify_sofy(ring, ring.int_embed(args.eps), budget=budget)
        elif check == "prop1":
            report = verify_mp(ring, budget=budget)
        elif check == "pexider":
            report = verify_pexider(ring, budget=budget)
        elif check == "alien":
            if args.lam is None or args.mu is None:
                raise FnqError("alien needs --lam and --mu")
            report = verify_alien(ring, ring.int_embed(args.lam),
                                  ring.int_embed(args.mu), budget=budget)
        else:
            raise FnqError(f"unknown check {check!r}")
    if args.out == "text":
        _write(args, report.render_text())
    else:
        _write(args, _json_dump(report.to_json()))
    return 0 if report.holds() else 1


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fnq",
        description="state, solve, classify and verify functional equations "
                    "over small finite rings")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--ring", help="ring spec as inline JSON or @file")
        p.add_argument("--out", choices=("json", "csv", "text"), default="text")
        p.add_argument("--output", help="write the report to this path")
        p.add_argument("--workers", type=int, default=1,
                       help="accepted and ignored; search is single-threaded")
        p.add_argument("--budget", type=int, default=None,
                       help="the charge one search level or the "
                            "re-verification may take (default from "
                            f"FNQ_BUDGET, else {DEFAULT_BUDGET:,})")
        p.add_argument("--dry-run", action="store_true",
                       help="print the resolved task without executing")
        p.add_argument("--json-errors", action="store_true",
                       help="machine-readable errors on stderr")

    p_solve = sub.add_parser("solve", help="enumerate all solutions")
    common(p_solve)
    p_solve.add_argument("--eq", required=True, help="equation text")
    p_solve.add_argument("--class", dest="cls", action="append",
                         help="name=class (repeatable); default arbitrary")
    p_solve.add_argument("--param", action="append",
                         help="name=int, embedded as n*1 (repeatable)")

    p_enum = sub.add_parser("enumerate", help="list all maps of a class")
    common(p_enum)
    p_enum.add_argument("--class", dest="cls_single", required=True,
                        help="function class to enumerate")

    p_classify = sub.add_parser("classify",
                                help="classify a solution triple into a family")
    common(p_classify)
    p_classify.add_argument("--solution", required=True,
                            help='{"f": [...], "h": [...], "k": [...]} or @file')

    p_sym = sub.add_parser("symbolic", help="derive family constraints formally")
    common(p_sym)
    p_sym.add_argument("--family", required=True,
                       help=f"one of {sorted(symbolic.BUILTIN_FAMILIES)}")
    p_sym.add_argument("--eq", help="equation text (default: family's own)")
    p_sym.add_argument("--param", action="append",
                       help="name=rational for an identity check (repeatable)")

    p_verify = sub.add_parser("verify", help="run a named verification")
    common(p_verify)
    p_verify.add_argument("check",
                          choices=("thm4", "prop1", "pexider", "alien",
                                   "thm5-symbolic"))
    p_verify.add_argument("--eps", type=int, help="shift constant as n*1")
    p_verify.add_argument("--lam", type=int, help="first weight as n*1")
    p_verify.add_argument("--mu", type=int, help="second weight as n*1")

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    handlers = {"solve": _cmd_solve, "enumerate": _cmd_enumerate,
                "classify": _cmd_classify, "symbolic": _cmd_symbolic,
                "verify": _cmd_verify}
    try:
        return handlers[args.command](args)
    except FnqError as exc:
        _emit_error(args, exc)
        return 2
    except (ValueError, KeyError, OSError, json.JSONDecodeError) as exc:
        _emit_error(args, exc)
        return 2


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
