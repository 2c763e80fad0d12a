"""The bytes of ``fnq`` reports, pinned by digest.

Each case runs :func:`fnq.cli.main` in-process over a fixed argv and
records its exit code and the sha256 of what it writes to stdout.  The
digests in ``report_bytes.json`` pin every byte of these reports: a change
to how the solution set is held, sorted, verified or serialized must leave
every one of them as it is.

The first six cases are the paper's checks of the benchmark's
verify-solve workload, with their argv as ``perfbench/workloads.py``
builds it; then come ``solve`` tasks over the three output formats that
cover the y=1 pivot, a proper subring, a nested unknown, parameters and
class-restricted unknowns, ``enumerate`` reports of three classes in
each format, three dry runs, one of them over an equation that holds every
node kind, the ``symbolic`` reports of the built-in families, and
``classify`` reports of four Pexider families and of one non-solution.

Regenerate the fixture only for a change that is meant to alter a report,
and say so where the change is described::

    PYTHONPATH=src python tests/test_report_bytes.py
"""
import contextlib
import hashlib
import io
import json
from pathlib import Path

import pytest

from fnq import cli

FIXTURE = Path(__file__).with_name("report_bytes.json")


def _ring(spec: dict) -> str:
    return json.dumps(spec)


def _zn(n: int, **extra) -> str:
    return _ring({"kind": "Zn", "n": n, **extra})


def _gf(p: int, k: int = 1) -> str:
    return _ring({"kind": "GF", "p": p, "k": k})


def _verify(check: str, ring: str | None = None, *flags: str) -> list[str]:
    argv = ["verify", check, "--out", "json", *flags]
    if ring is not None:
        argv += ["--ring", ring]
    return argv


def _solve(ring: str, eq: str, out: str, *flags: str) -> list[str]:
    return ["solve", "--ring", ring, "--eq", eq, "--out", out, *flags]


def _enumerate(ring: str, cls: str, out: str) -> list[str]:
    return ["enumerate", "--ring", ring, "--class", cls, "--out", out]


def _symbolic(family: str, out: str) -> list[str]:
    return ["symbolic", "--family", family, "--out", out]


def _classify(ring: str, f: list[int], h: list[int], k: list[int],
              out: str) -> list[str]:
    return ["classify", "--ring", ring, "--out", out,
            "--solution", json.dumps({"f": f, "h": h, "k": k})]


PEXIDER = "f(x*y)=h(x)*h(y)+x*k(y)+k(x)*y"
Z2XZ2 = _ring({"kind": "Product", "left": {"kind": "Zn", "n": 2},
               "right": {"kind": "Zn", "n": 2}})
Z16XZ16 = _ring({"kind": "Product", "left": {"kind": "Zn", "n": 16},
                 "right": {"kind": "Zn", "n": 16}})

CASES = {
    "verify thm4 z8": _verify("thm4", _zn(8), "--eps", "1"),
    "verify thm4 z6": _verify("thm4", _zn(6), "--eps", "3"),
    "verify prop1 z8": _verify("prop1", _zn(8)),
    "verify alien gf7": _verify("alien", _gf(7), "--lam", "1", "--mu", "2"),
    "verify thm5-symbolic": _verify("thm5-symbolic"),
    "verify pexider gf5": _verify("pexider", _gf(5)),
    "pexider gf3 json": _solve(_gf(3), PEXIDER, "json"),
    "pexider gf3 text": _solve(_gf(3), PEXIDER, "text"),
    "pexider gf5 csv": _solve(_gf(5), PEXIDER, "csv"),
    "leibniz z6{0,2,4} json": _solve(_zn(6, subring=[0, 2, 4]),
                                     "f(x*y)=f(x)*y+x*f(y)", "json"),
    "additive z6{0,2,4} csv": _solve(_zn(6, subring=[0, 2, 4]),
                                     "f(x+y)=f(x)+f(y)", "csv"),
    "involution z4 text": _solve(_zn(4), "f(f(x))=x", "text"),
    "nested z5 json": _solve(_zn(5), "f(x+f(y))=f(x)+y", "json"),
    "shifted z6 csv": _solve(_zn(6), "h(x*y)=h(x)*y+x*h(y)+e*h(x)*h(y)",
                             "csv", "--param", "e=3"),
    "alien gf5 text": _solve(
        _gf(5), "lam*(f(x*y)-f(x)*y-x*f(y))+mu*(f(x*y)-f(x)*f(y))=0", "text",
        "--param", "lam=1", "--param", "mu=2"),
    "alien pair z3 json": _solve(
        _zn(3), "h(x*y)+k(x*y)=h(x)*h(y)+x*k(y)+k(x)*y", "json"),
    "scaled f2[x]/(x^2) json": _solve(
        _ring({"kind": "PolyQuot", "p": 2, "k": 2}), "f(x*y)=a*f(x)*f(y)",
        "json", "--param", "a=1"),
    "literal z6 text": _solve(_zn(6), "f(2*x)=2*f(x)", "text"),
    "square of multiplicative z4 json": _solve(
        _zn(4), "f(x*y)=g(x)*g(y)", "json", "--class", "g=multiplicative"),
    "additive pair z2xz2 csv": _solve(
        Z2XZ2, "f(x+y)=g(x)+g(y)", "csv",
        "--class", "f=additive", "--class", "g=additive"),
    "derivation ut2(2) text": _solve(
        _ring({"kind": "UT2", "p": 2}), "f(x*y)=g(x)*y+x*g(y)", "text",
        "--class", "g=derivation"),
    "leibniz gf4 csv": _solve(_gf(2, 2), "f(x*y)=g(x)*y+x*g(y)", "csv",
                              "--class", "g=leibniz"),
    "homomorphism z16xz16 json": _solve(
        Z16XZ16, "f(x*y)=g(x)*y-x*y", "json", "--class", "g=homomorphism"),
    "homomorphism z256 text": _solve(_zn(256), "f(x)=f(x)", "text",
                                     "--class", "f=homomorphism"),
    "logarithmic z9 csv": _solve(_zn(9), "f(x)=f(x)", "csv",
                                 "--class", "f=logarithmic"),
    "shifted class z8 json": _solve(_zn(8), "f(x)=f(x)", "json",
                                    "--class", "f=homo-deriv-sofy:1"),
    "no solution z4 json": _solve(_zn(4), "f(x)=f(x)+1", "json"),
    **{f"enumerate {name} {out}": _enumerate(ring, cls, out)
       for name, ring, cls in (
           ("homomorphism z12", _zn(12), "homomorphism"),
           ("logarithmic gf8", _gf(2, 3), "logarithmic"),
           ("additive ut2(2)", _ring({"kind": "UT2", "p": 2}), "additive"))
       for out in ("json", "csv", "text")},
    # every node kind of the expression tree in one equation, and the order
    # of its free names, as the dry run dumps them
    "dry-run solve every node z5 json": _solve(
        _zn(5), "f(x*y)-lam=-(g(x+1)*2)", "json", "--dry-run"),
    "dry-run enumerate homomorphism z12": [
        *_enumerate(_zn(12), "homomorphism", "json"), "--dry-run"],
    "dry-run verify pexider gf5": _verify("pexider", _gf(5), "--dry-run"),
    **{f"symbolic {family} json": _symbolic(family, "json")
       for family in ("thm5", "prop4", "prop3", "all-linear", "mixed",
                      "sofy-shift", "ansatz2")},
    "symbolic thm5 text": _symbolic("thm5", "text"),
    "symbolic mixed text": _symbolic("mixed", "text"),
    # one solution triple of each family; GF(4) carries the caveat of
    # characteristic 2
    **{f"classify {name} {out}": _classify(ring, *triple, out)
       for name, ring, triple in (
           ("all-linear gf5", _gf(5),
            ([0, 0, 0, 0, 0], [0, 2, 4, 1, 3], [0, 3, 1, 4, 2])),
           ("two-exponential gf5", _gf(5),
            ([0, 1, 0, 2, 2], [0, 3, 0, 1, 1], [0, 1, 3, 1, 0])),
           ("lambda-k-b gf5", _gf(5),
            ([0, 2, 1, 2, 0], [0, 3, 3, 0, 4], [0, 4, 4, 0, 2])),
           ("multiplicative-square gf4", _gf(2, 2),
            ([0, 3, 2, 1], [0, 3, 2, 1], [0, 0, 0, 0])))
       for out in ("json", "text")},
    "classify residual-nonzero gf5 json": _classify(
        _gf(5), [0, 1, 2, 3, 4], [0, 1, 2, 3, 4], [0, 1, 2, 3, 4], "json"),
}


def report(argv: list[str]) -> dict:
    """The exit code of ``fnq`` over ``argv`` and the sha256 of its stdout."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(list(argv))
    return {"exit": code,
            "sha256": hashlib.sha256(out.getvalue().encode()).hexdigest()}


def _pinned() -> dict:
    return json.loads(FIXTURE.read_text())


def test_fixture_covers_every_case():
    assert list(_pinned()) == list(CASES)


@pytest.mark.parametrize("case", list(CASES))
def test_report_bytes_are_pinned(case, monkeypatch):
    monkeypatch.delenv("FNQ_BUDGET", raising=False)
    assert report(CASES[case]) == _pinned()[case]


if __name__ == "__main__":
    FIXTURE.write_text(json.dumps({case: report(argv)
                                   for case, argv in CASES.items()},
                                  indent=1) + "\n")
