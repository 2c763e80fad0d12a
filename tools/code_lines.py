"""Count the code lines of the ``fnq`` package, per module and in total.

A code line is a physical line that holds a token of code: blank lines,
comments and docstrings (a statement that is a lone string) do not count.
A token that spans lines, such as a multi-line string inside an
expression, counts every line it spans.  Run from the repository root::

    python tools/code_lines.py [--base REF] [package directory, default src/fnq]

With ``--base REF`` each module is also counted as it was at the git ref
REF (read with ``git show``), and the table gives both counts and the net
change, a module missing on one side counting 0 there.
"""
from __future__ import annotations

import argparse
import io
import subprocess
import sys
import tokenize
from pathlib import Path

_SKIP = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
         tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER}


def code_lines(source: bytes) -> int:
    """The number of code lines in the source of one Python file."""
    lines: set[int] = set()
    statement: list[tokenize.TokenInfo] = []
    for tok in tokenize.tokenize(io.BytesIO(source).readline):
        if tok.type == tokenize.NEWLINE:
            if not (len(statement) == 1
                    and statement[0].type == tokenize.STRING):
                for t in statement:
                    lines.update(range(t.start[0], t.end[0] + 1))
            statement = []
        elif tok.type not in _SKIP:
            statement.append(tok)
    return len(lines)


def _git(*args: str) -> bytes:
    return subprocess.run(["git", *args], capture_output=True,
                          check=True).stdout


def modules_at(ref: str, root: Path) -> dict[str, bytes]:
    """The source of each module directly under ``root`` at the git ref,
    by file name; ``root`` is read relative to the working directory."""
    paths = _git("ls-tree", "--name-only", ref, "--", f"{root}/").decode().split()
    return {Path(p).name: _git("show", f"{ref}:./{p}")
            for p in paths if p.endswith(".py")}


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(
        description="Count the code lines of a package's modules.")
    parser.add_argument("root", nargs="?", default="src/fnq",
                        help="package directory (default src/fnq)")
    parser.add_argument("--base", metavar="REF",
                        help="also count each module at this git ref and "
                             "print the net change")
    args = parser.parse_args(argv[1:])
    root = Path(args.root)
    now = {p.name: code_lines(p.read_bytes()) for p in sorted(root.glob("*.py"))}
    if args.base is None:
        for name, count in now.items():
            print(f"{name:16} {count:6,}")
        print(f"{'total':16} {sum(now.values()):6,}")
        return 0
    base = {name: code_lines(source)
            for name, source in modules_at(args.base, root).items()}
    print(f"{'module':16} {'base':>6} {'now':>6} {'change':>7}")
    rows = [(name, base.get(name, 0), now.get(name, 0))
            for name in sorted(now.keys() | base.keys())]
    rows.append(("total", sum(base.values()), sum(now.values())))
    for name, b, n in rows:
        print(f"{name:16} {b:6,} {n:6,} {n - b:+7,}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
