"""Count the code lines of the ``fnq`` package, per module and in total.

A code line is a physical line that holds a token of code: blank lines,
comments and docstrings (a statement that is a lone string) do not count.
A token that spans lines, such as a multi-line string inside an
expression, counts every line it spans.  Run from the repository root::

    python tools/code_lines.py [package directory, default src/fnq]
"""
from __future__ import annotations

import sys
import tokenize
from pathlib import Path

_SKIP = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
         tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER}


def code_lines(path: Path) -> int:
    """The number of code lines in one Python source file."""
    lines: set[int] = set()
    statement: list[tokenize.TokenInfo] = []
    with path.open("rb") as fh:
        for tok in tokenize.tokenize(fh.readline):
            if tok.type == tokenize.NEWLINE:
                if not (len(statement) == 1
                        and statement[0].type == tokenize.STRING):
                    for t in statement:
                        lines.update(range(t.start[0], t.end[0] + 1))
                statement = []
            elif tok.type not in _SKIP:
                statement.append(tok)
    return len(lines)


def main(argv: list[str]) -> int:
    root = Path(argv[1] if len(argv) > 1 else "src/fnq")
    total = 0
    for path in sorted(root.glob("*.py")):
        count = code_lines(path)
        total += count
        print(f"{path.name:16} {count:6,}")
    print(f"{'total':16} {total:6,}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
