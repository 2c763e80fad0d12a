"""``tools/code_lines.py`` counts the lines that hold code."""
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parents[1] / "tools" / "code_lines.py"

SAMPLE = '''"""A module docstring
over two lines."""
import os  # a comment after code


def f():
    """A function docstring."""
    # a comment line
    text = """a string
that spans lines"""
    return text
'''


def test_counts_code_lines_only(tmp_path):
    (tmp_path / "sample.py").write_text(SAMPLE)
    out = subprocess.run([sys.executable, str(TOOL), str(tmp_path)],
                         capture_output=True, text=True, check=True).stdout
    # import, def, the two lines of the assigned string, return
    assert out.split() == ["sample.py", "5", "total", "5"]


def _git(repo, *args):
    subprocess.run(["git", "-c", "user.name=t", "-c", "user.email=t@t",
                    *args], cwd=repo, capture_output=True, check=True)


@pytest.mark.skipif(shutil.which("git") is None, reason="needs git")
def test_base_counts_each_module_at_the_ref(tmp_path):
    pkg = tmp_path / "pkg"
    pkg.mkdir()
    (pkg / "kept.py").write_text("x = 1\ny = 2\n")
    (pkg / "gone.py").write_text("z = 3\n")
    (pkg / "notes.txt").write_text("not a module\n")
    _git(tmp_path, "init", "-q")
    _git(tmp_path, "add", ".")
    _git(tmp_path, "commit", "-q", "-m", "base")
    (pkg / "kept.py").write_text(SAMPLE)
    (pkg / "gone.py").unlink()
    (pkg / "new.py").write_text("w = 4\n")
    out = subprocess.run(
        [sys.executable, str(TOOL), "--base", "HEAD", "pkg"], cwd=tmp_path,
        capture_output=True, text=True, check=True).stdout
    assert [line.split() for line in out.splitlines()] == [
        ["module", "base", "now", "change"],
        ["gone.py", "1", "0", "-1"],
        ["kept.py", "2", "5", "+3"],
        ["new.py", "0", "1", "+1"],
        ["total", "3", "6", "+3"]]
