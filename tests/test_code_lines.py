"""``tools/code_lines.py`` counts the lines that hold code."""
import subprocess
import sys
from pathlib import Path

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
