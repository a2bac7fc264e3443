"""tools/src_lines.py: total and code lines per module."""

import importlib.util
from pathlib import Path

_SPEC = importlib.util.spec_from_file_location(
    "src_lines", Path(__file__).resolve().parents[1] / "tools" / "src_lines.py")
src_lines = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(src_lines)

FIXTURE = '''"""Module docstring,
over two lines."""

# A comment-only line.
import os


class Thing:
    """Class docstring."""

    def method(self):
        """Method docstring,

        with a blank line inside."""
        text = """not a docstring:

counted as code
"""
        return os.sep + text  # a trailing comment keeps the line


async def run():
    """One line."""
'''


def test_counts_a_fixture(tmp_path, capsys):
    # 23 lines: 7 of docstrings, 1 comment-only and 7 blank ones drop.
    assert src_lines.count_lines(FIXTURE) == (23, 8)
    (tmp_path / "pkg").mkdir()
    (tmp_path / "pkg" / "a.py").write_text(FIXTURE)
    (tmp_path / "b.py").write_text("x = 1\n\n")
    assert src_lines.main([str(tmp_path)]) == 0
    assert capsys.readouterr().out.splitlines() == [
        "     2      1 b.py",
        "    23      8 pkg/a.py",
        "    25      9 total"]
