"""scripts/count_loc.py counts code lines only: no docstrings, comments or blanks."""

from __future__ import annotations

import importlib.util
from pathlib import Path

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "count_loc.py"


def load_script():
    spec = importlib.util.spec_from_file_location("count_loc", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


SOURCE = '''"""Module docstring,
over two lines."""

import math  # a trailing comment keeps the line

# a comment line
LIMIT = 1e-9
"""Attribute docstring."""


def area(r):
    """Function docstring."""
    text = """a string value
    over two lines"""
    return (math.pi
            * r * r), text
'''


def test_code_lines_leave_out_docstrings_comments_and_blanks(tmp_path):
    script = load_script()
    # import, LIMIT, def, the two lines of text, the two lines of return
    assert script.code_lines(SOURCE) == 7
    (tmp_path / "a.py").write_text(SOURCE)
    (tmp_path / "b.py").write_text("x = 1\n\n")
    assert script.count(tmp_path) == {"a.py": 7, "b.py": 1}
