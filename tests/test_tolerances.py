"""The tolerance table: the only home of small float constants, all of them used."""

from __future__ import annotations

import ast
import re
from pathlib import Path

import numpy as np
import pytest

import kwisent
from kwisent import tolerances
from kwisent.codes import SampleSpace
from kwisent.cube import Density

PACKAGE = Path(kwisent.__file__).parent
TABLE = PACKAGE / "tolerances.py"
OTHERS = sorted(path for path in PACKAGE.glob("*.py") if path != TABLE)


def table_names() -> list[str]:
    """The constants of the table, which must hold nothing but float
    assignments and their docstrings."""
    names = []
    for node in ast.parse(TABLE.read_text()).body:
        if isinstance(node, ast.Expr) and isinstance(node.value, ast.Constant):
            assert isinstance(node.value.value, str), ast.dump(node)
            continue
        assert isinstance(node, ast.Assign), ast.dump(node)
        (target,) = node.targets
        assert isinstance(target, ast.Name) and isinstance(node.value, ast.Constant)
        assert isinstance(node.value.value, float), target.id
        names.append(target.id)
    return names


def test_no_small_float_literal_outside_the_table():
    found = []
    for path in OTHERS:
        for node in ast.walk(ast.parse(path.read_text())):
            value = getattr(node, "value", None) if isinstance(node, ast.Constant) else None
            if isinstance(value, float) and 0 < abs(value) < 1e-6:
                found.append(f"{path.name}:{node.lineno}: {value!r}")
    assert not found, found


def test_every_table_name_is_used_and_documented():
    names = table_names()
    assert len(names) == len(set(names))
    used = set()
    for path in OTHERS:
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.alias):
                used.add(node.name)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
    assert [name for name in names if name not in used] == []
    source = TABLE.read_text()
    for name in names:
        # each constant is followed by its docstring
        assert re.search(rf"^{name} = .*\n\"\"\"", source, re.M), name


@pytest.mark.parametrize(
    "build, value",
    [
        (lambda: SampleSpace.from_text("n=1\n0 0.5\n1 0.4\n"), tolerances.FILE_TOTAL_MASS),
        (lambda: SampleSpace(1, [0, 1], [0.5, 0.4]), tolerances.TOTAL_MASS),
        (lambda: Density(1, np.array([1.0, 0.9])), tolerances.TOTAL_MASS),
    ],
    ids=["space-file", "sample-space", "density"],
)
def test_error_messages_quote_the_table_value(build, value):
    with pytest.raises(ValueError) as err:
        build()
    quoted = re.search(r"within (\S+?),? ", str(err.value) + " ").group(1)
    assert float(quoted) == value
