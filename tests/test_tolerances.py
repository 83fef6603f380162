"""The tolerance table: the only home of small float constants, all of them used."""

from __future__ import annotations

import ast
import re
from pathlib import Path

import numpy as np
import pytest

import kwisent
from conftest import point_space, random_sample_space
from kwisent import tolerances
from kwisent.balls import lambda_ball, min_radius
from kwisent.codes import SampleSpace
from kwisent.cube import CubeFunction
from kwisent.smoothing import _smoothed_density

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
    ],
    ids=["space-file", "sample-space"],
)
def test_error_messages_quote_the_table_value(build, value):
    with pytest.raises(ValueError) as err:
        build()
    quoted = re.search(r"within (\S+?),? ", str(err.value) + " ").group(1)
    assert float(quoted) == value


def assert_density(f: CubeFunction) -> None:
    assert f.values.min() >= 0.0
    assert abs(float(f.values.mean()) - 1.0) <= tolerances.TOTAL_MASS


def test_the_densities_the_program_builds_are_densities(corpus):
    # nothing checks a built density at run time: each builder makes values
    # >= 0 with mean 1 within TOTAL_MASS by construction, and this holds it
    rng = np.random.default_rng(2017)
    spaces = [space for _, space in corpus]
    spaces += [random_sample_space(int(rng.integers(1, 13)), rng) for _ in range(30)]
    for _ in range(30):  # many probabilities far below the rest, some of them 0
        n = int(rng.integers(1, 13))
        points = rng.choice(1 << n, size=min(1 << n, 64), replace=False)
        probs = rng.dirichlet(np.full(points.size, 0.05))
        drop = rng.random(points.size) < 0.2
        drop[probs.argmax()] = False
        probs[drop] = 0.0
        spaces.append(SampleSpace(n, points, probs / probs.sum()))
    for space in spaces:
        assert_density(space.density)
    for n in range(1, 17):
        for r in range(n + 1):
            d = lambda_ball(n, r).density()
            assert d.profile.min() >= 0.0
            assert abs(float(d.level_spectrum[0]) - 1.0) <= tolerances.TOTAL_MASS
    # a point mass takes the clip: its smoothed values dip below 0 by rounding
    for x in [space for _, space in corpus] + [point_space(10)]:
        d = lambda_ball(x.n, min_radius(x.n, 3)).density()
        assert_density(_smoothed_density(x.density, d))
