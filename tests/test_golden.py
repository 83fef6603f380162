"""Byte-for-byte CLI output of every command and format on small inputs.

Each file under tests/golden/ holds the line `exit <status>` followed by the
exact stdout of one invocation.  The eigen-solver's diagnostics
(`iterations`, `residual`: the bisection's step count and final bracket
width) are dropped on both sides: they describe the solver rather than the
result, and change whenever the solver does.
"""

from __future__ import annotations

import os
import re
import subprocess
import sys
from pathlib import Path

import pytest
from click.testing import CliRunner

from kwisent.cli import main

GOLDEN = Path(__file__).parent / "golden"
SRC = Path(__file__).resolve().parent.parent / "src"

# Columns are 1..6 in binary, so every two columns are independent and some
# three are not: the space is independent at order exactly 2.
MATRIX6 = "3 6\n101010\n011001\n000111\n"

SPACES = {
    "hamming7": "hamming --m 3",
    "hamming15": "hamming --m 4",
    "uniform8": "uniform --n 8",
    "space6": "from-matrix --matrix {matrix6}",
}

CASES = {
    "construct-hamming": "construct hamming --m 3",
    "construct-simplex": "construct simplex --m 3",
    "construct-hadamard": "construct hadamard --m 3",
    "construct-uniform": "construct uniform --n 3",
    "construct-point": "construct point --n 5",
    "construct-from-matrix": "construct from-matrix --matrix {matrix6}",
    "construct-missing-m": "construct hamming",
    **{
        f"analyze-{space}-{form}": f"analyze {{{space}}} --format {form}"
        for space in SPACES
        for form in ("text", "csv", "json")
    },
    "chain-hamming7-halfwise-text": "chain {hamming7} --halfwise",
    "chain-hamming7-halfwise-csv": "chain {hamming7} --halfwise --format csv",
    "chain-hamming7-k3-text": "chain {hamming7} --k 3",
    "chain-hamming15-k3-text": "chain {hamming15} --k 3",
    "chain-hamming15-k3-csv": "chain {hamming15} --k 3 --format csv",
    "chain-hamming15-halfwise-text": "chain {hamming15} --halfwise",
    "chain-uniform8-k4-text": "chain {uniform8} --k 4",
    "chain-uniform8-k4-csv": "chain {uniform8} --k 4 --format csv",
    "chain-uniform8-k5-text": "chain {uniform8} --k 5",
    "chain-space6-k3-text": "chain {space6} --k 3",
    "chain-space6-k3-csv": "chain {space6} --k 3 --format csv",
    "chain-space6-halfwise-text": "chain {space6} --halfwise",
    "chain-space6-k4-csv": "chain {space6} --k 4 --format csv",
    **{f"bound-n16-k4-{form}": f"bound --n 16 --k 4 --format {form}" for form in ("text", "csv", "json")},
    **{f"bound-n7-k4-{form}": f"bound --n 7 --k 4 --format {form}" for form in ("text", "csv", "json")},
    "bound-n3-k1-text": "bound --n 3 --k 1",
    **{f"spectra-n12-{form}": f"spectra --n 12 --format {form}" for form in ("text", "csv", "json")},
    "spectra-n6-r2-4-text": "spectra --n 6 --r 2..4",
    "sweep-spectra-n16": "sweep spectra --n 16",
    "sweep-spectra-n20-r1-19": "sweep spectra --n 20 --r 1..19",
    "sweep-bounds-n16": "sweep bounds --n 16 --k 1..8",
    "sweep-bounds-n7": "sweep bounds --n 7 --k 1..8",
}

_SOLVER_KEY = re.compile(r'\s*"?(iterations|residual)"?:')


def without_solver_cells(text: str) -> str:
    """Drop the iterations/residual cells from any spectra report form."""
    lines = text.splitlines(keepends=True)
    if lines and lines[0] == "n,r,lambda,asymptotic_lambda,iterations,residual\n":
        return "".join(line.rsplit(",", 2)[0] + "\n" for line in lines)
    return "".join(line for line in lines if not _SOLVER_KEY.match(line))


def make_inputs(root: Path) -> dict[str, str]:
    """Write the matrix and the four space files; returns placeholder -> path."""
    matrix = root / "matrix6.txt"
    matrix.write_text(MATRIX6)
    paths = {"matrix6": str(matrix)}
    for name, kind in SPACES.items():
        path = root / f"{name}.txt"
        args = ["construct", *(token.format(**paths) for token in kind.split()), "-o", str(path)]
        assert CliRunner().invoke(main, args).exit_code == 0
        paths[name] = str(path)
    return paths


def run_case(command: str, inputs: dict[str, str]) -> bytes:
    args = [token.format(**inputs) for token in command.split()]
    result = CliRunner().invoke(main, args)
    return f"exit {result.exit_code}\n{without_solver_cells(result.stdout)}".encode()


@pytest.fixture(scope="module")
def inputs(tmp_path_factory) -> dict[str, str]:
    return make_inputs(tmp_path_factory.mktemp("golden"))


@pytest.mark.parametrize("name", sorted(CASES))
def test_cli_output_matches_golden(name, inputs):
    assert run_case(CASES[name], inputs) == (GOLDEN / f"{name}.txt").read_bytes()


def test_cli_output_does_not_follow_the_blas_thread_count(inputs):
    """A fresh process with one BLAS thread and one with two print the same
    bytes, and those of the golden file: no printed sum goes through BLAS,
    which splits a dot product by thread."""
    name = "chain-hamming15-k3-text"
    args = [token.format(**inputs) for token in CASES[name].split()]
    outputs = []
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, PYTHONPATH=str(SRC))
        run = subprocess.run(
            [sys.executable, "-m", "kwisent.cli", *args], env=env, capture_output=True, check=False
        )
        outputs.append(f"exit {run.returncode}\n".encode() + run.stdout)
    assert outputs[0] == outputs[1] == (GOLDEN / f"{name}.txt").read_bytes()
