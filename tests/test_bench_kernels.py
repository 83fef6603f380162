"""scripts/bench_kernels.py runs against the package as it is: every kernel
row is produced, the convolve, warm and fresh chain and ball density rows
count their butterflies, and the reader has a row on the random file and two
on a code's one-text file, as written and with tab separators."""

from __future__ import annotations

import importlib.util
from pathlib import Path

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "bench_kernels.py"
KERNELS = {
    "wht", "adjacency_apply", "convolve", "SampleSpace.from_text", "SampleSpace.to_text",
    "marginal_order", "smoothing_chain", "ball_density.spectrum", "lambda_ball", "min_radius",
}


def load_script():
    spec = importlib.util.spec_from_file_location("bench_kernels", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_quick_rows_cover_every_kernel():
    rows = load_script().rows((10,), 2, "test", quick=True)
    assert {row["kernel"] for row in rows} == KERNELS
    assert all(row["label"] == "test" and row["runs"] == 2 for row in rows)
    convolve = [row["butterflies"] for row in rows if row["kernel"] == "convolve"]
    assert convolve == [3]  # two forward, and the inverse that builds the values
    # g keeps its spectrum, so a warm chain runs g's values alone, and a
    # fresh space adds its own spectrum
    chain = [row for row in rows if row["kernel"] == "smoothing_chain"]
    assert [(row["n"], row["k"], row.get("space"), row["butterflies"]) for row in chain] == [
        (15, 3, None, 1),
        (15, 3, "fresh", 2),
    ]
    # the ball density's spectrum is a level sum, gathered into one dense table
    ball = [row for row in rows if row["kernel"] == "ball_density.spectrum"]
    assert [(row["n"], row["r"], row["butterflies"]) for row in ball] == [(16, 5, 0)]
    assert 1.0 <= ball[0]["peak_vectors"] < 1.5
    # the one-text file of a code's space, sliced as a byte grid, and its
    # tab-separated copy, split into tokens
    reader = [row for row in rows if row["kernel"] == "SampleSpace.from_text"]
    assert [
        (row["n"], row.get("texts"), row.get("sep"), row["butterflies"]) for row in reader
    ] == [(10, None, None, 0), (15, 1, None, 0), (15, 1, "tab", 0)]
