"""scripts/bench_kernels.py runs against the package as it is: every kernel
row is produced, the convolve, warm and fresh chain, ball density, level and
density spectrum rows count their butterflies (none for a code's space, one
for the same points at two probabilities), the reader has a row on the
random file and two on a code's one-text file, as written and with tab
separators, and the reader and the writer each have a row on that code's
two-text file; the oracle has rows at stop = n, at analyze's stop and on
the point mass at n = 20; g's values and its adjacency have rows on a
code's cosets and on the dense route; and a row is timed in batches whose
size timeit's autorange sets."""

from __future__ import annotations

import importlib.util
import itertools
import timeit
from pathlib import Path

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "bench_kernels.py"
KERNELS = {
    "wht", "adjacency_apply", "convolve", "SampleSpace.from_text", "SampleSpace.to_text",
    "marginal_order", "smoothing_chain", "ball_density.spectrum", "lambda_ball", "min_radius",
    "level_max_abs", "SampleSpace.density.spectrum", "_smoothed_density",
}


def load_script():
    spec = importlib.util.spec_from_file_location("bench_kernels", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_rows_are_timed_in_batches_autorange_sets():
    # a call of well under a microsecond runs thousands of times a batch:
    # autorange's batches, then runs batches of that size, then one traced call
    count = itertools.count()
    times, calls, peak = load_script().measure(lambda: next(count), 3)
    assert calls >= 1000 and len(times) == 3
    assert next(count) > 4 * calls
    assert all(0.0 < t < 1e-4 for t in times)  # seconds per call, not per batch


def test_quick_rows_cover_every_kernel(monkeypatch):
    # one call a batch, which the test above leaves to autorange: its batches
    # take 0.2 s or more on each row
    monkeypatch.setattr(timeit.Timer, "autorange", lambda self: (1, 0.0))
    rows = load_script().rows((10,), 2, "test", quick=True)
    assert {row["kernel"] for row in rows} == KERNELS
    assert all(row["label"] == "test" and row["runs"] == 2 for row in rows)
    assert all(row["calls"] == 1 for row in rows)
    convolve = [
        row["butterflies"] for row in rows if row["kernel"] == "convolve" and "by" not in row
    ]
    assert convolve == [3]  # two forward, and the inverse that builds the values
    # a function that keeps its spectrum, by a Radial one, and the level scan
    # of that spectrum: the level kernels alone, with no butterfly
    level = [
        (row["kernel"], row["n"], row.get("by"), row["butterflies"])
        for row in rows
        if row["kernel"] == "level_max_abs" or "by" in row
    ]
    assert level == [
        (kernel, n, by, 0)
        for n in (8, 12, 20)
        for kernel, by in (("convolve", "Radial"), ("level_max_abs", None))
    ]
    # g keeps its spectrum, so a warm chain runs g's values alone, and a
    # fresh code space takes its own spectrum from the dual code
    chain = [row for row in rows if row["kernel"] == "smoothing_chain"]
    assert [(row["n"], row["k"], row.get("space"), row["butterflies"]) for row in chain] == [
        (15, 3, None, 1),
        (15, 3, "fresh", 1),
    ]
    # a fresh code space's spectrum is the dual code's indicator, and the
    # same points at two probabilities, no code's space, run the butterfly
    spectrum = [row for row in rows if row["kernel"] == "SampleSpace.density.spectrum"]
    assert [(row["n"], row["texts"], row["butterflies"]) for row in spectrum] == [
        (12, 1, 0),
        (12, 2, 1),
    ]
    # the ball density's spectrum is a level sum, gathered into one dense
    # table: 1 vector, and numpy's cast of the uint8 sizes to indices in
    # buffers of np.getbufsize() = 8,192 values (0.125 vectors at n = 16)
    ball = [row for row in rows if row["kernel"] == "ball_density.spectrum"]
    assert [(row["n"], row["r"], row["butterflies"]) for row in ball] == [(16, 5, 0)]
    assert 1.0 <= ball[0]["peak_vectors"] < 1.15
    # the one-text file of a code's space, sliced as a byte grid, its
    # tab-separated copy, split into tokens, and the two-text file, written
    # and read line by line
    reader = [row for row in rows if row["kernel"] == "SampleSpace.from_text"]
    assert [
        (row["n"], row.get("texts"), row.get("sep"), row["butterflies"]) for row in reader
    ] == [(10, None, None, 0), (15, 1, None, 0), (15, 1, "tab", 0), (15, 2, None, 0)]
    # the oracle at stop = n and at analyze's stop, the order + 1, and on
    # the point mass at n = 20, which keeps no 2^20 vector
    oracle = [row for row in rows if row["kernel"] == "marginal_order"]
    assert [(row["n"], row["stop"], row["butterflies"]) for row in oracle] == [
        (14, 14, 0),
        (14, 6, 0),
        (20, 1, 0),
    ]
    assert oracle[-1]["peak_vectors"] < 0.01
    # g's values and its adjacency on a code's cosets, from one butterfly
    # of 2^(15 - 11) values and 15 shifted tables, and on the dense route
    coset = [row for row in rows if row.get("space") in ("code", "coset")]
    assert [(row["kernel"], row["n"], row["space"], row["butterflies"]) for row in coset] == [
        ("_smoothed_density", 15, "code", 1),
        ("adjacency_apply", 15, "code", 0),
        ("_smoothed_density", 15, "coset", 1),
        ("adjacency_apply", 15, "coset", 0),
    ]
    writer = [row for row in rows if row["kernel"] == "SampleSpace.to_text"]
    assert [(row["n"], row.get("texts"), row["butterflies"]) for row in writer] == [
        (10, None, 0),
        (15, 2, 0),
    ]
