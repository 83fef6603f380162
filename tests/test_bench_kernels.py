"""scripts/bench_kernels.py runs against the package as it is, and against
the package at the HEAD of a throwaway git repository: every kernel row is
produced, with a ratio to HEAD when HEAD holds the same package and with
none on the rows HEAD cannot build, and HEAD's rows call HEAD's butterfly;
the convolve, warm and fresh chain, ball density, level and density
spectrum rows count their butterflies (none for a code's space, one
for the same points at two probabilities), the reader has a row on the
random file and two on a code's one-text file, as written and with tab
separators, and the reader and the writer each have a row on that code's
two-text file; the oracle has rows at stop = n, at analyze's stop and on
the point mass at n = 20; g, its adjacency and the sums the chain prints
from it have rows on the cosets of a code and of its translate, and on the
dense route; a fresh chain has rows on a code's space, on its translate and
on its points at two probabilities; and a row is timed in batches whose size
timeit's autorange sets, next to batches of HEAD's call of that size."""

from __future__ import annotations

import importlib.util
import itertools
import shutil
import subprocess
import time
import timeit
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SCRIPT = ROOT / "scripts" / "bench_kernels.py"
KERNELS = {
    "wht", "adjacency_apply", "convolve", "SampleSpace.from_text", "SampleSpace.to_text",
    "marginal_order", "smoothing_chain", "ball_density.spectrum", "lambda_ball", "min_radius",
    "level_max_abs", "SampleSpace.density.spectrum", "_smoothed_density", "inner_product",
    "spectral_inner_product",
}


COSET_KERNELS = (
    "_smoothed_density", "adjacency_apply", "inner_product", "spectral_inner_product",
    "level_max_abs",
)


def load_script():
    spec = importlib.util.spec_from_file_location("bench_kernels", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def committed_copy(root: Path, edit=lambda path: None) -> Path:
    """root, made a git repository whose one commit holds a copy of
    src/kwisent, changed by edit(copy) before it is committed."""
    copy = root / "src" / "kwisent"
    shutil.copytree(ROOT / "src" / "kwisent", copy, ignore=shutil.ignore_patterns("__pycache__"))
    edit(copy)
    user = ["-c", "user.name=bench", "-c", "user.email=bench@example.com", "-c", "commit.gpgsign=false"]
    for command in (["init", "-q"], ["add", "src"], [*user, "commit", "-q", "-m", "copy"]):
        subprocess.run(["git", *command], cwd=root, check=True, capture_output=True)
    return root


@pytest.fixture
def one_call_batches(monkeypatch):
    # one call a batch, which the test below leaves to autorange: its
    # batches take 0.2 s or more on each row
    monkeypatch.setattr(timeit.Timer, "autorange", lambda self: (1, 0.0))


def test_rows_are_timed_in_batches_autorange_sets():
    # a call of well under a microsecond runs thousands of times a batch:
    # autorange's batches, then runs batches of that size, then one traced
    # call; HEAD's call, here 2 ms, gets batches of its own autorange's size,
    # so its batches take about as long as the working tree's, not 1,000
    # times longer
    count, head = itertools.count(), itertools.count()

    def slow():
        time.sleep(0.002)
        return next(head)

    started = time.perf_counter()
    times, ratios, calls, peak = load_script().measure(lambda: next(count), slow, 3)
    assert time.perf_counter() - started < 5.0
    assert calls >= 1000 and len(times) == len(ratios) == 3
    assert next(count) > 4 * calls
    # autorange's 1 + 2 + 5 + ... + 100 calls, then 3 batches of its size
    assert next(head) <= 188 + 3 * 100
    assert all(0.0 < t < 1e-4 for t in times)  # seconds per call, not per batch
    assert all(ratio < 0.1 for ratio in ratios)  # of the time per call
    assert load_script().measure(lambda: next(count), None, 3)[1] == []


def test_quick_rows_cover_every_kernel(tmp_path, one_call_batches):
    script = load_script()
    _, head = script.head(committed_copy(tmp_path), tmp_path / "head")
    rows = script.rows((10,), 2, True, script.kwisent, head)
    assert {row["kernel"] for row in rows} == KERNELS
    assert all(row["runs"] == 2 for row in rows)
    assert all(row["calls"] == 1 for row in rows)
    # HEAD holds the same package: every row has a ratio
    assert all(row["ratio"] > 0.0 and "ratio_q1" in row and "ratio_q3" in row for row in rows)
    convolve = [
        row["butterflies"] for row in rows if row["kernel"] == "convolve" and "by" not in row
    ]
    assert convolve == [3]  # two forward, and the inverse that builds the values
    # a function that keeps its spectrum, by a Radial one, and the level scan
    # of that spectrum: the level kernels alone, with no butterfly
    level = [
        (row["kernel"], row["n"], row.get("by"), row["butterflies"])
        for row in rows
        if (row["kernel"] == "level_max_abs" and {"space", "texts"}.isdisjoint(row))
        or "by" in row
    ]
    assert level == [
        (kernel, n, by, 0)
        for n in (8, 12, 20)
        for kernel, by in (("convolve", "Radial"), ("level_max_abs", None))
    ]
    # g keeps its spectrum, so a warm chain runs g's values alone, of 2^4
    # coset values, and a fresh code space or its translate takes its own
    # spectrum from the dual code; the code's points at two probabilities,
    # no code's space, run the 2^15 butterfly on f too
    chain = [row for row in rows if row["kernel"] == "smoothing_chain"]
    assert [
        (row["n"], row["k"], row.get("space"), row.get("texts"), row["butterflies"]) for row in chain
    ] == [
        (15, 3, None, None, 1),
        (15, 3, "fresh", None, 1),
        (15, 3, "coset", None, 1),
        (15, 1, None, 2, 2),
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
    # g on the cosets of a code and of its translate, from one butterfly of
    # 2^(15 - 11) values, its adjacency from 15 shifted tables, and the sums
    # of g that the chain prints, which read no 2^15 vector; and all of them
    # on the dense route
    coset = [row for row in rows if row["kernel"] in COSET_KERNELS and {"space", "texts"} & set(row)]
    assert [
        (row["kernel"], row["n"], row.get("space"), row.get("texts"), row["butterflies"]) for row in coset
    ] == [
        (kernel, 15, space, texts, int(kernel == "_smoothed_density"))
        for space, texts in (("code", None), ("coset", None), (None, 2))
        for kernel in COSET_KERNELS
    ]
    assert all(row["peak_vectors"] < 0.1 for row in coset[:10])
    writer = [row for row in rows if row["kernel"] == "SampleSpace.to_text"]
    assert [(row["n"], row.get("texts"), row["butterflies"]) for row in writer] == [
        (10, None, 0),
        (15, 2, 0),
    ]


def test_rows_head_cannot_build_have_no_ratio_and_the_run_goes_on(tmp_path, one_call_batches, capsys):
    def delete_smoothed_density(copy: Path):
        smoothing = copy / "smoothing.py"
        smoothing.write_text(smoothing.read_text().replace("_smoothed_density", "_smooth"))

    script = load_script()
    _, head = script.head(committed_copy(tmp_path, delete_smoothed_density), tmp_path / "head")
    assert not hasattr(head.smoothing, "_smoothed_density")
    rows = script.rows((10,), 2, True, script.kwisent, head)
    without = [script.key(row) for row in rows if "ratio" not in row]
    assert without == [
        f"{kernel} n=15 {param}" for param in ("space=code", "space=coset", "texts=2") for kernel in COSET_KERNELS
    ]
    # the rows after them are timed against HEAD again
    assert [row["kernel"] for row in rows[-3:]] == ["ball_density.spectrum", "lambda_ball", "min_radius"]
    assert all("ratio" in row for row in rows[-3:])
    assert "_smoothed_density" in capsys.readouterr().err


def test_heads_rows_call_heads_butterfly(tmp_path, monkeypatch):
    # every name a row calls is bound when the row is built, from the
    # package it is built from: HEAD's wht and convolve rows wrap their
    # vectors in HEAD's cube functions and run HEAD's butterfly alone
    script = load_script()
    _, head = script.head(committed_copy(tmp_path), tmp_path / "head")
    assert head.cube is not script.kwisent.cube
    counts = {}
    for package in (script.kwisent, head):
        counts[package.__name__] = count = []
        fwht = package.cube._fwht
        monkeypatch.setattr(package.cube, "_fwht", lambda v, fwht=fwht, count=count: count.append(v) or fwht(v))
    for name, call in script.kernels(head, 6):
        if name in ("wht", "convolve"):
            call()
    assert len(counts["kwisent_head"]) == 4  # one for wht, three for convolve
    assert counts["kwisent"] == []
