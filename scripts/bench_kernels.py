#!/usr/bin/env python3
"""Time the dense cube kernels, the sample-space reader and writer, the
marginal oracle, the smoothing chain, the ball density's spectrum, the ball
eigenvalue and the radius search.

For each kernel (wht, adjacency_apply, convolve, SampleSpace.from_text,
SampleSpace.to_text) and each n in 16, 20, 22, and for wht and
adjacency_apply also at n = 24 (128 MiB per vector; not with --quick),
where a transform outgrows the 2^16-value rows it runs through in cache, it
reports the median and the quartiles of the wall time per call over
repeated batches of calls (timeit; statistics.quantiles), and the calls per
batch; the peak memory one call allocates beyond its inputs (tracemalloc),
also in units of one dense 2^n float vector; and the butterflies
(full-length fast transforms) one call runs.  timeit's autorange sets the
calls per batch, the fewest of 1, 2, 5, 10, 20, 50, ... that take at least
0.2 s, so a row of microseconds is timed over thousands of calls and a row
slower than 0.2 s one call at a time; autorange's calls are the warm-up,
and timeit turns the garbage collector off while it times.
A cube function keeps its spectrum once read, so the wht and convolve rows
make their functions inside the timed call, on fixed arrays taken over without a copy
(fresh), and every call runs its butterflies; the convolve row reads the
result's values, since a convolution is made from its spectral product and
runs its inverse butterfly only when its values are first read.  The reader
parses a random 2^16-point space
file, the support of the n = 20 benchmark code, with a distinct probability
text on each line, so its lines differ in width and are read line by line;
the writer writes a uniform space on the same points, with one distinct
probability as in every space built from a code.  A further reader row
(texts=1) parses the file every space built from a code writes, one
probability text on lines of one width, which the reader slices as a byte
grid: the file of random_code_20(), the code of the n = 20 chain row below,
like the files dense-chain reads (the Hamming code of length 15 with --quick).
The reader row texts=1 sep=tab parses a copy of that file with a tab for
each space, which the reader reads line by line.  The texts=2 rows write
and read the space of that code with probabilities alternating between two
texts of one width (5 and 3 parts in 2^(k + 2), for 2^k points), which the
writer writes and the reader reads line by line, since the byte grid takes
one probability text only.
The spectrum rows time SampleSpace.density.spectrum on a space built inside
the call from fixed points and probabilities, as each CLI op builds one from
its file, at n = 12 and 20 (n = 12 with --quick): on the space of a code
(texts=1), whose density takes its spectrum from the dual code with no
butterfly, and on that code's points at the texts=2 probabilities, no
code's space, whose spectrum is one butterfly.
The level rows run at n = 8 and 12, the sizes of the small-corpus codes,
and at n = 20: convolve (by=Radial) of a function that keeps its spectrum by
a Radial function, whose spectrum is n + 1 levels, so the call scales the
table row by row, as every chain's convolve(f, d) does, with no butterfly;
and level_max_abs of that function's spectrum, the scan that
independence_order and the chain run.  These calls take microseconds at
n = 8 and 12, so every row's times are kept to 0.1 us.
The oracle rows time kwise.marginal_order on a random n = 14 code (2,048
points, marginal order 5) and on the Hamming code of length 15 (2,048 points,
marginal order 7; not with --quick), each at stop = n and at the stop
`analyze` runs it to, the spectral order + 1; and on the point mass at
n = 20 at stop 1, `analyze`'s stop there, where a lattice that started
from a 2^n vector would read 8 MiB for one point.  The chain rows time smoothing.smoothing_chain at k = 3
on the Hamming code of length 15 and on a random n = 20 code with 2^16
points (marginal order 5): on a space that keeps its density and spectrum
between calls, and (space=fresh) on one built inside the call from the
space's points and probabilities, as each CLI chain op builds one, whose
density takes its spectrum from the dual code, as the warm space's did.
The ball density rows time
balls.BallSpectrum.density().spectrum.coeffs for the radius of that chain at
k = 3, at n = 20 (r = 6) and n = 26 (r = 9; n = 16, r = 5, with --quick):
the spectrum by level from exact Krawtchouk sums, then one gather into a
dense 2^n table, with no butterfly; at n = 26 that table is 512 MiB.  The
chain itself reads that spectrum by level and never gathers it.  The radial
rows time balls.lambda_ball at (n, r) =
(48, 24), (192, 40), (400, 200), the eigenvalue that bound and spectra
print, and balls.min_radius at (n, k) = (192, 24), (4096, 512); they carry
r or k and no peak_vectors.

    python scripts/bench_kernels.py                  # print the table
    python scripts/bench_kernels.py --quick          # n = 16, the n = 15 file and chain, the level rows, the n = 12 spectrum rows, one row of the rest, 3 runs
    python scripts/bench_kernels.py --label change --output BENCH_kernels.json
    python scripts/bench_kernels.py --src OTHER/src --label parent --output BENCH_kernels.json

    for i in 1 2 3; do                               # interleaved fresh processes
      python scripts/bench_kernels.py --src OTHER/src --label parent --process $i --output BENCH_kernels.json
      python scripts/bench_kernels.py --label change --process $i --output BENCH_kernels.json
    done

--src imports kwisent from another checkout, to measure two versions with one
script; --process tags the rows with the index of the process that measured
them, since one process alone cannot tell a 2x change from noise;
--output merges the rows into a JSON file, replacing rows with the same label
and process.
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import platform
import statistics
import sys
import timeit
import tracemalloc
from pathlib import Path

SIZES = (16, 20, 22)
LEVEL_SIZES = (8, 12, 20)
LARGE = 24
SUPPORT = 1 << 16
RUNS = 7
RADIAL = ("lambda_ball", "min_radius")


def kernels(n: int, rng):
    """(name, zero-argument call) pairs on random inputs of dimension n."""
    import numpy as np

    from kwisent.codes import SampleSpace
    from kwisent.cube import CubeFunction, adjacency_apply, convolve, wht

    f = CubeFunction(n, rng.uniform(-1.0, 1.0, size=1 << n))
    g = CubeFunction(n, rng.uniform(-1.0, 1.0, size=1 << n))
    points = rng.choice(1 << n, size=min(SUPPORT, 1 << n), replace=False)
    weights = rng.uniform(0.5, 1.5, size=points.size)
    text = SampleSpace(n, points.astype(np.int64), weights / weights.sum()).to_text()
    uniform = SampleSpace(n, points.astype(np.int64), np.full(points.size, 1.0 / points.size))
    return [
        ("wht", lambda: wht(fresh(f))),
        ("adjacency_apply", lambda: adjacency_apply(f)),
        ("convolve", lambda: convolve(fresh(f), fresh(g)).values),  # values are built on first read
        ("SampleSpace.from_text", lambda: SampleSpace.from_text(text)),
        ("SampleSpace.to_text", uniform.to_text),
    ]


def fresh(f):
    """A new cube function on f's values, which has not read its spectrum."""
    from kwisent.cube import CubeFunction, _Fresh

    return CubeFunction(f.n, _Fresh(f.values))


def large_kernels(quick: bool):
    """(name, n, parameter, zero-argument call) rows for wht and
    adjacency_apply at n = LARGE; none with quick."""
    if quick:
        return
    import numpy as np

    from kwisent.cube import CubeFunction, adjacency_apply, wht

    f = CubeFunction(LARGE, np.random.default_rng(LARGE).uniform(-1.0, 1.0, size=1 << LARGE))
    yield "wht", LARGE, {}, lambda: wht(fresh(f))
    yield "adjacency_apply", LARGE, {}, lambda: adjacency_apply(f)


def level_kernels():
    """(name, n, parameter, zero-argument call) rows for a convolve by a
    Radial function and for level_max_abs, at each n in LEVEL_SIZES."""
    import numpy as np

    from kwisent.cube import CubeFunction, Radial, convolve, level_max_abs

    for n in LEVEL_SIZES:
        rng = np.random.default_rng(n)
        f = CubeFunction(n, rng.uniform(-1.0, 1.0, size=1 << n))
        d = Radial(n, rng.uniform(0.0, 1.0, size=n + 1))
        # the warm-up call builds both spectra, which are kept, so the timed
        # calls run no butterfly
        yield "convolve", n, {"by": "Radial"}, lambda f=f, d=d: convolve(f, d)
        yield "level_max_abs", n, {}, lambda f=f: level_max_abs(f.spectrum)


def oracle_kernels(quick: bool):
    """(name, n, parameter, zero-argument call) rows for kwise.marginal_order."""
    import numpy as np

    from kwisent.codes import BinaryMatrix, hamming_code, parity_sampler_space
    from kwisent.kwise import independence_order, marginal_order

    rng = np.random.default_rng(15)
    dual_rows = tuple(int(r) for r in rng.integers(1, 1 << 14, size=3))
    random14 = BinaryMatrix(dual_rows, 14).dual()
    codes = [random14] if quick else [random14, hamming_code(4)]
    for code in codes:
        space = parity_sampler_space(code)
        for stop in (space.n, min(independence_order(space) + 1, space.n)):
            yield "marginal_order", code.cols, {"stop": stop}, (
                lambda space=space, stop=stop: marginal_order(space, stop)
            )
    point = parity_sampler_space(BinaryMatrix((), 20))
    yield "marginal_order", 20, {"stop": 1}, lambda: marginal_order(point, 1)


def reader_kernels(quick: bool):
    """(name, n, parameter, zero-argument call) rows for SampleSpace.from_text
    on the one-text file of a space built from a code, and on a copy of it
    with a tab between the bits and the probability; and for to_text and
    from_text on that code's points with two alternating probability texts."""
    from kwisent.codes import SampleSpace, hamming_code, parity_sampler_space

    code = hamming_code(4) if quick else random_code_20()
    space = parity_sampler_space(code)
    text = space.to_text()
    tabs = text.replace(" ", "\t")
    two = SampleSpace(code.cols, space.points, two_texts(space))
    two_text = two.to_text()
    read = SampleSpace.from_text
    yield "SampleSpace.from_text", code.cols, {"texts": 1}, lambda: read(text)
    yield "SampleSpace.from_text", code.cols, {"texts": 1, "sep": "tab"}, lambda: read(tabs)
    yield "SampleSpace.to_text", code.cols, {"texts": 2}, two.to_text
    yield "SampleSpace.from_text", code.cols, {"texts": 2}, lambda: read(two_text)


def two_texts(space):
    """Probabilities for a code's points, 5 and 3 quarters of the code's one
    probability by turns: a space on the code's points that is no code's."""
    import numpy as np

    unit = space.probabilities[0] / 4
    return np.resize([5 * unit, 3 * unit], space.points.size)


def spectrum_kernels(quick: bool):
    """(name, n, parameter, zero-argument call) rows for the density's
    spectrum of a space built inside the call, as each CLI op builds one
    from its file: on a code's space (texts=1), which takes it from the
    dual code, and on that code's points at two_texts (texts=2), which runs
    the butterfly."""
    import numpy as np

    from kwisent.codes import BinaryMatrix, SampleSpace, parity_sampler_space

    rng = np.random.default_rng(12)
    code_12 = BinaryMatrix(tuple(int(r) for r in rng.integers(1, 1 << 12, size=3)), 12).dual()
    for code in [code_12] if quick else [code_12, random_code_20()]:
        space = parity_sampler_space(code)
        for texts, probs in ((1, space.probabilities), (2, two_texts(space))):

            def spectrum(points=space.points, probs=probs, n=code.cols):
                return SampleSpace(n, points, probs).density.spectrum.coeffs

            yield "SampleSpace.density.spectrum", code.cols, {"texts": texts}, spectrum


def random_code_20():
    """A random length-20 code of dimension 16 whose dual has distance >= 6."""
    import numpy as np

    from kwisent.codes import BinaryMatrix

    rng = np.random.default_rng(20)
    while True:
        dual = BinaryMatrix(tuple(int(r) for r in rng.integers(1, 1 << 20, size=4)), 20)
        code = dual.dual()
        if len(code.rows) == 16 and dual.min_distance() >= 6:
            return code


def chain_kernels(quick: bool):
    """(name, n, parameter, zero-argument call) rows for smoothing_chain: on
    a space whose density and spectrum are kept from the warm-up call, and
    (space=fresh) on a space built inside the call from the kept points and
    probabilities, as each CLI chain op builds one from its file."""
    from kwisent.codes import SampleSpace, hamming_code, parity_sampler_space
    from kwisent.smoothing import smoothing_chain

    codes = [hamming_code(4)] if quick else [hamming_code(4), random_code_20()]
    for code in codes:
        space = parity_sampler_space(code)
        yield "smoothing_chain", code.cols, {"k": 3}, lambda space=space: smoothing_chain(space, 3)

        def fresh_chain(space=space):
            return smoothing_chain(SampleSpace(space.n, space.points, space.probabilities), 3)

        yield "smoothing_chain", code.cols, {"k": 3, "space": "fresh"}, fresh_chain


def ball_kernels(quick: bool):
    """(name, n, parameter, zero-argument call) rows for the spectrum of the
    ball density that smoothing_chain(space, 3) reads, gathered into its
    dense table; the eigenvalue and the profile are computed once, outside
    the timed call."""
    from kwisent.balls import lambda_ball, min_radius

    for n in (16,) if quick else (20, 26):
        r = min_radius(n, 3)
        ball = lambda_ball(n, r)
        ball.radial_profile  # computed on first read, and kept
        yield "ball_density.spectrum", n, {"r": r}, lambda ball=ball: ball.density().spectrum.coeffs


def radial_kernels(quick: bool):
    """(name, n, parameter, zero-argument call) rows for the ball eigenvalue
    and the radius search."""
    from kwisent.balls import lambda_ball, min_radius

    solves = [(48, 24), (192, 40), (400, 200)]
    searches = [(192, 24), (4096, 512)]
    if quick:
        solves, searches = solves[:1], searches[:1]
    for n, r in solves:
        yield "lambda_ball", n, {"r": r}, lambda n=n, r=r: lambda_ball(n, r)
    for n, k in searches:
        yield "min_radius", n, {"k": k}, lambda n=n, k=k: min_radius(n, k)


def measure(call, runs: int) -> tuple[list[float], int, int]:
    """Seconds per call in each of runs batches, the calls per batch, and the
    peak bytes of one traced call."""
    timer = timeit.Timer(call)
    calls = timer.autorange()[0]  # also the warm-up: imports and numpy's first-use setup
    times = [batch / calls for batch in timer.repeat(runs, calls)]
    tracemalloc.start()
    try:
        call()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return times, calls, peak


def butterflies(call) -> int:
    """Full-length butterflies (cube._fwht calls) that one call runs."""
    from kwisent import cube

    fwht, count = cube._fwht, []

    def counted(v):
        count.append(v.size)
        return fwht(v)

    cube._fwht = counted
    try:
        call()
    finally:
        cube._fwht = fwht
    return len(count)


def rows(sizes, runs: int, label: str, quick: bool, process: int = 1) -> list[dict]:
    import numpy as np

    dense = (
        (name, n, {}, call)
        for n in sizes
        for name, call in kernels(n, np.random.default_rng(n))
    )
    out = []
    for name, n, param, call in itertools.chain(
        dense, large_kernels(quick), level_kernels(), reader_kernels(quick), spectrum_kernels(quick),
        oracle_kernels(quick), chain_kernels(quick), ball_kernels(quick), radial_kernels(quick),
    ):
        times, calls, peak = measure(call, runs)
        q1, median, q3 = statistics.quantiles(times, n=4)
        row = {"label": label, "process": process, "kernel": name, "n": n, **param, "runs": runs}
        row["calls"] = calls
        row["median_ms"] = round(median * 1e3, 4)
        row["q1_ms"] = round(q1 * 1e3, 4)
        row["q3_ms"] = round(q3 * 1e3, 4)
        row["peak_mib"] = round(peak / 2**20, 2)
        if name not in RADIAL:
            row["peak_vectors"] = round(peak / (8 << n), 3)
            row["butterflies"] = butterflies(call)
        out.append(row)
    return out


def host() -> dict:
    import numpy as np

    return {
        "machine": platform.machine(),
        "cpus": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument(
        "--quick",
        action="store_true",
        help="n = 16, the level rows, the n = 12 spectrum rows and one row of each other kernel, 3 runs",
    )
    parser.add_argument("--label", default="checkout", help="row label")
    parser.add_argument("--process", type=int, default=1, help="index of this process for the label")
    parser.add_argument(
        "--src",
        type=Path,
        default=Path(__file__).resolve().parent.parent / "src",
        help="directory that holds the kwisent package",
    )
    parser.add_argument("--output", type=Path, help="JSON file to merge the rows into")
    args = parser.parse_args(argv)
    sys.path.insert(0, str(args.src.resolve()))

    sizes, runs = ((16,), 3) if args.quick else (SIZES, RUNS)
    new = rows(sizes, runs, args.label, args.quick, args.process)
    for row in new:
        keys = ("r", "k", "by", "texts", "sep", "space", "stop")
        params = [f" {key}={row[key]}" for key in keys if key in row]
        size = f"n={row['n']}" + "".join(params)
        vectors = ""
        if "peak_vectors" in row:
            vectors = f" ({row['peak_vectors']} vectors, {row['butterflies']} butterflies)"
        print(
            f"{row['kernel']:<28} {size:<21} {row['median_ms']:>10.4f} ms"
            f" [{row['q1_ms']:.4f}, {row['q3_ms']:.4f}] x{row['calls']:<6}"
            f" {row['peak_mib']:>8.2f} MiB{vectors}"
        )
    if args.output:
        record = {"rows": []}
        if args.output.exists():
            record = json.loads(args.output.read_text())
        record.setdefault("hosts", {})[args.label] = host()
        same = (args.label, args.process)
        record["rows"] = [r for r in record["rows"] if (r["label"], r.get("process", 1)) != same] + new
        args.output.write_text(json.dumps(record, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
