#!/usr/bin/env python3
"""Time the dense cube kernels, the sample-space reader and writer, the
marginal oracle, the smoothing chain, the ball density's spectrum, the ball
eigenvalue and the radius search, in the working tree against HEAD.

Each row runs two copies of one call in one process: the call built from
the working tree's kwisent (src/kwisent), and the same call built from
HEAD's, which `git archive HEAD src/kwisent` extracts into a temporary
directory and which is imported as the package kwisent_head.  Every builder
takes the package it builds from and binds every name its calls use when
the row is built.  The two calls are timed in alternating batches, each
the size that side's own autorange sets, odd pairs HEAD first, and each row
gives the median and the quartiles of the ratio of the time per call,
working tree / HEAD, over the pairs (ratio, ratio_q1, ratio_q3).  A pair's two batches run seconds apart, so both see the same
host speed, where fresh processes of one commit differ by 1.5x on rows of
microseconds.  On a clean tree both copies are the same code: the ratios
then show the noise.  A row HEAD cannot build or run (a kernel the working
tree adds) has no ratio.  Rows are built, timed and dropped one pair at a
time.

The other fields are the working tree's.  For each kernel (wht,
adjacency_apply, convolve, SampleSpace.from_text, SampleSpace.to_text) and
each n in 16, 20, 22, and for wht and adjacency_apply also at n = 24 (128
MiB per vector; not with --quick), where a transform outgrows the
2^16-value rows it runs through in cache, a row reports the median and the
quartiles of the wall time per call over the batches (timeit;
statistics.quantiles), and the calls per batch; the peak memory one call
allocates beyond its inputs (tracemalloc), also in units of one dense 2^n
float vector; and the butterflies (full-length fast transforms) one call
runs.  timeit's autorange sets the calls per batch, the fewest of 1, 2, 5,
10, 20, 50, ... that take at least 0.2 s, so a row of microseconds is timed
over thousands of calls and a row slower than 0.2 s one call at a time;
each side's autorange calls, and one call of HEAD's before them, are the
warm-up, and timeit turns the garbage collector off while it times.
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
points (marginal order 5; not with --quick): on a space that keeps its
density and spectrum between calls, and on one built inside the call from
the space's points and probabilities, as each CLI chain op builds one: the
code's own points (space=fresh), whose density takes its spectrum from the
dual code, as the warm space's did; the same points XOR 1 (space=coset), a
translate of the code, which takes the same route with the dual code's
signs; and, at k = 1, as its order is 0, the code's points at the texts=2
probabilities (texts=2), no code's space, the dense route, whose spectrum
is one butterfly more, and whose g is a butterfly of 2^n values.
The coset rows time g (_smoothed_density), adjacency_apply(g), and three of
the sums the chain prints from g (inner_product and spectral_inner_product
of g with itself, and level_max_abs of its spectrum), for the g of that
chain at k = 3, on a code (space=code) at n = 20 (the chain's code) and
n = 24 (a random [24, 19] code; the Hamming code of length 15 with
--quick), and on the same points XOR 1 (space=coset), where g is made on
the code's 2^(n - rank) cosets, its adjacency is n shifted tables, its
spectrum lies on the dual words and the sums read 2^(n - rank) values; and
on the code's points at the texts=2 probabilities (texts=2), no code's
space, where g takes the dense route: 2^n-value butterfly, adjacency and
sums.  No row reads the values of a g on cosets, which no chain step reads.
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

    python scripts/bench_kernels.py                              # print the table
    python scripts/bench_kernels.py --output BENCH_kernels.json  # and write it

--output writes the rows, HEAD's short sha and the host into the JSON file,
one row a line, and keeps the file's history: one line per HEAD, holding
each row's median ratio, where a run at the same HEAD replaces its line.
"""

from __future__ import annotations

import argparse
import importlib
import importlib.util
import io
import json
import os
import platform
import statistics
import subprocess
import sys
import tarfile
import tempfile
import timeit
import tracemalloc
from functools import partial
from pathlib import Path
from unittest import mock

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))
import kwisent.cli  # noqa: E402  (and with it every module a row calls)

SIZES = (16, 20, 22)
LEVEL_SIZES = (8, 12, 20)
LARGE = 24
SUPPORT = 1 << 16
RUNS = 15
RADIAL = ("lambda_ball", "min_radius")
PARAMS = ("r", "k", "by", "texts", "sep", "space", "stop")


def head(root: Path, directory: Path):
    """The short sha of root's HEAD, and HEAD's src/kwisent extracted into
    directory and imported, with every module its CLI imports, as the
    package kwisent_head."""
    run = partial(subprocess.run, cwd=root, check=True, capture_output=True)
    sha = run(["git", "rev-parse", "--short", "HEAD"], text=True).stdout.strip()
    with tarfile.open(fileobj=io.BytesIO(run(["git", "archive", "HEAD", "src/kwisent"]).stdout)) as archive:
        archive.extractall(directory, filter="data")
    for name in [name for name in sys.modules if name.split(".")[0] == "kwisent_head"]:
        del sys.modules[name]  # an earlier HEAD's modules
    source = directory / "src" / "kwisent"
    spec = importlib.util.spec_from_file_location(
        "kwisent_head", source / "__init__.py", submodule_search_locations=[str(source)]
    )
    package = importlib.util.module_from_spec(spec)
    sys.modules["kwisent_head"] = package
    spec.loader.exec_module(package)
    importlib.import_module("kwisent_head.cli")
    return sha, package


def kernels(pkg, n: int):
    """(name, zero-argument call) pairs on random inputs of dimension n."""
    CubeFunction, SampleSpace = pkg.cube.CubeFunction, pkg.codes.SampleSpace
    wht, adjacency_apply, convolve = pkg.cube.wht, pkg.cube.adjacency_apply, pkg.cube.convolve
    rng = np.random.default_rng(n)
    f = CubeFunction(n, rng.uniform(-1.0, 1.0, size=1 << n))
    g = CubeFunction(n, rng.uniform(-1.0, 1.0, size=1 << n))
    points = rng.choice(1 << n, size=min(SUPPORT, 1 << n), replace=False)
    weights = rng.uniform(0.5, 1.5, size=points.size)
    text = SampleSpace(n, points.astype(np.int64), weights / weights.sum()).to_text()
    uniform = SampleSpace(n, points.astype(np.int64), np.full(points.size, 1.0 / points.size))
    return [
        ("wht", lambda: wht(fresh(pkg, f))),
        ("adjacency_apply", lambda: adjacency_apply(f)),
        ("convolve", lambda: convolve(fresh(pkg, f), fresh(pkg, g)).values),  # values are built on first read
        ("SampleSpace.from_text", lambda: SampleSpace.from_text(text)),
        ("SampleSpace.to_text", uniform.to_text),
    ]


def fresh(pkg, f):
    """A new cube function of pkg on f's values, which has not read its spectrum."""
    return pkg.cube.CubeFunction(f.n, pkg.cube._Fresh(f.values))


def large_kernels(pkg, quick: bool):
    """(name, n, parameter, zero-argument call) rows for wht and
    adjacency_apply at n = LARGE; none with quick."""
    if quick:
        return
    wht, adjacency_apply = pkg.cube.wht, pkg.cube.adjacency_apply
    f = pkg.cube.CubeFunction(LARGE, np.random.default_rng(LARGE).uniform(-1.0, 1.0, size=1 << LARGE))
    yield "wht", LARGE, {}, lambda: wht(fresh(pkg, f))
    yield "adjacency_apply", LARGE, {}, lambda: adjacency_apply(f)


def level_kernels(pkg, quick: bool):
    """(name, n, parameter, zero-argument call) rows for a convolve by a
    Radial function and for level_max_abs, at each n in LEVEL_SIZES."""
    convolve, level_max_abs = pkg.cube.convolve, pkg.cube.level_max_abs
    for n in LEVEL_SIZES:
        rng = np.random.default_rng(n)
        f = pkg.cube.CubeFunction(n, rng.uniform(-1.0, 1.0, size=1 << n))
        d = pkg.cube.Radial(n, rng.uniform(0.0, 1.0, size=n + 1))
        # the warm-up call builds both spectra, which are kept, so the timed
        # calls run no butterfly
        yield "convolve", n, {"by": "Radial"}, lambda f=f, d=d: convolve(f, d)
        yield "level_max_abs", n, {}, lambda f=f: level_max_abs(f.spectrum)


def oracle_kernels(pkg, quick: bool):
    """(name, n, parameter, zero-argument call) rows for kwise.marginal_order."""
    BinaryMatrix, parity_sampler_space = pkg.codes.BinaryMatrix, pkg.codes.parity_sampler_space
    marginal_order = pkg.kwise.marginal_order
    rng = np.random.default_rng(15)
    dual_rows = tuple(int(r) for r in rng.integers(1, 1 << 14, size=3))
    random14 = BinaryMatrix(dual_rows, 14).dual()
    codes = [random14] if quick else [random14, pkg.codes.hamming_code(4)]
    for code in codes:
        space = parity_sampler_space(code)
        for stop in (space.n, min(pkg.kwise.independence_order(space) + 1, space.n)):
            yield "marginal_order", code.cols, {"stop": stop}, (
                lambda space=space, stop=stop: marginal_order(space, stop)
            )
    point = parity_sampler_space(BinaryMatrix((), 20))
    yield "marginal_order", 20, {"stop": 1}, lambda: marginal_order(point, 1)


def reader_kernels(pkg, quick: bool):
    """(name, n, parameter, zero-argument call) rows for SampleSpace.from_text
    on the one-text file of a space built from a code, and on a copy of it
    with a tab between the bits and the probability; and for to_text and
    from_text on that code's points with two alternating probability texts."""
    code = pkg.codes.hamming_code(4) if quick else random_code_20(pkg)
    space = pkg.codes.parity_sampler_space(code)
    text = space.to_text()
    tabs = text.replace(" ", "\t")
    two = pkg.codes.SampleSpace(code.cols, space.points, two_texts(space))
    two_text = two.to_text()
    read = pkg.codes.SampleSpace.from_text
    yield "SampleSpace.from_text", code.cols, {"texts": 1}, lambda: read(text)
    yield "SampleSpace.from_text", code.cols, {"texts": 1, "sep": "tab"}, lambda: read(tabs)
    yield "SampleSpace.to_text", code.cols, {"texts": 2}, two.to_text
    yield "SampleSpace.from_text", code.cols, {"texts": 2}, lambda: read(two_text)


def two_texts(space):
    """Probabilities for a code's points, 5 and 3 quarters of the code's one
    probability by turns: a space on the code's points that is no code's."""
    unit = space.probabilities[0] / 4
    return np.resize([5 * unit, 3 * unit], space.points.size)


def spectrum_kernels(pkg, quick: bool):
    """(name, n, parameter, zero-argument call) rows for the density's
    spectrum of a space built inside the call, as each CLI op builds one
    from its file: on a code's space (texts=1), which takes it from the
    dual code, and on that code's points at two_texts (texts=2), which runs
    the butterfly."""
    SampleSpace = pkg.codes.SampleSpace
    rng = np.random.default_rng(12)
    code_12 = pkg.codes.BinaryMatrix(tuple(int(r) for r in rng.integers(1, 1 << 12, size=3)), 12).dual()
    for code in [code_12] if quick else [code_12, random_code_20(pkg)]:
        space = pkg.codes.parity_sampler_space(code)
        for texts, probs in ((1, space.probabilities), (2, two_texts(space))):

            def spectrum(points=space.points, probs=probs, n=code.cols):
                return SampleSpace(n, points, probs).density.spectrum.coeffs

            yield "SampleSpace.density.spectrum", code.cols, {"texts": texts}, spectrum


def random_code(n: int, dual_rank: int, distance: int, pkg=kwisent):
    """A random length-n code of dimension n - dual_rank whose dual has
    distance >= distance, drawn from a generator seeded with n."""
    rng = np.random.default_rng(n)
    while True:
        dual = pkg.codes.BinaryMatrix(tuple(int(r) for r in rng.integers(1, 1 << n, size=dual_rank)), n)
        code = dual.dual()
        if len(code.rows) == n - dual_rank and dual.min_distance() >= distance:
            return code


def random_code_20(pkg=kwisent):
    """A random length-20 code of dimension 16 whose dual has distance >= 6."""
    return random_code(20, 4, 6, pkg)


def coset_kernels(pkg, quick: bool):
    """(name, n, parameter, zero-argument call) rows for g
    (smoothing._smoothed_density), for adjacency_apply(g), and for the sums
    the chain prints from g: inner_product(g, g), spectral_inner_product(g,
    g) and level_max_abs of g's spectrum; g = f * d
    smoothed as smoothing_chain(space, 3) smooths it: on the space of a
    code (space=code) and on that space XOR 1 (space=coset), whose g lives
    on the code's cosets, and on the code's points at two_texts (texts=2),
    no code's space, which takes the dense route.  f keeps its spectrum,
    read outside the timed call."""
    smoothed, adjacency_apply = pkg.smoothing._smoothed_density, pkg.cube.adjacency_apply
    inner_product, spectral_inner_product = pkg.cube.inner_product, pkg.cube.spectral_inner_product
    level_max_abs = pkg.cube.level_max_abs
    codes = [pkg.codes.hamming_code(4)] if quick else [random_code_20(pkg), random_code(24, 5, 6, pkg)]
    for code in codes:
        space = pkg.codes.parity_sampler_space(code)
        d = pkg.balls.lambda_ball(code.cols, pkg.balls.min_radius(code.cols, 3)).density()
        for param, points, probs in spaces(space):
            f = pkg.codes.SampleSpace(code.cols, points, probs).density
            f.spectrum  # built on first read, and kept
            yield "_smoothed_density", code.cols, param, lambda f=f: smoothed(f, d)
            g = smoothed(f, d)
            del f  # each n = 24 vector is 128 MiB; the caller has dropped the row above
            yield "adjacency_apply", code.cols, param, lambda g=g: adjacency_apply(g)
            yield "inner_product", code.cols, param, lambda g=g: inner_product(g, g)
            yield "spectral_inner_product", code.cols, param, lambda g=g: spectral_inner_product(g, g)
            yield "level_max_abs", code.cols, param, lambda g=g: level_max_abs(g.spectrum)
            del g


def spaces(space, own: str = "code"):
    """(parameter, points, probabilities) of a code's space (space=own), of
    its translate by 1 (space=coset), and of its points at two_texts
    (texts=2), no code's space."""
    yield {"space": own}, space.points, space.probabilities
    yield {"space": "coset"}, space.points ^ 1, space.probabilities
    yield {"texts": 2}, space.points, two_texts(space)


def chain_kernels(pkg, quick: bool):
    """(name, n, parameter, zero-argument call) rows for smoothing_chain: on
    a space whose density and spectrum are kept from the warm-up call, and on
    a space built inside the call from kept points and probabilities, as
    each CLI chain op builds one from its file: the code's points
    (space=fresh) and those points XOR 1 (space=coset) at k = 3, and the
    code's points at two_texts (texts=2), no code's space, at k = 1."""
    SampleSpace, smoothing_chain = pkg.codes.SampleSpace, pkg.smoothing.smoothing_chain
    codes = [pkg.codes.hamming_code(4)] if quick else [pkg.codes.hamming_code(4), random_code_20(pkg)]
    for code in codes:
        space = pkg.codes.parity_sampler_space(code)
        yield "smoothing_chain", code.cols, {"k": 3}, lambda space=space: smoothing_chain(space, 3)
        for param, points, probs in spaces(space, "fresh"):
            k = 1 if "texts" in param else 3  # two_texts is of order 0

            def chain(n=code.cols, points=points, probs=probs, k=k):
                return smoothing_chain(SampleSpace(n, points, probs), k)

            yield "smoothing_chain", code.cols, {"k": k, **param}, chain


def ball_kernels(pkg, quick: bool):
    """(name, n, parameter, zero-argument call) rows for the spectrum of the
    ball density that smoothing_chain(space, 3) reads, gathered into its
    dense table; the eigenvalue and the profile are computed once, outside
    the timed call."""
    for n in (16,) if quick else (20, 26):
        r = pkg.balls.min_radius(n, 3)
        ball = pkg.balls.lambda_ball(n, r)
        ball.radial_profile  # computed on first read, and kept
        yield "ball_density.spectrum", n, {"r": r}, lambda ball=ball: ball.density().spectrum.coeffs


def radial_kernels(pkg, quick: bool):
    """(name, n, parameter, zero-argument call) rows for the ball eigenvalue
    and the radius search."""
    lambda_ball, min_radius = pkg.balls.lambda_ball, pkg.balls.min_radius
    solves = [(48, 24), (192, 40), (400, 200)]
    searches = [(192, 24), (4096, 512)]
    if quick:
        solves, searches = solves[:1], searches[:1]
    for n, r in solves:
        yield "lambda_ball", n, {"r": r}, lambda n=n, r=r: lambda_ball(n, r)
    for n, k in searches:
        yield "min_radius", n, {"k": k}, lambda n=n, k=k: min_radius(n, k)


def measure(call, reference, runs: int) -> tuple[list[float], list[float], int, int]:
    """Seconds per call in each of runs batches; the ratio of each batch's
    time per call to that of a batch of reference's calls timed next to it,
    odd pairs reference first (none when reference is None); the calls per
    batch; and the peak bytes of one traced call.

    Each side's batch is the size its own autorange sets, so a side many
    times slower than the other does not run batches that many times longer.
    """
    timers = [timeit.Timer(call)] + ([timeit.Timer(reference)] if reference else [])
    # also each side's warm-up: imports and numpy's first-use setup
    sizes = [timer.autorange()[0] for timer in timers]
    seconds = [[], []]
    for pair in range(runs):
        for side in (1, 0) if pair % 2 == 0 else (0, 1):
            if side < len(timers):
                seconds[side].append(timers[side].timeit(sizes[side]) / sizes[side])
    tracemalloc.start()
    try:
        call()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return seconds[0], [a / b for a, b in zip(*seconds)], sizes[0], peak


def butterflies(pkg, call) -> int:
    """Full-length butterflies (pkg.cube._fwht calls) that one call runs; the
    count keeps no reference to the vectors."""
    fwht, count = pkg.cube._fwht, []
    with mock.patch.object(pkg.cube, "_fwht", lambda v: count.append(v.size) or fwht(v)):
        call()
    return len(count)


def rows(sizes, runs: int, quick: bool, work, reference) -> list[dict]:
    """The rows of the package work, each timed against the same call built
    from the package reference."""

    def dense(pkg, quick):
        return ((name, n, {}, call) for n in sizes for name, call in kernels(pkg, n))

    out = []
    for build in (
        dense, large_kernels, level_kernels, reader_kernels, spectrum_kernels, oracle_kernels,
        chain_kernels, coset_kernels, ball_kernels, radial_kernels,
    ):
        others = build(reference, quick)
        for name, n, param, call in build(work, quick):
            row = {"kernel": name, "n": n, **param, "runs": runs}
            try:
                other = next(others)[3]
                other()  # HEAD builds and runs the row; also its warm-up
            except Exception as error:  # a row HEAD cannot build or run: no ratio
                print(f"{key(row)}: no ratio; HEAD raised {error!r} here or before", file=sys.stderr)
                other, others = None, iter(())
            times, ratios, calls, peak = measure(call, other, runs)
            q1, median, q3 = statistics.quantiles(times, n=4)
            row.update(calls=calls, median_ms=round(median * 1e3, 4), q1_ms=round(q1 * 1e3, 4))
            row.update(q3_ms=round(q3 * 1e3, 4), peak_mib=round(peak / 2**20, 2))
            if name not in RADIAL:
                row["peak_vectors"] = round(peak / (8 << n), 3)
                row["butterflies"] = butterflies(work, call)
            if ratios:
                q1, median, q3 = statistics.quantiles(ratios, n=4)
                row.update(ratio=round(median, 4), ratio_q1=round(q1, 4), ratio_q3=round(q3, 4))
            out.append(row)
            del call, other  # the pair's inputs go before the next pair is built
    return out


def key(row: dict) -> str:
    """The kernel, n and parameters of a row: one name per row."""
    return f"{row['kernel']} n={row['n']}" + "".join(f" {p}={row[p]}" for p in PARAMS if p in row)


def lines(items) -> str:
    """A JSON list with one item a line."""
    return "[\n" + ",\n".join(f"  {json.dumps(item)}" for item in items) + "\n ]"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--quick", action="store_true", help="fewer and smaller rows, 3 pairs")
    parser.add_argument("--output", type=Path, help="JSON file to write the rows into, keeping its history")
    args = parser.parse_args(argv)

    sizes, runs = ((16,), 3) if args.quick else (SIZES, RUNS)
    with tempfile.TemporaryDirectory() as directory:
        sha, reference = head(ROOT, Path(directory))
        new = rows(sizes, runs, args.quick, kwisent, reference)
    for row in new:
        vectors = ""
        if "butterflies" in row:
            vectors = " ({peak_vectors} vectors, {butterflies} butterflies)".format(**row)
        ratio = "{ratio:.3f} [{ratio_q1:.3f}, {ratio_q3:.3f}]".format(**row) if "ratio" in row else "-"
        print(
            f"{key(row):<50} {row['median_ms']:>10.4f} ms [{row['q1_ms']:.4f}, {row['q3_ms']:.4f}]"
            f" x{row['calls']:<6} {row['peak_mib']:>8.2f} MiB{vectors} vs {sha}: {ratio}"
        )
    if args.output:
        history = json.loads(args.output.read_text())["history"] if args.output.exists() else []
        entry = {"reference": sha, "ratios": {key(row): row["ratio"] for row in new if "ratio" in row}}
        history = [old for old in history if old["reference"] != sha] + [entry]
        host = {"machine": platform.machine(), "cpus": os.cpu_count(), "python": platform.python_version()}
        host["numpy"] = np.__version__
        args.output.write_text(
            f'{{"reference": "{sha}", "host": {json.dumps(host)},\n'
            f' "rows": {lines(new)},\n "history": {lines(history)}}}\n'
        )
    return 0


if __name__ == "__main__":
    sys.exit(main())
