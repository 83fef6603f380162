"""Seeded op lists for the three benchmark workloads.

A plan is plain JSON: the text of every generated input file and a list of
units.  A unit is a group of command-line ops that share one input (one
code, or one parameter pair).  Each op is an argument list for the
``kwisent`` CLI in which ``{inputs}`` names the directory of generated files
and ``{work}`` the directory a copy of the CLI writes its own space files
to.  ``setup`` ops run once, before timing; ``ops`` run in every timed pass.

Two seeds give the same number of ops per op class and the same
distribution of n: only the random codes inside each stratum (and the op
order) change, so a claim can be re-checked on a seed that was not used to
make it.  Nothing
here imports the program under test; the GF(2) helpers are the
benchmark's own.
"""

from __future__ import annotations

import random

WORKLOADS = ("radial-bounds", "dense-chain", "small-corpus")

# radial-bounds: a fixed set of (n, k) for `bound`, in an order drawn from
# the seed.  The cost of an op falls steeply with k (n=192: 1.9 s at k=1,
# 0.05 s at k=72), so random k moved the cost of a pass by 5-15% between
# seeds; a fixed set keeps every seed's pass equally expensive.
RADIAL_BOUNDS = {48: range(1, 25), 96: range(1, 49, 4), 192: (24, 72)}
RADIAL_SWEEP_NS = (24, 48)

# dense-chain: (n, dual dimension, dual distance, timed commands).  Support
# is 2^(n - dual dimension).  Dual distance 6 makes the order 5, where the
# default --marginal-limit skips the brute-force oracle.  One n=20 code keeps
# a pass near 5 s per copy of the CLI, so a 30 s run holds several passes;
# an n=22 chain alone takes about 11 s and varies by 10% from run to run.
DENSE_CODES = ((20, 4, 6, ("analyze", "k3", "k4")),)

# small-corpus: for each n, (dual dimension, dual distance) pairs that a
# random full-rank dual matrix hits with probability >= 10%, so rejection
# sampling stays cheap.  Dual distance <= 2 makes `chain --k 3` exit 1 with
# "precondition failed"; `chain --halfwise` exits 1 on almost every code.
SMALL_CODES = {
    6: ((2, 2), (2, 3), (3, 1), (3, 2), (4, 1), (4, 2)),
    7: ((2, 2), (2, 3), (3, 2), (3, 3), (4, 1), (4, 2)),
    8: ((2, 3), (2, 4), (3, 2), (3, 3), (4, 2), (4, 3)),
    9: ((2, 3), (2, 4), (3, 2), (3, 3), (4, 2), (4, 3)),
    10: ((2, 3), (2, 4), (3, 3), (3, 4), (4, 2), (4, 3)),
    11: ((2, 4), (2, 5), (3, 3), (3, 4), (4, 3), (4, 4)),
    12: ((2, 4), (2, 5), (3, 3), (3, 4), (4, 3), (4, 4)),
    13: ((2, 5), (2, 6), (3, 4), (3, 5), (4, 3), (4, 4)),
    14: ((2, 5), (2, 6), (3, 4), (3, 5), (4, 4), (4, 5)),
}

MAX_DRAWS = 100_000


def _echelon(rows):
    """Fully reduced GF(2) echelon form: {pivot bit: row}."""
    pivots: dict[int, int] = {}
    for row in rows:
        for bit, pivot_row in pivots.items():
            if row >> bit & 1:
                row ^= pivot_row
        if row:
            lead = row.bit_length() - 1
            for bit in pivots:
                if pivots[bit] >> lead & 1:
                    pivots[bit] ^= row
            pivots[lead] = row
    return pivots


def nullspace(rows, n: int) -> list[int]:
    """Basis of {x : popcount(row & x) is even for every row}."""
    pivots = _echelon(rows)
    basis = []
    for free in range(n):
        if free in pivots:
            continue
        vec = 1 << free
        for bit, row in pivots.items():
            if row >> free & 1:
                vec |= 1 << bit
        basis.append(vec)
    return basis


def min_weight(rows) -> int:
    """Least weight of a nonzero combination of rows, by enumeration.

    0 means the rows are linearly dependent (some combination vanishes), so
    the same walk checks rank and distance.
    """
    best = None
    word = 0
    for step in range(1, 1 << len(rows)):
        word ^= rows[(step & -step).bit_length() - 1]  # Gray-code walk
        weight = word.bit_count()
        if best is None or weight < best:
            best = weight
    return best


def draw_dual(rng: random.Random, n: int, m: int, distance: int) -> list[int]:
    """Random full-rank m x n dual matrix whose row space has min weight `distance`."""
    for _ in range(MAX_DRAWS):
        rows = [rng.getrandbits(n) for _ in range(m)]
        if min_weight(rows) == distance:
            return rows
    raise RuntimeError(f"no {m}x{n} dual matrix with distance {distance} in {MAX_DRAWS} draws")


def generator_rows(rng: random.Random, n: int, dual: list[int]) -> list[int]:
    """A random basis of the code whose dual is spanned by `dual`."""
    basis = nullspace(dual, n)
    while True:
        rows = []
        for _ in basis:
            pick = rng.getrandbits(len(basis))
            row = 0
            for j, vec in enumerate(basis):
                if pick >> j & 1:
                    row ^= vec
            rows.append(row)
        if len(_echelon(rows)) == len(basis):
            break
    for row in rows:
        for check in dual:
            if (row & check).bit_count() % 2:
                raise RuntimeError("generator row is not orthogonal to the dual")
    return rows


def matrix_text(rows: list[int], n: int) -> str:
    """The CLI's matrix file format: 'rows cols' header, then bitstrings."""
    return "\n".join([f"{len(rows)} {n}"] + [format(r, f"0{n}b") for r in rows]) + "\n"


def _code_file(rng: random.Random, n: int, m: int, distance: int) -> str:
    return matrix_text(generator_rows(rng, n, draw_dual(rng, n, m, distance)), n)


def _bound(n: int, k: int) -> list[str]:
    return ["bound", "--n", str(n), "--k", str(k), "--format", "csv"]


def _radial(rng: random.Random) -> tuple[dict, list]:
    ops = [
        ["bound", "--n", str(n), "--k", str(k), "--format", "csv"]
        for n, ks in RADIAL_BOUNDS.items()
        for k in ks
    ]
    ops += [["sweep", "spectra", "--n", str(n)] for n in RADIAL_SWEEP_NS]
    rng.shuffle(ops)
    return {}, [{"inputs": [], "setup": [], "ops": [{"args": a}]} for a in ops]


def _construct(i: int) -> dict:
    return {
        "args": ["construct", "from-matrix", "--matrix", f"{{inputs}}/m{i}.txt", "-o", f"{{work}}/s{i}.txt"],
        "output_file": f"{{work}}/s{i}.txt",
    }


CHAIN_ARGS = {"analyze": [], "k3": ["--k", "3"], "k4": ["--k", "4"], "halfwise": ["--halfwise"]}


def _space_op(i: int, command: str) -> dict:
    verb = "analyze" if command == "analyze" else "chain"
    return {"args": [verb, f"{{work}}/s{i}.txt"] + CHAIN_ARGS[command]}


def _dense(rng: random.Random) -> tuple[dict, list]:
    files, units = {}, []
    for i, (n, m, distance, commands) in enumerate(DENSE_CODES):
        files[f"m{i}"] = _code_file(rng, n, m, distance)
        units.append(
            {
                "inputs": [f"m{i}"],
                "setup": [_construct(i)],
                "ops": [_space_op(i, c) for c in commands],
            }
        )
    rng.shuffle(units)
    return files, units


def _small(rng: random.Random) -> tuple[dict, list]:
    specs = [(n, m, d) for n, pairs in SMALL_CODES.items() for m, d in pairs]
    rng.shuffle(specs)
    files, units = {}, []
    for i, (n, m, distance) in enumerate(specs):
        files[f"m{i}"] = _code_file(rng, n, m, distance)
        units.append(
            {
                "inputs": [f"m{i}"],
                "setup": [],
                "ops": [_construct(i)]
                + [_space_op(i, c) for c in ("analyze", "k3", "halfwise")],
            }
        )
    return files, units


def generate(workload: str, seed: int) -> dict:
    """The plan for one workload and seed; the same seed gives the same plan."""
    builders = {"radial-bounds": _radial, "dense-chain": _dense, "small-corpus": _small}
    if workload not in builders:
        raise ValueError(f"unknown workload {workload!r}; expected one of {', '.join(WORKLOADS)}")
    rng = random.Random(f"{workload}:{seed}")
    files, units = builders[workload](rng)
    return {"workload": workload, "seed": seed, "files": files, "units": units}
