"""Detection of k-wise independence for a sample space.

A distribution is k-wise independent when every restriction to at most k
coordinates is uniform; equivalently, every Fourier coefficient on a
nonempty set of size <= k vanishes.  Every function here takes a
codes.SampleSpace.  Both criteria are implemented: the spectral scan reads
the space's density spectrum and is the fast path; the marginal enumeration
(marginal_order) reads only the support and is the oracle.
The oracle still checks every marginal of every coordinate subset by
definition, but shares partial sums between subsets, as Yates' method does
for factorial designs: a lattice of partial marginals sums out or keeps one
coordinate at a time (_worst_by_level).  The test oracle marginal_check in
tests/oracles.py keeps the per-subset scan, each subset reading every
support point."""

from __future__ import annotations

import itertools
import math

import numpy as np

from .codes import SampleSpace
from .cube import level_max_abs
from .errors import ResourceLimitError
from .tolerances import COEFF_ZERO, MARGINAL_ZERO

# Most (subset, pattern) bins of one level that the marginal oracle checks.
MARGINAL_WORK_GUARD = 10**7
# Total work, in level_cost units, above which `analyze` (and verify_smoothing
# in tests/oracles.py) skips its optional run of the marginal oracle.  Hamming
# n=15 (2,048 points, levels 1..8) costs 5.0 x 10^7 units, and the lattice
# takes about 0.05 s there.
MARGINAL_WORK_LIMIT = 10**8
# Most partial sums the marginal lattice keeps after one step (512 KiB of
# float64); more, and the stacks are split in two (_walk).
MARGINAL_STACK_ELEMENTS = 1 << 16


def order_from_levels(per_level: np.ndarray) -> int:
    """The independence order read from the largest |coeff(S)| per level |S|
    (cube.level_max_abs): the largest k with every level 1..k at most
    COEFF_ZERO, n if all are."""
    leaks = np.flatnonzero(per_level[1:] > COEFF_ZERO)
    return int(leaks[0]) if leaks.size else per_level.size - 1


def independence_order(space: SampleSpace) -> int:
    """Largest k with |coeff(S)| <= COEFF_ZERO for all 1 <= |S| <= k (n if all vanish)."""
    return order_from_levels(level_max_abs(space.density.spectrum))


def level_bins(n: int, size: int) -> int:
    """(subset, pattern) bins of one level: C(n, size) subsets x 2^size patterns."""
    return math.comb(n, size) << size


def level_cost(n: int, size: int, support: int) -> int:
    """The price of one level in the marginal oracle's admission rule
    (marginal_affordable): each of the C(n, size) subsets reading every
    support point once and then its 2^size bins, as a per-subset scan does.
    It decides which inputs `analyze` checks; it is not the lattice's work,
    which shares partial sums between subsets."""
    return math.comb(n, size) * support + level_bins(n, size)


def marginal_affordable(space: SampleSpace, k: int) -> bool:
    """Whether the marginal oracle over levels 1..k fits its work limit: the
    level costs sum to at most MARGINAL_WORK_LIMIT and no level has more bins
    than MARGINAL_WORK_GUARD."""
    n, support = space.n, space.support_size
    levels = range(1, k + 1)
    return (
        sum(level_cost(n, size, support) for size in levels) <= MARGINAL_WORK_LIMIT
        and max((level_bins(n, size) for size in levels), default=0) <= MARGINAL_WORK_GUARD
    )


def _step(base: int, stacks: list[np.ndarray], top: int, check) -> None:
    """One lattice step, in place, on stacks[i] of the subsets of size
    base + i, none of them empty: the first coordinate of the rest leaves
    every stack, summed out of the rest (one add of its two halves) or moved
    into the pattern as its low bit (a reshape).  The largest subsets move
    to a new stack, or, at size top, are summed over the rest and checked,
    not kept.  Sizes go from the top down, so each old stack is dropped once
    both of its successors are built."""
    rest, count = stacks[0].shape[2] // 2, len(stacks)
    last = base + count - 1
    if last + 1 == top:
        check(top, stacks[-1].reshape(-1, 2 << last, rest).sum(axis=2))
    else:
        stacks.append(stacks[-1].reshape(-1, 2 << last, rest))
    for i in reversed(range(1, count)):
        pair = stacks[i].reshape(-1, 1 << (base + i), 2, rest)
        moved = stacks[i - 1].reshape(-1, 1 << (base + i), rest)
        out = np.empty((len(pair) + len(moved), 1 << (base + i), rest))
        np.add(pair[:, :, 0], pair[:, :, 1], out=out[: len(pair)])
        out[len(pair) :] = moved
        stacks[i] = out
    pair = stacks[0].reshape(-1, 1 << base, 2, rest)
    stacks[0] = pair[:, :, 0] + pair[:, :, 1]  # nothing moves into the smallest


def _halves(base: int, stacks: list[np.ndarray]):
    """The stacked subsets cut into two halves of equal count (the second
    one more when odd), each a (base, stacks) pair with no empty stack; the
    second is a copy, so no view of it keeps the whole stacks alive while
    the first is finished."""
    cut = sum(map(len, stacks)) // 2
    first, second = [], []
    for stack in stacks:
        take = min(cut, len(stack))
        cut -= take
        if take:
            first.append(stack[:take])
        if take < len(stack):
            second.append(stack[take:].copy())
    return (base, first), (base + len(stacks) - len(second), second)


def _walk(base: int, stacks: list[np.ndarray], top: int, check) -> None:
    """Step the stacks of sizes base, base + 1, ... until no rest is left,
    then check every size they reach below top.  When one step would hold
    more than MARGINAL_STACK_ELEMENTS sums, the subsets are split in two and
    one half is finished before the other is started.  The list passed in
    is emptied, so the caller's reference keeps no split stack alive."""
    todo = [(base, stacks.copy())]
    stacks.clear()
    while todo:
        base, stacks = todo.pop()
        while stacks[0].shape[2] > 1:
            # half of every stack stays summed out, and every stack moves
            # up but the one that reaches top
            held = sum(stack.size for stack in stacks)
            after = held // 2 + held - (stacks[-1].size if base + len(stacks) == top else 0)
            if after > MARGINAL_STACK_ELEMENTS and sum(map(len, stacks)) > 1:
                (base, stacks), second = _halves(base, stacks)
                todo.append(second)
            else:
                _step(base, stacks, top, check)
        for i, stack in enumerate(stacks):
            check(base + i, stack[:, :, 0])


def _prefix_chunks(start: int, r: int, top: int, support: int):
    """Yield (size, subsets) for the subsets of the first `start`
    coordinates of each size up to top, in increasing order of size, as
    arrays of coordinate indices, a chunk of subsets at a time: each chunk's
    bincount (_bins) has at most MARGINAL_STACK_ELEMENTS sums and support
    entries, or one subset."""
    for size in range(min(start, top) + 1):
        tail = r if size < top else 0
        subsets = np.array(list(itertools.combinations(range(start), size)), dtype=np.intp)
        subsets = subsets.reshape(math.comb(start, size), size)
        per = max(1, MARGINAL_STACK_ELEMENTS // max(support, 1 << (size + tail)))
        for first in range(0, len(subsets), per):
            yield size, subsets[first : first + per]


def _bins(bits: np.ndarray, weights: np.ndarray, subsets: np.ndarray, low, r: int) -> np.ndarray:
    """One bincount of the support points' weights by subset, by its
    pattern (its first coordinate the high bit; bits holds the points' bits
    at the leading coordinates, a column each) and by the points' last r
    bits (low) below that: len(subsets) x 2^|S| x 2^r bins."""
    index = np.arange(len(subsets))  # the subset, above its pattern
    for column in subsets.T:
        index = (index << 1) | bits[:, column]
    if r:
        index = (index << r) | low
    return np.bincount(
        index.ravel(), np.repeat(weights, len(subsets)), len(subsets) << (subsets.shape[1] + r)
    )


def _worst_by_level(space: SampleSpace, top: int) -> np.ndarray:
    """The largest |P(X_S = a) - 2^-|S|| over the subsets S of each size
    0..top.

    A lattice of partial marginals, built one coordinate at a time.  After
    step j it holds, for each subset S of the first j coordinates with
    |S| < top, the weights of S's patterns jointly with the coordinates
    j..n-1 (the rest): 2^|S| x 2^(n-j) sums, stacked with the other subsets
    of its size.  Step j sums coordinate j out of the rest or moves it into
    the pattern (_step), so every subset that extends S shares S's partial
    sums.  A subset that reaches size top is checked there; the others are
    checked when the rest is gone.

    The lattice starts from the support, not from a 2^n vector.  With 2^r
    the least power of two at or above 4m for m points (2^n at most), the
    subsets S of the first j0 = n - r coordinates are bincounts of the
    points over S's pattern and their last r coordinates, 2^|S| x 2^r bins,
    one bincount for a chunk of the subsets of one size (_prefix_chunks,
    _bins), and those of size top are checked at once on their patterns;
    from step j0 on the lattice is dense.  Stacks of consecutive sizes are
    walked in groups of at most MARGINAL_STACK_ELEMENTS sums, each group
    before the next chunk is counted, and split further when a step would
    pass that budget (_walk).
    """
    n, points, weights = space.n, space.points, space.probabilities
    worst = np.zeros(top + 1)

    def check(size: int, sums: np.ndarray) -> None:
        if sums.size:  # the largest |sum - 2^-size|, with no temporary
            worst[size] = max(worst[size], sums.max() - 2.0**-size, 2.0**-size - sums.min())

    if top == 0:
        return worst
    r = min(n, (points.size - 1).bit_length() + 2)
    start = n - r
    bits = (points[:, None] >> (n - 1 - np.arange(start))) & 1
    low = points[:, None] & ((1 << r) - 1)
    base, group = 0, []
    for size, subsets in _prefix_chunks(start, r, top, points.size):
        if size == top:
            check(top, _bins(bits, weights, subsets, low, 0))
            continue
        held = sum(map(np.size, group)) + (len(subsets) << (size + r))
        if group and (held > MARGINAL_STACK_ELEMENTS or size != base + len(group)):
            _walk(base, group, top, check)
        if not group:
            base = size
        stack = _bins(bits, weights, subsets, low, r)
        group.append(stack.reshape(len(subsets), 1 << size, 1 << r))
    del stack  # the group holds it, and the walk frees it once stepped
    _walk(base, group, top, check)
    return worst


def marginal_order(space: SampleSpace, stop: int) -> int:
    """Largest k <= stop passing the marginal oracle: the level before the
    first of levels 1..stop with a marginal off uniform by more than
    MARGINAL_ZERO, or stop when none is.  A level of more than
    MARGINAL_WORK_GUARD bins is refused, once every level below it has
    passed; the lattice (_worst_by_level) runs only up to the level below
    it."""
    n = space.n
    guarded = (size for size in range(1, stop + 1) if level_bins(n, size) > MARGINAL_WORK_GUARD)
    top = next(guarded, stop + 1) - 1
    worst = _worst_by_level(space, top)
    for size in range(1, stop + 1):
        if size > top:
            raise ResourceLimitError(
                f"marginal order scan at n={n}, size={size} exceeds the work guard"
            )
        if worst[size] > MARGINAL_ZERO:
            return size - 1
    return stop
