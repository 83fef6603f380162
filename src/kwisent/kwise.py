"""Detection of k-wise independence for a sample space.

A distribution is k-wise independent when every restriction to at most k
coordinates is uniform; equivalently, every Fourier coefficient on a
nonempty set of size <= k vanishes.  Every function here takes a
codes.SampleSpace.  Both criteria are implemented: the spectral scan reads
the space's density spectrum and is the fast path; the marginal enumeration
(marginal_order) reads only the support and is the oracle.  The test oracle
marginal_check in tests/oracles.py runs the same level scan.
The oracle still checks every marginal of every coordinate subset by
definition; it takes each level's subsets a block at a time and builds the
block's (subset, pattern) bin index with one float64 matrix product, then
sums the bins with one bincount, instead of one sort per subset.
"""

from __future__ import annotations

import math
from itertools import combinations, islice

import numpy as np

from .codes import SampleSpace
from .cube import level_max_abs
from .errors import ResourceLimitError
from .tolerances import COEFF_ZERO, MARGINAL_ZERO

# Most (subset, pattern) bins the oracle may hold for one level.
MARGINAL_WORK_GUARD = 10**7
# Total work, in level_cost units, above which `analyze` (and verify_smoothing
# in tests/oracles.py) skips its optional run of the marginal oracle.  Hamming
# n=15 (2,048 points, levels 1..8) costs 5.0 x 10^7 units and takes about
# 0.2 s, so the limit is about 0.4 s.
MARGINAL_WORK_LIMIT = 10**8
MARGINAL_BLOCK_ELEMENTS = 1 << 14


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
    """Marginal oracle work at one level: each of the C(n, size) subsets reads
    every support point once and then its 2^size bins."""
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


def _bit_columns(space: SampleSpace) -> np.ndarray:
    """Float64 rows: row c holds coordinate c + 1 (bit n - 1 - c) of every
    support point, and row n holds ones."""
    columns = np.ones((space.n + 1, space.points.size))
    for c, row in enumerate(columns[:-1]):  # no n x m integer temporary
        np.bitwise_and(space.points >> (space.n - 1 - c), 1, out=row)
    return columns


def _level_deviations(space: SampleSpace, columns: np.ndarray, size: int):
    """Yield the worst deviation of each subset of one size, a block at a time.

    Subsets come in itertools.combinations order, in blocks of at most
    MARGINAL_BLOCK_ELEMENTS (subset x point) pairs, and each block is one
    bincount over (subset, pattern) bins, the first coordinate the pattern's
    high bit.  A bin adds its weights in point order, as np.unique plus a
    bincount of one subset's patterns does, so the deviations are the same
    floats; an absent pattern sums to 0 and deviates by the full 2^-size.

    The bin index is one float64 product place @ columns.  Row s of place
    holds 2^(size-1-j) at the j-th coordinate of subset s, and s << size at
    the ones row.  So each entry is a sum of distinct powers of two plus the
    row offset: an integer below rows << size <= max(MARGINAL_BLOCK_ELEMENTS,
    2^size).  Both callers, marginal_order and the test oracle marginal_check,
    refuse a level whose C(n, size) 2^size bins are more than
    MARGINAL_WORK_GUARD, so 2^size <= MARGINAL_WORK_GUARD, and both
    constants are below 2^53.  Every partial sum is then an integer that
    float64 holds exactly, in any summation order, and the cast to intp is
    exact.
    """
    subsets = combinations(range(space.n), size)
    rows = max(1, MARGINAL_BLOCK_ELEMENTS // max(space.points.size, 1 << size))
    weights = np.tile(space.probabilities, rows)
    powers = 2.0 ** np.arange(size - 1, -1, -1)
    while (block := np.array(list(islice(subsets, rows)))).size:
        place = np.zeros((len(block), space.n + 1))
        place[np.arange(len(block))[:, None], block] = powers
        place[:, -1] = np.arange(len(block)) << size  # the row, above the pattern
        index = (place @ columns).astype(np.intp)
        sums = np.bincount(index.ravel(), weights[: index.size], len(block) << size)
        yield np.abs(sums.reshape(len(block), -1) - 2.0**-size).max(axis=1)


def marginal_order(space: SampleSpace, stop: int) -> int:
    """Largest k <= stop passing the marginal oracle: scans levels 1..stop in
    turn and returns the level before the first that fails, or stop when
    none fails."""
    n = space.n
    columns = _bit_columns(space)
    for size in range(1, stop + 1):
        if level_bins(n, size) > MARGINAL_WORK_GUARD:
            raise ResourceLimitError(
                f"marginal order scan at n={n}, size={size} exceeds the work guard"
            )
        blocks = _level_deviations(space, columns, size)
        if any((devs > MARGINAL_ZERO).any() for devs in blocks):
            return size - 1
    return stop
