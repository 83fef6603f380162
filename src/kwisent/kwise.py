"""Distributions on the cube and detection of k-wise independence.

A distribution is k-wise independent when every restriction to at most k
coordinates is uniform; equivalently, every Fourier coefficient on a
nonempty set of size <= k vanishes.  Both criteria are implemented; the
spectral scan is the fast path and the marginal enumeration is the oracle.
The oracle still checks every marginal of every coordinate subset by
definition; it takes each level's subsets a block at a time and builds the
block's (subset, pattern) bin index with one float64 matrix product, then
sums the bins with one bincount, instead of one sort per subset.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import combinations, islice

import numpy as np

from .codes import SampleSpace
from .cube import Density, Spectrum, check_dimension, level_max_abs, wht
from .errors import ResourceLimitError
from .tolerances import COEFF_ZERO, MARGINAL_ZERO, PRUNE_RELATIVE, TOTAL_MASS

# Most (subset, pattern) bins the oracle may hold for one level.
MARGINAL_WORK_GUARD = 10**7
# Total work, in level_cost units, above which `analyze` and
# verify_smoothing skip their optional run of the marginal oracle.  Hamming
# n=15 (2,048 points, levels 1..8) costs 5.0 x 10^7 units and takes about
# 0.2 s, so the limit is about 0.4 s.
MARGINAL_WORK_LIMIT = 10**8
MARGINAL_BLOCK_ELEMENTS = 1 << 14


def density_from_space(space: SampleSpace) -> Density:
    """Dense mean-1 density: value 2^n * probability on support, 0 elsewhere."""
    check_dimension(space.n)
    vals = np.zeros(1 << space.n)
    vals[space.points] = space.probabilities * (1 << space.n)
    return Density(space.n, vals / vals.mean())


@dataclass(frozen=True, eq=False)
class Distribution:
    """A sample space together with its cached density and spectrum."""

    space: SampleSpace
    density: Density
    spectrum: Spectrum

    def __post_init__(self):
        if abs(self.spectrum.coeffs[0] - 1.0) > TOTAL_MASS:
            raise ValueError("empty-set coefficient of a density must be 1")

    @property
    def n(self) -> int:
        return self.space.n

    @classmethod
    def from_space(cls, space: SampleSpace) -> "Distribution":
        density = density_from_space(space)
        return cls(space=space, density=density, spectrum=wht(density))

    @classmethod
    def from_density(cls, density: Density) -> "Distribution":
        """Build the support representation, dropping values at most
        PRUNE_RELATIVE of the largest."""
        vals = density.values.copy()
        vals[vals <= PRUNE_RELATIVE * vals.max()] = 0.0
        vals /= vals.mean()
        clean = Density(density.n, vals)
        points = np.flatnonzero(vals).astype(np.int64)
        probs = vals[points] / (1 << density.n)
        space = SampleSpace(density.n, points, probs / probs.sum())
        return cls(space=space, density=clean, spectrum=wht(clean))


def independence_order(dist: Distribution) -> int:
    """Largest k with |coeff(S)| <= COEFF_ZERO for all 1 <= |S| <= k (n if all vanish)."""
    per_level = level_max_abs(dist.spectrum)
    order = 0
    for level in range(1, dist.n + 1):
        if per_level[level] > COEFF_ZERO:
            break
        order = level
    return order


def level_bins(n: int, size: int) -> int:
    """(subset, pattern) bins of one level: C(n, size) subsets x 2^size patterns."""
    return math.comb(n, size) << size


def level_cost(n: int, size: int, support: int) -> int:
    """Marginal oracle work at one level: each of the C(n, size) subsets reads
    every support point once and then its 2^size bins."""
    return math.comb(n, size) * support + level_bins(n, size)


def marginal_affordable(dist: Distribution, k: int, limit: float) -> bool:
    """Whether the marginal oracle over levels 1..k fits a work limit: the
    level costs sum to at most limit and no level has more bins than
    MARGINAL_WORK_GUARD."""
    n, support = dist.n, dist.space.support_size
    levels = range(1, k + 1)
    return (
        sum(level_cost(n, size, support) for size in levels) <= limit
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
    2^size).  Both callers refuse a level whose C(n, size) 2^size bins are
    more than MARGINAL_WORK_GUARD, so 2^size <= MARGINAL_WORK_GUARD, and both
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


def marginal_check(dist: Distribution, k: int) -> float:
    """Brute-force oracle: the largest deviation from uniformity over every
    coordinate set of size <= k (0.0 when k = 0).

    Refused when any level 1..k has more bins than MARGINAL_WORK_GUARD: the
    level bins peak near size 2n/3, not at k.
    """
    n, space = dist.n, dist.space
    if not 0 <= k <= n:
        raise ValueError(f"k must be in 0..{n}, got {k}")
    if not marginal_affordable(dist, k, math.inf):
        raise ResourceLimitError(
            f"marginal check at n={n}, k={k} exceeds the work guard"
        )
    columns = _bit_columns(space)
    worst = 0.0
    for size in range(1, k + 1):
        for devs in _level_deviations(space, columns, size):
            worst = max(worst, float(devs.max()))
    return worst


def marginal_order(dist: Distribution) -> int:
    """Largest k passing the marginal oracle; scans level by level."""
    n, space = dist.n, dist.space
    columns = _bit_columns(space)
    for size in range(1, n + 1):
        if level_bins(n, size) > MARGINAL_WORK_GUARD:
            raise ResourceLimitError(
                f"marginal order scan at n={n}, size={size} exceeds the work guard"
            )
        blocks = _level_deviations(space, columns, size)
        if any((devs > MARGINAL_ZERO).any() for devs in blocks):
            return size - 1
    return n
