"""Distributions on the cube and detection of k-wise independence.

A distribution is k-wise independent when every restriction to at most k
coordinates is uniform; equivalently, every Fourier coefficient on a
nonempty set of size <= k vanishes.  Both criteria are implemented; the
spectral scan is the fast path and the marginal enumeration is the oracle.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import combinations

import numpy as np

from .codes import SampleSpace
from .cube import Density, Spectrum, check_dimension, level_max_abs, wht
from .errors import ResourceLimitError

DEFAULT_COEFF_TOL = 1e-9
MARGINAL_WORK_GUARD = 10**7


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
        if abs(self.spectrum.coeffs[0] - 1.0) > 1e-12:
            raise ValueError("empty-set coefficient of a density must be 1")

    @property
    def n(self) -> int:
        return self.space.n

    @classmethod
    def from_space(cls, space: SampleSpace) -> "Distribution":
        density = density_from_space(space)
        return cls(space=space, density=density, spectrum=wht(density))

    @classmethod
    def from_density(cls, density: Density, prune_tol: float = 1e-12) -> "Distribution":
        """Build the support representation, dropping relative mass < prune_tol."""
        vals = density.values.copy()
        vals[vals <= prune_tol * vals.max()] = 0.0
        vals /= vals.mean()
        clean = Density(density.n, vals)
        points = np.flatnonzero(vals).astype(np.int64)
        probs = vals[points] / (1 << density.n)
        space = SampleSpace(density.n, points, probs / probs.sum())
        return cls(space=space, density=clean, spectrum=wht(clean))


def independence_order(dist: Distribution, tol: float = DEFAULT_COEFF_TOL) -> int:
    """Largest k with |coeff(S)| <= tol for all 1 <= |S| <= k (n if all vanish)."""
    per_level = level_max_abs(dist.spectrum)
    order = 0
    for level in range(1, dist.n + 1):
        if per_level[level] > tol:
            break
        order = level
    return order


def is_kwise(dist: Distribution, k: int, tol: float = DEFAULT_COEFF_TOL) -> bool:
    if not 0 <= k <= dist.n:
        raise ValueError(f"k must be in 0..{dist.n}, got {k}")
    return independence_order(dist, tol) >= k


def half_independence_order(n: int, rounding: str = "floor") -> int:
    """Independence order meant by "half of n" for odd n.

    The vanishing band 1 <= |S| <= n/2 only constrains integer levels up to
    floor(n/2), which is the default reading; "ceil" asks for the stricter one.
    """
    if rounding == "floor":
        return n // 2
    if rounding == "ceil":
        return (n + 1) // 2
    raise ValueError(f"rounding must be 'floor' or 'ceil', got {rounding!r}")


@dataclass(frozen=True)
class MarginalReport:
    """Worst marginal deviation over all restrictions of size <= k."""

    n: int
    k: int
    max_deviation: float
    worst_coordinates: tuple[int, ...]
    worst_pattern: tuple[int, ...]


def _subset_deviation(space: SampleSpace, mask: int, size: int) -> tuple[float, int]:
    """(max |P(restriction = a) - 2^-size|, achieving pattern or -1 if absent)."""
    patterns = space.points & mask
    uniq, inverse = np.unique(patterns, return_inverse=True)
    sums = np.bincount(inverse, weights=space.probabilities)
    target = 2.0 ** -size
    deviations = np.abs(sums - target)
    best = int(np.argmax(deviations))
    dev, pattern = float(deviations[best]), int(uniq[best])
    if uniq.size < (1 << size) and target > dev:
        return target, -1
    return dev, pattern


def _missing_pattern(space: SampleSpace, mask: int, bits: tuple[int, ...]) -> int:
    present = set(int(p) for p in np.unique(space.points & mask))
    for index in range(1 << len(bits)):
        candidate = 0
        for j, bit in enumerate(bits):
            if (index >> j) & 1:
                candidate |= 1 << bit
        if candidate not in present:
            return candidate
    raise AssertionError("no pattern is missing")


def marginal_check(dist: Distribution, k: int) -> MarginalReport:
    """Brute-force oracle over every coordinate set of size <= k.

    Returns the largest deviation from uniformity and a witness restriction.
    """
    n = dist.n
    if not 0 <= k <= n:
        raise ValueError(f"k must be in 0..{n}, got {k}")
    if k > 0 and math.comb(n, k) * (1 << k) > MARGINAL_WORK_GUARD:
        raise ResourceLimitError(
            f"marginal check at n={n}, k={k} exceeds the work guard"
        )
    space = dist.space
    worst = (0.0, (), ())
    for size in range(1, k + 1):
        for combo in combinations(range(n), size):
            bits = tuple(n - 1 - c for c in combo)
            mask = 0
            for b in bits:
                mask |= 1 << b
            dev, pattern = _subset_deviation(space, mask, size)
            if dev > worst[0]:
                if pattern < 0:
                    pattern = _missing_pattern(space, mask, bits)
                coords = tuple(c + 1 for c in combo)
                values = tuple((pattern >> b) & 1 for b in bits)
                worst = (dev, coords, values)
    return MarginalReport(n, k, worst[0], worst[1], worst[2])


def marginal_order(dist: Distribution, tol: float = DEFAULT_COEFF_TOL) -> int:
    """Largest k passing the marginal oracle; scans level by level."""
    n = dist.n
    space = dist.space
    order = 0
    for size in range(1, n + 1):
        if math.comb(n, size) * (1 << size) > MARGINAL_WORK_GUARD:
            raise ResourceLimitError(
                f"marginal order scan at n={n}, size={size} exceeds the work guard"
            )
        level_ok = True
        for combo in combinations(range(n), size):
            mask = 0
            for c in combo:
                mask |= 1 << (n - 1 - c)
            dev, _ = _subset_deviation(space, mask, size)
            if dev > tol:
                level_ok = False
                break
        if not level_ok:
            break
        order = size
    return order
