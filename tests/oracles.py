"""Independent slow routes that the tests check the fast paths against.

No command, script or chain runs these.  Each repeats one fast computation
of the package by a different method:

- lambda_ball_dense_oracle: the ball eigenvalue by power iteration on the
  full 2^n space, against the radial bisection (balls.lambda_ball);
- dense_ball_density and dense_eigen_margin: the ball density lifted to the
  cube and divided by its mean, its butterfly spectrum, its largest
  lam d - A d through adjacency_apply and its entropy through
  bounds.shannon_from_density, against the radial density
  (balls.BallSpectrum.density, a cube.Radial) that the chain reads by
  weight class;
- convolve_direct: convolution by literal summation, against the spectral
  product (cube.convolve);
- level_max_abs_scatter: the largest |coeff(S)| per level by one scatter
  maximum, against the row and column grouping of cube.level_max_abs;
- marginal_check: every marginal of every coordinate set up to a size,
  each subset reading every support point, against the spectral
  independence order (kwise.independence_order) and the lattice of partial
  marginals (kwise.marginal_order);
- renyi2_from_density: collision entropy through the density, against the
  space path (bounds.renyi2_entropy);
- smooth and verify_smoothing: the four facts the smoothing chain rests on,
  each by a route the chain does not take;
- space_text_by_line: a sample space file formatted one line at a time,
  against the byte grid of codes.SampleSpace.to_text;
- density_from_points, coset_gather and values_of: a space's density as
  2^n values written at its points, and a table on a code's cosets gathered
  to the cube by syndrome, against the density on the code's cosets
  (cube._Cosets), whose own values are the inverse butterfly of its
  spectrum.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import combinations, islice

import numpy as np

from kwisent import kwise
from kwisent.balls import BallSpectrum
from kwisent.bounds import shannon_entropy, shannon_from_density
from kwisent.codes import SampleSpace
from kwisent.cube import (
    CubeFunction,
    _Cosets,
    _xor_span,
    Spectrum,
    _fwht,
    _same_dimension,
    adjacency_apply,
    check_dimension,
    level_max_abs,
    subset_sizes,
)
from kwisent.errors import DimensionError, ResourceLimitError
from kwisent.smoothing import _smoothed_density
from kwisent.tolerances import (
    CONVOLUTION_POINTWISE,
    EIGEN_RESIDUAL,
    ENTROPY_SLACK,
    MARGINAL_ZERO,
)

DENSE_ORACLE_MAX_N = 14
DENSE_ORACLE_MAX_ITERATIONS = 200_000

ORACLE_RAYLEIGH_STEP = 1e-13
"""Change of the Rayleigh quotient between two steps of
lambda_ball_dense_oracle below which it may stop, once EIGEN_RESIDUAL also
holds.

A stopping rule, not an error bound.  It is ten times stricter than
tolerances.RAYLEIGH_STEP, so the oracle settles at least as far as the path
it checks.
"""

MARGINAL_BLOCK_ELEMENTS = 1 << 14
"""Most (subset, point) pairs one bincount of _level_deviations reads."""

DIRECT_CONVOLUTION_WORK = 1 << 28
"""Largest |supp f| * 2^n, the multiply-adds of convolve_direct, for which
verify_smoothing runs it: about 0.3 s at the Hamming code of length 15
(2^26); a 2^16-point input at n = 20 (2^36) would take minutes."""

PRUNE_RELATIVE = 1e-12
"""Share of a density's maximum at or below which a value counts as zero
when a density is turned back into a sample space (from_density, used by
smooth).

Modelling threshold: it separates the rounding noise left on exact zeros
(pointwise errors of CONVOLUTION_POINTWISE's size) from real mass.  A
dropped value carries probability at most 1e-12 max f / 2^n, so the mass
dropped in all is at most 1e-12 max f.
"""


def lambda_ball_dense_oracle(n: int, r: int) -> float:
    """The top eigenvalue of the radius-r ball, computed on the full 2^n space.

    Each step applies the cube adjacency and zeroes everything outside the
    ball, with the same +n shift as the radial power iteration; it stops on
    ORACLE_RAYLEIGH_STEP and EIGEN_RESIDUAL.
    """
    if n > DENSE_ORACLE_MAX_N:
        raise DimensionError(f"dense oracle is capped at n={DENSE_ORACLE_MAX_N}")
    check_dimension(n)
    if not 0 <= r <= n:
        raise ValueError(f"radius {r} outside 0..{n}")
    size = 1 << n
    inside = subset_sizes(n) <= r
    idx = np.arange(size)
    x = inside.astype(np.float64)
    x /= np.linalg.norm(x)
    lam, prev = 0.0, math.inf
    for _ in range(DENSE_ORACLE_MAX_ITERATIONS):
        ax = np.zeros(size)
        for i in range(n):
            ax += x[idx ^ (1 << i)]
        ax[~inside] = 0.0
        lam = float(x @ ax)
        resid = float(np.linalg.norm(ax - lam * x))
        if abs(lam - prev) < ORACLE_RAYLEIGH_STEP and resid <= EIGEN_RESIDUAL:
            break
        prev = lam
        v = ax + n * x
        x = v / np.linalg.norm(v)
    return lam


def dense_ball_density(ball: BallSpectrum) -> CubeFunction:
    """The ball's eigenfunction lifted to every mask by its weight
    (subset_sizes) and divided by its numpy mean; its spectrum is the
    butterfly's."""
    check_dimension(ball.n)
    padded = np.zeros(ball.n + 1)
    padded[: ball.r + 1] = ball.radial_profile
    vals = padded[subset_sizes(ball.n)]
    vals /= vals.mean()
    return CubeFunction(ball.n, vals)


def dense_eigen_margin(ball: BallSpectrum, d: CubeFunction) -> float:
    """max over the cube of lam d - A d, with A d from adjacency_apply."""
    return float(np.max(ball.lam * d.values - adjacency_apply(d).values))


def convolve_direct(f: CubeFunction, g: CubeFunction) -> CubeFunction:
    """Convolution by literal summation over the support of f.

    O(|supp f| * 2^n); the transform-free reference path.
    """
    _same_dimension(f, g)
    out = np.zeros(f.size)
    idx = np.arange(f.size)
    fv, gv = f.values, g.values
    for y in np.flatnonzero(fv):
        out += fv[y] * gv[idx ^ y]
    out /= f.size
    return CubeFunction(f.n, out)


def level_max_abs_scatter(s: Spectrum) -> np.ndarray:
    """Largest |coeff(S)| per level |S|, each coefficient sent to its level
    by np.maximum.at."""
    out = np.zeros(s.n + 1)
    np.maximum.at(out, subset_sizes(s.n), np.abs(s.coeffs))
    return out


def renyi2_from_density(density: CubeFunction) -> float:
    """Collision entropy as n - log2 E[f^2]; must agree with the space path."""
    mean_sq = float((values_of(density) ** 2).mean())
    return density.n - math.log2(mean_sq)


def from_density(density: CubeFunction) -> SampleSpace:
    """The distribution of a density, dropping the values at most
    PRUNE_RELATIVE of the largest."""
    vals = values_of(density)
    points = np.flatnonzero(vals > PRUNE_RELATIVE * vals.max())
    probs = vals[points]
    return SampleSpace(density.n, points, probs / probs.sum())


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
    2^size).  marginal_check refuses a level whose C(n, size) 2^size bins
    are more than kwise.MARGINAL_WORK_GUARD, so 2^size <= MARGINAL_WORK_GUARD,
    and both constants are below 2^53.  Every partial sum is then an integer
    that float64 holds exactly, in any summation order, and the cast to intp
    is exact.
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


def marginal_check(space: SampleSpace, k: int) -> float:
    """Brute-force oracle: the largest deviation from uniformity over every
    coordinate set of size <= k (0.0 when k = 0), scanned level by level,
    each subset reading every support point (_level_deviations).

    Refused when any level 1..k has more bins than kwise.MARGINAL_WORK_GUARD:
    the level bins peak near size 2n/3, not at k.
    """
    n = space.n
    if not 0 <= k <= n:
        raise ValueError(f"k must be in 0..{n}, got {k}")
    if any(kwise.level_bins(n, size) > kwise.MARGINAL_WORK_GUARD for size in range(1, k + 1)):
        raise ResourceLimitError(
            f"marginal check at n={n}, k={k} exceeds the work guard"
        )
    columns = _bit_columns(space)
    worst = 0.0
    for size in range(1, k + 1):
        for devs in _level_deviations(space, columns, size):
            worst = max(worst, float(devs.max()))
    return worst


def smooth(x: SampleSpace, ball: BallSpectrum) -> SampleSpace:
    """Z = X xor Y for Y distributed as the ball eigenfunction density.

    The density of Z is the convolution of the two densities; radius 0
    returns X itself (the point mass is the convolution identity).
    """
    return from_density(_smoothed_density(x.density, ball.density()))


@dataclass(frozen=True)
class SmoothingReport:
    """Outcome of the four smoothing sanity checks; failures are entries."""

    n: int
    radius: int
    order_before: int
    order_after: int
    order_preserved: bool
    entropy_subadditive: bool
    convolution_matches: bool
    spectrum_matches: bool
    shannon_x: float
    shannon_y: float
    shannon_z: float
    max_convolution_error: float | None
    marginal_deviation: float | None
    spectrum_error: float
    butterfly_order: int

    @property
    def all_passed(self) -> bool:
        return (
            self.order_preserved
            and self.entropy_subadditive
            and self.convolution_matches
            and self.spectrum_matches
        )


def verify_smoothing(x: SampleSpace, ball: BallSpectrum) -> SmoothingReport:
    """Check the four facts the smoothing step relies on.

    (a) the independence order does not drop (coefficients multiply, so
    zeros stay zeros), confirmed by the marginal oracle on Z, within
    MARGINAL_ZERO, when its work (kwise.level_cost, which counts Z's
    support) fits kwise.MARGINAL_WORK_LIMIT;
    (b) H(X) + H(Y) >= H(Z) within ENTROPY_SLACK; (c) the spectral
    convolution agrees with the literal double sum pointwise, within
    CONVOLUTION_POINTWISE, when its work fits DIRECT_CONVOLUTION_WORK
    (max_convolution_error is None when it does not);
    (d) the spectrum the smoothed density g keeps agrees in 2-norm with
    route, the forward butterfly of g's values over 2^n (the route the
    chain no longer takes), within (2n + 3) u ||route||_2, u = 2^-53; and
    the order that route reads (levels at most COEFF_ZERO) is at least X's.

    The bound of (d), for a g that keeps the convolution's product P over
    the mean m of its values: write H for the 2^n x 2^n sign matrix, so
    H H = 2^n I and H / 2^(n/2) is orthogonal.  The butterfly runs n
    stages, each 2^(1/2) times an orthogonal map, and rounds each sum once,
    so it computes H v within ((1 + u)^n - 1) 2^(n/2) ||v||_2.  g's values
    are fl(fl(H P) / m): H P / m, off by about n u 2^(n/2) ||P / m||_2 from
    the butterfly and u ||g||_2 from the division.  H / 2^n shrinks 2-norms
    by 2^(n/2), and ||g||_2 = 2^(n/2) ||P / m||_2 to first order
    (Plancherel), so the exact spectrum of g is P / m within
    (n + 1) u ||P / m||_2.  The kept fl(P / m) adds u ||P / m||_2 and the
    butterfly of route n u ||P / m||_2: (2n + 2) u ||P / m||_2 in all, to
    first order.  The extra u covers the O(n^2 u^2) terms and the gap
    between ||route||_2 and ||P / m||_2 for n <= 26.  A g whose clip
    changed a value keeps no product: its spectrum is route, bit for bit,
    on the dense route; on a code's 2^m cosets it is the butterfly of g's
    table over 2^m, whose m stages and route's n each round once, so it is
    within (n + m) u ||route||_2 of route, inside the same bound.
    """
    d = ball.density()
    g = _smoothed_density(x.density, d)
    z = from_density(g)
    order_before = kwise.independence_order(x)
    order_after = kwise.independence_order(z)
    order_ok = order_after >= order_before
    marginal_dev = None
    if order_before >= 1 and kwise.marginal_affordable(z, order_before):
        marginal_dev = marginal_check(z, order_before)
        order_ok = order_ok and marginal_dev <= MARGINAL_ZERO
    h_x = shannon_entropy(x)
    h_y = shannon_from_density(d)
    h_z = shannon_from_density(z.density)
    err = None
    if x.support_size << x.n <= DIRECT_CONVOLUTION_WORK:
        direct = convolve_direct(x.density, d)
        err = float(np.max(np.abs(z.density.values - direct.values)))
    route = _fwht(values_of(g)) / g.size
    spectrum_err = float(np.linalg.norm(g.spectrum.coeffs - route))
    spectrum_tol = (2 * x.n + 3) * (np.finfo(np.float64).eps / 2) * float(np.linalg.norm(route))
    butterfly_order = kwise.order_from_levels(level_max_abs(Spectrum(x.n, route)))
    return SmoothingReport(
        n=x.n,
        radius=ball.r,
        order_before=order_before,
        order_after=order_after,
        order_preserved=order_ok,
        entropy_subadditive=h_z <= h_x + h_y + ENTROPY_SLACK,
        convolution_matches=err is None or err <= CONVOLUTION_POINTWISE,
        spectrum_matches=spectrum_err <= spectrum_tol and butterfly_order >= order_before,
        shannon_x=h_x,
        shannon_y=h_y,
        shannon_z=h_z,
        max_convolution_error=err,
        marginal_deviation=marginal_dev,
        spectrum_error=spectrum_err,
        butterfly_order=butterfly_order,
    )


def space_text_by_line(space: SampleSpace) -> str:
    """'n=<n>', then one f-string '<bitstring> <repr(probability)>' per point."""
    rows = zip(space.points.tolist(), space.probabilities.tolist())
    return f"n={space.n}\n" + "".join(f"{p:0{space.n}b} {q!r}\n" for p, q in rows)


def density_from_points(space: SampleSpace) -> CubeFunction:
    """space's density as 2^n values: 2^n times the probability at each
    point, over the mean, with no spectrum kept."""
    vals = np.zeros(1 << space.n)
    vals[space.points] = space.probabilities * (1 << space.n)
    return CubeFunction(space.n, vals / vals.mean())


def coset_gather(f: _Cosets, table: np.ndarray) -> np.ndarray:
    """table[sigma(x)] for every mask x: a table on f's cosets at each mask,
    sigma(x) the XOR of the syndromes c_i over the bits i of x."""
    return table[_xor_span(f.syndromes)]


def values_of(f: CubeFunction) -> np.ndarray:
    """f's values: on a code's cosets, its table gathered to the cube."""
    return coset_gather(f, f.table) if isinstance(f, _Cosets) else f.values
