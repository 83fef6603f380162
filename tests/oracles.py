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
  against the spectral independence order (kwise.independence_order);
- renyi2_from_density: collision entropy through the density, against the
  space path (bounds.renyi2_entropy);
- smooth and verify_smoothing: the three facts the smoothing chain rests on,
  each by a route the chain does not take;
- space_text_by_line: a sample space file formatted one line at a time,
  against the byte grid of codes.SampleSpace.to_text.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from kwisent import kwise
from kwisent.balls import BallSpectrum
from kwisent.bounds import shannon_entropy, shannon_from_density
from kwisent.codes import SampleSpace
from kwisent.cube import (
    CubeFunction,
    Density,
    Spectrum,
    _same_dimension,
    adjacency_apply,
    check_dimension,
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


def dense_ball_density(ball: BallSpectrum) -> Density:
    """The ball's eigenfunction lifted to every mask by its weight
    (subset_sizes) and divided by its numpy mean; its spectrum is the
    butterfly's."""
    check_dimension(ball.n)
    padded = np.zeros(ball.n + 1)
    padded[: ball.r + 1] = ball.radial_profile
    vals = padded[subset_sizes(ball.n)]
    vals /= vals.mean()
    return Density(ball.n, vals)


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


def renyi2_from_density(density: Density) -> float:
    """Collision entropy as n - log2 E[f^2]; must agree with the space path."""
    mean_sq = float((density.values**2).mean())
    return density.n - math.log2(mean_sq)


def from_density(density: Density) -> SampleSpace:
    """The distribution of a density, dropping the values at most
    PRUNE_RELATIVE of the largest."""
    vals = density.values
    points = np.flatnonzero(vals > PRUNE_RELATIVE * vals.max())
    probs = vals[points]
    return SampleSpace(density.n, points, probs / probs.sum())


def marginal_check(space: SampleSpace, k: int) -> float:
    """Brute-force oracle: the largest deviation from uniformity over every
    coordinate set of size <= k (0.0 when k = 0).

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
    columns = kwise._bit_columns(space)
    worst = 0.0
    for size in range(1, k + 1):
        for devs in kwise._level_deviations(space, columns, size):
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
    """Outcome of the three smoothing sanity checks; failures are entries."""

    n: int
    radius: int
    order_before: int
    order_after: int
    order_preserved: bool
    entropy_subadditive: bool
    convolution_matches: bool
    shannon_x: float
    shannon_y: float
    shannon_z: float
    max_convolution_error: float
    marginal_deviation: float | None

    @property
    def all_passed(self) -> bool:
        return self.order_preserved and self.entropy_subadditive and self.convolution_matches


def verify_smoothing(x: SampleSpace, ball: BallSpectrum) -> SmoothingReport:
    """Check the three facts the smoothing step relies on.

    (a) the independence order does not drop (coefficients multiply, so
    zeros stay zeros), confirmed by the marginal oracle on Z, within
    MARGINAL_ZERO, when its work (kwise.level_cost, which counts Z's
    support) fits kwise.MARGINAL_WORK_LIMIT;
    (b) H(X) + H(Y) >= H(Z) within ENTROPY_SLACK; (c) the spectral
    convolution agrees with the literal double sum pointwise, within
    CONVOLUTION_POINTWISE.
    """
    z = smooth(x, ball)
    d = ball.density()
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
    direct = convolve_direct(x.density, d)
    err = float(np.max(np.abs(z.density.values - direct.values)))
    return SmoothingReport(
        n=x.n,
        radius=ball.r,
        order_before=order_before,
        order_after=order_after,
        order_preserved=order_ok,
        entropy_subadditive=h_z <= h_x + h_y + ENTROPY_SLACK,
        convolution_matches=err <= CONVOLUTION_POINTWISE,
        shannon_x=h_x,
        shannon_y=h_y,
        shannon_z=h_z,
        max_convolution_error=err,
        marginal_deviation=marginal_dev,
    )


def space_text_by_line(space: SampleSpace) -> str:
    """'n=<n>', then one f-string '<bitstring> <repr(probability)>' per point."""
    rows = zip(space.points.tolist(), space.probabilities.tolist())
    return f"n={space.n}\n" + "".join(f"{p:0{space.n}b} {q!r}\n" for p, q in rows)
