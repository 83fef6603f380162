"""Top eigenvalue of the cube adjacency restricted to a Hamming ball.

A radius-r ball around 0^n is invariant under coordinate permutations, so
the restricted adjacency collapses onto weight classes.  Acting on a radial
profile h(0..r):

    (T h)(w) = w * h(w - 1) + (n - w) * h(w + 1),    h(r + 1) = 0.

Scaling by sqrt(C(n, w)) makes T similar to the symmetric tridiagonal with
zero diagonal and off-diagonal entries sqrt((w + 1)(n - w)); the power
iteration runs there.  The restriction is bipartite (weights alternate
parity), so the spectrum is symmetric about zero and plain iteration would
oscillate between the +/- extreme eigenvectors; a +n shift makes the
dominant eigenvalue unique while keeping the same eigenvector.

The dense oracle repeats the computation on the full 2^n space and exists
to check the radial collapse, never to replace it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .cube import Density, check_dimension, subset_sizes
from .errors import DimensionError

DENSE_ORACLE_MAX_N = 14
DEFAULT_RAYLEIGH_TOL = 1e-12
DEFAULT_RESIDUAL_TOL = 1e-9
MAX_POWER_ITERATIONS = 10**6


@dataclass(frozen=True, eq=False)
class RadialOperator:
    """Weight-collapsed ball adjacency: sub[w-1] = w, sup[w] = n - w."""

    n: int
    r: int
    sub: np.ndarray
    sup: np.ndarray

    @classmethod
    def build(cls, n: int, r: int) -> "RadialOperator":
        sub = np.arange(1, r + 1, dtype=np.float64)
        sup = n - np.arange(0, r, dtype=np.float64)
        return cls(n, r, sub, sup)

    def apply(self, h: np.ndarray) -> np.ndarray:
        out = np.zeros(self.r + 1)
        if self.r > 0:
            out[1:] += self.sub * h[:-1]
            out[:-1] += self.sup * h[1:]
        return out

    def symmetrized_offdiagonal(self) -> np.ndarray:
        """sqrt(sub * sup) entrywise: sqrt((w + 1)(n - w)) for w = 0..r-1."""
        return np.sqrt(self.sub * self.sup)


@dataclass(eq=False)
class BallSpectrum:
    """Perron data of the ball-restricted adjacency.

    radial_profile holds the positive eigenfunction by weight class, scaled
    to maximum 1; density() lifts it to a mean-1 cube density supported on
    the ball (only possible below the cube dimension cap).
    """

    n: int
    r: int
    lam: float
    radial_profile: np.ndarray
    iterations: int
    residual: float
    _density: Density | None = field(default=None, repr=False, compare=False)

    def density(self) -> Density:
        if self._density is None:
            check_dimension(self.n)
            padded = np.zeros(self.n + 1)
            padded[: self.r + 1] = self.radial_profile
            vals = padded[subset_sizes(self.n)]
            self._density = Density(self.n, vals / vals.mean())
        return self._density

    def as_dict(self) -> dict:
        """The spectra report row: the eigenvalue next to its leading term."""
        return {
            "n": self.n,
            "r": self.r,
            "lambda": self.lam,
            "asymptotic_lambda": asymptotic_lambda(self.n, self.r),
            "iterations": self.iterations,
            "residual": self.residual,
        }


def _log_binomials(n: int, r: int) -> np.ndarray:
    lg = math.lgamma
    return np.array(
        [lg(n + 1) - lg(w + 1) - lg(n - w + 1) for w in range(r + 1)]
    )


def lambda_ball(
    n: int,
    r: int,
    tol: float = DEFAULT_RAYLEIGH_TOL,
    residual_tol: float = DEFAULT_RESIDUAL_TOL,
    max_iterations: int = MAX_POWER_ITERATIONS,
) -> BallSpectrum:
    """Top Rayleigh quotient over functions supported on the radius-r ball.

    Shifted power iteration on the symmetrized radial operator; converges
    when successive Rayleigh quotients differ by less than tol and the
    eigen-residual is below residual_tol.  Hitting the iteration cap is not
    an error: the residual field reports how far the run got.
    """
    if n < 1:
        raise ValueError(f"dimension must be positive, got {n}")
    if not 0 <= r <= n:
        raise ValueError(f"radius {r} outside 0..{n}")
    operator = RadialOperator.build(n, r)
    off = operator.symmetrized_offdiagonal()
    dim = r + 1
    u = np.full(dim, 1.0 / math.sqrt(dim))
    shift = float(n)
    lam, resid, prev = 0.0, math.inf, math.inf
    iterations = 0
    for iterations in range(1, max_iterations + 1):
        su = np.zeros(dim)
        if r > 0:
            su[:-1] += off * u[1:]
            su[1:] += off * u[:-1]
        lam = float(u @ su)
        resid = float(np.linalg.norm(su - lam * u))
        if abs(lam - prev) < tol and resid <= residual_tol:
            break
        prev = lam
        v = su + shift * u
        u = v / np.linalg.norm(v)
    if u[int(np.argmax(np.abs(u)))] < 0:
        u = -u
    log_profile = np.log(np.maximum(u, 1e-300)) - 0.5 * _log_binomials(n, r)
    profile = np.exp(log_profile - log_profile.max())
    return BallSpectrum(n, r, lam, profile, iterations, resid)


def lambda_ball_dense_oracle(
    n: int,
    r: int,
    tol: float = 1e-13,
    residual_tol: float = DEFAULT_RESIDUAL_TOL,
    max_iterations: int = 200_000,
) -> float:
    """Same eigenvalue, computed on the full 2^n space (verification only).

    Each step applies the cube adjacency and zeroes everything outside the
    ball, with the same +n shift as the radial path.
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
    for _ in range(max_iterations):
        ax = np.zeros(size)
        for i in range(n):
            ax += x[idx ^ (1 << i)]
        ax[~inside] = 0.0
        lam = float(x @ ax)
        resid = float(np.linalg.norm(ax - lam * x))
        if abs(lam - prev) < tol and resid <= residual_tol:
            break
        prev = lam
        v = ax + n * x
        x = v / np.linalg.norm(v)
    return lam


def min_radius(n: int, k: int) -> int:
    """Smallest r with lambda(ball of radius r) >= n - 2k + 1.

    Linear scan from 0; the eigenvalue is monotone in r because the balls
    are nested, and r = n always satisfies the condition for k >= 1.
    """
    if not 1 <= k <= n + 1:
        raise ValueError(f"k must be in 1..{n + 1}, got {k}")
    threshold = n - 2 * k + 1
    for r in range(n + 1):
        lam = 0.0 if r == 0 else lambda_ball(n, r).lam
        if lam >= threshold - 1e-9:
            return r
    raise RuntimeError(
        f"no radius satisfies the eigenvalue condition at n={n}, k={k}"
    )


def predicted_radius(n: int, k: int) -> float:
    """Leading-order radius n/2 - sqrt(k(n - k)); report-only."""
    return n / 2.0 - math.sqrt(k * (n - k))


def asymptotic_lambda(n: int, r: int) -> float:
    """Leading term 2 sqrt(r(n - r)) of the ball eigenvalue; report-only.

    Never asserted against the computed value at finite n: the correction
    term is unquantified, so only the exact eigenvalue certifies anything.
    """
    return 2.0 * math.sqrt(r * (n - r))
