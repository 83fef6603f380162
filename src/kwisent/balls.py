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

The smoothing radius needs no eigenvalue at all.  Whether the top
eigenvalue of the radius-r ball reaches an integer x is decided exactly by
the leading principal minors p_0..p_{r+1} of xI - T: the off-diagonal
squares (w + 1)(n - w) are integers, so the minors are integers from the
three-term recurrence, and xI - T is positive definite, i.e. x lies above
every eigenvalue, exactly when all of them are positive (Sturm sequence /
LDL inertia; Golub & Van Loan, section 8.4).  min_radius runs that
recurrence once in Python integers, with no tolerance.

The dense oracle repeats the computation on the full 2^n space and exists
to check the radial collapse, never to replace it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .cube import Density, check_dimension, subset_sizes
from .errors import DimensionError
from .tolerances import EIGEN_RESIDUAL, LOG_FLOOR, ORACLE_RAYLEIGH_STEP, RAYLEIGH_STEP

DENSE_ORACLE_MAX_N = 14
MAX_POWER_ITERATIONS = 10**6
DENSE_ORACLE_MAX_ITERATIONS = 200_000
# Cap on rows x n^2 for a table of ball eigenvalues.  One power iteration
# costs about 0.2-0.35 us per n^2 at large n (lambda_ball(4096, 2048) takes
# 3.1 s on a 2-vCPU x86 host), so a table at the cap runs for about a minute.
SPECTRA_WORK_GUARD = 2 * 10**8


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


def lambda_ball(n: int, r: int) -> BallSpectrum:
    """Top Rayleigh quotient over functions supported on the radius-r ball.

    Shifted power iteration on the symmetrized radial operator, whose
    off-diagonal entries are sqrt((w + 1)(n - w)) for w = 0..r-1; converges
    when successive Rayleigh quotients differ by less than RAYLEIGH_STEP and
    the eigen-residual is at most EIGEN_RESIDUAL.  Hitting
    MAX_POWER_ITERATIONS is not an error: the residual field reports how far
    the run got.
    """
    if n < 1:
        raise ValueError(f"dimension must be positive, got {n}")
    if not 0 <= r <= n:
        raise ValueError(f"radius {r} outside 0..{n}")
    w = np.arange(r, dtype=np.float64)
    off = np.sqrt((w + 1) * (n - w))  # exact integer products under the root
    dim = r + 1
    u = np.full(dim, 1.0 / math.sqrt(dim))
    shift = float(n)
    lam, resid, prev = 0.0, math.inf, math.inf
    iterations = 0
    for iterations in range(1, MAX_POWER_ITERATIONS + 1):
        su = np.zeros(dim)
        if r > 0:
            su[:-1] += off * u[1:]
            su[1:] += off * u[:-1]
        lam = float(u @ su)
        resid = float(np.linalg.norm(su - lam * u))
        if abs(lam - prev) < RAYLEIGH_STEP and resid <= EIGEN_RESIDUAL:
            break
        prev = lam
        v = su + shift * u
        u = v / np.linalg.norm(v)
    if u[int(np.argmax(np.abs(u)))] < 0:
        u = -u
    log_profile = np.log(np.maximum(u, LOG_FLOOR)) - 0.5 * _log_binomials(n, r)
    profile = np.exp(log_profile - log_profile.max())
    return BallSpectrum(n, r, lam, profile, iterations, resid)


def lambda_ball_dense_oracle(n: int, r: int) -> float:
    """Same eigenvalue, computed on the full 2^n space (verification only).

    Each step applies the cube adjacency and zeroes everything outside the
    ball, with the same +n shift as the radial path; it stops on
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


def min_radius(n: int, k: int) -> int:
    """Smallest r with lambda(ball of radius r) >= x = n - 2k + 1, exactly.

    p_j = det(xI - T) on the radius-(j - 1) ball obeys p_0 = 1, p_1 = x,
    p_{j+1} = x p_j - j (n - j + 1) p_{j-1}, all in Python integers.  The
    balls are nested, so the first j with p_j <= 0 is the first radius
    j - 1 whose xI - T is not positive definite, i.e. whose top eigenvalue
    is >= x; a zero minor is an exact tie and counts as reached.  The loop
    ends by j = n + 1, since the whole cube has eigenvalue n > x.
    """
    if not 1 <= k <= n + 1:
        raise ValueError(f"k must be in 1..{n + 1}, got {k}")
    x = n - 2 * k + 1
    prev, p, j = 1, x, 1
    while p > 0:
        prev, p = p, x * p - j * (n - j + 1) * prev
        j += 1
    return j - 1


def predicted_radius(n: int, k: int) -> float:
    """Leading-order radius n/2 - sqrt(k(n - k)); report-only."""
    return n / 2.0 - math.sqrt(k * (n - k))


def asymptotic_lambda(n: int, r: int) -> float:
    """Leading term 2 sqrt(r(n - r)) of the ball eigenvalue; report-only.

    Never asserted against the computed value at finite n: the correction
    term is unquantified, so only the exact eigenvalue certifies anything.
    """
    return 2.0 * math.sqrt(r * (n - r))
