"""Top eigenvalue of the cube adjacency restricted to a Hamming ball.

A radius-r ball around 0^n is invariant under coordinate permutations, so
the restricted adjacency collapses onto weight classes.  Acting on a radial
profile h(0..r):

    (T h)(w) = w * h(w - 1) + (n - w) * h(w + 1),    h(r + 1) = 0.

Scaling by sqrt(C(n, w)) makes T similar to the symmetric tridiagonal with
zero diagonal and off-diagonal entries sqrt((w + 1)(n - w)), whose squares
j (n - j + 1), j = 1..r, are integers.

The eigenvalue comes from the LDL^T pivots of xI - T, d_0 = x and
d_j = x - j (n - j + 1) / d_{j-1}: x lies above every eigenvalue exactly when
all pivots are positive (Sturm sequence / LDL inertia; Golub & Van Loan,
section 8.4).  The balls are nested, so the radius-r pivots are the first
r + 1 pivots of every larger ball.

- At an integer x the pivots are ratios of the integer leading minors
  p_0 = 1, p_1 = x, p_{j+1} = x p_j - j (n - j + 1) p_{j-1}, so their signs
  are decided exactly, in Python integers.  min_radius needs nothing else,
  and lambda_ball uses them to decide an integer eigenvalue exactly.
- lambda_ball bisects on the signs of the float pivots.  Each computed pivot
  is the exact pivot, up to a factor 1 + O(u), of a matrix whose off-diagonal
  squares are changed by at most 2u relative (u = 2^-53; Kahan 1966; Demmel,
  *Applied Numerical Linear Algebra*, section 5.3), so the float decisions
  are exact for that matrix.  It equals D T D for a diagonal D within r u
  of the identity, so its eigenvalues are within about 2 r u relative of
  T's (Ostrowski).  The squares are exact in floats for n below 1.8 * 10^8.

The Perron eigenvector, which only the smoothing chain reads, still comes
from a power iteration, run on first use.  The dense oracle in
tests/oracles.py repeats the computation on the full 2^n space and exists to
check the radial collapse, never to replace it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .cube import Radial
from .tolerances import EIGEN_RESIDUAL, LOG_FLOOR, RAYLEIGH_STEP

MAX_POWER_ITERATIONS = 10**6
# Cap on rows x n^2 for a table of ball eigenvalues.  A row costs about 53
# bisection steps of r float pivots each, about 60 ns per pivot on a 2-vCPU
# x86 host (lambda_ball(4096, 2048) takes about 10 ms), so a table under the
# cap computes for at most about 0.6 s: spectra --n 584 (all 585 rows) takes
# 0.5 s and spectra --n 1000 --r 800..999 (200 rows, at the cap) 0.6 s.
SPECTRA_WORK_GUARD = 2 * 10**8


@dataclass(eq=False)
class BallSpectrum:
    """Top eigenvalue of the ball-restricted adjacency, with the Perron
    eigenvector on demand.

    lam is the lower end of the bisection's final bracket (lambda_ball): within
    about 2 r u relative of the top eigenvalue, on either side, so it is not a
    certified lower bound.  iterations counts the bisection steps and residual
    is the width of the final bracket, 0.0 when lam is an integer decided
    exactly.
    radial_profile holds the positive eigenfunction by weight class, scaled
    to maximum 1, computed on first read; density() scales it to a mean-1
    radial density supported on the ball (cube.Radial, only possible below
    the cube dimension cap), whose spectrum comes from exact Krawtchouk sums
    and whose dense values are built only if read.  Its profile is
    nonnegative and its correctly rounded mean within 3 u of 1, by
    construction, so neither is checked again (TOTAL_MASS).
    """

    n: int
    r: int
    lam: float
    iterations: int
    residual: float

    @cached_property
    def radial_profile(self) -> np.ndarray:
        return _perron_profile(self.n, self.r)

    def density(self) -> Radial:
        padded = np.zeros(self.n + 1)
        padded[: self.r + 1] = self.radial_profile
        padded /= Radial(self.n, padded).level_spectrum[0]  # the mean, correctly rounded
        return Radial(self.n, padded)

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


def _first_nonpositive_minor(n: int, x: int, stop: int) -> tuple[int, int]:
    """(j, p_{j+1}(x)) for the first radius j <= stop whose minor is <= 0,
    or j = stop if there is none before it; exact, in Python integers."""
    prev, p, j = 1, x, 0
    while p > 0 and j < stop:
        j += 1
        prev, p = p, x * p - j * (n - j + 1) * prev
    return j, p


def _above_spectrum(x: float, squares: list[float]) -> bool:
    """Whether the float pivots d_0 = x > 0, d_j = x - squares[j-1] / d_{j-1}
    are all positive."""
    d = x
    for square in squares:
        d = x - square / d
        if d <= 0.0:
            return False
    return True


def lambda_ball(n: int, r: int) -> BallSpectrum:
    """Top eigenvalue of the radius-r ball, by bisection on the pivot signs.

    The bracket starts at [0, n] and keeps lo not above the spectrum and hi
    above it until the two are adjacent floats; lam is lo, the lower end of
    that bracket.  The float pivots decide for a matrix near T, not for T, so
    lo is within about 2 r u relative of the eigenvalue on either side (module
    docstring): over n <= 40 it is one ulp above the eigenvalue in 50 of the
    747 non-integer cases.  Consumers do not rely on its side: the check line
    eigenvalue_threshold allows EIGEN_RESIDUAL, and min_radius decides the
    radius exactly.  The integer nearest lo is then decided exactly: when its
    minors show it is the top eigenvalue (the first non-positive minor is
    p_{r+1} = 0), lam is that integer, so lambda_ball(n, n) is n and
    lambda_ball(n, 0) is 0.
    """
    if n < 1:
        raise ValueError(f"dimension must be positive, got {n}")
    if not 0 <= r <= n:
        raise ValueError(f"radius {r} outside 0..{n}")
    squares = [float(j * (n - j + 1)) for j in range(1, r + 1)]
    lo, hi, steps = 0.0, float(n), 0
    while r and lo < (mid := 0.5 * (lo + hi)) < hi:
        steps += 1
        if _above_spectrum(mid, squares):
            hi = mid
        else:
            lo = mid
    nearest = round(lo)
    if _first_nonpositive_minor(n, nearest, r) == (r, 0):
        return BallSpectrum(n, r, float(nearest), steps, 0.0)
    return BallSpectrum(n, r, lo, steps, hi - lo)


def _perron_profile(n: int, r: int) -> np.ndarray:
    """Positive top eigenvector of the radius-r ball by weight class, max 1.

    Power iteration on the symmetric form.  The restriction is bipartite
    (weights alternate parity), so the spectrum is symmetric about zero and
    plain iteration would oscillate between the +/- extreme eigenvectors; a
    +n shift makes the dominant eigenvalue unique while keeping the same
    eigenvector.  The iterate starts positive and T + nI has no negative
    entry, so no iterate has one either, in floating point too: the
    eigenvector needs no sign fix.  Stops when successive Rayleigh quotients
    differ by less than RAYLEIGH_STEP and the eigen-residual is at most
    EIGEN_RESIDUAL, or after MAX_POWER_ITERATIONS.
    """
    w = np.arange(r, dtype=np.float64)
    off = np.sqrt((w + 1) * (n - w))  # exact integer products under the root
    dim = r + 1
    u = np.full(dim, 1.0 / math.sqrt(dim))
    shift = float(n)
    prev = math.inf
    for _ in range(MAX_POWER_ITERATIONS):
        su = np.zeros(dim)
        su[:-1] += off * u[1:]
        su[1:] += off * u[:-1]
        lam = float(u @ su)
        resid = float(np.linalg.norm(su - lam * u))
        if abs(lam - prev) < RAYLEIGH_STEP and resid <= EIGEN_RESIDUAL:
            break
        prev = lam
        v = su + shift * u
        u = v / np.linalg.norm(v)
    log_profile = np.log(np.maximum(u, LOG_FLOOR)) - 0.5 * _log_binomials(n, r)
    return np.exp(log_profile - log_profile.max())


def min_radius(n: int, k: int) -> int:
    """Smallest r with lambda(ball of radius r) >= x = n - 2k + 1, exactly.

    p_{j+1} = det(xI - T) on the radius-j ball, in Python integers.  The
    balls are nested, so the first radius j with p_{j+1} <= 0 is the first
    whose xI - T is not positive definite, i.e. whose top eigenvalue is
    >= x; a zero minor is an exact tie and counts as reached.  The scan ends
    by radius n, since the whole cube has eigenvalue n > x.
    """
    if not 1 <= k <= n + 1:
        raise ValueError(f"k must be in 1..{n + 1}, got {k}")
    return _first_nonpositive_minor(n, n - 2 * k + 1, n)[0]


def predicted_radius(n: int, k: int) -> float:
    """Leading-order radius n/2 - sqrt(k(n - k)); report-only."""
    return n / 2.0 - math.sqrt(k * (n - k))


def asymptotic_lambda(n: int, r: int) -> float:
    """Leading term 2 sqrt(r(n - r)) of the ball eigenvalue; report-only.

    Never asserted against the computed value at finite n: the correction
    term is unquantified, so only the exact eigenvalue certifies anything.
    """
    return 2.0 * math.sqrt(r * (n - r))
