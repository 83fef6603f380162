"""Smoothing pipeline and numeric certification of the entropy proof chains.

Given a (k-1)-wise independent X with density f, the pipeline convolves f
with the Perron eigenfunction density d of a Hamming ball whose exact top
eigenvalue reaches n - 2k + 1.  The smoothed density g = f * d keeps the
independence order, and the chain

    lam * E[g^2]  <=  <Ag, g>  <=  n + (n - 2k) E[g^2]

pins E[g^2] <= n, hence a collision-entropy floor for Z and, through
subadditivity and the ball-volume cap on H(Y), the final lower bound
H(X) >= n - n H(r/n) - log2 n.

Every inequality is evaluated numerically and reported line by line; a
failing line is a report entry, never an exception.  The only exception
raised is the independence precondition on the input itself.

For k > n/2 the coefficient n - 2k flips sign and the upper bound above is
no longer valid, so those runs fall back to the half-independence chain:
no smoothing (r = 0, Z = X), tail levels contribute at most -1 per unit of
squared coefficient mass, and E[f^2] <= n + 1 gives
H(X) >= n - log2(n + 1).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .balls import BallSpectrum, lambda_ball, min_radius
from .bounds import (
    binary_entropy,
    halfwise_entropy_bound,
    shannon_entropy,
    shannon_from_density,
)
from .cube import (
    Density,
    adjacency_apply,
    adjacency_level_multipliers,
    convolve,
    convolve_direct,
    inner_product,
    level_max_abs,
    level_profile,
    log2_ball_volume,
    weight_one_indicator,
    wht,
)
from .errors import DimensionError, IndependenceError
from .kwise import (
    DEFAULT_COEFF_TOL,
    Distribution,
    half_independence_order,
    independence_order,
    marginal_check,
)
from .table import fmt

CHAIN_TOL = 1e-8


@dataclass(frozen=True)
class CheckLine:
    """One verified statement: lhs <= rhs + tol, or |lhs - rhs| <= tol."""

    name: str
    lhs: float
    rhs: float
    tol: float
    kind: str = "le"

    @property
    def slack(self) -> float:
        if self.kind == "eq":
            return -abs(self.lhs - self.rhs)
        return self.rhs - self.lhs

    @property
    def passed(self) -> bool:
        if self.kind == "eq":
            return abs(self.lhs - self.rhs) <= self.tol
        return self.lhs <= self.rhs + self.tol

    def to_text(self) -> str:
        op = "==" if self.kind == "eq" else "<="
        verdict = "PASS" if self.passed else "FAIL"
        return (
            f"{self.name}: {fmt(self.lhs)} {op} {fmt(self.rhs)} "
            f"slack={fmt(self.slack)} {verdict}"
        )


@dataclass(frozen=True, eq=False)
class ChainReport:
    """Every intermediate quantity of one proof-chain run, plus the verdict.

    second_moment is E[g^2] of the (possibly unsmoothed) density the chain
    ran on; rayleigh is <Ag, g>; rayleigh_lower/upper are the two spectral
    bounds the chain compares it against.  entropy_bound is the final
    certified floor for H(X), or None when no radius <= n/2 qualifies.
    """

    n: int
    k: int
    r: int
    lam: float
    second_moment: float
    rayleigh: float
    rayleigh_lower: float
    rayleigh_upper: float
    rayleigh_upper_unfolded: float | None
    shannon_x: float
    shannon_y: float
    shannon_z: float
    renyi2_z: float
    shell_cap: float | None
    ball_cap: float | None
    binary_cap: float | None
    entropy_bound: float | None
    halfwise_mode: bool
    lines: tuple[CheckLine, ...]

    @property
    def passed(self) -> bool:
        return all(line.passed for line in self.lines)

    @property
    def final_check(self) -> bool:
        """The chain's closing second-moment inequality on its own."""
        name = "second_moment_bound" if self.halfwise_mode else "combined_second_moment"
        return next(line.passed for line in self.lines if line.name == name)

    def to_text(self) -> str:
        mode = "half-independence" if self.halfwise_mode else "smoothing"
        head = [
            f"chain: {mode} (n={self.n}, k={self.k}, r={self.r})",
            f"lambda_r: {fmt(self.lam)}",
            f"second_moment: {fmt(self.second_moment)}",
            f"rayleigh: {fmt(self.rayleigh)}",
            f"shannon_x: {fmt(self.shannon_x)}",
            f"shannon_y: {fmt(self.shannon_y)}",
            f"shannon_z: {fmt(self.shannon_z)}",
            f"renyi2_z: {fmt(self.renyi2_z)}",
            f"entropy_bound: {fmt(self.entropy_bound)}",
        ]
        body = [line.to_text() for line in self.lines]
        verdict = "result: " + ("PASS" if self.passed else "FAIL")
        return "\n".join(head + body + [verdict]) + "\n"

    def as_dict(self) -> dict:
        """The chain quantities as one report record (the chain CSV row)."""
        return {
            "n": self.n,
            "k": self.k,
            "r": self.r,
            "lambda": self.lam,
            "second_moment": self.second_moment,
            "rayleigh": self.rayleigh,
            "rayleigh_lower": self.rayleigh_lower,
            "rayleigh_upper": self.rayleigh_upper,
            "shannon_x": self.shannon_x,
            "shannon_y": self.shannon_y,
            "shannon_z": self.shannon_z,
            "renyi2_z": self.renyi2_z,
            "entropy_bound": self.entropy_bound,
            "final_check": self.final_check,
            "passed": self.passed,
        }


def certify_order(dist: Distribution, order: int, tol: float = DEFAULT_COEFF_TOL) -> None:
    """Raise IndependenceError naming the first level whose coefficients leak."""
    per_level = level_max_abs(dist.spectrum)
    for level in range(1, order + 1):
        if per_level[level] > tol:
            raise IndependenceError(level, float(per_level[level]))


def smooth(x: Distribution, ball: BallSpectrum) -> Distribution:
    """Z = X xor Y for Y distributed as the ball eigenfunction density.

    The density of Z is the convolution of the two densities; radius 0
    returns X itself (the point mass is the convolution identity).
    """
    if x.n != ball.n:
        raise DimensionError(f"dimension mismatch: {x.n} vs {ball.n}")
    g = _smoothed_density(x.density, ball.density())
    return Distribution.from_density(g)


def _smoothed_density(f: Density, d: Density) -> Density:
    raw = convolve(f, d).values
    if raw.min() < -1e-10:
        raise FloatingPointError(
            f"convolution produced {raw.min()!r}; inputs are not valid densities"
        )
    vals = np.maximum(raw, 0.0)
    return Density(f.n, vals / vals.mean())


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


def verify_smoothing(
    x: Distribution,
    ball: BallSpectrum,
    tol: float = 1e-9,
    pointwise_tol: float = 1e-10,
    marginal_work_limit: int = 10**6,
) -> SmoothingReport:
    """Check the three facts the smoothing step relies on.

    (a) the independence order does not drop (coefficients multiply, so
    zeros stay zeros), confirmed by the marginal oracle when cheap enough;
    (b) H(X) + H(Y) >= H(Z); (c) the spectral convolution agrees with the
    literal double sum pointwise.
    """
    z = smooth(x, ball)
    d = ball.density()
    order_before = independence_order(x)
    order_after = independence_order(z)
    order_ok = order_after >= order_before
    marginal_dev = None
    if order_before >= 1:
        subsets = sum(math.comb(x.n, j) for j in range(1, order_before + 1))
        if subsets * z.space.support_size <= marginal_work_limit:
            marginal_dev = marginal_check(z, order_before).max_deviation
            order_ok = order_ok and marginal_dev <= tol
    h_x = shannon_entropy(x.space)
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
        entropy_subadditive=h_z <= h_x + h_y + tol,
        convolution_matches=err <= pointwise_tol,
        shannon_x=h_x,
        shannon_y=h_y,
        shannon_z=h_z,
        max_convolution_error=err,
        marginal_deviation=marginal_dev,
    )


def halfwise_chain(
    x: Distribution,
    tol: float = DEFAULT_COEFF_TOL,
    rounding: str = "floor",
) -> ChainReport:
    """Certify the no-smoothing chain for an order-floor(n/2) input.

    The middle band of coefficients vanishes, every tail level carries an
    adjacency multiplier <= -1 (for even n the level n/2 sits in the middle
    band with multiplier exactly 0), and nonnegativity of <Af, f> squeezes
    E[f^2] <= n + 1.
    """
    need = half_independence_order(x.n, rounding)
    certify_order(x, need, tol)
    report = _halfwise_body(x, tol)
    return replace(report, k=need + 1)


def _halfwise_body(x: Distribution, tol: float) -> ChainReport:
    n = x.n
    f = x.density
    profile = level_profile(x.spectrum)
    second = float(profile.sum())
    ray = inner_product(adjacency_apply(f), f)
    ray_spectral = float((adjacency_level_multipliers(n) * profile).sum())
    per_level = level_max_abs(x.spectrum)
    mid = n // 2
    mid_max = float(per_level[1 : mid + 1].max()) if mid >= 1 else 0.0
    upper = n + 1.0 - second
    h_x = shannon_entropy(x.space)
    h2_x = n - math.log2(second)
    bound = halfwise_entropy_bound(n)
    lines = (
        CheckLine("middle_band_vanishes", mid_max, tol, 0.0),
        CheckLine("rayleigh_nonnegative", 0.0, ray, CHAIN_TOL),
        CheckLine("rayleigh_spectral_match", ray, ray_spectral, 1e-7, kind="eq"),
        CheckLine("rayleigh_tail_bound", ray, upper, CHAIN_TOL),
        CheckLine("second_moment_bound", second, n + 1.0, CHAIN_TOL),
        CheckLine("collision_entropy_bound", bound, h2_x, CHAIN_TOL),
        CheckLine("shannon_above_collision", h2_x, h_x, 1e-9),
        CheckLine("entropy_bound", bound, h_x, CHAIN_TOL),
    )
    return ChainReport(
        n=n,
        k=n // 2 + 1,
        r=0,
        lam=0.0,
        second_moment=second,
        rayleigh=ray,
        rayleigh_lower=0.0,
        rayleigh_upper=upper,
        rayleigh_upper_unfolded=None,
        shannon_x=h_x,
        shannon_y=0.0,
        shannon_z=h_x,
        renyi2_z=h2_x,
        shell_cap=None,
        ball_cap=None,
        binary_cap=None,
        entropy_bound=bound,
        halfwise_mode=True,
        lines=lines,
    )


def smoothing_chain(x: Distribution, k: int, tol: float = DEFAULT_COEFF_TOL) -> ChainReport:
    """Certify the smoothing chain for a (k-1)-wise independent input.

    Needs k <= n/2 for the folded spectral upper bound to hold; larger k is
    delegated to the half-independence chain (radius 0, Z = X), which is
    exactly the chain this one degenerates to.
    """
    n = x.n
    if not 1 <= k <= n + 1:
        raise ValueError(f"k must be in 1..{n + 1}, got {k}")
    certify_order(x, k - 1, tol)
    if 2 * k > n:
        return replace(_halfwise_body(x, tol), k=k)

    r = min_radius(n, k)
    ball = lambda_ball(n, r)
    lam = ball.lam
    d = ball.density()
    f = x.density
    g = _smoothed_density(f, d)
    spectrum_g = wht(g)
    second = inner_product(g, g)
    ray = inner_product(adjacency_apply(g), g)
    upper = n + (n - 2 * k) * second
    upper_unfolded = n + (n - 2 * k) * (second - 1.0)
    lower = lam * second

    kernel = weight_one_indicator(n)
    df = convolve(d, f)
    assoc_left = inner_product(convolve(kernel, df), g)
    assoc_right = inner_product(convolve(convolve(kernel, d), f), g)

    ad = adjacency_apply(d)
    pointwise_margin = float(np.max(lam * d.values - ad.values))
    pointwise_tol = CHAIN_TOL * max(1.0, lam * float(d.values.max()))

    per_level_g = level_max_abs(spectrum_g)
    order_max = float(per_level_g[1:k].max()) if k >= 2 else 0.0

    h_x = shannon_entropy(x.space)
    h_y = shannon_from_density(d)
    h_z = shannon_from_density(g)
    h2_z = n - math.log2(second)
    shell_cap = math.log2(math.comb(n, r))
    ball_cap = log2_ball_volume(n, r)
    applicable = 2 * r <= n
    binary_cap = n * binary_entropy(r / n) if applicable else None
    bound = n - n * binary_entropy(r / n) - math.log2(n) if applicable else None

    lines = [
        CheckLine("order_preserved", order_max, tol, 0.0),
        CheckLine("eigenvalue_threshold", n - 2 * k + 1.0, lam, 1e-9),
        CheckLine("eigen_density_pointwise", pointwise_margin, 0.0, pointwise_tol),
        CheckLine("convolution_associativity", assoc_left, assoc_right, 1e-10, kind="eq"),
        CheckLine("rayleigh_lower_bound", lower, ray, CHAIN_TOL),
        CheckLine("rayleigh_upper_bound", ray, upper, CHAIN_TOL),
        CheckLine(
            "combined_second_moment", (lam - (n - 2 * k)) * second, float(n), CHAIN_TOL
        ),
        CheckLine("second_moment_vs_n", second, float(n), CHAIN_TOL),
        CheckLine("smoothed_collision_entropy", n - math.log2(n), h2_z, CHAIN_TOL),
        CheckLine("smoothed_shannon_above_collision", h2_z, h_z, 1e-9),
        CheckLine("entropy_subadditivity", h_z, h_x + h_y, 1e-9),
        CheckLine("perturbation_entropy_cap", h_y, ball_cap, 1e-9),
    ]
    if applicable:
        lines.append(CheckLine("ball_volume_vs_binary_cap", ball_cap, binary_cap, 1e-9))
        lines.append(CheckLine("entropy_bound", bound, h_x, CHAIN_TOL))

    return ChainReport(
        n=n,
        k=k,
        r=r,
        lam=lam,
        second_moment=second,
        rayleigh=ray,
        rayleigh_lower=lower,
        rayleigh_upper=upper,
        rayleigh_upper_unfolded=upper_unfolded,
        shannon_x=h_x,
        shannon_y=h_y,
        shannon_z=h_z,
        renyi2_z=h2_z,
        shell_cap=shell_cap,
        ball_cap=ball_cap,
        binary_cap=binary_cap,
        entropy_bound=bound,
        halfwise_mode=False,
        lines=tuple(lines),
    )
