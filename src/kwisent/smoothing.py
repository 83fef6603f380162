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
from dataclasses import dataclass

import numpy as np

from .balls import BallSpectrum, lambda_ball, min_radius
from .bounds import (
    binary_entropy,
    entropy_at_radius,
    halfwise_applies,
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
    MARGINAL_WORK_LIMIT,
    Distribution,
    independence_order,
    marginal_affordable,
    marginal_check,
)
from .table import fmt, render
from .tolerances import (
    ASSOCIATIVITY,
    CHAIN_ENTROPY_SLACK,
    COEFF_ZERO,
    CONVOLUTION_POINTWISE,
    EIGEN_DENSITY_RELATIVE,
    EIGEN_RESIDUAL,
    ENTROPY_SLACK,
    MARGINAL_ZERO,
    MOMENT_SLACK,
    RAYLEIGH_MATCH,
)


# The record entries the chain's text form prints after `chain` and `lambda_r`.
TEXT_HEAD = (
    "second_moment", "rayleigh", "shannon_x", "shannon_y", "shannon_z", "renyi2_z",
    "entropy_bound",
)


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

    @property
    def cell(self) -> str:
        """The line's report cell: `lhs <= rhs slack=... PASS`."""
        op = "==" if self.kind == "eq" else "<="
        verdict = "PASS" if self.passed else "FAIL"
        return f"{fmt(self.lhs)} {op} {fmt(self.rhs)} slack={fmt(self.slack)} {verdict}"


@dataclass(frozen=True, eq=False)
class ChainReport:
    """Every intermediate quantity of one proof-chain run, plus the verdict.

    record holds the quantities in chain CSV column order: n and k; the
    smoothing radius r (0 for the half-independence chain); lambda, the
    ball's top eigenvalue (0 without smoothing); second_moment, E[g^2] of
    the (possibly unsmoothed) density the chain ran on; rayleigh, <Ag, g>;
    rayleigh_lower and rayleigh_upper, the two spectral bounds the chain
    compares it against; shannon_x, shannon_y and shannon_z, the Shannon
    entropies of X, of the ball density Y and of Z = X xor Y; renyi2_z, the
    collision entropy n - log2 E[g^2]; and entropy_bound, the final certified
    floor for H(X), or None when no radius <= n/2 qualifies.
    """

    record: dict
    lines: tuple[CheckLine, ...]
    halfwise_mode: bool

    @property
    def passed(self) -> bool:
        return all(line.passed for line in self.lines)

    @property
    def final_check(self) -> bool:
        """The chain's closing second-moment inequality on its own."""
        name = "second_moment_bound" if self.halfwise_mode else "combined_second_moment"
        return next(line.passed for line in self.lines if line.name == name)

    def to_text(self) -> str:
        """The head record, then one line per check and the verdict; two
        records, since entropy_bound is both a quantity and a check."""
        rec = self.record
        mode = "half-independence" if self.halfwise_mode else "smoothing"
        head = {
            "chain": f"{mode} (n={rec['n']}, k={rec['k']}, r={rec['r']})",
            "lambda_r": rec["lambda"],
            **{key: rec[key] for key in TEXT_HEAD},
        }
        body = {line.name: line.cell for line in self.lines}
        body["result"] = "PASS" if self.passed else "FAIL"
        return render(head, "text") + render(body, "text")

    def as_dict(self) -> dict:
        """The chain quantities as one report record (the chain CSV row)."""
        return {**self.record, "final_check": self.final_check, "passed": self.passed}


def certify_order(dist: Distribution, order: int) -> None:
    """Raise IndependenceError naming the first level whose coefficients leak."""
    found = independence_order(dist)
    if found < order:
        raise IndependenceError(found + 1, float(level_max_abs(dist.spectrum)[found + 1]))


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
    if raw.min() < -CONVOLUTION_POINTWISE:
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


def verify_smoothing(x: Distribution, ball: BallSpectrum) -> SmoothingReport:
    """Check the three facts the smoothing step relies on.

    (a) the independence order does not drop (coefficients multiply, so
    zeros stay zeros), confirmed by the marginal oracle on Z, within
    MARGINAL_ZERO, when its work (kwise.level_cost, which counts Z's
    support) fits MARGINAL_WORK_LIMIT;
    (b) H(X) + H(Y) >= H(Z) within ENTROPY_SLACK; (c) the spectral
    convolution agrees with the literal double sum pointwise, within
    CONVOLUTION_POINTWISE.
    """
    z = smooth(x, ball)
    d = ball.density()
    order_before = independence_order(x)
    order_after = independence_order(z)
    order_ok = order_after >= order_before
    marginal_dev = None
    if order_before >= 1 and marginal_affordable(z, order_before, MARGINAL_WORK_LIMIT):
        marginal_dev = marginal_check(z, order_before)
        order_ok = order_ok and marginal_dev <= MARGINAL_ZERO
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
        entropy_subadditive=h_z <= h_x + h_y + ENTROPY_SLACK,
        convolution_matches=err <= CONVOLUTION_POINTWISE,
        shannon_x=h_x,
        shannon_y=h_y,
        shannon_z=h_z,
        max_convolution_error=err,
        marginal_deviation=marginal_dev,
    )


def halfwise_chain(x: Distribution) -> ChainReport:
    """Certify the no-smoothing chain for an order-floor(n/2) input; the same
    report as smoothing_chain(x, floor(n/2) + 1).

    The middle band of coefficients vanishes, every tail level carries an
    adjacency multiplier <= -1 (for even n the level n/2 sits in the middle
    band with multiplier exactly 0), and nonnegativity of <Af, f> squeezes
    E[f^2] <= n + 1.
    """
    k = x.n // 2 + 1
    certify_order(x, k - 1)
    return _halfwise_body(x, k)


def _halfwise_body(x: Distribution, k: int) -> ChainReport:
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
        CheckLine("middle_band_vanishes", mid_max, COEFF_ZERO, 0.0),
        CheckLine("rayleigh_nonnegative", 0.0, ray, MOMENT_SLACK),
        CheckLine("rayleigh_spectral_match", ray, ray_spectral, RAYLEIGH_MATCH, kind="eq"),
        CheckLine("rayleigh_tail_bound", ray, upper, MOMENT_SLACK),
        CheckLine("second_moment_bound", second, n + 1.0, MOMENT_SLACK),
        CheckLine("collision_entropy_bound", bound, h2_x, CHAIN_ENTROPY_SLACK),
        CheckLine("shannon_above_collision", h2_x, h_x, ENTROPY_SLACK),
        CheckLine("entropy_bound", bound, h_x, CHAIN_ENTROPY_SLACK),
    )
    record = {
        "n": n, "k": k, "r": 0, "lambda": 0.0, "second_moment": second, "rayleigh": ray,
        "rayleigh_lower": 0.0, "rayleigh_upper": upper, "shannon_x": h_x, "shannon_y": 0.0,
        "shannon_z": h_x, "renyi2_z": h2_x, "entropy_bound": bound,
    }
    return ChainReport(record, lines, halfwise_mode=True)


def smoothing_chain(x: Distribution, k: int) -> ChainReport:
    """Certify the smoothing chain for a (k-1)-wise independent input.

    Needs k <= n/2 for the folded spectral upper bound to hold; larger k is
    delegated to the half-independence chain (radius 0, Z = X), which is
    exactly the chain this one degenerates to.
    """
    n = x.n
    if not 1 <= k <= n + 1:
        raise ValueError(f"k must be in 1..{n + 1}, got {k}")
    certify_order(x, k - 1)
    if halfwise_applies(n, k):
        return _halfwise_body(x, k)

    r = min_radius(n, k)
    ball = lambda_ball(n, r)
    lam = ball.lam
    # f, d and g are Densities, so wht transforms each once (f's spectrum is
    # x.spectrum) and d's spectrum stays alive.  To keep the peak memory where
    # it was, d * f is not bound to a name: it is freed before the right side
    # of the associativity check, where the peak is.
    d = ball.density()
    f = x.density
    g = _smoothed_density(f, d)
    per_level_g = level_max_abs(wht(g))
    order_max = float(per_level_g[1:k].max()) if k >= 2 else 0.0
    second = inner_product(g, g)
    ray = inner_product(adjacency_apply(g), g)
    upper = n + (n - 2 * k) * second
    lower = lam * second

    kernel = weight_one_indicator(n)
    assoc_left = inner_product(convolve(kernel, convolve(d, f)), g)
    assoc_right = inner_product(convolve(convolve(kernel, d), f), g)
    del kernel

    pointwise_margin = float(np.max(lam * d.values - adjacency_apply(d).values))
    pointwise_tol = EIGEN_DENSITY_RELATIVE * max(1.0, lam * float(d.values.max()))

    h_x = shannon_entropy(x.space)
    h_y = shannon_from_density(d)
    h_z = shannon_from_density(g)
    h2_z = n - math.log2(second)
    ball_cap = log2_ball_volume(n, r)
    applicable = 2 * r <= n
    binary_cap = n * binary_entropy(r / n) if applicable else None
    bound = entropy_at_radius(n, r) if applicable else None

    lines = [
        CheckLine("order_preserved", order_max, COEFF_ZERO, 0.0),
        CheckLine("eigenvalue_threshold", n - 2 * k + 1.0, lam, EIGEN_RESIDUAL),
        CheckLine("eigen_density_pointwise", pointwise_margin, 0.0, pointwise_tol),
        CheckLine("convolution_associativity", assoc_left, assoc_right, ASSOCIATIVITY, kind="eq"),
        CheckLine("rayleigh_lower_bound", lower, ray, MOMENT_SLACK),
        CheckLine("rayleigh_upper_bound", ray, upper, MOMENT_SLACK),
        CheckLine(
            "combined_second_moment", (lam - (n - 2 * k)) * second, float(n), MOMENT_SLACK
        ),
        CheckLine("second_moment_vs_n", second, float(n), MOMENT_SLACK),
        CheckLine("smoothed_collision_entropy", n - math.log2(n), h2_z, CHAIN_ENTROPY_SLACK),
        CheckLine("smoothed_shannon_above_collision", h2_z, h_z, ENTROPY_SLACK),
        CheckLine("entropy_subadditivity", h_z, h_x + h_y, ENTROPY_SLACK),
        CheckLine("perturbation_entropy_cap", h_y, ball_cap, ENTROPY_SLACK),
    ]
    if applicable:
        lines.append(CheckLine("ball_volume_vs_binary_cap", ball_cap, binary_cap, ENTROPY_SLACK))
        lines.append(CheckLine("entropy_bound", bound, h_x, CHAIN_ENTROPY_SLACK))

    record = {
        "n": n, "k": k, "r": r, "lambda": lam, "second_moment": second, "rayleigh": ray,
        "rayleigh_lower": lower, "rayleigh_upper": upper, "shannon_x": h_x, "shannon_y": h_y,
        "shannon_z": h_z, "renyi2_z": h2_z, "entropy_bound": bound,
    }
    return ChainReport(record, tuple(lines), halfwise_mode=False)
