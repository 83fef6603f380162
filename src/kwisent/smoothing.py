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
raised is the independence precondition on the input itself.  The facts
the smoothing step rests on (the order does not drop, the entropies are
subadditive, the spectral convolution is the literal sum, the spectrum g
keeps is that of its values) are checked by routes the chain does not take:
verify_smoothing in tests/oracles.py.

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

from . import cube
from .balls import lambda_ball, min_radius
from .bounds import (
    binary_entropy,
    entropy_at_radius,
    halfwise_applies,
    halfwise_entropy_bound,
    shannon_entropy,
    shannon_from_density,
    shannon_from_radial,
)
from .codes import SampleSpace
from .cube import (
    CubeFunction,
    Radial,
    Spectrum,
    _Cosets,
    _Fresh,
    _OnWords,
    _from_spectrum,
    adjacency_apply,
    convolve,
    inner_product,
    level_max_abs,
    level_profile,
    log2_ball_volume,
    spectral_inner_product,
    weight_one_indicator,
    wht,
)
from .errors import IndependenceError
from .kwise import order_from_levels
from .table import fmt, render
from .tolerances import (
    ASSOCIATIVITY,
    CHAIN_ENTROPY_SLACK,
    COEFF_ZERO,
    CONVOLUTION_POINTWISE,
    EIGEN_DENSITY_RELATIVE,
    EIGEN_RESIDUAL,
    ENTROPY_SLACK,
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


def certify_order(x: SampleSpace, order: int) -> np.ndarray:
    """X's largest |coeff(S)| per level |S|, from its one level scan; raises
    IndependenceError naming the first level whose coefficients leak when
    the order found there is below the one asked for."""
    per_level = level_max_abs(x.density.spectrum)
    found = order_from_levels(per_level)
    if found < order:
        raise IndependenceError(found + 1, float(per_level[found + 1]))
    return per_level


def _eigen_margin(d: Radial, lam: float) -> float:
    """max_x (lam d - A d)(x), over the weight classes w = 0..n: A d is radial
    too, w d(w - 1) + (n - w) d(w + 1) on weight w, so the largest class
    value is the largest value on the cube."""
    n, p = d.n, d.profile
    w = np.arange(n + 1)
    below = np.concatenate(([0.0], p[:-1]))
    above = np.concatenate((p[1:], [0.0]))
    return float(np.max(lam * p - (w * below + (n - w) * above)))


def _smoothed_density(f: CubeFunction, d: CubeFunction) -> CubeFunction:
    """g = f * d, its rounding noise below 0 clipped, divided by its mean.

    So g is nonnegative and of mean 1 within TOTAL_MASS by construction,
    when f and d are, and is not checked again (tests/test_tolerances.py
    holds it to both).

    When the clip changes nothing, g keeps the spectrum it was made from,
    the convolution's product f̂ d̂ over the same mean, and reading it runs
    no butterfly.  In exact arithmetic that is the spectrum of the float g.
    In floats the two differ only by the rounding of the inverse butterfly
    that made g's values and of the two divisions by the mean: in 2-norm at
    most about (n + 2) u ||ĝ||_2, u = 2^-53, since the butterfly is 2^(n/2)
    times an orthogonal map and each of its n stages rounds once.
    verify_smoothing in tests/oracles.py checks it against the forward
    butterfly.  A clipped g is made from its values, and its spectrum is one
    butterfly on first read.

    One flow serves both of f's layouts.  The inverse butterfly runs on the
    product in f's layout, into a table made here: all 2^n coefficients,
    or, where f is on the cosets of a code (cube._Cosets), as the density
    of a space uniform on a code with a small dual is, the product's 2^m
    values at the dual words, where f̂ d̂ lies, so that g is on the same
    cosets (cube._Cosets argues why that table is the dense route's values,
    bit for bit).  The clip acts on that table, and the table's mean
    divides it in place: on cosets that is the mean of g's values, each
    coset holding as many masks, and no value is gathered.  The product
    over the mean stays in the product's layout, so an unclipped g on
    cosets keeps a spectrum on the dual words (cube._OnWords), and a
    clipped one transforms its 2^m values.
    """
    on_cosets = isinstance(f, _Cosets)
    prod = convolve(f, d).spectrum
    coeffs = prod.on_words if on_cosets else prod.coeffs
    table = cube._fwht(coeffs)
    low = table.min()
    if low < -CONVOLUTION_POINTWISE:
        raise FloatingPointError(
            f"convolution produced {low!r}; inputs are not valid densities"
        )
    if low < 0.0:
        np.maximum(table, 0.0, out=table)
    mean = table.mean()
    table /= mean
    g = f.with_table(table) if on_cosets else CubeFunction(f.n, _Fresh(table))
    if low >= 0.0:
        scaled = _Fresh(coeffs / mean)
        g.spectrum = _OnWords(f.n, prod.words, scaled) if on_cosets else Spectrum(f.n, scaled)
    return g


def halfwise_chain(x: SampleSpace) -> ChainReport:
    """Certify the no-smoothing chain for an order-floor(n/2) input: the
    chain smoothing_chain(x, floor(n/2) + 1) hands to _halfwise_body.

    The middle band of coefficients vanishes, every tail level carries an
    adjacency multiplier <= -1 (for even n the level n/2 sits in the middle
    band with multiplier exactly 0), and nonnegativity of <Af, f> squeezes
    E[f^2] <= n + 1.
    """
    return smoothing_chain(x, x.n // 2 + 1)


def _halfwise_body(x: SampleSpace, k: int, per_level: np.ndarray) -> ChainReport:
    """The chain on X, whose level maxima certify_order returned."""
    n = x.n
    f = x.density
    profile = level_profile(f.spectrum)
    second = float(profile.sum())
    ray = inner_product(adjacency_apply(f), f)
    # A multiplies every coefficient at level j by n - 2j
    ray_spectral = float(((n - 2.0 * np.arange(n + 1)) * profile).sum())
    mid = n // 2
    mid_max = float(per_level[1 : mid + 1].max()) if mid >= 1 else 0.0
    upper = n + 1.0 - second
    h_x = shannon_entropy(x)
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


def smoothing_chain(x: SampleSpace, k: int) -> ChainReport:
    """Certify the smoothing chain for a (k-1)-wise independent input.

    Needs k <= n/2 for the folded spectral upper bound to hold; larger k is
    delegated to the half-independence chain (radius 0, Z = X), which is
    exactly the chain this one degenerates to.
    """
    n = x.n
    if not 1 <= k <= n + 1:
        raise ValueError(f"k must be in 1..{n + 1}, got {k}")
    per_level = certify_order(x, k - 1)
    if halfwise_applies(n, k):
        return _halfwise_body(x, k, per_level)

    r = min_radius(n, k)
    ball = lambda_ball(n, r)
    lam = ball.lam
    # f keeps its spectrum (certify_order read it), d and the kernel are
    # radial, so their spectra stay n + 1 levels with no butterfly, and a
    # convolution keeps its spectral product, which g keeps too unless its
    # clip fired: the chain runs 1 butterfly, g's values (2 when f's
    # spectrum is first read here and X is not uniform on a code, whose
    # density takes it from the dual code; 1 more when the clip fires).
    # Everything that reads g's values runs before the associativity line,
    # which reads spectra alone, so g's values are dropped before it.
    # Products by a spectrum by level gather no 2^n table, and
    # convolve(kernel, d) is n + 1 levels.  So the dense route holds at
    # most 3 dense vectors beyond f and its spectrum: the product, g's
    # values and ĝ while g is made; g's values, ĝ and Ag or the p log2 p
    # terms of H(Z); ĝ and the left side's two products.
    # On a code whose dual has rank m <= DUAL_BLOCK_ROWS, f, g and Ag are
    # tables on the code's 2^m cosets (cube._Cosets) and every spectrum is
    # 2^m values on the dual words, so that butterfly is of 2^m values,
    # every printed sum reads 2^m values, and no 2^n vector is built.  The
    # half-independence chain on a code runs no butterfly.
    d = ball.density()
    f = x.density
    g = _smoothed_density(f, d)
    second = inner_product(g, g)
    ray = inner_product(adjacency_apply(g), g)
    upper = n + (n - 2 * k) * second
    lower = lam * second
    per_level_g = level_max_abs(wht(g))
    order_max = float(per_level_g[1:k].max()) if k >= 2 else 0.0
    h_z = shannon_from_density(g)
    g = _from_spectrum(g.spectrum)

    kernel = weight_one_indicator(n)
    assoc_left = spectral_inner_product(convolve(kernel, convolve(d, f)), g)
    assoc_right = spectral_inner_product(convolve(convolve(kernel, d), f), g)

    pointwise_margin = _eigen_margin(d, lam)
    pointwise_tol = EIGEN_DENSITY_RELATIVE * max(1.0, lam * float(d.profile.max()))

    h_x = shannon_entropy(x)
    h_y = shannon_from_radial(d)
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
