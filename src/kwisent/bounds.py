"""Entropy functionals and the certified lower bounds for k-wise independence.

All entropies are in bits.  Bound evaluators return exactly what the
finite-n argument certifies: the half-independence bound n - log2(n + 1),
the smoothing bound n - n H(r/n) - log2 n with the radius computed from
exact ball eigenvalues, and the binomial bound log2 C(n, floor(k/2)).
The asymptotic leading term of the smoothing bound is exposed for display
only and is never reported as certified.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .balls import lambda_ball, min_radius, predicted_radius
from .codes import SampleSpace
from .cube import Density
from .kwise import Distribution, independence_order

__all__ = [
    "shannon_entropy",
    "renyi2_entropy",
    "binary_entropy",
    "shannon_from_density",
    "renyi2_from_density",
    "halfwise_entropy_bound",
    "binomial_entropy_bound",
    "smoothed_entropy_bound",
    "asymptotic_entropy_leading_term",
    "BoundReport",
    "evaluate",
    "bound_row",
]


def shannon_entropy(space: SampleSpace) -> float:
    """H = -sum p log2 p over the support; zero-probability terms drop out."""
    p = space.probabilities[space.probabilities > 0]
    return float(-(p * np.log2(p)).sum()) + 0.0


def renyi2_entropy(space: SampleSpace) -> float:
    """Collision entropy -log2 sum p^2; never exceeds the Shannon entropy."""
    return float(-math.log2(float((space.probabilities**2).sum())))


def shannon_from_density(density: Density) -> float:
    """Shannon entropy through the density path (p = values / 2^n)."""
    vals = density.values[density.values > 0]
    p = vals / (1 << density.n)
    return float(-(p * np.log2(p)).sum()) + 0.0


def renyi2_from_density(density: Density) -> float:
    """Collision entropy as n - log2 E[f^2]; must agree with the space path."""
    mean_sq = float((density.values**2).mean())
    return density.n - math.log2(mean_sq)


def binary_entropy(p: float) -> float:
    """H(p) = -p log2 p - (1-p) log2 (1-p), extended by continuity at 0 and 1."""
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"binary entropy is defined on [0, 1], got {p!r}")
    if p == 0.0 or p == 1.0:
        return 0.0
    return float(-(p * math.log2(p) + (1.0 - p) * math.log2(1.0 - p)))


def halfwise_entropy_bound(n: int) -> float:
    """Entropy floor n - log2(n + 1) for distributions independent at order
    floor(n/2); tight exactly when n + 1 is a power of two."""
    if n < 1:
        raise ValueError(f"n must be positive, got {n}")
    return n - math.log2(n + 1)


def binomial_entropy_bound(n: int, k: int) -> float:
    """log2 C(n, floor(k/2)) for a k-wise independent distribution.

    The binomial is computed in exact integers before the logarithm; floor
    is the conservative reading for odd k.
    """
    if not 0 <= k <= n:
        raise ValueError(f"k must be in 0..{n}, got {k}")
    return math.log2(math.comb(n, k // 2))


def smoothed_entropy_bound(n: int, k: int) -> float | None:
    """n - n H(r*/n) - log2 n for a (k-1)-wise independent distribution.

    r* is the smallest radius whose exact ball eigenvalue reaches
    n - 2k + 1.  Only the regime k <= n/2 is certified (the coefficient
    n - 2k must be nonnegative for the spectral upper bound, and the
    binomial-sum entropy cap needs r* <= n/2); outside it, or when no
    radius <= n/2 qualifies, the bound is not applicable and None is
    returned.
    """
    if k < 1:
        raise ValueError(f"k must be at least 1, got {k}")
    if 2 * k > n:
        return None
    r = min_radius(n, k)
    if 2 * r > n:
        return None
    return n - n * binary_entropy(r / n) - math.log2(n)


def asymptotic_entropy_leading_term(n: int, k: int) -> float:
    """Leading term n - n H(1/2 - sqrt((k/n)(1 - k/n))); display only.

    Omits the unquantified lower-order correction, so it may exceed the
    true entropy at finite n and is never used as a certificate.
    """
    if not 0 <= k <= n:
        raise ValueError(f"k must be in 0..{n}, got {k}")
    q = k / n
    p = 0.5 - math.sqrt(q * (1.0 - q))
    return n - n * binary_entropy(p)


@dataclass(frozen=True)
class BoundReport:
    """Measured entropies of one distribution against every applicable bound."""

    n: int
    order: int
    support_size: int
    shannon: float
    renyi2: float
    halfwise_bound: float | None
    smoothed_bound: float | None
    smoothed_k: int | None
    smoothed_radius: int | None
    smoothed_lambda: float | None
    binomial_bound: float
    asymptotic_display: float | None

    def _slack(self, bound: float | None) -> float | None:
        return None if bound is None else self.shannon - bound

    @property
    def halfwise_slack(self) -> float | None:
        return self._slack(self.halfwise_bound)

    @property
    def smoothed_slack(self) -> float | None:
        return self._slack(self.smoothed_bound)

    @property
    def binomial_slack(self) -> float:
        return self.shannon - self.binomial_bound

    def certified_slacks(self) -> dict[str, float]:
        """Slacks of the certified bounds only (the display term is excluded)."""
        out = {"binomial": self.binomial_slack}
        if self.halfwise_slack is not None:
            out["halfwise"] = self.halfwise_slack
        if self.smoothed_slack is not None:
            out["smoothed"] = self.smoothed_slack
        return out

    def as_dict(self) -> dict:
        return {
            "n": self.n,
            "order": self.order,
            "support": self.support_size,
            "shannon": self.shannon,
            "renyi2": self.renyi2,
            "halfwise_bound": self.halfwise_bound,
            "halfwise_slack": self.halfwise_slack,
            "smoothed_bound": self.smoothed_bound,
            "smoothed_slack": self.smoothed_slack,
            "smoothed_k": self.smoothed_k,
            "smoothed_radius": self.smoothed_radius,
            "smoothed_lambda": self.smoothed_lambda,
            "binomial_bound": self.binomial_bound,
            "binomial_slack": self.binomial_slack,
            "asymptotic_display": self.asymptotic_display,
        }


def evaluate(dist: Distribution, tol: float = 1e-9) -> BoundReport:
    """Measure both entropies and every bound applicable at the certified order.

    The smoothing bound is evaluated at the strongest usable parameter
    k = min(order + 1, floor(n/2)); larger k means a smaller radius and a
    stronger bound, and the distribution stays (k-1)-wise independent for
    every k below its order + 1.
    """
    n = dist.n
    order = independence_order(dist, tol)
    shannon = shannon_entropy(dist.space)
    renyi2 = renyi2_entropy(dist.space)
    halfwise = halfwise_entropy_bound(n) if order >= n // 2 else None
    k_eff = min(order + 1, n // 2)
    smoothed = smoothed_k = smoothed_radius = smoothed_lam = None
    display = None
    if k_eff >= 1:
        smoothed = smoothed_entropy_bound(n, k_eff)
        display = asymptotic_entropy_leading_term(n, k_eff)
        if smoothed is not None:
            smoothed_k = k_eff
            smoothed_radius = min_radius(n, k_eff)
            smoothed_lam = lambda_ball(n, smoothed_radius).lam
    return BoundReport(
        n=n,
        order=order,
        support_size=dist.space.support_size,
        shannon=shannon,
        renyi2=renyi2,
        halfwise_bound=halfwise,
        smoothed_bound=smoothed,
        smoothed_k=smoothed_k,
        smoothed_radius=smoothed_radius,
        smoothed_lambda=smoothed_lam,
        binomial_bound=binomial_entropy_bound(n, order),
        asymptotic_display=display,
    )


def bound_row(n: int, k: int) -> dict:
    """Every bound for a (k-1)-wise independent distribution on n bits, with
    the radius and eigenvalue behind the smoothing bound and the best one."""
    smoothed = smoothed_entropy_bound(n, k) if 2 * k <= n else None
    radius = lam = None
    if smoothed is not None:
        radius = min_radius(n, k)
        lam = lambda_ball(n, radius).lam
    halfwise = halfwise_entropy_bound(n) if k - 1 >= n // 2 else None
    binomial = binomial_entropy_bound(n, k - 1)
    return {
        "n": n,
        "k": k,
        "radius": radius,
        "lambda": lam,
        "predicted_radius": predicted_radius(n, k) if k <= n else None,
        "smoothed_bound": smoothed,
        "halfwise_bound": halfwise,
        "binomial_bound": binomial,
        "asymptotic_display": asymptotic_entropy_leading_term(n, k) if 2 * k <= n else None,
        "best_bound": max(b for b in (smoothed, halfwise, binomial) if b is not None),
    }
