"""Entropy functionals and the certified lower bounds for k-wise independence.

All entropies are in bits.  Bound evaluators return exactly what the
finite-n argument certifies: the half-independence bound n - log2(n + 1),
the smoothing bound n - n H(r/n) - log2 n with the radius computed from
exact ball eigenvalues, and the binomial bound log2 C(n, floor(k/2)).
The asymptotic leading term of the smoothing bound is exposed for display
only and is never reported as certified.

Which of the first two applies is one rule, halfwise_applies.  evaluate
(one distribution, at its measured order) and bound_row (given n and k)
build their records from the same two helpers, so both read every bound
the same way.
"""

from __future__ import annotations

import math

import numpy as np

from .balls import lambda_ball, min_radius, predicted_radius
from .codes import SampleSpace
from .cube import CubeFunction, Radial, _Cosets
from .kwise import independence_order


# Values per block of _shannon: 2^14 (128 KiB), which took as long as the
# whole-vector route at n = 20 (2-vCPU x86)
_BLOCK = 1 << 14


def _shannon(values: np.ndarray, total: float = 1.0) -> float:
    """-sum p log2 p over the positive p = values / total; zeros drop out.

    The positive p are taken after the division, so a value that underflows
    to zero drops out rather than giving 0 * log2 0.  Block by block, the
    terms p log2 p are appended to one array, which is then summed once:
    the array and the pairwise sum of the whole-vector route
    -(p * log2 p).sum(), so the same bits, in one array where that route
    makes three.  A sum per block would round differently.
    """
    terms = np.empty(values.size)
    end = 0
    for start in range(0, values.size, _BLOCK):
        p = values[start : start + _BLOCK] / total
        p = p[p > 0]
        out = terms[end : end + p.size]
        np.multiply(p, np.log2(p, out=out), out=out)
        end += p.size
    return float(-terms[:end].sum()) + 0.0


def shannon_entropy(space: SampleSpace) -> float:
    """H = -sum p log2 p over the support; zero-probability terms drop out."""
    return _shannon(space.probabilities)


def renyi2_entropy(space: SampleSpace) -> float:
    """Collision entropy -log2 sum p^2; never exceeds the Shannon entropy."""
    return float(-math.log2(float((space.probabilities**2).sum())))


def shannon_from_density(density: CubeFunction) -> float:
    """Shannon entropy through the density path (p = values / 2^n); of a
    density on a code's cosets, from its table, each term counted once per
    mask of its coset (2^n / 2^m, an exact power of two)."""
    if isinstance(density, _Cosets):
        return _shannon(density.table, density.size) * (density.size // density.table.size)
    return _shannon(density.values, density.size)


def shannon_from_radial(d: Radial) -> float:
    """Shannon entropy of a radial density: -sum_w C(n, w) q_w log2 q_w, with
    q_w = d(w) / 2^n the probability of each of the C(n, w) masks of weight w."""
    q = d.profile / (1 << d.n)
    keep = q > 0
    counts = np.array([math.comb(d.n, w) for w in range(d.n + 1)], dtype=np.float64)
    return float(-(counts[keep] * q[keep] * np.log2(q[keep])).sum()) + 0.0


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


def halfwise_applies(n: int, k: int) -> bool:
    """Whether a (k-1)-wise independent distribution on n bits falls under
    the half-independence bound rather than the smoothing bound.

    This is exactly 2k > n, that is k - 1 >= floor(n/2).  There the smoothing
    chain's coefficient n - 2k is negative, and its spectral upper bound
    <Ag, g> <= n + (n - 2k) E[g^2] no longer holds.
    """
    return 2 * k > n


def entropy_at_radius(n: int, r: int) -> float:
    """n - n H(r/n) - log2 n: the smoothing bound's value at radius r."""
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


def _order_bounds(n: int, order: int) -> tuple[float | None, float]:
    """The half-independence bound (None where it does not apply) and the
    binomial bound for a distribution independent at the given order."""
    halfwise = halfwise_entropy_bound(n) if halfwise_applies(n, order + 1) else None
    return halfwise, binomial_entropy_bound(n, order)


def _smoothing_terms(n: int, k: int) -> tuple[int | None, float | None, float | None]:
    """r*, its ball eigenvalue and the smoothing bound n - n H(r*/n) - log2 n
    for a (k-1)-wise independent distribution, all None where that bound
    does not apply.

    r* is the smallest radius whose exact ball eigenvalue reaches
    n - 2k + 1.  Only the regime k <= n/2 is certified (the coefficient
    n - 2k must be nonnegative for the spectral upper bound, and the
    binomial-sum entropy cap needs r* <= n/2); outside it, or when no
    radius <= n/2 qualifies, the bound does not apply.
    """
    r = None if halfwise_applies(n, k) else min_radius(n, k)
    if r is None or 2 * r > n:
        return None, None, None
    return r, lambda_ball(n, r).lam, entropy_at_radius(n, r)


def evaluate(space: SampleSpace) -> dict:
    """Measure both entropies and every bound applicable at the certified order.

    The smoothing bound is evaluated at the strongest usable parameter
    k = min(order + 1, floor(n/2)); larger k means a smaller radius and a
    stronger bound, and the distribution stays (k-1)-wise independent for
    every k below its order + 1.  Each slack is the Shannon entropy minus
    its bound; asymptotic_display is the smoothing bound's leading term,
    never certified.
    """
    n = space.n
    order = independence_order(space)
    shannon = shannon_entropy(space)
    halfwise, binomial = _order_bounds(n, order)
    k = min(order + 1, n // 2)
    radius = lam = smoothed = display = None
    if k >= 1:
        radius, lam, smoothed = _smoothing_terms(n, k)
        display = asymptotic_entropy_leading_term(n, k)
    return {
        "n": n,
        "order": order,
        "support": space.support_size,
        "shannon": shannon,
        "renyi2": renyi2_entropy(space),
        "halfwise_bound": halfwise,
        "halfwise_slack": None if halfwise is None else shannon - halfwise,
        "smoothed_bound": smoothed,
        "smoothed_slack": None if smoothed is None else shannon - smoothed,
        "smoothed_k": None if radius is None else k,
        "smoothed_radius": radius,
        "smoothed_lambda": lam,
        "binomial_bound": binomial,
        "binomial_slack": shannon - binomial,
        "asymptotic_display": display,
    }


def certified_slacks(record: dict) -> dict[str, float]:
    """Slacks of the certified bounds in an evaluate record (the display term
    is excluded)."""
    kinds = ("binomial", "halfwise", "smoothed")
    return {kind: record[f"{kind}_slack"] for kind in kinds if record[f"{kind}_slack"] is not None}


def bound_row(n: int, k: int) -> dict:
    """Every bound for a (k-1)-wise independent distribution on n bits, with
    the radius and eigenvalue behind the smoothing bound and the best one."""
    radius, lam, smoothed = _smoothing_terms(n, k)
    halfwise, binomial = _order_bounds(n, k - 1)
    return {
        "n": n,
        "k": k,
        "radius": radius,
        "lambda": lam,
        "predicted_radius": predicted_radius(n, k) if k <= n else None,
        "smoothed_bound": smoothed,
        "halfwise_bound": halfwise,
        "binomial_bound": binomial,
        "asymptotic_display": None if halfwise_applies(n, k) else asymptotic_entropy_leading_term(n, k),
        "best_bound": max(b for b in (smoothed, halfwise, binomial) if b is not None),
    }
