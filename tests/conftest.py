"""Shared fixtures: witness distributions and random-code generators."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import settings

from kwisent.codes import (
    BinaryMatrix,
    SampleSpace,
    hamming_code,
    parity_sampler_space,
    simplex_code,
)

settings.register_profile("kwisent", deadline=None, max_examples=60)
settings.load_profile("kwisent")


def uniform_space(n: int) -> SampleSpace:
    """Uniform distribution on all of {0,1}^n: the identity's row space."""
    return parity_sampler_space(BinaryMatrix(tuple(1 << i for i in range(n)), n))


def point_space(n: int) -> SampleSpace:
    """The distribution concentrated on the origin: the empty matrix's row space."""
    return parity_sampler_space(BinaryMatrix((), n))


def with_spectrum(space: SampleSpace) -> SampleSpace:
    """The space after its density's spectrum has been read, and so kept."""
    space.density.spectrum  # built on first read
    return space


def random_code_with_dual_distance(
    n: int, rng: np.random.Generator, target: int, dual_dim: int
) -> BinaryMatrix:
    """Generator of a random [n, n - dual_dim] code whose dual has minimum
    distance >= target.

    Rejection sampling on the dual side; the dual is tiny (2^dual_dim words)
    so its distance is verified by full enumeration every time.
    """
    while True:
        dual = BinaryMatrix(tuple(int(rng.integers(1, 1 << n)) for _ in range(dual_dim)), n)
        code = dual.dual()
        if len(code.rows) == n - dual_dim and dual.min_distance() >= target:
            return code


def random_halfwise_distribution(n: int, rng: np.random.Generator) -> SampleSpace:
    """Uniform code space certified independent at order floor(n/2)."""
    dual_dim = int(rng.integers(1, 3))
    code = random_code_with_dual_distance(n, rng, n // 2 + 1, dual_dim)
    return with_spectrum(parity_sampler_space(code))


def random_sample_space(n: int, rng: np.random.Generator, max_support: int = 200) -> SampleSpace:
    """Random support with Dirichlet-style probabilities (gamma normalized)."""
    support = int(rng.integers(1, min(max_support, 1 << n) + 1))
    points = rng.choice(1 << n, size=support, replace=False).astype(np.int64)
    weights = rng.gamma(shape=1.0, scale=1.0, size=support) + 1e-12
    return SampleSpace(n, points, weights / weights.sum())


def biased_product_space(n: int, p_one: float) -> SampleSpace:
    """Independent bits, each equal to 1 with probability p_one."""
    points = np.arange(1 << n, dtype=np.int64)
    ones = np.bitwise_count(points.astype(np.uint64)).astype(np.float64)
    probs = p_one**ones * (1.0 - p_one) ** (n - ones)
    return SampleSpace(n, points, probs / probs.sum())


def mixture_space(a: SampleSpace, b: SampleSpace, weight: float) -> SampleSpace:
    """weight * a + (1 - weight) * b; keeps min(order_a, order_b) independence."""
    assert a.n == b.n
    probs: dict[int, float] = {}
    for point, p in zip(a.points, a.probabilities):
        probs[int(point)] = probs.get(int(point), 0.0) + weight * float(p)
    for point, p in zip(b.points, b.probabilities):
        probs[int(point)] = probs.get(int(point), 0.0) + (1.0 - weight) * float(p)
    points = np.asarray(sorted(probs), dtype=np.int64)
    weights = np.asarray([probs[int(p)] for p in points])
    return SampleSpace(a.n, points, weights / weights.sum())


@pytest.fixture(scope="session")
def hamming3():
    return with_spectrum(parity_sampler_space(hamming_code(2)))


@pytest.fixture(scope="session")
def hamming7():
    return with_spectrum(parity_sampler_space(hamming_code(3)))


@pytest.fixture(scope="session")
def hamming15():
    return with_spectrum(parity_sampler_space(hamming_code(4)))


@pytest.fixture(scope="session")
def simplex7():
    return with_spectrum(parity_sampler_space(simplex_code(3)))


@pytest.fixture(scope="session")
def uniform8():
    return with_spectrum(uniform_space(8))


@pytest.fixture(scope="session")
def corpus(hamming3, hamming7, hamming15, simplex7, uniform8):
    """Named test distributions spanning orders 0..n, dimensions 3..15."""
    rng = np.random.default_rng(20250808)
    entries = [
        ("hamming3", hamming3),
        ("hamming7", hamming7),
        ("hamming15", hamming15),
        ("simplex7", simplex7),
        ("uniform4", with_spectrum(uniform_space(4))),
        ("uniform8", uniform8),
        ("point5", with_spectrum(point_space(5))),
        ("biased6", with_spectrum(biased_product_space(6, 0.6))),
    ]
    for i in range(3):
        entries.append(
            (f"random10_{i}", random_halfwise_distribution(10, rng))
        )
    for i in range(2):
        entries.append(
            (f"random12_{i}", random_halfwise_distribution(12, rng))
        )
    blend = mixture_space(
        random_halfwise_distribution(8, rng),
        random_halfwise_distribution(8, rng),
        1.0 / 3.0,
    )
    entries.append(("mixture8", with_spectrum(blend)))
    return entries
