"""Independence detection: spectral criterion against the marginal oracle."""

from __future__ import annotations

import numpy as np
import pytest

from conftest import biased_product_space
from kwisent.codes import hamming_code, point_space, uniform_space
from kwisent.cube import level_profile
from kwisent.errors import ResourceLimitError
from kwisent.kwise import (
    Distribution,
    density_from_space,
    half_independence_order,
    independence_order,
    is_kwise,
    marginal_check,
    marginal_order,
)


def test_density_from_space_examples(hamming7):
    vals = density_from_space(uniform_space(2)).values
    np.testing.assert_array_equal(vals, np.ones(4))

    vals = density_from_space(point_space(4)).values
    expect = np.zeros(16)
    expect[0] = 16.0
    np.testing.assert_array_equal(vals, expect)

    dens = hamming7.density.values
    assert sorted(set(dens.tolist())) == [0.0, 8.0]  # 2^7 / 16 on support
    assert (dens > 0).sum() == 16


def test_uniform_distribution_has_full_order():
    dist = Distribution.from_space(uniform_space(6))
    assert independence_order(dist) == 6
    assert is_kwise(dist, 6)


def test_point_mass_has_order_zero():
    dist = Distribution.from_space(point_space(5))
    assert independence_order(dist) == 0
    assert not is_kwise(dist, 1)


def test_hamming7_order_three(hamming7):
    assert independence_order(hamming7) == 3
    assert is_kwise(hamming7, 3)
    assert not is_kwise(hamming7, 4)
    assert marginal_order(hamming7) == 3


def test_hamming7_fourier_levels_match_dual_distance(hamming7):
    # dual distance 4: levels 1..3 carry no coefficient mass
    profile = level_profile(hamming7.spectrum)
    np.testing.assert_array_equal(profile[1:4], np.zeros(3))
    assert profile[4] == 7.0  # seven dual words of weight 4


def test_simplex7_order_two(simplex7):
    # dual of the simplex is the Hamming code with distance 3, so the
    # uniform simplex space is pairwise independent and no more
    assert independence_order(simplex7) == 2
    assert marginal_order(simplex7) == 2
    assert is_kwise(simplex7, 2)
    assert not is_kwise(simplex7, 3)


def test_marginal_check_examples(hamming7):
    assert marginal_check(Distribution.from_space(uniform_space(5)), 3).max_deviation == 0.0

    assert marginal_check(hamming7, 3).max_deviation == 0.0
    report = marginal_check(hamming7, 4)
    assert report.max_deviation == pytest.approx(2.0**-4, abs=0.0)
    assert len(report.worst_coordinates) == 4

    biased = Distribution.from_space(biased_product_space(4, 0.6))
    report = marginal_check(biased, 1)
    assert report.max_deviation == pytest.approx(0.1, abs=1e-12)


def test_marginal_check_guard():
    dist = Distribution.from_space(uniform_space(18))
    with pytest.raises(ResourceLimitError):
        marginal_check(dist, 9)


def test_code_independence_link(corpus):
    # uniform code spaces are independent at exactly (dual distance - 1)
    for name, dist in corpus:
        if not name.startswith(("hamming", "simplex", "random")):
            continue
        spectral = independence_order(dist)
        if name == "hamming3":
            assert spectral == hamming_code(2).dual().min_distance() - 1 == 1
        if name == "hamming7":
            assert spectral == 3
        if name == "hamming15":
            assert spectral == 7


def test_code_independence_link_random_codes():
    from kwisent.codes import BinaryMatrix, LinearCode, uniform_code_space

    rng = np.random.default_rng(41)
    checked = 0
    for n in (6, 9, 12, 15):
        for _ in range(6):
            rows = tuple(int(rng.integers(1, 1 << n)) for _ in range(int(rng.integers(1, 4))))
            mat = BinaryMatrix(rows, n)
            code = LinearCode(n, BinaryMatrix(mat.row_space_basis(), n))
            if code.dimension in (0, n):
                continue
            dist = Distribution.from_space(uniform_code_space(code))
            dual_distance = code.dual().min_distance()
            assert independence_order(dist) == dual_distance - 1, (n, rows)
            checked += 1
    assert checked >= 15


def test_spectral_equals_marginal_order_on_corpus(corpus):
    for name, dist in corpus:
        if dist.n > 12:
            continue
        assert independence_order(dist) == marginal_order(dist), name


def test_plancherel_consistency_on_corpus(corpus):
    for name, dist in corpus:
        direct = float((dist.density.values**2).mean())
        spectral = float((dist.spectrum.coeffs**2).sum())
        assert abs(direct - spectral) < 1e-9, name


def test_half_independence_order_readings():
    assert half_independence_order(7) == 3
    assert half_independence_order(7, "ceil") == 4
    assert half_independence_order(8) == half_independence_order(8, "ceil") == 4
    with pytest.raises(ValueError):
        half_independence_order(7, "round")


def test_distribution_from_density_round_trip(hamming7):
    rebuilt = Distribution.from_density(hamming7.density)
    np.testing.assert_array_equal(rebuilt.space.points, hamming7.space.points)
    np.testing.assert_allclose(
        rebuilt.space.probabilities, hamming7.space.probabilities, atol=1e-15
    )
