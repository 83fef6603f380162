"""Ball eigenvalues: radial solver against closed forms and two oracles."""

from __future__ import annotations

import math

import numpy as np
import pytest
from scipy.linalg import eigh_tridiagonal

from kwisent.balls import (
    RadialOperator,
    asymptotic_lambda,
    lambda_ball,
    lambda_ball_dense_oracle,
    min_radius,
    predicted_radius,
)
from kwisent.cube import adjacency_apply, inner_product, subset_sizes
from kwisent.errors import DimensionError


def tridiagonal_oracle(n, r):
    """Top eigenvalue via the banded symmetric eigensolver (third path)."""
    if r == 0:
        return 0.0
    off = np.sqrt(np.arange(1.0, r + 1) * (n - np.arange(0.0, r)))
    vals = eigh_tridiagonal(np.zeros(r + 1), off, select="i", select_range=(r, r))[0]
    return float(vals[0])


def test_whole_cube_and_trivial_radii():
    assert lambda_ball(10, 10).lam == pytest.approx(10.0, abs=1e-10)
    assert lambda_ball(10, 0).lam == 0.0
    assert lambda_ball(1, 1).lam == pytest.approx(1.0, abs=1e-10)


@pytest.mark.parametrize("n", [4, 9, 16, 25])
def test_radius_one_is_star_eigenvalue(n):
    assert lambda_ball(n, 1).lam == pytest.approx(math.sqrt(n), abs=1e-10)


@pytest.mark.parametrize("n", [5, 9, 16])
def test_radius_two_closed_form(n):
    # 3x3 zero-diagonal tridiagonal: top eigenvalue sqrt(a^2 + b^2)
    assert lambda_ball(n, 2).lam == pytest.approx(math.sqrt(3 * n - 2), abs=1e-10)


@pytest.mark.parametrize("n", [9, 16, 24])
def test_matches_tridiagonal_oracle(n):
    for r in range(n + 1):
        assert lambda_ball(n, r).lam == pytest.approx(tridiagonal_oracle(n, r), abs=1e-10)


def test_matches_dense_oracle_spot_checks():
    for n, r in ((10, 1), (10, 4), (12, 4), (12, 6), (12, 11)):
        assert abs(lambda_ball(n, r).lam - lambda_ball_dense_oracle(n, r)) < 1e-8


def test_dense_oracle_examples():
    assert lambda_ball_dense_oracle(10, 10) == pytest.approx(10.0, abs=1e-10)
    assert lambda_ball_dense_oracle(10, 1) == pytest.approx(math.sqrt(10), abs=1e-10)
    with pytest.raises(DimensionError):
        lambda_ball_dense_oracle(15, 3)


def test_monotone_in_radius_and_range():
    for n in (8, 13):
        lams = [lambda_ball(n, r).lam for r in range(n + 1)]
        assert all(b >= a - 1e-10 for a, b in zip(lams, lams[1:]))
        assert all(-1e-10 <= lam <= n + 1e-10 for lam in lams)
        assert lams[-1] == pytest.approx(n, abs=1e-10)
        assert max(lams[:-1]) < n


def test_radial_profile_positive_and_residual_small():
    for n, r in ((9, 3), (14, 7), (24, 10)):
        spec = lambda_ball(n, r)
        assert np.all(spec.radial_profile > 0)
        assert spec.radial_profile.max() == pytest.approx(1.0, abs=0.0)
        assert spec.residual <= 1e-9
        assert spec.iterations >= 1


def test_radial_operator_action_is_weight_collapse():
    op = RadialOperator.build(6, 3)
    h = np.array([1.0, 2.0, 3.0, 4.0])
    out = op.apply(h)
    # (Th)(w) = w h(w-1) + (n-w) h(w+1), truncated at r
    np.testing.assert_allclose(out, [12.0, 1 + 15.0, 4 + 16.0, 9.0])
    np.testing.assert_allclose(op.symmetrized_offdiagonal() ** 2, [6.0, 10.0, 12.0])


def test_lifted_density_is_eigenfunction(hamming7):
    for n, r in ((7, 2), (10, 3)):
        spec = lambda_ball(n, r)
        d = spec.density()
        assert d.values.min() >= 0.0
        assert abs(d.values.mean() - 1.0) <= 1e-12
        sizes = subset_sizes(n)
        assert np.all(d.values[sizes > r] == 0.0)
        ad = adjacency_apply(d)
        # pointwise domination, with equality on the ball
        assert np.min(ad.values - (spec.lam - 1e-8) * d.values) >= -1e-8
        quotient = inner_product(ad, d) / inner_product(d, d)
        assert quotient == pytest.approx(spec.lam, abs=1e-8)


def test_density_respects_dimension_cap():
    spec = lambda_ball(40, 5)
    assert spec.lam > 0
    with pytest.raises(DimensionError):
        spec.density()


def test_min_radius_examples():
    assert min_radius(14, 7) == 1  # threshold 1, star eigenvalue sqrt(14)
    assert min_radius(16, 8) == 1  # threshold 1, star eigenvalue 4
    assert min_radius(9, 3) == 2  # threshold 4: lam_1 = 3 < 4, lam_2 = 5
    assert min_radius(7, 4) == 0  # threshold 0 already met by the origin
    assert min_radius(16, 4) == 4  # threshold 9; oracle-checked below


def test_min_radius_against_oracle_scan():
    for n, k in ((16, 4), (12, 3), (15, 2)):
        threshold = n - 2 * k + 1
        expect = next(r for r in range(n + 1) if tridiagonal_oracle(n, r) >= threshold - 1e-9)
        assert min_radius(n, k) == expect


def test_min_radius_validation():
    with pytest.raises(ValueError):
        min_radius(8, 0)
    with pytest.raises(ValueError):
        lambda_ball(8, 9)
    with pytest.raises(ValueError):
        lambda_ball(8, -1)


def test_predicted_radius_formula():
    assert predicted_radius(16, 4) == pytest.approx(8 - math.sqrt(48), abs=1e-12)
    assert predicted_radius(8, 4) == pytest.approx(0.0, abs=1e-12)


def test_lambda_comparison_pairs():
    row = lambda_ball(16, 8).as_dict()
    assert row["asymptotic_lambda"] == pytest.approx(16.0, abs=1e-12)
    assert row["lambda"] < 16.0
    row = lambda_ball(12, 0).as_dict()
    assert (row["lambda"], row["asymptotic_lambda"]) == (0.0, 0.0)
    assert asymptotic_lambda(20, 5) == pytest.approx(2 * math.sqrt(75), abs=1e-12)
