"""Smoothing pipeline and the two proof-chain certifiers."""

from __future__ import annotations

import math
from dataclasses import replace

import numpy as np
import pytest

from kwisent.balls import lambda_ball, min_radius
from kwisent.bounds import halfwise_entropy_bound
from kwisent.codes import point_space, uniform_space
from kwisent.cube import convolve, inner_product
from kwisent.errors import IndependenceError
from kwisent.kwise import Distribution, independence_order
from kwisent.smoothing import (
    CheckLine,
    halfwise_chain,
    smooth,
    smoothing_chain,
    verify_smoothing,
)
from kwisent.table import render


def direct_smoothed_probability(x, d, mask):
    """Pr(Z = mask) by the literal sum over the support of X."""
    total = 0.0
    for point, prob in zip(x.space.points, x.space.probabilities):
        total += prob * d.values[int(point) ^ int(mask)] / (1 << x.n)
    return total


def test_smooth_radius_zero_is_identity(hamming7):
    z = smooth(hamming7, lambda_ball(7, 0))
    np.testing.assert_array_equal(z.space.points, hamming7.space.points)
    np.testing.assert_allclose(z.density.values, hamming7.density.values, atol=1e-12)


def test_smooth_of_point_mass_is_the_ball_density():
    ball = lambda_ball(6, 2)
    z = smooth(Distribution.from_space(point_space(6)), ball)
    np.testing.assert_allclose(z.density.values, ball.density().values, atol=1e-12)


def test_smooth_matches_direct_sum_hamming7(hamming7):
    ball = lambda_ball(7, 1)
    z = smooth(hamming7, ball)
    d = ball.density()
    for mask in (0, 1, 0b1010101, 0b1111111):
        expect = (1 << 7) * direct_smoothed_probability(hamming7, d, mask)
        assert z.density.values[mask] == pytest.approx(expect, abs=1e-12)


def test_smooth_support_is_exact_dilation(hamming15):
    r = 2
    z = smooth(hamming15, lambda_ball(15, r))
    dilated = np.zeros(1 << 15, dtype=bool)
    dilated[hamming15.space.points] = True
    idx = np.arange(1 << 15)
    for _ in range(r):
        grown = dilated.copy()
        for i in range(15):
            grown |= dilated[idx ^ (1 << i)]
        dilated = grown
    np.testing.assert_array_equal(np.flatnonzero(dilated), z.space.points)


def test_verify_smoothing_uniform_stays_uniform(uniform8):
    report = verify_smoothing(uniform8, lambda_ball(8, 2))
    assert report.all_passed
    assert report.order_before == report.order_after == 8
    assert report.shannon_z == pytest.approx(8.0, abs=1e-9)


def test_verify_smoothing_hamming7(hamming7):
    report = verify_smoothing(hamming7, lambda_ball(7, 2))
    assert report.all_passed
    assert report.order_after >= 3
    assert report.max_convolution_error <= 1e-10
    assert report.marginal_deviation is not None
    assert report.shannon_x + report.shannon_y >= report.shannon_z - 1e-9


def test_verify_smoothing_point_mass_equality_case():
    x = Distribution.from_space(point_space(6))
    report = verify_smoothing(x, lambda_ball(6, 1))
    assert report.all_passed
    assert report.shannon_x == 0.0
    assert report.shannon_z == pytest.approx(report.shannon_y, abs=1e-9)


def test_halfwise_chain_hamming7_is_tight(hamming7):
    report = halfwise_chain(hamming7)
    assert report.passed
    assert report.second_moment == pytest.approx(8.0, abs=0.0)
    assert report.rayleigh == pytest.approx(0.0, abs=1e-10)
    assert report.renyi2_z == pytest.approx(4.0, abs=1e-12)
    assert report.shannon_x == pytest.approx(4.0, abs=0.0)
    assert report.entropy_bound == pytest.approx(halfwise_entropy_bound(7), abs=0.0)
    for line in report.lines:
        assert line.passed, line.to_text()


def test_halfwise_chain_hamming15_is_tight(hamming15):
    report = halfwise_chain(hamming15)
    assert report.passed
    assert report.second_moment == pytest.approx(16.0, abs=0.0)
    assert report.shannon_x == pytest.approx(11.0, abs=0.0)
    assert report.entropy_bound == pytest.approx(11.0, abs=0.0)


def test_halfwise_chain_uniform_has_full_slack(uniform8):
    report = halfwise_chain(uniform8)
    assert report.passed
    assert report.second_moment == pytest.approx(1.0, abs=1e-12)
    line = {l.name: l for l in report.lines}["second_moment_bound"]
    assert line.slack == pytest.approx(8.0, abs=1e-9)


def test_halfwise_chain_rejects_point_mass():
    x = Distribution.from_space(point_space(6))
    with pytest.raises(IndependenceError) as err:
        halfwise_chain(x)
    assert err.value.level == 1
    assert err.value.magnitude == pytest.approx(1.0, abs=1e-12)


def test_halfwise_chain_ceil_rounding(hamming7):
    # the strict reading needs order 4; Hamming-7 only has order 3
    with pytest.raises(IndependenceError) as err:
        halfwise_chain(hamming7, rounding="ceil")
    assert err.value.level == 4


def test_smoothing_chain_uniform_any_k(uniform8):
    for k in (2, 3, 4):
        report = smoothing_chain(uniform8, k)
        assert report.passed
        assert report.second_moment == pytest.approx(1.0, abs=1e-9)


def test_smoothing_chain_hamming7(hamming7):
    report = smoothing_chain(hamming7, 3)
    assert report.passed
    assert report.r == min_radius(7, 3) == 1
    assert report.lam == pytest.approx(math.sqrt(7), abs=1e-10)
    assert report.rayleigh_lower <= report.rayleigh <= report.rayleigh_upper + 1e-8
    assert (report.lam - (7 - 6)) * report.second_moment <= 7 + 1e-8
    assert report.final_check


def test_smoothing_chain_hamming15(hamming15):
    report = smoothing_chain(hamming15, 4)
    assert report.passed
    assert report.r == min_radius(15, 4)
    assert report.second_moment <= 15 + 1e-8
    assert report.entropy_bound == pytest.approx(
        15 - 15 * (-(3 / 15) * math.log2(3 / 15) - (12 / 15) * math.log2(12 / 15)) - math.log2(15),
        abs=1e-9,
    )
    assert report.entropy_bound <= report.shannon_x + 1e-8


def test_smoothing_chain_delegates_past_half(hamming7):
    delegated = smoothing_chain(hamming7, 4)
    half = halfwise_chain(hamming7)
    assert delegated.halfwise_mode
    assert delegated.k == 4
    assert delegated.r == half.r == 0
    assert delegated.second_moment == half.second_moment
    assert delegated.rayleigh == half.rayleigh
    assert delegated.rayleigh_upper == half.rayleigh_upper
    assert delegated.final_check == half.final_check
    assert delegated.entropy_bound == half.entropy_bound


def test_smoothing_chain_requires_certified_order(hamming7):
    with pytest.raises(IndependenceError) as err:
        smoothing_chain(hamming7, 5)  # needs order 4, input has 3
    assert err.value.level == 4


def test_smoothing_chain_internal_identities(hamming15):
    report = smoothing_chain(hamming15, 3)
    lines = {l.name: l for l in report.lines}
    assert abs(lines["convolution_associativity"].slack) <= 1e-10
    assert lines["eigen_density_pointwise"].passed
    assert lines["eigenvalue_threshold"].lhs == 15 - 6 + 1
    # the recorded unfolded bound is tighter than the folded one
    assert report.rayleigh_upper_unfolded <= report.rayleigh_upper
    assert report.rayleigh <= report.rayleigh_upper_unfolded + 1e-8


def test_chain_entropy_relations_hold(corpus):
    for name, dist in corpus:
        order = independence_order(dist)
        if order < dist.n // 2:
            continue
        report = halfwise_chain(dist)
        assert report.passed, name
        for k in range(2, min(order + 1, dist.n // 2) + 1):
            rep = smoothing_chain(dist, k)
            assert rep.passed, (name, k)
            assert rep.shannon_x >= rep.shannon_z - rep.shannon_y - 1e-9, (name, k)


def test_second_moment_equals_plancherel(hamming7):
    ball = lambda_ball(7, 1)
    g = convolve(hamming7.density, ball.density())
    report = smoothing_chain(hamming7, 3)
    assert report.second_moment == pytest.approx(inner_product(g, g), abs=1e-10)


def test_check_line_and_report_serialization(hamming7):
    line = CheckLine("demo", 1.0, 2.0, 1e-9)
    assert line.passed and line.slack == 1.0
    eq_line = CheckLine("demo_eq", 1.0, 1.0 + 5e-10, 1e-9, kind="eq")
    assert eq_line.passed
    assert not replace(eq_line, rhs=2.0).passed

    report = smoothing_chain(hamming7, 3)
    text = report.to_text()
    assert "result: PASS" in text
    assert text.count("PASS") == len(report.lines) + 1
    header, row = render(report.as_dict(), "csv").splitlines()
    assert len(row.split(",")) == len(header.split(","))
