"""Entropy functionals and the bound evaluators."""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import random_sample_space, uniform_space
from kwisent import bounds
from kwisent.bounds import (
    asymptotic_entropy_leading_term,
    binary_entropy,
    binomial_entropy_bound,
    bound_row,
    certified_slacks,
    evaluate,
    halfwise_applies,
    halfwise_entropy_bound,
    renyi2_entropy,
    shannon_entropy,
    shannon_from_density,
)
from kwisent.codes import SampleSpace
from kwisent.cube import CubeFunction
from kwisent.table import render
from oracles import renyi2_from_density


def two_point_space(p):
    return SampleSpace(1, np.array([0, 1]), np.array([p, 1.0 - p]))


def test_shannon_entropy_examples(hamming7):
    assert shannon_entropy(uniform_space(6)) == pytest.approx(6.0, abs=1e-12)
    assert shannon_entropy(SampleSpace(3, np.array([5]), np.array([1.0]))) == 0.0
    assert shannon_entropy(hamming7) == pytest.approx(4.0, abs=0.0)


def test_shannon_from_density_drops_a_value_that_underflows():
    # 5e-324 / 4 rounds to 0.0, whose 0 * log2 0 term would be nan
    density = CubeFunction(2, np.array([4.0, 0.0, 0.0, 5e-324]))
    assert shannon_from_density(density) == 0.0


@pytest.mark.parametrize("case", ["zeros", "underflow", "blocks"])
def test_shannon_from_density_is_the_one_array_sum(case):
    # the terms of the positive p, written block by block, and summed once:
    # the same array and the same pairwise sum as the whole-vector route
    # values over 40 binades; the seed of the blocks case is one on which a
    # sum per block rounds differently (checked below)
    rng = np.random.default_rng({"zeros": 1, "underflow": 2, "blocks": 0}[case])
    n = 16 if case == "blocks" else 6  # 4 blocks of 2^14
    values = rng.uniform(0.5, 1.0, 1 << n) * 2.0 ** rng.integers(-30, 10, 1 << n)
    values[rng.random(1 << n) < 0.4] = 0.0
    values /= values.mean()
    if case == "underflow":
        values[3] = 5e-324  # 5e-324 / 64 rounds to 0.0
    density = CubeFunction(n, values)
    p = density.values / density.size
    assert (p == 0.0).any()
    assert ((density.values > 0.0) & (p == 0.0)).any() == (case == "underflow")
    positive = p[p > 0]
    expect = float(-(positive * np.log2(positive)).sum()) + 0.0  # the whole-vector route
    assert shannon_from_density(density) == expect
    assert math.copysign(1.0, shannon_from_density(density)) == math.copysign(1.0, expect)
    if case == "blocks":
        blocks = p.reshape(-1, bounds._BLOCK)
        assert -sum(float((b[b > 0] * np.log2(b[b > 0])).sum()) for b in blocks) != expect


def test_renyi2_entropy_examples():
    assert renyi2_entropy(uniform_space(6)) == pytest.approx(6.0, abs=1e-12)
    assert renyi2_entropy(two_point_space(0.5)) == pytest.approx(1.0, abs=1e-12)
    space = two_point_space(0.75)
    assert renyi2_entropy(space) == pytest.approx(-math.log2(10 / 16), abs=1e-12)
    assert renyi2_entropy(space) < shannon_entropy(space)
    assert shannon_entropy(space) == pytest.approx(2 - 0.75 * math.log2(3), abs=1e-12)


def test_binary_entropy_examples():
    assert binary_entropy(0.5) == 1.0
    assert binary_entropy(0.0) == 0.0
    assert binary_entropy(1.0) == 0.0
    assert binary_entropy(0.25) == pytest.approx(2 - 0.75 * math.log2(3), abs=1e-12)
    with pytest.raises(ValueError):
        binary_entropy(-0.1)
    with pytest.raises(ValueError):
        binary_entropy(1.1)


@given(st.floats(min_value=1e-9, max_value=1 - 1e-9))
def test_binary_entropy_symmetry(p):
    assert binary_entropy(p) == pytest.approx(binary_entropy(1.0 - p), abs=1e-12)
    assert 0.0 < binary_entropy(p) <= 1.0


def test_halfwise_bound_values():
    assert halfwise_entropy_bound(7) == pytest.approx(4.0, abs=0.0)
    assert halfwise_entropy_bound(1) == pytest.approx(0.0, abs=0.0)
    assert halfwise_entropy_bound(15) == pytest.approx(11.0, abs=0.0)


def test_binomial_bound_values():
    assert binomial_entropy_bound(9, 0) == 0.0
    assert binomial_entropy_bound(8, 4) == pytest.approx(math.log2(28), abs=1e-12)
    assert binomial_entropy_bound(7, 7) == pytest.approx(math.log2(35), abs=1e-12)
    # floor for odd k: C(9, 2), not an interpolated value
    assert binomial_entropy_bound(9, 5) == pytest.approx(math.log2(36), abs=1e-12)


def test_smoothed_bound_examples():
    # n=14, k=7: threshold 1 forces radius 1 (the star eigenvalue sqrt(14))
    expect = 14 - 14 * binary_entropy(1 / 14) - math.log2(14)
    assert bound_row(14, 7)["smoothed_bound"] == pytest.approx(expect, abs=1e-12)

    # n=16, k=4: radius from the exact spectra (independently checked in
    # test_balls via the tridiagonal oracle to be 4)
    expect = 16 - 16 * binary_entropy(4 / 16) - math.log2(16)
    assert bound_row(16, 4)["smoothed_bound"] == pytest.approx(expect, abs=1e-12)

    # beyond half independence the folded spectral bound is invalid (the
    # tight Hamming-7 witness has H = 4 < 7 - log2 7), so: not applicable
    assert bound_row(7, 4)["smoothed_bound"] is None


def test_smoothed_bound_nondecreasing_in_k():
    for n in (12, 16):
        values = [bound_row(n, k)["smoothed_bound"] for k in range(1, n // 2 + 1)]
        present = [v for v in values if v is not None]
        assert all(b >= a - 1e-12 for a, b in zip(present, present[1:]))
        # once applicable, larger k stays applicable
        seen = [v is not None for v in values]
        assert seen == sorted(seen)


def test_asymptotic_display_examples():
    assert asymptotic_entropy_leading_term(16, 8) == pytest.approx(16.0, abs=1e-12)
    assert asymptotic_entropy_leading_term(16, 0) == pytest.approx(0.0, abs=1e-12)
    q = 4 / 16
    expect = 16 - 16 * binary_entropy(0.5 - math.sqrt(q * (1 - q)))
    assert asymptotic_entropy_leading_term(16, 4) == pytest.approx(expect, abs=1e-12)


def test_shannon_never_below_renyi2_property():
    rng = np.random.default_rng(13)
    for _ in range(300):
        space = random_sample_space(10, rng)
        assert shannon_entropy(space) >= renyi2_entropy(space) - 1e-9


def test_two_path_renyi_agreement(corpus):
    for name, dist in corpus:
        via_space = renyi2_entropy(dist)
        via_density = renyi2_from_density(dist.density)
        assert abs(via_space - via_density) < 1e-9, name
        via_space_h = shannon_entropy(dist)
        assert abs(via_space_h - shannon_from_density(dist.density)) < 1e-9, name


def test_evaluate_hamming7(hamming7):
    report = evaluate(hamming7)
    assert report["order"] == 3
    assert report["shannon"] == pytest.approx(4.0, abs=0.0)
    assert report["renyi2"] == pytest.approx(4.0, abs=1e-12)
    assert report["halfwise_bound"] == pytest.approx(4.0, abs=0.0)
    assert report["halfwise_slack"] == pytest.approx(0.0, abs=1e-9)
    assert report["binomial_bound"] == pytest.approx(math.log2(7), abs=1e-12)
    assert report["smoothed_k"] == 3 and report["smoothed_radius"] == 1


def test_evaluate_hamming15(hamming15):
    report = evaluate(hamming15)
    assert report["order"] == 7
    assert report["shannon"] == pytest.approx(11.0, abs=0.0)
    assert report["halfwise_bound"] == pytest.approx(11.0, abs=0.0)
    assert report["halfwise_slack"] == pytest.approx(0.0, abs=1e-9)


def test_evaluate_uniform8(uniform8):
    report = evaluate(uniform8)
    assert report["order"] == 8
    assert report["shannon"] == pytest.approx(8.0, abs=1e-12)
    for slack in certified_slacks(report).values():
        assert slack >= -1e-9


def test_certified_bounds_never_exceed_entropy(corpus):
    for name, dist in corpus:
        report = evaluate(dist)
        assert report["shannon"] >= report["renyi2"] - 1e-9, name
        for kind, slack in certified_slacks(report).items():
            assert slack >= -1e-9, (name, kind)


def test_report_serialization_round_trip(hamming7):
    report = evaluate(hamming7)
    text = render(report, "text")
    assert "halfwise_bound: 4" in text
    header, row = render(report, "csv").splitlines()
    assert len(row.split(",")) == len(header.split(","))
    assert report["order"] == 3


def test_evaluate_and_bound_row_share_their_bound_terms(corpus):
    for name, dist in corpus:
        report = evaluate(dist)
        n, k = dist.n, report["order"] + 1
        row = bound_row(n, k)
        for key in ("halfwise_bound", "binomial_bound"):
            assert report[key] == row[key], (name, key)
        if 2 * k <= n:
            assert report["smoothed_k"] in (None, k), name
            assert (report["smoothed_radius"], report["smoothed_lambda"]) == (row["radius"], row["lambda"])
            assert (report["smoothed_bound"], report["asymptotic_display"]) == (
                row["smoothed_bound"],
                row["asymptotic_display"],
            ), name


def test_halfwise_applies_exactly_from_order_floor_half_n():
    for n in range(1, 40):
        for k in range(1, n + 2):
            assert halfwise_applies(n, k) == (k - 1 >= n // 2), (n, k)
