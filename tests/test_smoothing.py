"""Smoothing pipeline and the two proof-chain certifiers."""

from __future__ import annotations

import math
import time
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

import kwisent.cube
import oracles
from conftest import point_space, random_halfwise_distribution
from kwisent.balls import lambda_ball, min_radius
from kwisent.bounds import halfwise_entropy_bound, shannon_from_density
from kwisent.codes import SampleSpace, hamming_code, parity_sampler_space, simplex_code
from kwisent.cube import convolve, inner_product, weight_one_indicator, wht
from kwisent.errors import IndependenceError
from kwisent.kwise import independence_order
from kwisent.smoothing import (
    TEXT_HEAD,
    CheckLine,
    _smoothed_density,
    halfwise_chain,
    smoothing_chain,
)
from kwisent.table import render
from kwisent.tolerances import ASSOCIATIVITY, CONVOLUTION_POINTWISE
from oracles import dense_ball_density, dense_eigen_margin, from_density, smooth, verify_smoothing
from test_balls import radial_vs_dense_tolerances
from test_bench_kernels import load_script


def direct_smoothed_probability(x, d, mask):
    """Pr(Z = mask) by the literal sum over the support of X."""
    total = 0.0
    for point, prob in zip(x.points, x.probabilities):
        total += prob * d.values[int(point) ^ int(mask)] / (1 << x.n)
    return total


def test_smooth_radius_zero_is_identity(hamming7):
    z = smooth(hamming7, lambda_ball(7, 0))
    np.testing.assert_array_equal(z.points, hamming7.points)
    np.testing.assert_allclose(z.density.values, hamming7.density.values, atol=1e-12)


def test_smooth_of_point_mass_is_the_ball_density():
    ball = lambda_ball(6, 2)
    z = smooth(point_space(6), ball)
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
    dilated[hamming15.points] = True
    idx = np.arange(1 << 15)
    for _ in range(r):
        grown = dilated.copy()
        for i in range(15):
            grown |= dilated[idx ^ (1 << i)]
        dilated = grown
    np.testing.assert_array_equal(np.flatnonzero(dilated), z.points)


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
    assert report.marginal_deviation is not None  # levels 1..3 cost 8,442 units at 128 points
    assert report.shannon_x + report.shannon_y >= report.shannon_z - 1e-9


def test_verify_smoothing_skips_the_oracle_on_a_large_smoothed_support(monkeypatch):
    # order 7 at n = 14; smoothed at r = 2 it covers all 16,384 points, so the
    # oracle's work is subsets x points (1.6e8 units) and would take over a second.
    x = random_halfwise_distribution(14, np.random.default_rng(5))
    ball = lambda_ball(14, 2)

    def refused(*args, **kwargs):
        raise AssertionError("the marginal oracle ran")

    monkeypatch.setattr(oracles, "marginal_check", refused)
    started = time.perf_counter()
    report = verify_smoothing(x, ball)
    assert time.perf_counter() - started < 1.0  # convolve_direct alone takes about 0.2 s
    assert report.order_before == 7 and report.marginal_deviation is None
    assert report.all_passed


def test_verify_smoothing_runs_the_oracle_on_uniform8(uniform8):
    # acceptance criterion 5's uniform input: levels 1..8 cost 71,840 units
    for r in (1, 2, 3):
        assert verify_smoothing(uniform8, lambda_ball(8, r)).marginal_deviation == 0.0


@pytest.mark.parametrize("k", [3, 4])
@pytest.mark.parametrize("code", ["hamming15", "simplex15", "random20"])
def test_verify_smoothing_kept_spectrum_matches_the_butterfly(code, k):
    # the dense-chain codes' size; the simplex code's convolution dips below
    # 0, so its g takes the clip path and its kept spectrum is the butterfly
    matrix, order = {
        "hamming15": (hamming_code(4), 7),
        "simplex15": (simplex_code(4), 2),
        "random20": (load_script().random_code_20(), 6),
    }[code]
    x = parity_sampler_space(matrix)
    report = verify_smoothing(x, lambda_ball(x.n, min_radius(x.n, k)))
    assert report.all_passed
    assert report.butterfly_order >= report.order_before == order
    assert (report.spectrum_error == 0.0) == (code == "simplex15")
    assert (report.max_convolution_error is None) == (code == "random20")


def test_verify_smoothing_point_mass_equality_case():
    x = point_space(6)
    report = verify_smoothing(x, lambda_ball(6, 1))
    assert report.all_passed
    assert report.shannon_x == 0.0
    assert report.shannon_z == pytest.approx(report.shannon_y, abs=1e-9)


def test_halfwise_chain_hamming7_is_tight(hamming7):
    report = halfwise_chain(hamming7)
    rec = report.record
    assert report.passed
    assert rec["second_moment"] == pytest.approx(8.0, abs=0.0)
    assert rec["rayleigh"] == pytest.approx(0.0, abs=1e-10)
    assert rec["renyi2_z"] == pytest.approx(4.0, abs=1e-12)
    assert rec["shannon_x"] == pytest.approx(4.0, abs=0.0)
    assert rec["entropy_bound"] == pytest.approx(halfwise_entropy_bound(7), abs=0.0)
    for line in report.lines:
        assert line.passed, (line.name, line.cell)


def test_halfwise_chain_hamming15_is_tight(hamming15):
    report = halfwise_chain(hamming15)
    rec = report.record
    assert report.passed
    assert rec["second_moment"] == pytest.approx(16.0, abs=0.0)
    assert rec["shannon_x"] == pytest.approx(11.0, abs=0.0)
    assert rec["entropy_bound"] == pytest.approx(11.0, abs=0.0)


def test_halfwise_chain_uniform_has_full_slack(uniform8):
    report = halfwise_chain(uniform8)
    assert report.passed
    assert report.record["second_moment"] == pytest.approx(1.0, abs=1e-12)
    line = {l.name: l for l in report.lines}["second_moment_bound"]
    assert line.slack == pytest.approx(8.0, abs=1e-9)


def test_halfwise_chain_rejects_point_mass():
    x = point_space(6)
    with pytest.raises(IndependenceError) as err:
        halfwise_chain(x)
    assert err.value.level == 1
    assert err.value.magnitude == pytest.approx(1.0, abs=1e-12)


def test_halfwise_chain_ceil_rounding(hamming7):
    # the strict reading of "half of 7" is order 4, asked for as k = 5;
    # Hamming-7 only has order 3
    with pytest.raises(IndependenceError) as err:
        smoothing_chain(hamming7, 5)
    assert err.value.level == 4


def test_smoothing_chain_uniform_any_k(uniform8):
    for k in (2, 3, 4):
        report = smoothing_chain(uniform8, k)
        assert report.passed
        assert report.record["second_moment"] == pytest.approx(1.0, abs=1e-9)


def test_smoothing_chain_hamming7(hamming7):
    report = smoothing_chain(hamming7, 3)
    rec = report.record
    assert report.passed
    assert rec["r"] == min_radius(7, 3) == 1
    assert rec["lambda"] == pytest.approx(math.sqrt(7), abs=1e-10)
    assert rec["rayleigh_lower"] <= rec["rayleigh"] <= rec["rayleigh_upper"] + 1e-8
    assert (rec["lambda"] - (7 - 6)) * rec["second_moment"] <= 7 + 1e-8
    assert report.final_check


def test_smoothing_chain_hamming15(hamming15):
    report = smoothing_chain(hamming15, 4)
    rec = report.record
    assert report.passed
    assert rec["r"] == min_radius(15, 4)
    assert rec["second_moment"] <= 15 + 1e-8
    assert rec["entropy_bound"] == pytest.approx(
        15 - 15 * (-(3 / 15) * math.log2(3 / 15) - (12 / 15) * math.log2(12 / 15)) - math.log2(15),
        abs=1e-9,
    )
    assert rec["entropy_bound"] <= rec["shannon_x"] + 1e-8


def test_smoothing_chain_delegates_past_half(hamming7):
    delegated = smoothing_chain(hamming7, 4)
    half = halfwise_chain(hamming7)
    assert delegated.halfwise_mode
    assert delegated.record["k"] == 4
    assert delegated.record["r"] == half.record["r"] == 0
    for key in ("second_moment", "rayleigh", "rayleigh_upper", "entropy_bound"):
        assert delegated.record[key] == half.record[key], key
    assert delegated.final_check == half.final_check


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
    # the unfolded bound n + (n - 2k)(E[g^2] - 1) is tighter than the folded one
    rec = report.record
    unfolded = rec["n"] + (rec["n"] - 2 * rec["k"]) * (rec["second_moment"] - 1.0)
    assert unfolded <= rec["rayleigh_upper"]
    assert rec["rayleigh"] <= unfolded + 1e-8


def test_chain_entropy_relations_hold(corpus):
    for name, dist in corpus:
        order = independence_order(dist)
        if order < dist.n // 2:
            continue
        report = halfwise_chain(dist)
        assert report.passed, name
        for k in range(2, min(order + 1, dist.n // 2) + 1):
            rep = smoothing_chain(dist, k)
            rec = rep.record
            assert rep.passed, (name, k)
            assert rec["shannon_x"] >= rec["shannon_z"] - rec["shannon_y"] - 1e-9, (name, k)


@pytest.mark.parametrize("k", [3, 4])
def test_chain_radial_lines_match_the_dense_ball_oracle(hamming15, k):
    report = smoothing_chain(hamming15, k)
    lines = {line.name: line for line in report.lines}
    ball = lambda_ball(15, report.record["r"])
    dense = dense_ball_density(ball)
    tol = radial_vs_dense_tolerances(15)
    h_y = shannon_from_density(dense)
    assert abs(report.record["shannon_y"] - h_y) <= tol["entropy"] * (h_y + 2.0)
    margin = dense_eigen_margin(ball, dense)
    assert abs(lines["eigen_density_pointwise"].lhs - margin) <= tol["margin"] * dense.values.max()
    # both associativity sides, read from spectra, against the inner product
    # of the dense route's values with g
    f = hamming15.density
    g = _smoothed_density(f, dense)
    kernel = weight_one_indicator(15)
    line = lines["convolution_associativity"]
    assert abs(line.lhs - inner_product(convolve(kernel, convolve(dense, f)), g)) <= ASSOCIATIVITY
    assert abs(line.rhs - inner_product(convolve(convolve(kernel, dense), f), g)) <= ASSOCIATIVITY


def test_second_moment_equals_plancherel(hamming7):
    ball = lambda_ball(7, 1)
    g = convolve(hamming7.density, ball.density())
    report = smoothing_chain(hamming7, 3)
    assert report.record["second_moment"] == pytest.approx(inner_product(g, g), abs=1e-10)


def test_check_line_and_report_serialization(hamming7):
    line = CheckLine("demo", 1.0, 2.0, 1e-9)
    assert line.passed and line.slack == 1.0
    assert line.cell == "1 <= 2 slack=1 PASS"
    eq_line = CheckLine("demo_eq", 1.0, 1.0 + 5e-10, 1e-9, kind="eq")
    assert eq_line.passed
    assert not replace(eq_line, rhs=2.0).passed

    report = smoothing_chain(hamming7, 3)
    text = report.to_text()
    assert "result: PASS" in text
    assert text.count("PASS") == len(report.lines) + 1
    header, row = render(report.as_dict(), "csv").splitlines()
    assert len(row.split(",")) == len(header.split(","))


def test_chain_record_holds_every_csv_column_once(hamming7):
    columns = "n k r lambda second_moment rayleigh rayleigh_lower rayleigh_upper shannon_x shannon_y"
    columns += " shannon_z renyi2_z entropy_bound final_check passed"
    for report in (halfwise_chain(hamming7), smoothing_chain(hamming7, 3)):
        assert set(TEXT_HEAD) <= set(report.record)
        assert list(report.as_dict()) == columns.split()
        assert render(report.as_dict(), "csv").splitlines()[0] == columns.replace(" ", ",")


def count_butterflies(monkeypatch) -> list[int]:
    """The lengths of the vectors each later cube._fwht call transforms."""
    fwht, calls = kwisent.cube._fwht, []

    def counted(v):
        calls.append(v.size)
        return fwht(v)

    monkeypatch.setattr(kwisent.cube, "_fwht", counted)
    return calls


@pytest.mark.parametrize("space", ["kept", "fresh", "coset"])
@pytest.mark.parametrize("k", [3, 4])
def test_smoothing_chain_runs_one_butterfly(hamming15, monkeypatch, k, space):
    # d and the kernel are radial, so their spectra are level sums, a
    # convolution keeps its spectral product, and g, whose clip changes
    # nothing here, keeps it over its mean: g's values alone.  A fresh code
    # space takes its spectrum from the dual code, with no butterfly; a
    # fresh coset of the code, which is no code, adds one for f's spectrum
    x = {
        "kept": lambda: hamming15,
        "fresh": lambda: parity_sampler_space(hamming_code(4)),
        "coset": lambda: SampleSpace(15, hamming15.points ^ 1, hamming15.probabilities),
    }[space]()
    calls = count_butterflies(monkeypatch)
    assert smoothing_chain(x, k).passed
    assert calls == [1 << 15] * (2 if space == "coset" else 1)


def test_halfwise_chain_on_a_fresh_code_runs_no_butterfly(monkeypatch):
    # f's spectrum comes from the dual code, and the chain reads f's values
    # and spectrum and the adjacency kernel's result alone
    x = parity_sampler_space(hamming_code(3))  # order 3 = floor(7 / 2)
    calls = count_butterflies(monkeypatch)
    assert halfwise_chain(x).passed
    assert calls == []


@pytest.mark.parametrize("k", [3, 4])
def test_unclipped_smoothed_density_keeps_the_product_over_its_mean(hamming15, monkeypatch, k):
    # the mean of the convolution's values is 1.0 at k = 3 and one ulp-sized
    # step away from it at k = 4, so the division is seen to be the same one
    f, d = hamming15.density, lambda_ball(15, min_radius(15, k)).density()
    h = convolve(f, d)
    raw, prod = h.values, h.spectrum.coeffs
    assert raw.min() >= 0.0
    mean = raw.mean()
    assert (mean == 1.0) == (k == 3)
    g = _smoothed_density(f, d)
    calls = count_butterflies(monkeypatch)
    assert np.array_equal(wht(g).coeffs, prod / mean)
    assert np.array_equal(g.values, raw / mean)
    assert calls == []


@pytest.mark.parametrize("space", ["simplex15", "point10"])
def test_clipped_smoothed_density_transforms_its_values(space, monkeypatch):
    # the convolution leaves rounding noise below 0 outside the support of
    # Z, which the clip zeroes; g is then made from its values alone
    x = parity_sampler_space(simplex_code(4)) if space == "simplex15" else point_space(10)
    f, d = x.density, lambda_ball(x.n, min_radius(x.n, 3)).density()
    raw = convolve(f, d).values
    assert -CONVOLUTION_POINTWISE <= raw.min() < 0.0
    g = _smoothed_density(f, d)
    assert g.values.min() == 0.0
    calls = count_butterflies(monkeypatch)
    coeffs = wht(g).coeffs
    assert calls == [1 << x.n]
    assert np.array_equal(coeffs, kwisent.cube._fwht(g.values) / (1 << x.n))


def test_distribution_spectrum_is_the_density_transform(hamming15):
    assert wht(hamming15.density) is hamming15.density.spectrum
    clean = from_density(hamming15.density)
    assert wht(clean.density) is clean.density.spectrum


@pytest.mark.parametrize(
    "k, scans", [(None, 1), (3, 2), (8, 1)], ids=["halfwise", "smoothing", "delegated"]
)
def test_each_chain_scans_the_input_levels_once(hamming15, monkeypatch, k, scans):
    # X once, and the smoothed g once more when the chain smooths
    scan, calls = kwisent.cube.level_max_abs, []

    def counted(s):
        calls.append(s.n)
        return scan(s)

    for module in ("cube", "kwise", "smoothing"):
        monkeypatch.setattr(f"kwisent.{module}.level_max_abs", counted)
    report = halfwise_chain(hamming15) if k is None else smoothing_chain(hamming15, k)
    assert report.passed
    assert calls == [15] * scans


def chain_peak(space, k):
    """tracemalloc's peak over one smoothing_chain call, in dense vectors."""
    tracemalloc.start()
    try:
        smoothing_chain(space, k)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return peak / (8 << space.n)


def test_smoothing_chain_peak_memory(hamming15):
    smoothing_chain(hamming15, 3)  # warm-up: lazy imports and cached index tables
    # 4.27: at n <= 16 the kernels' row buffers are 2^n values long, so
    # they add whole vectors to the chain's 3
    assert chain_peak(hamming15, 3) <= 4.3


def test_warm_n20_smoothing_chain_holds_three_dense_vectors():
    # 3.07: g's values, ĝ and Ag, with the adjacency's one 2^16-value row
    x = parity_sampler_space(load_script().random_code_20())
    smoothing_chain(x, 3)  # builds f and f̂, which the warm chain keeps
    assert chain_peak(x, 3) <= 3.2
