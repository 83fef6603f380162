"""Smoothing pipeline and the two proof-chain certifiers."""

from __future__ import annotations

import math
import time
import tracemalloc
from dataclasses import replace
from unittest import mock

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import kwisent.cube
import oracles
from conftest import point_space, random_halfwise_distribution
from kwisent import codes
from kwisent.balls import lambda_ball, min_radius
from kwisent.bounds import halfwise_entropy_bound, shannon_from_density
from kwisent.codes import SampleSpace, hamming_code, parity_sampler_space, simplex_code
from kwisent.cube import (
    CubeFunction,
    _Cosets,
    adjacency_apply,
    convolve,
    inner_product,
    level_max_abs,
    level_profile,
    spectral_inner_product,
    weight_one_indicator,
    wht,
)
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
from test_codes import generator_matrices
from test_cube import assert_same_bits


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
    # on the code's cosets, that butterfly is of the 2^m table over 2^m:
    # within (n + m) u ||ĝ||_2 of the dense one (the verify_smoothing
    # argument, m stages on one side and n on the other), not bit for bit
    x = parity_sampler_space(matrix)
    ball = lambda_ball(x.n, min_radius(x.n, k))
    report = verify_smoothing(x, ball)
    assert report.all_passed
    assert report.butterfly_order >= report.order_before == order
    assert report.spectrum_error > 0.0
    if code == "simplex15":
        g = _smoothed_density(x.density, ball.density())
        m = g.table.size.bit_length() - 1
        route = kwisent.cube._fwht(g.values) / g.size
        assert report.spectrum_error <= (x.n + m) * 2.0**-53 * np.linalg.norm(route)
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
    # nothing here, keeps it over its mean: g's values alone.  A code space
    # takes its spectrum from the dual code, with no butterfly, and g's
    # values are gathered from one butterfly of its 2^(n - rank) = 2^4
    # coset values; a fresh coset of the code, which is no code, runs the
    # dense butterfly for g's values and one more for f's spectrum
    x = {
        "kept": lambda: hamming15,
        "fresh": lambda: parity_sampler_space(hamming_code(4)),
        "coset": lambda: SampleSpace(15, hamming15.points ^ 1, hamming15.probabilities),
    }[space]()
    calls = count_butterflies(monkeypatch)
    assert smoothing_chain(x, k).passed
    assert calls == ([1 << 15] * 2 if space == "coset" else [1 << 4])


def test_halfwise_chain_on_a_fresh_code_runs_no_butterfly(monkeypatch):
    # f's spectrum comes from the dual code, and the chain reads f's values
    # and spectrum and the adjacency kernel's result alone
    x = parity_sampler_space(hamming_code(3))  # order 3 = floor(7 / 2)
    calls = count_butterflies(monkeypatch)
    assert halfwise_chain(x).passed
    assert calls == []


@pytest.mark.parametrize("space, k", [("hamming15", 3), ("hamming7", 2)])
def test_unclipped_smoothed_density_keeps_the_product_over_its_mean(request, monkeypatch, space, k):
    # the mean of the convolution's 2^m coset values is 1.0 on the Hamming
    # code of length 15 at k = 3, and one ulp-sized step away from it on
    # that of length 7 at k = 2, so the division is seen to be the same one;
    # g keeps the product on the dual words
    x = request.getfixturevalue(space)
    f, d = x.density, lambda_ball(x.n, min_radius(x.n, k)).density()
    h = convolve(f, d)
    raw, prod = h.values, h.spectrum.on_words
    table = kwisent.cube._fwht(prod)
    assert raw.min() >= 0.0 and np.array_equal(f.gather(table), raw)
    mean = table.mean()
    assert (mean == 1.0) == (space == "hamming15")
    g = _smoothed_density(f, d)
    calls = count_butterflies(monkeypatch)
    assert wht(g).words is f.dual_words and np.array_equal(wht(g).on_words, prod / mean)
    assert np.array_equal(g.table, table / mean)
    assert np.array_equal(g.values, raw / mean)
    assert calls == []


@pytest.mark.parametrize("space", ["simplex15", "point10"])
def test_clipped_smoothed_density_transforms_its_values(space, monkeypatch):
    # the convolution leaves rounding noise below 0 outside the support of
    # Z, which the clip zeroes; g is then made from its values alone, on
    # the code's cosets: 2^11 of them for the simplex code, 2^10 for the
    # point mass (rank 0, so a coset is a mask)
    x = parity_sampler_space(simplex_code(4)) if space == "simplex15" else point_space(10)
    f, d = x.density, lambda_ball(x.n, min_radius(x.n, 3)).density()
    raw = convolve(f, d).values
    assert -CONVOLUTION_POINTWISE <= raw.min() < 0.0
    g = _smoothed_density(f, d)
    assert g.table.min() == 0.0
    m = {"simplex15": 11, "point10": 10}[space]
    calls = count_butterflies(monkeypatch)
    spectrum = wht(g)
    assert calls == [1 << m]
    assert np.array_equal(spectrum.on_words, kwisent.cube._fwht(g.table) / (1 << m))


def assert_same_bits_but_signs_of_zero(actual, expected):
    """assert_same_bits where the values are not zero, and equal values
    where they are.  The dense butterfly also adds the exact zeros of the
    coefficients off the dual code, -0.0 where d̂'s level is negative, and
    it negates partial sums at other stages than the 2^m butterfly does.
    A negation passes through every rounding but that of a sum which is
    exactly zero, +0.0 whichever term was negated, so a zero value is the
    one whose sign the two routes may not share (none has differed in 2,000
    random codes)."""
    assert np.array_equal(actual, expected)
    nonzero = expected != 0.0
    assert_same_bits(actual[nonzero], expected[nonzero])


def plain(f):
    """f as a dense cube function: its values, and its kept spectrum."""
    dense = CubeFunction(f.n, f.values)
    dense.spectrum = f.spectrum
    return dense


def butterfly_results(monkeypatch) -> list[np.ndarray]:
    """A copy of what each later cube._fwht call returns."""
    fwht, results = kwisent.cube._fwht, []

    def recorded(v):
        results.append(fwht(v))
        return results[-1].copy()

    monkeypatch.setattr(kwisent.cube, "_fwht", recorded)
    return results


@given(generator_matrices(), st.integers(0, 16))
def test_code_route_matches_the_dense_route_bit_for_bit(matrix, r):
    # every rank at n <= 16, rank n (m = 0) and rank 0 (m = n) included:
    # the butterfly's table of 2^m values, before the clip and the mean,
    # and the adjacency from n shifted tables, against the dense kernels.
    # The mean is then taken over 2^m values, not 2^n, so g and its
    # spectrum are the table and the product over that mean
    x = parity_sampler_space(matrix)
    f = x.density
    assert isinstance(f, _Cosets) and np.array_equal(f.dual_words, matrix.dual().codewords())
    assert f.table.size == 1 << (x.n - x.support_size.bit_length() + 1)
    d = lambda_ball(x.n, min(r, x.n)).density()
    with pytest.MonkeyPatch.context() as patch:
        tables = butterfly_results(patch)
        g, expected = _smoothed_density(f, d), _smoothed_density(plain(f), d)
    assert [t.size for t in tables] == [f.table.size, 1 << x.n]
    assert_same_bits_but_signs_of_zero(f.gather(tables[0]), tables[1])
    assert isinstance(g, _Cosets) and not isinstance(expected, _Cosets)
    clipped = np.maximum(tables[0], 0.0)
    assert np.array_equal(g.table, clipped / clipped.mean())
    assert np.array_equal(g.values, f.gather(g.table))
    if "spectrum" in vars(expected):  # kept by the unclipped g
        prod = convolve(f, d).spectrum
        assert np.array_equal(g.spectrum.on_words, prod.on_words / clipped.mean())
    ag = adjacency_apply(g)
    assert isinstance(ag, _Cosets)
    assert_same_bits(ag.values, adjacency_apply(CubeFunction(x.n, g.values)).values)
    assert_same_bits(adjacency_apply(f).values, adjacency_apply(plain(f)).values)


def test_spectra_on_words_match_the_dense_spectra(hamming15):
    # a spectrum on the dual words (cube._OnWords) by one by level, by a
    # full table, and by one on the same or on other words: the product
    # stays on the first words, the same doubles as the dense product; the
    # level scans of it keep the dense bits, and Plancherel its value
    f = hamming15.density
    other = parity_sampler_space(simplex_code(4)).density
    d = lambda_ball(15, 3).density()
    table = kwisent.cube._from_spectrum(kwisent.cube.Spectrum(15, d.spectrum.coeffs))
    for a, b in ((f, d), (d, f), (f, table), (table, f), (f, f), (f, other), (other, f)):
        dense = [kwisent.cube._from_spectrum(kwisent.cube.Spectrum(15, h.spectrum.coeffs)) for h in (a, b)]
        product, expected = convolve(a, b).spectrum, convolve(*dense).spectrum
        words = next(h.spectrum.words for h in (a, b) if isinstance(h, _Cosets))
        assert product.words is words
        assert_same_bits_but_signs_of_zero(product.coeffs, expected.coeffs)
        assert_same_bits(level_profile(product), level_profile(expected))
        assert_same_bits(level_max_abs(product), level_max_abs(expected))
        plancherel = spectral_inner_product(a, b)
        assert plancherel == pytest.approx(spectral_inner_product(*dense), rel=1e-14, abs=1e-300)


def gamma(count: int) -> float:
    """gamma_count = count u / (1 - count u), u = 2^-53 (Higham, ch. 3)."""
    return count * 2.0**-53 / (1 - count * 2.0**-53)


def printed_sums(f, d):
    """The sums a smoothing chain prints from g = f * d, by the calls the
    chain makes, each with the sum of the absolute values of its terms; a
    coefficient of g counts as the butterfly's sum of |g(x)| / 2^n over the
    masks x, E[g]."""
    g = _smoothed_density(f, d)
    kernel = weight_one_indicator(f.n)
    sides = (convolve(kernel, convolve(d, f)), convolve(convolve(kernel, d), f))
    second, ray = inner_product(g, g), inner_product(adjacency_apply(g), g)
    h_z = shannon_from_density(g)
    ghat, mean = g.spectrum.coeffs, float(g.values.mean())
    maxima, profile = level_max_abs(g.spectrum), level_profile(g.spectrum)
    sizes = kwisent.cube.subset_sizes(f.n)
    out = {
        "second_moment": (second, second),
        "rayleigh": (ray, ray),
        "shannon_z": (h_z, h_z),
        "level_max_abs": (maxima, np.full(f.n + 1, mean)),
        # (a + e)^2 - a^2 = e (2a + e): each square moves by e (2|a| + 1)
        "level_profile": (profile, np.bincount(sizes, 2 * np.abs(ghat) + 1, f.n + 1) * mean),
    }
    for name, side in zip(("assoc_left", "assoc_right"), sides):
        # each coefficient of g moves by e E[g], each product by e |ĥ| E[g]
        terms = np.abs(side.spectrum.coeffs) * (np.abs(ghat) + mean)
        out[name] = (spectral_inner_product(side, g), terms.sum())
    return out


def forced_dense(x):
    """x's space with its density as plain 2^n values, which the chain reads
    by the dense route, its spectrum by the butterfly."""
    dense = SampleSpace(x.n, x.points, x.probabilities)
    dense.__dict__["density"] = CubeFunction(x.n, x.density.values)
    return dense


CODES = {
    "hamming7": lambda: hamming_code(3),
    "hamming15": lambda: hamming_code(4),
    "simplex15": lambda: simplex_code(4),
    "random20": lambda: load_script().random_code_20(),
    "random22": lambda: load_script().random_code(22, 5, 6),
}


@pytest.mark.parametrize("k", [3, 4])
@pytest.mark.parametrize("code", list(CODES))
def test_code_route_sums_match_the_dense_route_within_their_rounding(code, k):
    # The two routes make g's table and product bit for bit; then the coset
    # route takes the mean, and every printed sum, over 2^m values where
    # the dense route takes them over 2^n.  A sum of N terms rounds within
    # gamma_N times the sum of its terms' absolute values (Higham, (3.4)),
    # in any order, and so does a mean; the two means make g's values differ
    # by a factor within 1 + gamma_2^n + gamma_2^m + 2u, and each printed sum
    # meets that factor at most twice (E[g^2], <Ag, g>, a profile), or as
    # p log2 p, whose relative change is at most 2.45 times p's for
    # p <= 1/2.  With the adjacency's n-term sums and the butterfly of a
    # clipped g (depth n or m), all of it, to first order, is at most
    # 4 (gamma_2^n + gamma_2^m) times the sum of the absolute terms.
    # The largest gap here is 0.043 (gamma_2^n + gamma_2^m) times its sum:
    # <Ag, g> on the Hamming code of length 7 at k = 3
    x = parity_sampler_space(CODES[code]())
    f = x.density
    d = lambda_ball(x.n, min_radius(x.n, k)).density()
    m = f.table.size.bit_length() - 1
    bound = 4 * (gamma(1 << x.n) + gamma(1 << m))
    cosets, dense = printed_sums(f, d), printed_sums(forced_dense(x).density, d)
    for name, (value, total) in cosets.items():
        expected, dense_total = dense[name]
        assert np.all(np.abs(value - expected) <= bound * dense_total), name


@pytest.mark.parametrize("space", ["hamming15-halfwise", "hamming7-k3", "random20-k3"])
def test_code_chain_matches_the_dense_chain_within_its_rounding(space):
    # the chain's printed record on a code's cosets against the same chain
    # on the forced dense route, within the bound above; every verdict is
    # the same
    code, k = {
        "hamming15-halfwise": ("hamming15", 8),
        "hamming7-k3": ("hamming7", 3),
        "random20-k3": ("random20", 3),
    }[space]
    x = parity_sampler_space(CODES[code]())
    m = x.density.table.size.bit_length() - 1
    bound = 4 * (gamma(1 << x.n) + gamma(1 << m))
    report, dense = smoothing_chain(x, k), smoothing_chain(forced_dense(x), k)
    assert not isinstance(forced_dense(x).density, _Cosets)
    for key in ("second_moment", "rayleigh", "shannon_z", "renyi2_z"):
        assert abs(report.record[key] - dense.record[key]) <= bound * abs(dense.record[key]), key
    assert [line.passed for line in report.lines] == [line.passed for line in dense.lines]
    assert report.halfwise_mode == (k == 8)


@pytest.mark.parametrize("space", ["coset", "point17", "small-block"])
def test_only_a_code_of_a_small_dual_takes_the_coset_route(hamming15, monkeypatch, space):
    # a coset of the Hamming code is no code; the point mass at n = 17 is a
    # code whose dual has rank 17 > DUAL_BLOCK_ROWS, as the Hamming code's
    # (rank 4) is at a block of 3 rows: each runs the dense butterfly
    block = 3 if space == "small-block" else codes.DUAL_BLOCK_ROWS
    with mock.patch.object(codes, "DUAL_BLOCK_ROWS", block):
        x = {
            "coset": lambda: SampleSpace(15, hamming15.points ^ 1, hamming15.probabilities),
            "point17": lambda: point_space(17),
            "small-block": lambda: SampleSpace(15, hamming15.points, hamming15.probabilities),
        }[space]()
        f = x.density
    f.spectrum  # built on first read where x is no code
    d = lambda_ball(x.n, min_radius(x.n, 3)).density()
    calls = count_butterflies(monkeypatch)
    g = _smoothed_density(f, d)
    assert calls == [1 << x.n]
    assert not any(isinstance(h, _Cosets) for h in (f, g, adjacency_apply(g)))


def test_a_fresh_code_chain_lists_its_dual_words_once(hamming15, monkeypatch):
    # the density lists the dual words for its spectrum and keeps that list
    # for its cosets; every span of XORs is made by cube._xor_span
    x = SampleSpace.from_text(hamming15.to_text())
    words = hamming_code(4).dual().codewords()
    xor_span, spans = kwisent.cube._xor_span, []

    def recorded(gens):
        spans.append(xor_span(gens))
        return spans[-1]

    monkeypatch.setattr(kwisent.cube, "_xor_span", recorded)
    assert smoothing_chain(x, 3).passed
    assert sum(np.array_equal(span, words) for span in spans) == 1
    assert np.array_equal(x.density.dual_words, words)


def test_with_table_takes_the_table_over(hamming15):
    f = hamming15.density
    table = np.ones(f.table.size)
    g = f.with_table(table)
    assert np.shares_memory(g.table, table) and "values" not in vars(g)
    assert g.dual_words is f.dual_words and g.syndromes is f.syndromes


def test_fresh_n20_code_chain_peaks_below_the_dense_route():
    # a CLI chain builds its space from the file: 0.22 vectors here, the
    # space's 2^16 points and probabilities and the code check's span, as
    # the chain holds 2^4-value tables alone; 5.20 on the dense route, which
    # held f's values, f̂, the product, g's values and ĝ
    x = parity_sampler_space(load_script().random_code_20())

    def fresh():
        smoothing_chain(SampleSpace(x.n, x.points, x.probabilities), 3)

    fresh()  # warm-up: lazy imports and cached index tables
    tracemalloc.start()
    try:
        fresh()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak / (8 << x.n) <= 0.3


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
    # 0.21: every table of the chain has 2^4 values; 4.27 when g's values,
    # ĝ and Ag were dense, with the kernels' row buffers of 2^n values
    assert chain_peak(hamming15, 3) <= 0.3


def test_warm_n20_smoothing_chain_holds_no_dense_vector():
    # 0.10: the chain holds tables of 2^4 values; 3.07 when g's values, ĝ
    # and Ag were dense
    x = parity_sampler_space(load_script().random_code_20())
    smoothing_chain(x, 3)  # builds f and f̂, which the warm chain keeps
    assert chain_peak(x, 3) <= 1.0
