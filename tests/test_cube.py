"""Transform kernel: round trips, Plancherel, convolution, adjacency."""

from __future__ import annotations

import ast
import tracemalloc
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import kwisent
from conftest import point_space, uniform_space
from kwisent.codes import SampleSpace
from kwisent.cube import (
    DIMENSION_CAP,
    CubeFunction,
    Density,
    Radial,
    Spectrum,
    adjacency_apply,
    convolve,
    inner_product,
    inverse_wht,
    krawtchouk,
    level_max_abs,
    level_profile,
    radial_density,
    spectral_inner_product,
    subset_sizes,
    weight_one_indicator,
    wht,
)
from kwisent.errors import DimensionError
from oracles import convolve_direct


def random_function(n, rng):
    return CubeFunction(n, rng.uniform(-1.0, 1.0, size=1 << n))


def wht_direct(f):
    """O(4^n) definition of the transform; the independent oracle."""
    size = f.size
    coeffs = np.empty(size)
    for s in range(size):
        signs = 1.0 - 2.0 * (np.bitwise_count(np.arange(size) & s) & 1)
        coeffs[s] = float((f.values * signs).sum()) / size
    return coeffs


def fwht_copy_reference(a):
    """The textbook in-place butterfly: copy each stage's left halves."""
    h = 1
    while h < a.shape[0]:
        view = a.reshape(-1, 2 * h)
        left = view[:, :h].copy()
        right = view[:, h:]
        view[:, :h] = left + right
        view[:, h:] = left - right
        h *= 2


def adjacency_gather_reference(f):
    """sum_i f(x ^ e_i) by index gather, neighbours added in the order i = 0..n-1."""
    idx = np.arange(f.size)
    out = np.zeros(f.size)
    for i in range(f.n):
        out += f.values[idx ^ (1 << i)]
    return out


def assert_same_bits(actual, expected):
    assert actual.shape == expected.shape
    assert np.array_equal(actual.view(np.uint64), expected.view(np.uint64))


def convolve_loop(f, g):
    """Literal double sum, pure Python."""
    size = f.size
    out = np.zeros(size)
    for x in range(size):
        out[x] = sum(f.values[y] * g.values[y ^ x] for y in range(size)) / size
    return out


def test_uniform_density_spectrum():
    s = wht(uniform_space(4).density)
    expect = np.zeros(16)
    expect[0] = 1.0
    np.testing.assert_array_equal(s.coeffs, expect)


def test_point_mass_spectrum_all_ones():
    s = wht(point_space(4).density)
    np.testing.assert_array_equal(s.coeffs, np.ones(16))


@pytest.mark.parametrize("n", [3, 5])
def test_weight_one_indicator_spectrum(n):
    # 2^n * coeff(S) = n - 2|S|, the adjacency eigenvalue on level |S|
    coeffs = wht(weight_one_indicator(n)).coeffs * (1 << n)
    levels = subset_sizes(n).astype(int)
    np.testing.assert_array_equal(coeffs, n - 2.0 * levels)


def test_wht_matches_direct_summation_oracle():
    rng = np.random.default_rng(1)
    for n in (2, 4, 6):
        f = random_function(n, rng)
        np.testing.assert_allclose(wht(f).coeffs, wht_direct(f), atol=1e-12)


@pytest.mark.parametrize("n", range(1, 23))
def test_kernels_bit_identical_to_references(n):
    rng = np.random.default_rng(1000 + n)
    f = random_function(n, rng)
    butterfly = f.values.copy()
    fwht_copy_reference(butterfly)
    assert_same_bits(inverse_wht(Spectrum(n, f.values)).values, butterfly)
    assert_same_bits(wht(f).coeffs, butterfly / f.size)
    assert_same_bits(adjacency_apply(f).values, adjacency_gather_reference(f))


@pytest.mark.parametrize("n", range(1, 23))
def test_kernel_closed_form_spectrum_matches_the_butterfly_bits(n):
    kernel = weight_one_indicator(n)
    butterfly = kernel.values.copy()
    fwht_copy_reference(butterfly)
    assert_same_bits(wht(kernel).coeffs, butterfly / kernel.size)


@pytest.mark.parametrize("n", [1, 2, 7, 12, 17])
def test_convolve_bit_identical_to_reference_butterflies(n):
    rng = np.random.default_rng(2000 + n)
    f, g = random_function(n, rng), random_function(n, rng)
    spectra = []
    for h in (f, g):
        a = h.values.copy()
        fwht_copy_reference(a)
        spectra.append(a / h.size)
    expect = spectra[0] * spectra[1]
    fwht_copy_reference(expect)
    assert_same_bits(convolve(f, g).values, expect)


def test_wht_allocates_two_dense_vectors():
    f = random_function(18, np.random.default_rng(11))
    # The result and one scratch vector; numpy's ufunc iteration buffers
    # (np.getbufsize() doubles per operand) come on top and do not grow with n.
    budget = 2 * f.values.nbytes + 4 * np.getbufsize() * 8
    tracemalloc.start()
    try:
        wht(f)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= budget


def test_inverse_of_unit_spectra():
    e0 = np.zeros(8)
    e0[0] = 1.0
    np.testing.assert_array_equal(inverse_wht(Spectrum(3, e0)).values, np.ones(8))
    back = inverse_wht(Spectrum(3, np.ones(8)))
    np.testing.assert_array_equal(back.values, point_space(3).density.values)


@given(st.integers(min_value=1, max_value=12), st.integers())
@settings(max_examples=30)
def test_round_trip_property(n, seed):
    rng = np.random.default_rng(seed % (2**32))
    f = random_function(n, rng)
    back = inverse_wht(wht(f))
    assert np.max(np.abs(back.values - f.values)) < 1e-12


def test_convolution_identity_element():
    rng = np.random.default_rng(2)
    f = random_function(6, rng)
    out = convolve(f, point_space(6).density)
    np.testing.assert_allclose(out.values, f.values, atol=1e-12)


def test_convolution_with_uniform_is_constant_mean():
    rng = np.random.default_rng(3)
    g = random_function(5, rng)
    out = convolve(uniform_space(5).density, g)
    np.testing.assert_allclose(out.values, g.values.mean(), atol=1e-12)


def test_convolution_matches_double_sum_oracle():
    rng = np.random.default_rng(4)
    for n in (2, 4, 6):
        f, g = random_function(n, rng), random_function(n, rng)
        expect = convolve_loop(f, g)
        np.testing.assert_allclose(convolve(f, g).values, expect, atol=1e-10)
        np.testing.assert_allclose(convolve_direct(f, g).values, expect, atol=1e-10)


def test_convolution_theorem_per_coefficient():
    rng = np.random.default_rng(5)
    for n in (4, 8):
        f, g = random_function(n, rng), random_function(n, rng)
        # transform the values: a convolution's own spectrum is the product
        lhs = wht(CubeFunction(n, convolve(f, g).values)).coeffs
        rhs = wht(f).coeffs * wht(g).coeffs
        assert np.max(np.abs(lhs - rhs)) < 1e-12


def test_inner_product_basics():
    one = uniform_space(5).density
    assert inner_product(one, one) == 1.0


@given(st.integers())
@settings(max_examples=40)
def test_plancherel_property(seed):
    rng = np.random.default_rng(seed % (2**32))
    f, g = random_function(8, rng), random_function(8, rng)
    spectral = float((wht(f).coeffs * wht(g).coeffs).sum())
    assert abs(inner_product(f, g) - spectral) < 1e-10


def test_adjacency_on_constants_and_point_mass():
    n = 6
    af = adjacency_apply(uniform_space(n).density)
    np.testing.assert_array_equal(af.values, np.full(1 << n, float(n)))
    ap = adjacency_apply(CubeFunction(n, (np.arange(1 << n) == 0).astype(float)))
    np.testing.assert_array_equal(ap.values, weight_one_indicator(n).values)


def test_adjacency_matches_neighbor_loop_exactly():
    rng = np.random.default_rng(6)
    for n in (3, 7, 10):
        f = CubeFunction(n, rng.integers(-50, 50, size=1 << n).astype(float))
        expect = np.zeros(1 << n)
        for x in range(1 << n):
            expect[x] = sum(f.values[x ^ (1 << i)] for i in range(n))
        np.testing.assert_array_equal(adjacency_apply(f).values, expect)


def test_adjacency_equals_scaled_convolution():
    # pins the 2^n factor between the adjacency operator and convolution
    rng = np.random.default_rng(7)
    for n in (3, 6, 9):
        f = random_function(n, rng)
        lhs = adjacency_apply(f).values
        rhs = (1 << n) * convolve(weight_one_indicator(n), f).values
        np.testing.assert_allclose(lhs, rhs, atol=1e-10)


def test_adjacency_spectral_multipliers():
    rng = np.random.default_rng(8)
    n = 7
    f = random_function(n, rng)
    lhs = wht(adjacency_apply(f)).coeffs
    rhs = (n - 2.0 * subset_sizes(n)) * wht(f).coeffs
    np.testing.assert_allclose(lhs, rhs, atol=1e-10)


def test_rayleigh_quotient_capped_by_degree():
    rng = np.random.default_rng(9)
    n = 8
    x = rng.uniform(0.1, 1.0, size=1 << n)
    for _ in range(200):
        f = CubeFunction(n, x)
        af = adjacency_apply(f)
        quotient = inner_product(af, f) / inner_product(f, f)
        assert abs(quotient) <= n + 1e-9
        x = af.values / np.linalg.norm(af.values)


@given(st.integers())
@settings(max_examples=40)
def test_rayleigh_nonnegative_for_nonnegative_functions(seed):
    rng = np.random.default_rng(seed % (2**32))
    f = CubeFunction(6, rng.uniform(0.0, 1.0, size=64))
    assert inner_product(adjacency_apply(f), f) >= 0.0


def test_level_profile_examples():
    n = 5
    np.testing.assert_array_equal(
        level_profile(wht(uniform_space(n).density)), np.eye(n + 1)[0]
    )
    profile = level_profile(wht(point_space(n).density))
    expect = np.array([1.0, 5.0, 10.0, 10.0, 5.0, 1.0])
    np.testing.assert_array_equal(profile, expect)


def test_level_profile_sums_to_second_moment():
    rng = np.random.default_rng(10)
    f = random_function(9, rng)
    total = level_profile(wht(f)).sum()
    assert abs(total - inner_product(f, f)) < 1e-10


def test_level_max_abs_tracks_largest_coefficient():
    coeffs = np.zeros(16)
    coeffs[0b0011] = -0.25
    coeffs[0b0101] = 0.5
    out = level_max_abs(Spectrum(4, coeffs))
    np.testing.assert_array_equal(out, [0.0, 0.0, 0.5, 0.0, 0.0])


def test_validation_errors():
    with pytest.raises(DimensionError):
        CubeFunction(3, np.zeros(7))
    with pytest.raises(ValueError):
        CubeFunction(2, np.array([1.0, np.nan, 0.0, 0.0]))
    with pytest.raises(ValueError):
        Density(2, np.array([2.0, 2.0, -0.5, 0.5]))
    with pytest.raises(ValueError):
        Density(2, np.array([1.0, 1.0, 1.0, 1.5]))
    with pytest.raises(DimensionError):
        convolve(uniform_space(3).density, uniform_space(4).density)


@pytest.mark.parametrize("raw", ["4", "0", "-3", "33", "1000"])
def test_dimension_cap_ignores_the_environment(monkeypatch, raw):
    # the cap is a constant: a KWISENT_MAX_N left in the environment changes nothing
    with pytest.raises(DimensionError):
        CubeFunction(DIMENSION_CAP + 1, np.zeros(4))  # size check after cap check
    monkeypatch.setenv("KWISENT_MAX_N", raw)
    assert uniform_space(5).density.n == 5
    with pytest.raises(DimensionError, match=r"dimension 27 outside supported range 1\.\.26$"):
        point_space(27).density


def test_uniform_density_refuses_before_allocating(monkeypatch):
    # n = 20 would be an 8 MiB vector; the refusal must come first
    space = uniform_space(20)  # the support is enumerated under the real cap
    monkeypatch.setattr(kwisent.cube, "DIMENSION_CAP", 10)
    tracemalloc.start()
    try:
        with pytest.raises(DimensionError, match=r"dimension 20 outside supported range 1\.\.10$"):
            space.density
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


def test_package_reads_no_environment():
    found = []
    for path in sorted(Path(kwisent.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Attribute):
                names = {node.attr}
            elif isinstance(node, ast.ImportFrom) and node.module == "os":
                names = {alias.name for alias in node.names}
            else:
                continue
            if names & {"environ", "getenv"}:
                found.append(f"{path.name}:{node.lineno}")
    assert not found, found


def test_package_imports_only_names_it_uses():
    unused = []
    for path in sorted(Path(kwisent.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text())
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                for alias in node.names:
                    name = alias.asname or alias.name.split(".")[0]
                    if name not in used:
                        unused.append(f"{path.name}:{node.lineno}: {name}")
    assert not unused, unused


def test_values_are_immutable():
    f = uniform_space(3).density
    with pytest.raises(ValueError):
        f.values[0] = 2.0


def test_values_copy_a_read_only_view_of_a_writeable_base():
    base = np.ones(8)
    view = base[:]
    view.setflags(write=False)
    f, d = CubeFunction(3, view), Density(3, view)
    spectrum = wht(d)
    base[0] = 9.0
    assert f.values[0] == d.values[0] == 1.0
    np.testing.assert_array_equal(spectrum.coeffs, wht(uniform_space(3).density).coeffs)
    # a read-only array the caller holds is copied as well
    coeffs = wht(f).coeffs
    assert Spectrum(3, coeffs).coeffs is not coeffs


def test_values_copy_a_read_only_array_the_caller_owns():
    a = np.ones(8)
    a.setflags(write=False)
    f, d, s = CubeFunction(3, a), Density(3, a), Spectrum(3, a)
    spectrum = wht(d)
    a.setflags(write=True)  # the owner may make it writeable again
    a[0] = 5.0
    for vals in (f.values, d.values, s.coeffs):
        np.testing.assert_array_equal(vals, np.ones(8))
    assert d.values.mean() == 1.0
    assert wht(d) is spectrum
    np.testing.assert_array_equal(spectrum.coeffs, wht(uniform_space(3).density).coeffs)


def test_transform_results_are_not_copied(monkeypatch):
    made, fwht = [], kwisent.cube._fwht

    def recorded(v):
        made.append(fwht(v))
        return made[-1]

    monkeypatch.setattr(kwisent.cube, "_fwht", recorded)
    f = random_function(4, np.random.default_rng(3))
    assert wht(f).coeffs is made[-1]
    assert inverse_wht(wht(f)).values is made[-1]
    assert convolve(f, f).values is made[-1]


def test_wht_transforms_a_density_once():
    d = uniform_space(4).density
    assert wht(d) is wht(d) is d.spectrum
    np.testing.assert_array_equal(wht(d).coeffs, wht(CubeFunction(4, d.values)).coeffs)
    kernel = weight_one_indicator(4)
    assert wht(kernel) is wht(kernel) is kernel.spectrum


def test_convolution_builds_its_values_only_when_read(monkeypatch):
    # a Density keeps its spectrum, so once both are read the only butterfly
    # left in a convolution is the inverse that builds its values
    rng = np.random.default_rng(8)
    f = SampleSpace(6, np.arange(64), rng.dirichlet(np.ones(64))).density
    d = point_space(6).density
    fs, ds = wht(f), wht(d)
    calls, fwht = [], kwisent.cube._fwht

    def counted(v):
        calls.append(v.size)
        return fwht(v)

    monkeypatch.setattr(kwisent.cube, "_fwht", counted)
    unread = convolve(f, d)
    assert calls == []  # values never read: no inverse butterfly
    assert wht(convolve(f, d)).coeffs.tolist() == (fs.coeffs * ds.coeffs).tolist()
    assert calls == []  # the spectrum is the kept product
    c = convolve(f, d)
    assert c.values is c.values  # built once, then kept
    assert calls == [64]
    assert not c.values.flags.writeable
    np.testing.assert_array_equal(c.values, inverse_wht(unread.spectrum).values)


@pytest.mark.parametrize("n", range(1, 9))
def test_krawtchouk_counts_the_signs_on_each_weight(n):
    masks = np.arange(1 << n)
    weights = subset_sizes(n)
    table = krawtchouk(n, n)
    for j in range(n + 1):
        signs = 1 - 2 * (np.bitwise_count(masks & ((1 << j) - 1)) & 1).astype(np.int64)
        assert table[j] == [int(signs[weights == w].sum()) for w in range(n + 1)]


def random_profile(n, rng):
    """Values by weight whose exponents span 2^-60..2^20, some of them 0."""
    profile = rng.uniform(0.5, 1.0, n + 1) * 2.0 ** rng.integers(-60, 20, n + 1)
    profile[rng.random(n + 1) < 0.3] = 0.0
    return profile


@pytest.mark.parametrize("n", [1, 2, 5, 13, 26])
def test_radial_spectrum_is_the_correctly_rounded_level_sum(n):
    rng = np.random.default_rng(300 + n)
    table = krawtchouk(n, n)
    for _ in range(5):
        f = Radial(n, random_profile(n, rng))
        exact = [
            sum(Fraction(p) * k for p, k in zip(f.profile.tolist(), row)) / (1 << n)
            for row in table
        ]
        assert f.level_spectrum.tolist() == [float(c) for c in exact]  # float(Fraction) rounds once


@pytest.mark.parametrize("n", [1, 4, 9, 14])
def test_radial_function_matches_its_dense_lift(n, monkeypatch):
    rng = np.random.default_rng(400 + n)
    f = Radial(n, rng.uniform(-1.0, 1.0, n + 1))
    lifted = CubeFunction(n, f.profile[subset_sizes(n)])
    calls, fwht = [], kwisent.cube._fwht

    def counted(v):
        calls.append(v.size)
        return fwht(v)

    monkeypatch.setattr(kwisent.cube, "_fwht", counted)
    assert wht(f) is wht(f) is f.spectrum
    assert calls == []  # level sums, no butterfly
    assert "values" not in vars(f)  # the spectrum did not build the values
    np.testing.assert_array_equal(f.values, lifted.values)
    assert f.values is f.values and not f.values.flags.writeable
    # the butterfly of the lift is off by n u times the mean of |f|, the level sums by u
    tol = (n + 1) * 2.0**-53 * float(np.abs(lifted.values).mean())
    np.testing.assert_allclose(f.spectrum.coeffs, wht(lifted).coeffs, rtol=0.0, atol=tol)


def test_radial_density_is_checked_as_a_density():
    with pytest.raises(ValueError, match="mean must be 1"):
        radial_density(3, [1.0, 1.0, 1.0, 0.5])
    d = radial_density(3, [8.0, 0.0, 0.0, 0.0])
    np.testing.assert_array_equal(d.spectrum.coeffs, np.ones(8))
    np.testing.assert_array_equal(d.values, point_space(3).density.values)
    with pytest.raises(ValueError, match="nonnegative"):
        radial_density(2, [2.0, 2.0, -2.0])
    with pytest.raises(DimensionError):
        Radial(3, [1.0, 1.0])
    with pytest.raises(ValueError, match="finite"):
        Radial(2, [1.0, np.nan, 1.0])
    with pytest.raises(DimensionError):
        Radial(DIMENSION_CAP + 1, np.ones(DIMENSION_CAP + 2))


def test_spectral_inner_product_is_plancherel():
    rng = np.random.default_rng(9)
    f = SampleSpace(6, np.arange(64), rng.dirichlet(np.ones(64))).density
    d = radial_density(6, np.full(7, 1.0))
    for g in (d, convolve(f, d), weight_one_indicator(6)):
        assert spectral_inner_product(f, g) == pytest.approx(inner_product(f, g), abs=1e-14)
