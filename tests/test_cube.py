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
    Radial,
    Spectrum,
    adjacency_apply,
    convolve,
    inner_product,
    inverse_wht,
    krawtchouk,
    level_max_abs,
    level_profile,
    spectral_inner_product,
    subset_sizes,
    weight_one_indicator,
    wht,
)
from kwisent.errors import DimensionError
from oracles import convolve_direct, level_max_abs_scatter


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
    left = np.empty(a.shape[0] // 2)
    while h < a.shape[0]:
        view = a.reshape(-1, 2 * h)
        saved = left.reshape(-1, h)
        saved[:] = view[:, :h]
        np.add(saved, view[:, h:], out=view[:, :h])
        np.subtract(saved, view[:, h:], out=view[:, h:])
        h *= 2


def adjacency_gather_reference(f):
    """sum_i f(x ^ e_i) by index gather, neighbours added in the order i = 0..n-1."""
    idx = np.arange(f.size, dtype=np.uint32)
    partner, neighbour = np.empty_like(idx), np.empty(f.size)
    out = np.zeros(f.size)
    for i in range(f.n):
        np.bitwise_xor(idx, 1 << i, out=partner)
        out += np.take(f.values, partner, out=neighbour, mode="clip")
    return out


def mixed_function(n, rng):
    """Random values in [-1, 1] with special ones, by the top two bits of
    the mask: the first quarter holds only +-0.0 and +-the smallest
    subnormal, the third has a quarter of its values +-0.0 and the fourth a
    quarter of them +-1e300.  The butterfly's stages below the top two bits
    keep the quarters apart, so the huge values swamp only their own."""
    vals = rng.uniform(-1.0, 1.0, size=1 << n)
    q = vals.size // 4
    vals[:q] = rng.choice([0.0, -0.0, 5e-324, -5e-324], size=q)
    for quarter, special in (
        (vals[2 * q : 3 * q], [0.0, -0.0]),
        (vals[3 * q : 4 * q], [1e300, -1e300]),
    ):
        hit = rng.random(q) < 0.25
        quarter[hit] = rng.choice(special, size=int(hit.sum()))
    return CubeFunction(n, vals)


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


def assert_kernels_match_references(f):
    """The butterfly both ways and the adjacency, bit for bit."""
    butterfly = f.values.copy()
    fwht_copy_reference(butterfly)
    assert_same_bits(inverse_wht(Spectrum(f.n, f.values)).values, butterfly)
    butterfly /= f.size
    assert_same_bits(wht(f).coeffs, butterfly)
    del butterfly
    assert_same_bits(adjacency_apply(f).values, adjacency_gather_reference(f))


@pytest.mark.parametrize("n", [*range(1, 23), 24])
def test_kernels_bit_identical_to_references(n):
    assert_kernels_match_references(mixed_function(n, np.random.default_rng(1000 + n)))


@pytest.mark.parametrize("n", range(1, 15))
def test_blocked_kernels_bit_identical_at_a_small_block(n, monkeypatch):
    # rows of 2^4 values: the blocked branch runs from n = 5 on, with slabs
    # one column wide from n = 8 on and more rows than columns from n = 9 on
    monkeypatch.setattr(kwisent.cube, "_BLOCK", 4)
    assert_kernels_match_references(mixed_function(n, np.random.default_rng(3000 + n)))


def test_blocked_wht_is_one_butterfly(monkeypatch):
    n = kwisent.cube._BLOCK + 2
    f = random_function(n, np.random.default_rng(12))
    calls, fwht = [], kwisent.cube._fwht

    def counted(v):
        calls.append(v.size)
        return fwht(v)

    monkeypatch.setattr(kwisent.cube, "_fwht", counted)
    wht(f)
    assert calls == [1 << n]


def test_blocked_wht_holds_one_dense_vector_and_two_rows():
    f = random_function(20, np.random.default_rng(11))
    rows = 2 * (8 << kwisent.cube._BLOCK)  # the two slab buffers
    budget = f.values.nbytes + rows + 4 * np.getbufsize() * 8
    tracemalloc.start()
    try:
        wht(f)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= budget


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
    # The result and at most one scratch vector (two buffers of 2^_BLOCK
    # values above that length); numpy's ufunc iteration buffers
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


@pytest.mark.parametrize("n", range(1, 23))
def test_level_max_abs_bit_identical_to_the_scatter_maximum(n):
    rng = np.random.default_rng(500 + n)
    # few distinct magnitudes, so levels tie; signed zeros, and levels of zeros alone
    coeffs = rng.choice([-0.5, -0.25, -0.0, 0.0, 0.25, 0.5], size=1 << n)
    coeffs[subset_sizes(n) == n // 2] = -0.0
    for s in (Spectrum(n, coeffs), wht(mixed_function(n, rng))):
        assert_same_bits(level_max_abs(s), level_max_abs_scatter(s))


@pytest.mark.parametrize("n", range(1, 23))
def test_level_max_abs_on_rows_of_4_values_is_the_scatter_maximum(n, monkeypatch):
    monkeypatch.setattr(kwisent.cube, "_LEVEL_ROW", 2)
    test_level_max_abs_bit_identical_to_the_scatter_maximum(n)


def test_validation_errors():
    with pytest.raises(DimensionError):
        CubeFunction(3, np.zeros(7))
    with pytest.raises(ValueError):
        CubeFunction(2, np.array([1.0, np.nan, 0.0, 0.0]))
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
    f = CubeFunction(3, view)
    spectrum = wht(f)
    base[0] = 9.0
    assert f.values[0] == 1.0
    np.testing.assert_array_equal(spectrum.coeffs, wht(uniform_space(3).density).coeffs)
    # a read-only array the caller holds is copied as well
    coeffs = wht(f).coeffs
    assert Spectrum(3, coeffs).coeffs is not coeffs


def test_values_copy_a_read_only_array_the_caller_owns():
    a = np.ones(8)
    a.setflags(write=False)
    f, s = CubeFunction(3, a), Spectrum(3, a)
    spectrum = wht(f)
    a.setflags(write=True)  # the owner may make it writeable again
    a[0] = 5.0
    for vals in (f.values, s.coeffs):
        np.testing.assert_array_equal(vals, np.ones(8))
    assert wht(f) is spectrum
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


def test_a_function_made_from_its_values_transforms_once(monkeypatch):
    f = random_function(5, np.random.default_rng(12))
    calls, fwht = [], kwisent.cube._fwht

    def counted(v):
        calls.append(v.size)
        return fwht(v)

    monkeypatch.setattr(kwisent.cube, "_fwht", counted)
    assert "spectrum" not in vars(f)  # built on first read
    assert wht(f) is wht(f) is f.spectrum
    assert calls == [32]
    # the inverse transform builds values alone: a round trip runs both butterflies
    back = inverse_wht(wht(f))
    assert calls == [32, 32] and "spectrum" not in vars(back)


def test_convolution_builds_its_values_only_when_read(monkeypatch):
    # a function keeps its spectrum, so once both are read the only butterfly
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
    assert wht(c) is c.spectrum and calls == [64]  # reading the values kept the product
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


@pytest.mark.parametrize("row", [None, 2], ids=["row-default", "row-2"])
@pytest.mark.parametrize("n", range(1, 23))
def test_level_scaled_product_is_the_gathered_product_bit_for_bit(n, row, monkeypatch):
    if row is not None:
        monkeypatch.setattr(kwisent.cube, "_LEVEL_ROW", row)
    rng = np.random.default_rng(700 + n)
    levels = random_profile(n, rng) * rng.choice([-1.0, 1.0], n + 1)
    coeffs = rng.uniform(-1.0, 1.0, 1 << n) * 2.0 ** rng.integers(-40, 40, 1 << n)
    assert_same_bits(kwisent.cube._level_scaled(coeffs, levels), coeffs * levels[subset_sizes(n)])
    # the layout is cached by (n, row length), and no caller can change it
    low = min(n, kwisent.cube._LEVEL_ROW)
    pops, level_table, order, starts = kwisent.cube._level_rows(n, low)
    assert isinstance(pops, tuple) and len(pops) == 1 << (n - low)
    assert level_table.shape == (n - low + 1, 1 << low)
    assert not any(a.flags.writeable for a in (level_table, order, starts))


@pytest.mark.parametrize("n", [1, 6, 13, 18])
def test_convolve_by_a_level_spectrum_is_the_gathered_product(n):
    rng = np.random.default_rng(800 + n)
    f, d = random_function(n, rng), Radial(n, rng.uniform(0.0, 1.0, n + 1))
    expect = wht(f).coeffs * d.level_spectrum[subset_sizes(n)]
    for h in (convolve(f, d), convolve(d, f)):
        assert h.spectrum.levels is None
        assert_same_bits(h.spectrum.coeffs, expect)
    assert "coeffs" not in vars(d.spectrum)  # neither product gathered d's table


def test_convolve_of_two_radial_functions_is_its_level_product():
    n = 20
    rng = np.random.default_rng(20)
    d, kernel = Radial(n, rng.uniform(0.0, 1.0, n + 1)), weight_one_indicator(n)
    d.spectrum, kernel.spectrum  # the level sums, before tracing
    tracemalloc.start()
    try:
        h = convolve(kernel, d)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < (8 << n) // 64  # n + 1 levels, no 2^n vector
    np.testing.assert_array_equal(h.spectrum.levels, kernel.level_spectrum * d.level_spectrum)
    # the route through two gathered tables: the same product, the same butterfly
    dense = [kwisent.cube._from_spectrum(Spectrum(n, r.spectrum.coeffs)) for r in (kernel, d)]
    route = convolve(*dense)
    assert_same_bits(h.spectrum.coeffs, route.spectrum.coeffs)
    assert_same_bits(h.values, route.values)


def test_wht_of_a_radial_function_gathers_no_table_until_coeffs_is_read():
    n = 20
    f = Radial(n, np.random.default_rng(21).uniform(-1.0, 1.0, n + 1))
    f.level_spectrum  # the level sums, before tracing
    tracemalloc.start()
    try:
        s = wht(f)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < (8 << n) // 64 and "coeffs" not in vars(s)
    assert s.levels is f.level_spectrum and not s.levels.flags.writeable
    coeffs = s.coeffs
    assert coeffs is s.coeffs and not coeffs.flags.writeable
    np.testing.assert_array_equal(coeffs, f.level_spectrum[subset_sizes(n)])


def test_computed_vectors_are_checked_finite_by_their_sum():
    n = 20
    vals = np.random.default_rng(22).uniform(-1.0, 1.0, 1 << n)
    tracemalloc.start()
    try:
        kwisent.cube._frozen_vector(kwisent.cube._Fresh(vals), 1 << n)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < (1 << n) // 8  # no bool temporary of 2^n bytes
    for bad in ([np.nan], [np.inf], [np.inf, -np.inf]):
        raw = np.zeros(8)
        raw[: len(bad)] = bad
        with pytest.raises(ValueError, match="finite"):
            kwisent.cube._frozen_vector(kwisent.cube._Fresh(raw), 8)
        with pytest.raises(ValueError, match="finite"):
            CubeFunction(3, raw)  # a caller's array is checked value by value
    # the stated limit: finite values whose sum passes 1.8e308 are refused
    with pytest.raises(ValueError, match="finite"):
        kwisent.cube._frozen_vector(kwisent.cube._Fresh(np.full(4, 1e308)), 4)
    assert CubeFunction(2, np.full(4, 1e308)).values[0] == 1e308


def test_radial_checks_its_profile():
    profile = np.array([8.0, 0.0, 0.0, 0.0])
    d = Radial(3, profile)
    profile[0] = 1.0  # the caller's array was copied
    assert d.profile[0] == 8.0 and not d.profile.flags.writeable
    np.testing.assert_array_equal(d.spectrum.coeffs, np.ones(8))
    np.testing.assert_array_equal(d.values, point_space(3).density.values)
    with pytest.raises(DimensionError):
        Radial(3, [1.0, 1.0])
    with pytest.raises(ValueError, match="finite"):
        Radial(2, [1.0, np.nan, 1.0])
    with pytest.raises(DimensionError):
        Radial(DIMENSION_CAP + 1, np.ones(DIMENSION_CAP + 2))


def test_spectral_inner_product_is_plancherel():
    rng = np.random.default_rng(9)
    f = SampleSpace(6, np.arange(64), rng.dirichlet(np.ones(64))).density
    d = Radial(6, np.full(7, 1.0))
    for g in (d, convolve(f, d), weight_one_indicator(6)):
        assert spectral_inner_product(f, g) == pytest.approx(inner_product(f, g), abs=1e-14)
