"""GF(2) algebra, code constructions, sample spaces, and text formats."""

from __future__ import annotations

import numpy as np
import pytest

from kwisent.codes import (
    BinaryMatrix,
    LinearCode,
    SampleSpace,
    check_column_independence,
    gf2_nullspace,
    gf2_rank,
    hamming_code,
    hamming_parity_check,
    parity_sampler_space,
    point_space,
    simplex_code,
    uniform_code_space,
    uniform_space,
)
from kwisent.errors import DimensionError, FormatError, ResourceLimitError


def span(rows):
    """All XOR combinations of the rows; the enumeration oracle."""
    words = {0}
    for row in rows:
        words |= {w ^ row for w in words}
    return words


def test_rank_matches_span_size_oracle():
    rng = np.random.default_rng(11)
    for _ in range(50):
        cols = int(rng.integers(1, 12))
        rows = [int(rng.integers(0, 1 << cols)) for _ in range(int(rng.integers(0, 8)))]
        assert 2 ** gf2_rank(rows, cols) == len(span(rows))


def test_nullspace_is_orthogonal_complement():
    rng = np.random.default_rng(12)
    for _ in range(50):
        cols = int(rng.integers(1, 12))
        rows = [int(rng.integers(0, 1 << cols)) for _ in range(int(rng.integers(1, 6)))]
        basis = gf2_nullspace(rows, cols)
        assert gf2_rank(basis, cols) == len(basis) == cols - gf2_rank(rows, cols)
        for v in basis:
            for r in rows:
                assert (r & v).bit_count() % 2 == 0


def test_hamming_m2_is_repetition_code():
    code = hamming_code(2)
    assert (code.n, code.dimension) == (3, 1)
    assert span(code.generator.rows) == {0b000, 0b111}
    assert code.min_distance() == 3


def test_hamming_m3_parameters():
    code = hamming_code(3)
    assert (code.n, code.dimension) == (7, 4)
    assert len(span(code.generator.rows)) == 16
    assert code.min_distance() == 3


def test_hamming_m3_dual_is_constant_weight_four():
    dual = hamming_code(3).dual()
    words = sorted(span(dual.generator.rows))
    weights = sorted(w.bit_count() for w in words if w)
    assert weights == [4] * 7
    assert dual.min_distance() == 4


def test_hamming_m4_and_simplex():
    code = hamming_code(4)
    assert (code.n, code.dimension, code.min_distance()) == (15, 11, 3)
    simp = simplex_code(4)
    assert (simp.n, simp.dimension) == (15, 4)
    assert {w.bit_count() for w in span(simp.generator.rows) if w} == {8}


def test_simplex_is_dual_of_hamming():
    assert span(simplex_code(3).generator.rows) == span(
        hamming_code(3).dual().generator.rows
    )
    assert simplex_code(3).min_distance() == 4


def test_dual_is_involution():
    code = hamming_code(3)
    assert span(code.dual().dual().generator.rows) == span(code.generator.rows)


def test_dual_of_full_space_is_zero_code():
    full = LinearCode(5, BinaryMatrix(tuple(1 << i for i in range(5)), 5))
    zero = full.dual()
    assert zero.dimension == 0
    assert list(zero.codewords()) == [0]
    assert span(zero.dual().generator.rows) == span(full.generator.rows)


def test_duality_invariants_across_constructions():
    for code in (hamming_code(2), hamming_code(3), simplex_code(3), hamming_code(4)):
        dual = code.dual()
        assert code.dimension + dual.dimension == code.n
        for a in code.generator.rows:
            for b in dual.generator.rows:
                assert (a & b).bit_count() % 2 == 0


def test_column_independence_identity():
    eye = BinaryMatrix(tuple(1 << i for i in range(4)), 4)
    assert check_column_independence(eye, 4)


def test_column_independence_hamming_parity_check():
    check = hamming_parity_check(3)
    assert check.shape == (3, 7)
    assert check_column_independence(check, 2)
    assert not check_column_independence(check, 3)


def test_column_independence_zero_column():
    mat = BinaryMatrix((0b110, 0b010), 3)  # coordinate 3 is all-zero
    assert not check_column_independence(mat, 1)


def test_column_independence_guard():
    wide = BinaryMatrix(tuple([1] * 2), 40)
    with pytest.raises(ResourceLimitError):
        check_column_independence(wide, 20)


def test_uniform_code_space_examples():
    space = uniform_code_space(hamming_code(2))
    assert list(space.points) == [0b000, 0b111]
    np.testing.assert_array_equal(space.probabilities, [0.5, 0.5])

    space7 = uniform_code_space(hamming_code(3))
    assert space7.support_size == 16 == -(-(2**7) // (7 + 1))  # ceil(2^n / (n+1))
    np.testing.assert_array_equal(space7.probabilities, np.full(16, 1 / 16))

    zero = LinearCode(4, BinaryMatrix(tuple(1 << i for i in range(4)), 4)).dual()
    assert list(uniform_code_space(zero).points) == [0]


def test_parity_sampler_identity_matrix_gives_uniform():
    eye = BinaryMatrix(tuple(1 << i for i in range(3)), 3)
    space = parity_sampler_space(eye)
    assert space.support_size == 8
    np.testing.assert_array_equal(space.probabilities, np.full(8, 1 / 8))


def test_parity_sampler_merges_dependent_rows():
    gen = simplex_code(3).generator
    doubled = BinaryMatrix(gen.rows + gen.rows, 7)
    a = parity_sampler_space(doubled)
    b = parity_sampler_space(gen)
    np.testing.assert_array_equal(a.points, b.points)
    np.testing.assert_array_equal(a.probabilities, b.probabilities)
    assert a.support_size == 8


def test_parity_sampler_equals_uniform_row_space():
    rng = np.random.default_rng(14)
    for _ in range(20):
        cols = int(rng.integers(2, 10))
        rows = tuple(int(rng.integers(0, 1 << cols)) for _ in range(int(rng.integers(1, 6))))
        mat = BinaryMatrix(rows, cols)
        sampled = parity_sampler_space(mat)
        row_space = LinearCode(cols, BinaryMatrix(mat.row_space_basis(), cols))
        direct = uniform_code_space(row_space)
        np.testing.assert_array_equal(sampled.points, direct.points)
        np.testing.assert_array_equal(sampled.probabilities, direct.probabilities)


def test_min_distance_guard():
    big = LinearCode(26, BinaryMatrix(tuple(1 << i for i in range(26)), 26))
    with pytest.raises(ResourceLimitError):
        big.min_distance()


def test_sample_space_validation():
    with pytest.raises(ValueError):
        SampleSpace(3, np.array([1, 1]), np.array([0.5, 0.5]))
    with pytest.raises(ValueError):
        SampleSpace(3, np.array([1, 2]), np.array([0.6, 0.5]))
    with pytest.raises(ValueError):
        SampleSpace(3, np.array([1, 2]), np.array([1.5, -0.5]))
    with pytest.raises(DimensionError):
        SampleSpace(0, np.array([0]), np.array([1.0]))


def test_sample_space_round_trip():
    space = uniform_code_space(hamming_code(3))
    parsed = SampleSpace.from_text(space.to_text())
    assert parsed.n == space.n
    np.testing.assert_array_equal(parsed.points, space.points)
    np.testing.assert_array_equal(parsed.probabilities, space.probabilities)


def test_sample_space_parse_errors_cite_lines():
    with pytest.raises(FormatError) as err:
        SampleSpace.from_text("m=3\n000 1.0\n")
    assert err.value.line == 1
    with pytest.raises(FormatError) as err:
        SampleSpace.from_text("n=3\n00 1.0\n")
    assert err.value.line == 2
    with pytest.raises(FormatError) as err:
        SampleSpace.from_text("n=3\n000 0.5\n111 x\n")
    assert err.value.line == 3
    with pytest.raises(FormatError) as err:
        SampleSpace.from_text("n=3\n000 0.5\n111 0.4\n")
    assert "0.9" in str(err.value)


def test_sample_space_load_renormalizes_within_tolerance():
    text = "n=2\n00 0.5000000001\n11 0.5\n"
    space = SampleSpace.from_text(text)
    assert abs(space.probabilities.sum() - 1.0) <= 1e-12


def test_binary_matrix_round_trip_and_errors():
    mat = hamming_parity_check(3)
    parsed = BinaryMatrix.from_text(mat.to_text())
    assert parsed == mat
    with pytest.raises(FormatError):
        BinaryMatrix.from_text("2\n101\n")
    with pytest.raises(FormatError) as err:
        BinaryMatrix.from_text("2 3\n101\n10\n")
    assert err.value.line == 3


def test_generator_must_be_full_rank():
    with pytest.raises(ValueError):
        LinearCode(3, BinaryMatrix((0b101, 0b101), 3))


def test_point_and_uniform_spaces():
    assert point_space(5).support_size == 1
    assert uniform_space(4).support_size == 16
