"""GF(2) algebra, code constructions, sample spaces, and text formats."""

from __future__ import annotations

import math
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import point_space, uniform_space
from kwisent import codes
from kwisent.codes import (
    BinaryMatrix,
    SampleSpace,
    gf2_nullspace,
    gf2_rref,
    hamming_code,
    parity_sampler_space,
    simplex_code,
)
from kwisent.errors import DimensionError, FormatError, ResourceLimitError


def identity(n):
    return BinaryMatrix(tuple(1 << i for i in range(n)), n)


def rank(rows, cols):
    return len(gf2_rref(rows, cols)[0])


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
        assert 2 ** rank(rows, cols) == len(span(rows))
        words = BinaryMatrix(tuple(rows), cols).codewords()
        assert words.tolist() == sorted(span(rows))


def test_nullspace_is_orthogonal_complement():
    rng = np.random.default_rng(12)
    for _ in range(50):
        cols = int(rng.integers(1, 12))
        rows = [int(rng.integers(0, 1 << cols)) for _ in range(int(rng.integers(1, 6)))]
        basis = gf2_nullspace(rows, cols)
        assert rank(basis, cols) == len(basis) == cols - rank(rows, cols)
        for v in basis:
            for r in rows:
                assert (r & v).bit_count() % 2 == 0


def test_hamming_m2_is_repetition_code():
    code = hamming_code(2)
    assert code.shape == (1, 3)
    assert span(code.rows) == {0b000, 0b111}
    assert code.min_distance() == 3


def test_hamming_m3_parameters():
    code = hamming_code(3)
    assert code.shape == (4, 7)
    assert len(span(code.rows)) == 16
    assert code.min_distance() == 3


def test_hamming_m3_dual_is_constant_weight_four():
    dual = hamming_code(3).dual()
    words = sorted(span(dual.rows))
    weights = sorted(w.bit_count() for w in words if w)
    assert weights == [4] * 7
    assert dual.min_distance() == 4


def test_hamming_m4_and_simplex():
    code = hamming_code(4)
    assert (code.shape, code.min_distance()) == ((11, 15), 3)
    simp = simplex_code(4)
    assert simp.shape == (4, 15)
    assert {w.bit_count() for w in span(simp.rows) if w} == {8}


def test_simplex_is_dual_of_hamming():
    assert span(simplex_code(3).rows) == span(hamming_code(3).dual().rows)
    assert simplex_code(3).min_distance() == 4


def test_dual_is_involution():
    code = hamming_code(3)
    assert span(code.dual().dual().rows) == span(code.rows)


def test_dual_of_full_space_is_zero_code():
    full = identity(5)
    zero = full.dual()
    assert zero.shape == (0, 5)
    assert list(zero.codewords()) == [0]
    assert span(zero.dual().rows) == span(full.rows)


def test_duality_invariants_across_constructions():
    for code in (hamming_code(2), hamming_code(3), simplex_code(3), hamming_code(4)):
        dual = code.dual()
        assert len(code.rows) + len(dual.rows) == code.cols
        for a in code.rows:
            for b in dual.rows:
                assert (a & b).bit_count() % 2 == 0


def test_uniform_code_space_examples():
    space = parity_sampler_space(hamming_code(2))
    assert list(space.points) == [0b000, 0b111]
    np.testing.assert_array_equal(space.probabilities, [0.5, 0.5])

    space7 = parity_sampler_space(hamming_code(3))
    assert space7.support_size == 16 == -(-(2**7) // (7 + 1))  # ceil(2^n / (n+1))
    np.testing.assert_array_equal(space7.probabilities, np.full(16, 1 / 16))

    assert list(parity_sampler_space(identity(4).dual()).points) == [0]


def test_parity_sampler_identity_matrix_gives_uniform():
    eye = BinaryMatrix(tuple(1 << i for i in range(3)), 3)
    space = parity_sampler_space(eye)
    assert space.support_size == 8
    np.testing.assert_array_equal(space.probabilities, np.full(8, 1 / 8))


def test_parity_sampler_merges_dependent_rows():
    gen = simplex_code(3)
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
        sampled = parity_sampler_space(BinaryMatrix(rows, cols))
        words = sorted(span(rows))
        np.testing.assert_array_equal(sampled.points, words)
        np.testing.assert_array_equal(sampled.probabilities, np.full(len(words), 1 / len(words)))


def test_min_distance_reduces_the_rows_once(monkeypatch):
    code, reduce, calls = hamming_code(3), codes.gf2_rref, []

    def counted(rows, cols):
        calls.append(cols)
        return reduce(rows, cols)

    monkeypatch.setattr(codes, "gf2_rref", counted)
    assert code.min_distance() == 3
    assert calls == [7]


def test_min_distance_guard():
    with pytest.raises(ResourceLimitError):
        identity(26).min_distance()


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
    space = parity_sampler_space(hamming_code(3))
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


def read_space_by_line(text):
    """Line-by-line sample space reader: (n, points, probabilities) or the
    (message, line) of the first FormatError; the reference for from_text."""
    lines = text.splitlines()
    n = int(lines[0].strip()[2:])
    points, probs, seen = [], [], set()
    for lineno, raw in enumerate(lines[1:], start=2):
        parts = raw.split()
        if not parts:
            continue
        if len(parts) != 2:
            return "expected '<bitstring> <probability>'", lineno
        bits, prob_text = parts
        if len(bits) != n or set(bits) - {"0", "1"}:
            return f"expected a bitstring of length {n}", lineno
        try:
            prob = float(prob_text)
        except ValueError:
            return f"bad probability {prob_text!r}", lineno
        if prob < 0.0 or not math.isfinite(prob):
            return f"bad probability {prob_text!r}", lineno
        if int(bits, 2) in seen:
            return f"duplicate point {bits}", lineno
        seen.add(int(bits, 2))
        points.append(int(bits, 2))
        probs.append(prob)
    total = sum(probs)
    if not points or abs(total - 1.0) > 1e-9:
        return None
    return n, np.asarray(points), np.asarray(probs) / total


BAD_LINES = [
    ("0a1 0.5", "expected a bitstring of length 3"),
    ("01 0.5", "expected a bitstring of length 3"),
    ("0001 0.5", "expected a bitstring of length 3"),
    ("001 x", "bad probability 'x'"),
    ("001 nan", "bad probability 'nan'"),
    ("001 inf", "bad probability 'inf'"),
    ("001 1e999", "bad probability '1e999'"),
    ("001 -0.25", "bad probability '-0.25'"),
    ("000 0.25", "duplicate point 000"),
    ("001 0.25 0.25", "expected '<bitstring> <probability>'"),
    ("001", "expected '<bitstring> <probability>'"),
]


@pytest.mark.parametrize("line, message", BAD_LINES)
def test_sample_space_parse_error_kinds_cite_their_line(line, message):
    text = f"n=3\n000 0.5\n\n  \n{line}\n111 0.5\n01 x y\n"
    with pytest.raises(FormatError) as err:
        SampleSpace.from_text(text)
    assert err.value.line == 5
    assert str(err.value) == f"line 5: {message}"


def test_sample_space_dimension_outside_range_is_refused():
    for n in (0, 64):
        with pytest.raises(DimensionError):
            SampleSpace.from_text(f"n={n}\n{'0' * max(n, 1)} 1.0\n")


def space_line(n, kind, point, draw):
    bits = format(point, f"0{n}b")
    if kind == "good":
        return f"{bits} {draw(st.sampled_from(['0', '1', '0.5', '0.25', '1e-3']))}"
    if kind == "blank":
        return draw(st.sampled_from(["", "  ", "\t"]))
    if kind == "bits":
        return draw(st.sampled_from([bits[1:], bits + "1", "2" + bits[1:]])) + " 0.5"
    if kind == "prob":
        return f"{bits} {draw(st.sampled_from(['x', 'nan', '-1', 'inf', '1e999']))}"
    return f"{bits} 0.5 {draw(st.sampled_from(['0', 'x']))}"


@st.composite
def space_texts(draw):
    n = draw(st.integers(1, 6))
    kinds = st.sampled_from(["good"] * 6 + ["blank", "bits", "prob", "tokens"])
    lines = [
        space_line(n, draw(kinds), draw(st.integers(0, (1 << n) - 1)), draw)
        for _ in range(draw(st.integers(1, 12)))
    ]
    return f"n={n}\n" + "\n".join(lines) + "\n"


@given(space_texts(), st.sampled_from([1, 2, 3, codes.READ_BLOCK_LINES]))
def test_sample_space_reader_matches_line_by_line_reference(text, block):
    # small blocks put blank, bad and repeated lines on both sides of a boundary
    expected = read_space_by_line(text)
    try:
        with mock.patch.object(codes, "READ_BLOCK_LINES", block):
            space = SampleSpace.from_text(text)
    except FormatError as err:
        if err.line is None:
            assert expected is None
        else:
            message, line = expected
            assert (str(err), err.line) == (f"line {line}: {message}", line)
        return
    n, points, probs = expected
    order = np.argsort(points)
    assert space.n == n
    np.testing.assert_array_equal(space.points, points[order])
    assert np.array_equal(space.probabilities.view(np.uint64), probs[order].view(np.uint64))


@pytest.mark.parametrize(
    "probs", [[0.1] * 10, [0.7, 0.2, 0.1], [0.1, 0.2, 0.7], [1e-3] * 999 + [1e-3 + 1e-12]]
)
def test_sample_space_normalizes_by_the_sum_in_line_order(probs):
    n = 10
    text = f"n={n}\n" + "".join(f"{i:0{n}b} {p!r}\n" for i, p in enumerate(probs))
    _, points, expected = read_space_by_line(text)
    space = SampleSpace.from_text(text)
    np.testing.assert_array_equal(space.points, points)
    assert np.array_equal(space.probabilities.view(np.uint64), expected.view(np.uint64))


@st.composite
def dyadic_spaces(draw):
    """Spaces whose probabilities are multiples of 2^-20 summing to exactly 1."""
    n = draw(st.integers(1, 63))
    size = draw(st.integers(1, min(30, 1 << n)))
    points = draw(
        st.lists(st.integers(0, (1 << n) - 1), min_size=size, max_size=size, unique=True)
    )
    cuts = draw(st.lists(st.integers(0, 1 << 20), min_size=size - 1, max_size=size - 1))
    counts = np.diff([0, *sorted(cuts), 1 << 20])
    return SampleSpace(n, np.asarray(points, dtype=np.int64), counts / float(1 << 20))


@given(dyadic_spaces())
def test_sample_space_text_round_trip_property(space):
    parsed = SampleSpace.from_text(space.to_text())
    assert parsed.n == space.n
    np.testing.assert_array_equal(parsed.points, space.points)
    assert np.array_equal(
        parsed.probabilities.view(np.uint64), space.probabilities.view(np.uint64)
    )


def test_sample_space_load_renormalizes_within_tolerance():
    text = "n=2\n00 0.5000000001\n11 0.5\n"
    space = SampleSpace.from_text(text)
    assert abs(space.probabilities.sum() - 1.0) <= 1e-12


def test_binary_matrix_round_trip_and_errors():
    mat = simplex_code(3)
    assert mat.shape == (3, 7)
    parsed = BinaryMatrix.from_text(mat.to_text())
    assert parsed == mat
    with pytest.raises(FormatError):
        BinaryMatrix.from_text("2\n101\n")
    with pytest.raises(FormatError) as err:
        BinaryMatrix.from_text("2 3\n101\n10\n")
    assert err.value.line == 3


def test_point_and_uniform_spaces():
    assert point_space(5).support_size == 1
    assert uniform_space(4).support_size == 16


@pytest.mark.parametrize(
    "matrix",
    [identity(20), BinaryMatrix(identity(20).rows * 2, 20)],
    ids=["parity_sampler_space", "dependent_rows"],
)
def test_enumerations_refuse_above_the_cube_cap_before_allocating(monkeypatch, matrix):
    # 2^20 points would be 8 MiB of int64; the cap is read at call time and
    # compared with the rank, not the row count
    monkeypatch.setattr("kwisent.cube.DIMENSION_CAP", 10)
    tracemalloc.start()
    try:
        with pytest.raises(
            DimensionError, match=r"^row space rank 20 exceeds the enumeration cap of 10$"
        ):
            parity_sampler_space(matrix)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20
