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
from kwisent import codes, cube
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
from oracles import space_text_by_line
from test_bench_kernels import load_script


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
    assert (len(code.rows), code.cols) == (1, 3)
    assert span(code.rows) == {0b000, 0b111}
    assert code.min_distance() == 3


def test_hamming_m3_parameters():
    code = hamming_code(3)
    assert (len(code.rows), code.cols) == (4, 7)
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
    assert ((len(code.rows), code.cols), code.min_distance()) == ((11, 15), 3)
    simp = simplex_code(4)
    assert (len(simp.rows), simp.cols) == (4, 15)
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
    assert (len(zero.rows), zero.cols) == (0, 5)
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


@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_sample_space_refuses_non_finite_probabilities(bad):
    # NaN passes both the sign and the sum checks; the text form refuses it
    with pytest.raises(ValueError, match="finite"):
        SampleSpace(1, np.array([0, 1]), np.array([bad, bad]))
    with pytest.raises(ValueError, match="finite"):
        SampleSpace(2, np.array([0, 1, 2]), np.array([0.5, 0.5, bad]))


def test_sample_space_writer_matches_line_by_line_reference():
    # many points, few distinct probabilities of different text lengths, and both zeros
    rng = np.random.default_rng(7)
    points = rng.choice(1 << 14, size=3077, replace=False)
    probs = rng.choice([1.0, 2.0, 3.0, 0.0], size=points.size)
    probs /= probs.sum()
    probs[probs == 0.0] = np.where(np.arange(points.size) % 2, -0.0, 0.0)[probs == 0.0]
    space = SampleSpace(14, points, probs)
    assert space.to_text() == space_text_by_line(space)
    assert " -0.0\n" in space.to_text() and " 0.0\n" in space.to_text()


@st.composite
def writer_spaces(draw):
    """Spaces at any dimension whose probabilities have one text or many,
    of one length or several, with 0.0 and -0.0 among them."""
    n = draw(st.integers(1, 63))
    size = draw(st.integers(1, min(40, 1 << n)))
    points = draw(
        st.lists(st.integers(0, (1 << n) - 1), min_size=size, max_size=size, unique=True)
    )
    weights = st.sampled_from([0.0, -0.0, 1.0, 3.0, 0.1, 1e-300, 7e5])
    probs = np.asarray(draw(st.lists(weights, min_size=size, max_size=size)))
    total = probs.sum()
    probs = probs / total if total > 0 else np.full(size, 1.0 / size)
    return SampleSpace(n, np.asarray(points, dtype=np.int64), probs)


@given(writer_spaces())
def test_sample_space_writer_matches_line_by_line_property(space):
    assert space.to_text() == space_text_by_line(space)


def test_sample_space_density_divides_in_place():
    # the density is the one dense vector built: no quotient, no copy
    rng = np.random.default_rng(16)
    points = rng.choice(1 << 16, size=4096, replace=False)
    space = SampleSpace(16, points, np.full(points.size, 1.0 / points.size))
    tracemalloc.start()
    try:
        space.density
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.2 * (8 << 16)


def counted_spectrum(space: SampleSpace) -> tuple[np.ndarray, int]:
    """The density's spectrum, and the butterflies that reading it ran."""
    with mock.patch.object(cube, "_fwht", wraps=cube._fwht) as fwht:
        coeffs = space.density.spectrum.coeffs
    return coeffs, fwht.call_count


def assert_butterfly_bits(space: SampleSpace, coeffs: np.ndarray) -> None:
    """coeffs holds, byte for byte, the butterfly's spectrum of the density:
    the independent route, which tells -0.0 from 0.0 too."""
    route = cube._fwht(space.density.values) / (1 << space.n)
    assert coeffs.tobytes() == route.tobytes()


@st.composite
def generator_matrices(draw):
    """Generators of at most 16 columns; rows may be zero, repeated or sums
    of other rows, so the rank is often below the row count."""
    n = draw(st.integers(1, 16))
    rows = draw(st.lists(st.integers(0, (1 << n) - 1), max_size=n))
    if rows and draw(st.booleans()):
        rows.append(rows[0] ^ rows[-1])
    return BinaryMatrix(tuple(rows), n)


@given(generator_matrices(), st.sampled_from([0, 1, 3, codes.DUAL_BLOCK_ROWS]))
def test_code_space_spectrum_is_the_dual_code_with_the_butterfly_bits(matrix, block):
    # a code's space, as built and as read back from its file, takes its
    # spectrum from the dual code with no butterfly, and the butterfly,
    # run here on the density's values, gives the same bytes; a block of
    # 0, 1 or 3 dual rows writes the dual words in many blocks
    built = parity_sampler_space(matrix)
    for space in (built, SampleSpace.from_text(built.to_text())):
        with mock.patch.object(codes, "DUAL_BLOCK_ROWS", block):
            coeffs, butterflies = counted_spectrum(space)
        assert butterflies == 0
        assert_butterfly_bits(space, coeffs)
        assert set(np.flatnonzero(coeffs).tolist()) == span(matrix.dual().rows)


def hamming_space(probabilities, shift: int = 0) -> SampleSpace:
    """The 2^11 points of the Hamming code of length 15, each XOR shift, at
    the probabilities given, repeated in point order to fill them."""
    points = parity_sampler_space(hamming_code(4)).points ^ shift
    return SampleSpace(15, points, np.resize(probabilities, points.size))


@pytest.mark.parametrize(
    "make, butterflies",
    [
        (lambda: hamming_space(2.0**-11, shift=1), 1),
        (lambda: SampleSpace(3, [0, 1, 2, 4], np.full(4, 0.25)), 1),
        (lambda: hamming_space([5 * 2.0**-13, 3 * 2.0**-13]), 1),
        (lambda: hamming_space(np.r_[np.nextafter(2.0**-11, 1.0), np.full(2047, 2.0**-11)]), 1),
        (lambda: point_space(9), 0),
        (lambda: uniform_space(9), 0),
    ],
    ids=["coset", "not-closed", "5:3", "one-ulp-off", "point", "uniform"],
)
def test_only_a_uniform_code_takes_the_dual_code_route(make, butterflies):
    # a coset (0 outside the support), 2^k points that XOR leaves, and a
    # code at unequal probabilities or with one point at 2^-k + one ulp,
    # which the reader's division by the sum keeps, run the butterfly; the
    # point mass (rank 0) and the whole cube (rank n) are codes
    built = make()
    for space in (built, SampleSpace.from_text(built.to_text())):
        coeffs, count = counted_spectrum(space)
        assert count == butterflies
        assert_butterfly_bits(space, coeffs)


def test_low_rank_code_spectrum_lists_no_dual_words():
    # the point mass at n = 20 has 2^20 dual words: as one int64 array they
    # made the peak 3.0 vectors
    space = point_space(20)
    tracemalloc.start()
    try:
        space.density.spectrum
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2.15 * (8 << 20)


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
            prob = float(prob_text) if prob_text.isascii() and "_" not in prob_text else math.nan
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
    ("001 0.2_5", "bad probability '0.2_5'"),  # float() reads it as 0.25
    ("001 \u0660.\u0665", "bad probability '\u0660.\u0665'"),  # Arabic-Indic 0.5
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


@pytest.mark.parametrize("header, n", [("n=1_0", 10), ("n=\u0663", 3)], ids=["underscore", "non-ascii"])
def test_sample_space_header_is_ascii_digits(header, n):
    # int() reads a digit-group underscore and non-ASCII digits
    with pytest.raises(FormatError) as err:
        SampleSpace.from_text(f"{header}\n{'0' * n} 0.5\n{'1' * n} 0.5\n")
    assert str(err.value) == "line 1: expected header 'n=<int>'"


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
    if draw(st.booleans()):  # probabilities summing to 1; one bitstring may be bad or repeated
        points = draw(st.lists(st.integers(0, (1 << n) - 1), min_size=1, max_size=12, unique=True))
        bits = [f"{p:0{n}b}" for p in points]
        at = draw(st.integers(0, len(bits) - 1))
        bad = [bits[at] + "1", bits[at][1:], "2" + bits[at][1:], bits[0]]
        bits[at] = draw(st.sampled_from([bits[at]] * 4 + bad))
        gaps = st.sampled_from([" ", "\t", "  "])
        lines = [f"{b}{draw(gaps)}{1 / len(bits)!r}" for b in bits]
        lines.insert(draw(st.integers(0, len(lines))), draw(st.sampled_from(["", "  ", "\t"])))
        return f"n={n}\n" + "\n".join(lines) + "\n"
    kinds = st.sampled_from(["good"] * 6 + ["blank", "bits", "prob", "tokens"])
    lines = [
        space_line(n, draw(kinds), draw(st.integers(0, (1 << n) - 1)), draw)
        for _ in range(draw(st.integers(1, 12)))
    ]
    return f"n={n}\n" + "\n".join(lines) + "\n"


def assert_reads_like_reference(text):
    """from_text reads the points and probability bits read_space_by_line
    reads, or refuses the text with its message and line; returns whether
    it read the text."""
    expected = read_space_by_line(text)
    try:
        space = SampleSpace.from_text(text)
    except FormatError as err:
        if err.line is None:
            assert expected is None
        else:
            message, line = expected
            assert (str(err), err.line) == (f"line {line}: {message}", line)
        return False
    n, points, probs = expected
    order = np.argsort(points)
    assert space.n == n
    np.testing.assert_array_equal(space.points, points[order])
    assert np.array_equal(space.probabilities.view(np.uint64), probs[order].view(np.uint64))
    return True


def reads_like_reference_counting_reads(text):
    """assert_reads_like_reference(text), and the number of times from_text
    ran _read_grid and _read_lines."""
    with (
        mock.patch.object(codes, "_read_grid", wraps=codes._read_grid) as grid_reader,
        mock.patch.object(codes, "_read_lines", wraps=codes._read_lines) as line_reader,
    ):
        accepted = assert_reads_like_reference(text)
    return accepted, grid_reader.call_count, line_reader.call_count


@given(space_texts())
def test_sample_space_reader_matches_line_by_line_reference(text):
    assert_reads_like_reference(text)


BAD_TEXTS = ["x", "nan", "inf", "1e999", "-0.25", "-0", "0.2_5"]


def widen(text, width):
    """text with zeros after its sign up to width: a number keeps its value,
    and each of BAD_TEXTS but '-0' (still -0.0) is still refused."""
    sign = text[:1] if text[:1] in "+-" else ""
    return sign + "0" * (width - len(text)) + text[len(sign) :]


def near_miss(line, n, kind):
    """A '<bits> <text>\\n' line that only the line-by-line reader reads."""
    bits, text = line[:n], line[n + 1 : -1]
    if kind == "tab":
        return f"{bits}\t{text}\n"
    if kind == "two spaces":
        return f"{bits}  {text}\n"
    if kind == "crlf":
        return f"{bits} {text}\r\n"
    if kind == "digit 2":
        return f"2{bits[1:]} {text}\n"
    if kind == "blank":
        return "\n" + line
    return f"{bits} {text}0\n"  # one character longer


@st.composite
def grid_space_texts(draw):
    """(text, sliced): a file in to_text's layout, with one probability text
    or many, bad texts and repeated points at any line, and perhaps no final
    newline; sliced is False where one line is a near miss of the layout, or
    where the lines hold more than one probability text."""
    n = draw(st.integers(1, 63))
    size = draw(st.integers(1, min(40, 1 << n)))
    points = draw(
        st.lists(st.integers(0, (1 << n) - 1), min_size=size, max_size=size, unique=True)
    )
    if draw(st.booleans()):  # one text, as in a space built from a code
        texts = [draw(st.sampled_from([repr(1.0 / size)] * 12 + BAD_TEXTS))] * size
    else:  # dyadic probabilities summing to exactly 1
        cuts = draw(st.lists(st.integers(0, 1 << 20), min_size=size - 1, max_size=size - 1))
        counts = np.diff([0, *sorted(cuts), 1 << 20]).tolist()
        texts = [repr(c / float(1 << 20)) for c in counts]
    rarely = st.sampled_from([False, False, False, True])
    if draw(rarely):
        texts[draw(st.integers(0, size - 1))] = draw(st.sampled_from(BAD_TEXTS))
    if size > 1 and draw(rarely):
        at = draw(st.integers(1, size - 1))
        points[at] = points[draw(st.integers(0, at - 1))]
    width = max(map(len, texts))
    tails = [widen(t, width) for t in texts]
    lines = [f"{p:0{n}b} {t}\n" for p, t in zip(points, tails)]
    # a single line one character longer is still one width
    kinds = ["tab", "two spaces", "crlf", "digit 2", "blank"] + ["longer"] * (size > 1)
    kind = draw(st.sampled_from([None] * len(kinds) + kinds))
    if kind is not None:
        at = draw(st.integers(0, size - 1))
        lines[at] = near_miss(lines[at], n, kind)
    text = f"n={n}\n" + "".join(lines)
    if draw(st.booleans()):
        text = text[:-1]
    return text, kind is None and len(set(tails)) == 1


@given(grid_space_texts())
def test_sample_space_grid_reader_matches_line_by_line_reference(case):
    # the grid is tried once; a near miss or a file of many probability texts
    # is read line by line once, and a sliced text the constructor accepts
    # never is
    text, sliced = case
    accepted, grid_reads, line_reads = reads_like_reference_counting_reads(text)
    assert (grid_reads, line_reads) == (1, 0 if sliced and accepted else 1)


@pytest.mark.parametrize(
    "matrix",
    [
        hamming_code(4),
        simplex_code(6),
        identity(1),
        BinaryMatrix((), 9),
        load_script().random_code_20(),
    ],
    ids=["hamming15", "simplex63", "identity1", "point9", "random20"],
)
def test_code_space_files_are_sliced_not_split(monkeypatch, matrix):
    # every line to_text writes for a code has one width: the line-by-line
    # reader, many times slower, must not run on such a good file, whose
    # points are sorted once, by the constructor
    def refuse(*args, **kwargs):
        raise AssertionError("a reader ran that a file to_text wrote does not need")

    monkeypatch.setattr(codes, "_read_lines", refuse)
    space = parity_sampler_space(matrix)
    text = space.to_text()
    with mock.patch.object(np, "argsort", wraps=np.argsort) as argsort:
        parsed = SampleSpace.from_text(text)
    assert argsort.call_count == 1
    assert parsed.n == space.n
    np.testing.assert_array_equal(parsed.points, space.points)
    assert np.array_equal(
        parsed.probabilities.view(np.uint64), space.probabilities.view(np.uint64)
    )


def test_two_alternating_texts_of_one_width_are_read_line_by_line():
    # the file the CI workflow's reader step builds: the Hamming code of
    # length 15, with probabilities alternating between two texts of one
    # width and summing to exactly 1; the grid takes one text only, so one
    # line-by-line read gives the values of the tab-separated copy
    points = parity_sampler_space(hamming_code(4)).points
    text = SampleSpace(15, points, np.resize([1 / 4096, 3 / 4096], points.size)).to_text()
    assert {len(line) for line in text.splitlines()[1:]} == {30}
    assert codes._read_grid(text) is None
    assert reads_like_reference_counting_reads(text) == (True, 1, 1)
    space, tabs = SampleSpace.from_text(text), SampleSpace.from_text(text.replace(" ", "\t"))
    np.testing.assert_array_equal(space.points, tabs.points)
    assert np.array_equal(space.probabilities.view(np.uint64), tabs.probabilities.view(np.uint64))


@pytest.mark.parametrize("good", [2, 3, 1024])
def test_sample_space_bad_probability_after_repeated_good_ones(good):
    # each distinct probability text is parsed once: the repeated good text
    # and the repeated bad one still take the line of their first refusal,
    # however many good lines come before them
    lines = [f"{p:011b} 0.0625" for p in range(good)]
    lines += [f"{good:011b} -0", f"{good + 1:011b} x", f"{good + 2:011b} 0.0625"]
    text = "n=11\n" + "\n".join(lines + [f"{good + 3:011b} x"]) + "\n"
    line = good + 3
    with pytest.raises(FormatError) as err:
        SampleSpace.from_text(text)
    assert (str(err.value), err.value.line) == (f"line {line}: bad probability 'x'", line)
    assert read_space_by_line(text) == ("bad probability 'x'", line)


@pytest.mark.parametrize("sep", [" ", "\t"], ids=["space", "tab"])
@pytest.mark.parametrize(
    "bits, message",
    [
        ("0001", "expected a bitstring of length 3"),
        ("01", "expected a bitstring of length 3"),
        ("201", "expected a bitstring of length 3"),
        ("100", "duplicate point 100"),
    ],
)
def test_sample_space_refuses_a_bad_line_in_a_text_that_sums_to_1(sep, bits, message):
    # the sum alone would let the text through: the grid read must refuse
    # the line itself, or the constructor the repeated point, and so must
    # the line-by-line read
    text = f"n=3\n100{sep}0.5\n{bits}{sep}0.5\n"
    with pytest.raises(FormatError) as err:
        SampleSpace.from_text(text)
    assert (str(err.value), err.value.line) == (f"line 3: {message}", 3)
    assert read_space_by_line(text) == (message, 3)


@pytest.mark.parametrize("last", ["111\t0.25", "111\tx"], ids=["good", "bad"])
def test_a_tab_separated_file_is_read_line_by_line_once(last):
    # the grid refuses the tabs, and the one line-by-line read both reads
    # the values and names the bad line
    text = "n=3\n000\t0.5\n011\t0.25\n" + last + "\n"
    assert reads_like_reference_counting_reads(text) == (last == "111\t0.25", 1, 1)


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


def test_sample_space_refusal_keeps_the_constructor_error_on_a_good_text(monkeypatch):
    # no line of the text is bad and its sum is within FILE_TOTAL_MASS, so the
    # line-by-line pass finds nothing and the constructor's error is raised
    monkeypatch.setattr(codes, "TOTAL_MASS", -1.0)
    with pytest.raises(ValueError, match=r"^probabilities must sum to 1 within -1\.0") as err:
        SampleSpace.from_text("n=2\n00 0.5\n11 0.5\n")
    assert not isinstance(err.value, FormatError)


def test_binary_matrix_round_trip_and_errors():
    mat = simplex_code(3)
    assert (len(mat.rows), mat.cols) == (3, 7)
    parsed = BinaryMatrix.from_text("3 7\n1010101\n0110011\n0001111\n")
    assert parsed == mat
    with pytest.raises(FormatError):
        BinaryMatrix.from_text("2\n101\n")
    with pytest.raises(FormatError) as err:
        BinaryMatrix.from_text("2 3\n101\n10\n")
    assert err.value.line == 3


@pytest.mark.parametrize(
    "text, error, message",
    [
        ("1 -3\n101\n", DimensionError, "code length must be in 1..63, got -3"),
        ("1 0\n", DimensionError, "code length must be in 1..63, got 0"),
        ("1 99\n" + "1" * 99 + "\n", DimensionError, "code length must be in 1..63, got 99"),
        ("-1 3\n", FormatError, "line 1: expected a row count >= 0, got -1"),
        ("1_0 3\n", FormatError, "line 1: expected integer 'rows cols' header"),
        ("1 \u0663\n101\n", FormatError, "line 1: expected integer 'rows cols' header"),
    ],
    ids=["negative-cols", "zero-cols", "wide", "negative-rows", "underscore", "non-ascii"],
)
def test_binary_matrix_header_is_checked_before_any_row(monkeypatch, text, error, message):
    # the constructor checks the width too, but only once every row is read
    def refuse(self):
        raise AssertionError("a matrix was built from a refused header")

    monkeypatch.setattr(BinaryMatrix, "__post_init__", refuse)
    with pytest.raises(error) as err:
        BinaryMatrix.from_text(text)
    assert str(err.value) == message


def test_point_and_uniform_spaces():
    assert point_space(5).support_size == 1
    assert uniform_space(4).support_size == 16


def test_density_is_built_on_first_read_and_kept():
    # a 40-bit density would be 2^40 floats: making and writing the space
    # must not build it, and reading it is refused by the dense cap
    space = parity_sampler_space(BinaryMatrix((0b111 << 37, 0b1011 << 20, 0b11), 40))
    assert space.to_text().startswith("n=40\n") and space.support_size == 8
    assert "density" not in vars(space)
    with pytest.raises(DimensionError, match=r"^dimension 40 outside supported range 1\.\.26$"):
        space.density
    small = point_space(3)
    assert "density" not in vars(small)
    assert small.density is small.density
    np.testing.assert_array_equal(small.density.values, [8, 0, 0, 0, 0, 0, 0, 0])


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
