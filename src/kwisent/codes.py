"""Bit-packed GF(2) linear algebra, small code constructions, sample spaces.

Matrices store one int bitmask per row.  Coordinate j (1-based, as written
in the text formats) lives at bit position cols - j, so the leftmost
character of a bitstring is coordinate 1 and ``int(line, 2)`` parses a row.

A sample space file is written as one byte grid, a row per point.  A file
in that layout, every line '<n bits> <probability text>' with one width, is
read back by slicing the grid's columns; any other layout is split into
tokens line by line, more slowly, to the same values and the same messages.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Sequence

import numpy as np

from . import cube
from .errors import DimensionError, FormatError, ResourceLimitError
from .tolerances import FILE_TOTAL_MASS, TOTAL_MASS

MAX_SPACE_DIMENSION = 63
# SampleSpace.from_text splits a file not in the layout to_text writes this
# many lines at a time, so only one block's per-line token lists are alive at
# once; a file in that layout is sliced whole (_line_grid)
READ_BLOCK_LINES = 1024
ENUMERATION_GUARD = 10**7


def gf2_rref(rows: Sequence[int], cols: int) -> tuple[list[int], list[int]]:
    """Reduced row echelon form over GF(2).

    Returns (reduced nonzero rows, pivot bit positions), pivots scanned from
    the high bit (coordinate 1) down for a deterministic result.
    """
    work = [int(r) for r in rows]
    out: list[int] = []
    pivots: list[int] = []
    for bit in range(cols - 1, -1, -1):
        pick = None
        for i, row in enumerate(work):
            if (row >> bit) & 1:
                pick = i
                break
        if pick is None:
            continue
        pivot_row = work.pop(pick)
        work = [r ^ pivot_row if (r >> bit) & 1 else r for r in work]
        out = [r ^ pivot_row if (r >> bit) & 1 else r for r in out]
        out.append(pivot_row)
        pivots.append(bit)
    return out, pivots


def gf2_nullspace(rows: Sequence[int], cols: int) -> list[int]:
    """Basis of {x : row . x = 0 mod 2 for every row}, as bitmasks."""
    reduced, pivots = gf2_rref(rows, cols)
    pivot_set = set(pivots)
    basis = []
    for bit in range(cols - 1, -1, -1):
        if bit in pivot_set:
            continue
        vec = 1 << bit
        for row, p in zip(reduced, pivots):
            if (row >> bit) & 1:
                vec |= 1 << p
        basis.append(vec)
    return basis


def _span(basis: list[int]) -> np.ndarray:
    """Every word of the span of gf2_rref's reduced rows once, in increasing order."""
    if len(basis) > cube.DIMENSION_CAP:
        raise DimensionError(
            f"row space rank {len(basis)} exceeds the enumeration cap of {cube.DIMENSION_CAP}"
        )
    words = np.zeros(1, dtype=np.int64)
    # lowest pivot first: each new row's pivot is above every word so far
    # and reduced rows are zero at the other pivots, so the words stay sorted
    for row in reversed(basis):
        words = np.concatenate([words, words ^ np.int64(row)])
    return words


@dataclass(frozen=True)
class BinaryMatrix:
    """A rows x cols matrix over GF(2) with bit-packed rows.

    As a code, the matrix is a generator and the code is its row space; the
    rows need not be independent.
    """

    rows: tuple[int, ...]
    cols: int

    def __post_init__(self):
        # codewords are int64 bitmasks, which cannot hold bit 63; the width is
        # checked before the rows are read, so rows may be a lazy iterable
        if not 1 <= self.cols <= MAX_SPACE_DIMENSION:
            raise DimensionError(
                f"code length must be in 1..{MAX_SPACE_DIMENSION}, got {self.cols}"
            )
        rows = tuple(int(r) for r in self.rows)
        mask = (1 << self.cols) - 1
        for r in rows:
            if r < 0 or r & ~mask:
                raise ValueError(f"row {r:#x} has bits outside {self.cols} columns")
        object.__setattr__(self, "rows", rows)

    @property
    def shape(self) -> tuple[int, int]:
        return (len(self.rows), self.cols)

    def codewords(self) -> np.ndarray:
        """Every word of the row space once (2^rank words), in increasing order."""
        return _span(gf2_rref(self.rows, self.cols)[0])

    def min_distance(self) -> int:
        """Least weight of a nonzero codeword."""
        basis = gf2_rref(self.rows, self.cols)[0]
        if not basis:
            raise ValueError("the zero code has no nonzero codewords")
        if (1 << len(basis)) > ENUMERATION_GUARD:
            raise ResourceLimitError(f"2^{len(basis)} codewords exceed the enumeration guard")
        return int(np.bitwise_count(_span(basis)[1:].astype(np.uint64)).min())

    def dual(self) -> "BinaryMatrix":
        """A basis of the dual code {x : row . x = 0 for every row}."""
        return BinaryMatrix(tuple(gf2_nullspace(self.rows, self.cols)), self.cols)

    def to_text(self) -> str:
        lines = [f"{len(self.rows)} {self.cols}"]
        lines += [format(r, f"0{self.cols}b") for r in self.rows]
        return "\n".join(lines) + "\n"

    @classmethod
    def from_text(cls, text: str) -> "BinaryMatrix":
        lines = text.splitlines()
        if not lines:
            raise FormatError("empty matrix file", line=1)
        header = lines[0].split()
        if len(header) != 2:
            raise FormatError("expected header 'rows cols'", line=1)
        try:
            n_rows, cols = int(header[0]), int(header[1])
        except ValueError:
            raise FormatError("expected integer 'rows cols' header", line=1) from None
        rows = []
        for lineno, raw in enumerate(lines[1:], start=2):
            stripped = raw.strip()
            if not stripped:
                continue
            if len(stripped) != cols or set(stripped) - {"0", "1"}:
                raise FormatError(
                    f"expected a bitstring of length {cols}", line=lineno
                )
            rows.append(int(stripped, 2))
        if len(rows) != n_rows:
            raise FormatError(f"header promised {n_rows} rows, found {len(rows)}")
        return cls(tuple(rows), cols)


def simplex_code(m: int) -> BinaryMatrix:
    """Generator of the [2^m - 1, m] simplex code: m x (2^m - 1), column j is
    the binary encoding of j.  Every nonzero word has weight 2^(m-1)."""
    if not 2 <= m <= 6:
        raise ValueError(f"m must be in 2..6, got {m}")
    n = (1 << m) - 1
    rows = []
    for i in range(m):
        row = 0
        for j in range(1, n + 1):
            if (j >> i) & 1:
                row |= 1 << (n - j)
        rows.append(row)
    return BinaryMatrix(tuple(rows), n)


def hamming_code(m: int) -> BinaryMatrix:
    """Generator of the [2^m - 1, 2^m - 1 - m] Hamming code, the dual of the
    simplex code (whose generator is the Hamming parity check)."""
    return simplex_code(m).dual()


@dataclass(frozen=True, eq=False)
class SampleSpace:
    """A finite distribution on {0,1}^n: distinct points with probabilities.

    The one input of every check in the package; its density (and so the
    density's spectrum) is built only when a check reads it.
    """

    n: int
    points: np.ndarray
    probabilities: np.ndarray

    def __post_init__(self):
        if not 1 <= self.n <= MAX_SPACE_DIMENSION:
            raise DimensionError(
                f"sample space dimension must be 1..{MAX_SPACE_DIMENSION}, got {self.n}"
            )
        pts = np.asarray(self.points, dtype=np.int64)
        probs = np.asarray(self.probabilities, dtype=np.float64)
        if pts.ndim != 1 or pts.shape != probs.shape or pts.size == 0:
            raise ValueError("points and probabilities must be equal-length 1-d arrays")
        if pts.min() < 0 or int(pts.max()) >= (1 << self.n):
            raise ValueError(f"points must be bitmasks below 2^{self.n}")
        order = np.argsort(pts, kind="stable")
        pts, probs = pts[order], probs[order]
        if np.any(pts[1:] == pts[:-1]):
            raise ValueError("points must be distinct")
        if not np.isfinite(probs).all():
            raise ValueError("probabilities must be finite (no NaN or infinity)")
        if probs.min() < 0.0:
            raise ValueError("probabilities must be nonnegative")
        total = float(probs.sum())
        if abs(total - 1.0) > TOTAL_MASS:
            raise ValueError(f"probabilities must sum to 1 within {TOTAL_MASS!r}, got {total!r}")
        pts.setflags(write=False)
        probs.setflags(write=False)
        object.__setattr__(self, "points", pts)
        object.__setattr__(self, "probabilities", probs)

    @property
    def support_size(self) -> int:
        return int(self.points.size)

    @cached_property
    def density(self) -> cube.Density:
        """The mean-1 density: 2^n times the probability on the support, 0
        elsewhere.  A dense 2^n vector, so it is built on first read, after
        cube.check_dimension, and kept."""
        cube.check_dimension(self.n)
        vals = np.zeros(1 << self.n)
        vals[self.points] = self.probabilities * (1 << self.n)
        vals /= vals.mean()
        return cube.Density(self.n, cube._Fresh(vals))

    def to_text(self) -> str:
        """'n=<n>', then '<bitstring> <repr(probability)>' per point.

        The body is built as one byte grid, a row per point: the bits
        unpacked from the point, a space, and the text of its probability.
        Each distinct probability is formatted once, keyed by its bits, so
        0.0 and -0.0 keep their own text; where the texts differ in length,
        each row is cut after its own text.
        """
        n, size = self.n, self.points.size
        keys = self.probabilities.view(np.uint64)
        if (keys == keys[0]).all():  # a space built from a code has one value
            keys, index = keys[:1], np.zeros(size, dtype=np.intp)
        else:
            keys, index = np.unique(keys, return_inverse=True)
        texts = [f"{q!r}\n".encode() for q in keys.view(np.float64).tolist()]
        widths = [len(text) for text in texts]
        tails = np.array(texts).view(np.uint8).reshape(len(texts), -1)  # NUL-padded
        grid = np.empty((size, n + 1 + tails.shape[1]), dtype=np.uint8)
        octets = self.points.astype("<u8", copy=False).view(np.uint8).reshape(size, 8)
        bits = np.unpackbits(octets, axis=1, count=n, bitorder="little")  # coordinate n first
        np.add(bits[:, ::-1], ord("0"), out=grid[:, :n])
        grid[:, n] = ord(" ")
        grid[:, n + 1 :] = tails[index]
        if min(widths) < max(widths):  # keep each row up to its own newline
            body = grid[np.arange(grid.shape[1]) <= n + np.array(widths)[index][:, None]]
        else:
            body = grid.ravel()
        return f"n={n}\n" + str(memoryview(body), "ascii")

    @classmethod
    def from_text(cls, text: str) -> "SampleSpace":
        """Read the 'n=<n>' header, then one '<bitstring> <probability>' line
        per point.

        A text in the layout to_text writes (ASCII, '\\n' line ends, every
        line '<n bits> <text>' with one width) is sliced as a byte grid, a
        row per line, and each distinct probability text is parsed once.  Any
        other text is split into tokens line by line (_read_block), more
        slowly.  Both read the same values and report the first bad line with
        the same message and number.
        """
        end = text.find("\n")
        head = text[:end]
        grid = None
        if end > 0 and text.isascii() and head.splitlines() == [head]:
            n = _read_header(head)
            grid = _line_grid(text, end + 1, n)
        if grid is not None:
            linenos, points, probs, bad = _read_grid(grid, n)
        else:
            lines = text.splitlines()
            n = _read_header(lines[0] if lines else "")
            linenos, points, probs, bad = _read_lines(lines, n)
        repeat = _first_repeat(points)
        if repeat < points.size:  # it precedes any bad line found
            bad = int(linenos[repeat]), f"duplicate point {int(points[repeat]):0{n}b}"
        if bad is not None:
            raise FormatError(bad[1], line=bad[0])
        if points.size == 0:
            raise FormatError("sample space has no points")
        total = sum(probs.tolist())  # left to right, as the points are listed
        if abs(total - 1.0) > FILE_TOTAL_MASS:
            # quoted by hand: repr and :g both print FILE_TOTAL_MASS as 1e-09
            raise FormatError(f"probabilities sum to {total!r}, not 1 within 1e-9")
        return cls(n, points, probs / total)


def _read_header(line: str) -> int:
    """The dimension n of an 'n=<int>' header line."""
    header = line.strip()
    if not header.startswith("n="):
        raise FormatError("expected header 'n=<int>'", line=1)
    try:
        n = int(header[2:])
    except ValueError:
        raise FormatError("expected header 'n=<int>'", line=1) from None
    if not 1 <= n <= MAX_SPACE_DIMENSION:
        raise DimensionError(
            f"sample space dimension must be 1..{MAX_SPACE_DIMENSION}, got {n}"
        )
    return n


def _line_grid(text: str, start: int, n: int) -> np.ndarray | None:
    """The lines of an ASCII text from offset start as a (lines, width) byte
    grid, or None unless every one is '<n bits of 0/1> <nonblank token>' with
    one width.  Such lines hold no whitespace but the one space, so they
    split into the same two tokens as str.split finds."""
    if not text.endswith("\n"):
        text += "\n"
    width = text.find("\n", start) + 1 - start
    if width < n + 3 or (len(text) - start) % width:
        return None
    data = text.encode("ascii")  # ASCII: one byte per character, at the same offsets
    grid = np.frombuffer(data, dtype=np.uint8, offset=start).reshape(-1, width)
    if (
        (grid[:, -1] == ord("\n")).all()
        and (grid[:, n] == ord(" ")).all()
        and (grid[:, n + 1 : -1] > ord(" ")).all()  # ASCII whitespace is all <= ' '
        and ((grid[:, :n] | 1) == ord("1")).all()  # only '0' and '1' OR 1 to '1'
    ):
        return grid
    return None


def _read_grid(grid: np.ndarray, n: int):
    """Read _line_grid's rows (row i is line i + 2) up to the first bad
    probability; returns what _read_block returns, and repeated points are
    again left to the caller."""
    tails = grid[:, n + 1 : -1]
    if (tails == tails[0]).all():  # a space built from a code has one text
        keys, index = tails[:1], np.zeros(len(grid), dtype=np.intp)
    else:
        rows = np.ascontiguousarray(tails).view(f"S{tails.shape[1]}").ravel()
        keys, index = np.unique(rows, return_inverse=True)
    texts = [key.tobytes().decode("ascii") for key in keys]
    probs = np.array([_float_or_nan(text) for text in texts])[index]
    cut = _first((probs < 0.0) | ~np.isfinite(probs))
    bad = None
    if cut < len(grid):
        bad = cut + 2, f"bad probability {texts[index[cut]]!r}"
    bits = np.zeros((cut, 64), dtype=np.uint8)  # a row per point, coordinate 1 at bit 64 - n
    np.bitwise_and(grid[:cut, :n], 1, out=bits[:, 64 - n :])  # '0' and '1' differ in bit 0
    points = np.packbits(bits).view(">u8").astype(np.int64)
    return np.arange(2, cut + 2), points, probs[:cut], bad


def _read_lines(lines: list[str], n: int):
    """Read the lines after the header, READ_BLOCK_LINES at a time, up to
    the first bad one; returns what _read_block returns for all of them."""
    linenos = [np.empty(0, dtype=np.intp)]
    points = [np.empty(0, dtype=np.int64)]
    probs = [np.empty(0)]
    bad = None
    for start in range(1, len(lines), READ_BLOCK_LINES):
        block = lines[start : start + READ_BLOCK_LINES]
        found, pts, prb, bad = _read_block(block, n, first_lineno=start + 1)
        linenos.append(found)
        points.append(pts)
        probs.append(prb)
        if bad is not None:
            break
    linenos, points, probs = map(np.concatenate, (linenos, points, probs))
    return linenos, points, probs, bad


def _read_block(lines: list[str], n: int, first_lineno: int):
    """Read '<bitstring> <probability>' lines up to the first bad one.

    Returns the line numbers, points and probabilities of the lines read
    (blank lines are skipped), and (line number, message) of the first bad
    line or None.  Each check runs over the lines that passed the checks
    before it, so a bad line gets the message of the first check it fails, in
    the order of a line-by-line reader; repeated points are left to the caller.
    """
    rows = list(map(str.split, lines))
    tokens = np.fromiter(map(len, rows), dtype=np.intp, count=len(rows))
    keep = np.flatnonzero(tokens)
    rows = list(filter(None, rows))  # the nonblank lines, as indexed by keep
    cut = _first(tokens[keep] != 2)
    message = "expected '<bitstring> <probability>'"
    bits = [parts[0] for parts in rows[:cut]]
    prob_texts = [parts[1] for parts in rows[:cut]]
    lengths = np.fromiter(map(len, bits), dtype=np.intp, count=cut)
    digits = np.array(bits[: _first(lengths != n)], dtype=f"<U{n}").view(np.uint32)
    digits = digits.reshape(-1, n)
    digits -= ord("0")  # uint32 code points: only "0" and "1" end up below 2
    good = _first((digits > 1).any(axis=1))
    if good < cut:
        cut, message = good, f"expected a bitstring of length {n}"
    # each distinct text is parsed once: a space built from a code has one
    table = {text: _float_or_nan(text) for text in set(prob_texts[:cut])}
    probs = np.fromiter(map(table.__getitem__, prob_texts[:cut]), np.float64, cut)
    good = _first((probs < 0.0) | ~np.isfinite(probs))
    if good < cut:
        cut, message = good, f"bad probability {prob_texts[good]!r}"
    points = np.zeros(cut, dtype=np.int64)
    for column in digits[:cut].T:  # coordinate 1 is the most significant bit
        points <<= 1
        points += column
    linenos = keep + first_lineno
    bad = (int(linenos[cut]), message) if cut < keep.size else None
    return linenos[:cut], points, probs[:cut], bad


def _first(mask: np.ndarray) -> int:
    """Index of the first true entry of mask, or its length if there is none."""
    hits = np.flatnonzero(mask)
    return int(hits[0]) if hits.size else mask.size


def _first_repeat(values: np.ndarray) -> int:
    """Index of the first entry equal to an earlier one, or len(values)."""
    order = np.argsort(values, kind="stable")
    later = order[1:][values[order[1:]] == values[order[:-1]]]
    return int(later.min()) if later.size else values.size


def _float_or_nan(text: str) -> float:
    """float(text), or NaN (a bad probability) where float() refuses it."""
    try:
        return float(text)
    except ValueError:
        return math.nan


def parity_sampler_space(matrix: BinaryMatrix) -> SampleSpace:
    """Distribution of y^T M for uniform y: uniform on the row space of M.

    Every sample space built from a code comes from here.  Dependent rows
    merge; the result carries probability 2^-rank per point.  The n x n
    identity gives the uniform distribution and a matrix with no rows the
    point mass at the origin.
    """
    words = matrix.codewords()
    return SampleSpace(matrix.cols, words, np.full(words.size, 1.0 / words.size))
