"""Bit-packed GF(2) linear algebra, small code constructions, sample spaces.

Matrices store one int bitmask per row.  Coordinate j (1-based, as written
in the text formats) lives at bit position cols - j, so the leftmost
character of a bitstring is coordinate 1 and ``int(line, 2)`` parses a row.

The sample space file of a code, every line '<n bits> <probability text>'
with one width and one probability text, is written as one byte grid, a row
per point, and read back by slicing the grid's columns, which only accepts.
Any other space is written one line at a time, and any other file, and a
grid the constructor refuses, is read line by line, more slowly, to the
same values or to the message and number of its first bad line.

A space uniform on a translate C + a of a linear code C, as every space
built from a code is, takes its density's spectrum from the dual code:
(-1)^(u . a) on each dual word u and 0 elsewhere, which is exactly what the
butterfly would compute (MacWilliams & Sloane, ch. 1 and 5), bit for bit, as
SampleSpace.density argues.  Its density is made on the code's cosets, a
table of 2^(n - rank) values with its spectrum on the dual words
(cube._Cosets, which argues which bits that keeps); a one-point space is the
dense vector with that spectrum.  Any other space's density runs the
butterfly.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from functools import cached_property
from typing import Sequence

import numpy as np

from . import cube
from .errors import DimensionError, FormatError, ResourceLimitError
from .tolerances import FILE_TOTAL_MASS, TOTAL_MASS

MAX_SPACE_DIMENSION = 63
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
    """Every word of the span of independent rows once; in increasing order
    when the rows are gf2_rref's reduced rows."""
    if len(basis) > cube.DIMENSION_CAP:
        raise DimensionError(
            f"row space rank {len(basis)} exceeds the enumeration cap of {cube.DIMENSION_CAP}"
        )
    # lowest pivot first: each new row's pivot is above every word so far
    # and reduced rows are zero at the other pivots, so the words stay sorted
    return cube._xor_span(np.array(basis[::-1], dtype=np.int64))


def _code_basis(points: np.ndarray, probabilities: np.ndarray) -> list[int] | None:
    """The reduced rows, as gf2_rref orders them, of a support that is a
    linear code of rank k with probability exactly 2^-k on every point;
    else None.  The points are sorted, from 0 (SampleSpace.density passes
    them XOR the least point, so that a translate of a code is the code), so
    a code's points at indices 2^i are its reduced rows, lowest pivot
    first, and _span of them lists the points in the same order."""
    k = points.size.bit_length() - 1
    if points.size != 1 << k or not (probabilities == 2.0**-k).all():
        return None
    basis = points[1 << np.arange(k - 1, -1, -1)].tolist()
    return basis if np.array_equal(_span(basis), points) else None


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

    @classmethod
    def from_text(cls, text: str) -> "BinaryMatrix":
        lines = text.splitlines()
        if not lines:
            raise FormatError("empty matrix file", line=1)
        header = lines[0].split()
        if len(header) != 2:
            raise FormatError("expected header 'rows cols'", line=1)
        if not all(re.fullmatch("-?[0-9]+", count) for count in header):  # int() takes 1_0 too
            raise FormatError("expected integer 'rows cols' header", line=1)
        n_rows, cols = map(int, header)
        if not 1 <= cols <= MAX_SPACE_DIMENSION:  # the constructor's check, before any row is read
            raise DimensionError(f"code length must be in 1..{MAX_SPACE_DIMENSION}, got {cols}")
        if n_rows < 0:
            raise FormatError(f"expected a row count >= 0, got {n_rows}", line=1)
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
    def density(self) -> cube.CubeFunction:
        """The mean-1 density: 2^n times the probability on the support, 0
        elsewhere, divided by its own mean.  Built on first read, after
        cube.check_dimension, and kept.  The
        constructor has refused negative probabilities, so the values are
        nonnegative, and the division leaves their mean 1 up to rounding
        (TOTAL_MASS); neither fact is checked again.  Its spectrum is one
        butterfly on first read.

        Where the support is a translate V + a of a linear code V of rank
        k with probability exactly 2^-k on every point (_code_basis of the
        points XOR a, a = the least point), as in every space built from a
        code, the density is 2^(n-k) on V + a, and its spectrum is
        (-1)^(u . a) on the dual words u of V^⊥ and 0 elsewhere, with no
        butterfly.  That is the butterfly's result bit for bit: the density
        is exactly 2^(n-k) on V + a and its mean exactly 1; every partial
        sum of the butterfly is an integer multiple of 2^(n-k) of size at
        most 2^n, so exact in float64 (n <= 26); no -0.0 appears, as the
        inputs are +0 or above and x - x is +0; and the division by 2^n is
        exact.

        For k >= 1 the density is made on the cosets of V (cube._Cosets),
        from the list of every dual word, ascending (_span), and a table of
        2^m values, m = n - k: 2^m at the syndrome sigma(a) of V + a, whose
        bit j is rows[j] . a for the dual's reduced rows rows[j] = words[2^j],
        and 0 on every other coset.  Its spectrum is held on the dual words
        (cube._OnWords), words[t] . a = t . sigma(a), so no 2^n vector is
        built.  The one point a (k = 0) is the dense vector, with its 2^n
        signs as its spectrum: on cosets every table and spectrum would be
        2^n values, and its kernels slower than the dense ones.
        """
        n = self.n
        cube.check_dimension(n)
        a = int(self.points[0])
        # a space through 0 skips the sort: 0.36 ms of a 10 ms chain on 2^16 points
        points = self.points if a == 0 else np.sort(self.points ^ a)
        basis = _code_basis(points, self.probabilities)
        if basis is not None:
            dual = gf2_rref(gf2_nullspace(basis, n), n)[0]
            # bit j of sigma(a) is rows[j] . a, the rows lowest pivot first, and
            # signs[t] = (-1)^(words[t] . a) = (-1)^(t . sigma(a))
            bits = [(row & a).bit_count() & 1 for row in reversed(dual)]
            signs = cube._xor_span(np.array(bits, dtype=np.uint8)) * -2.0
            signs += 1.0
        if basis:
            table = np.zeros(signs.size)
            table[sum(bit << j for j, bit in enumerate(bits))] = float(signs.size)
            f = cube._Cosets(n, _span(dual), cube._Fresh(table))
            f.spectrum = cube._OnWords(n, f.dual_words, cube._Fresh(signs))
            return f
        vals = np.zeros(1 << n)
        vals[self.points] = self.probabilities * (1 << n)
        vals /= vals.mean()
        f = cube.CubeFunction(n, cube._Fresh(vals))
        if basis is not None:  # the one point a: every mask is a dual word
            f.spectrum = cube.Spectrum(n, cube._Fresh(signs))
        return f

    def to_text(self) -> str:
        """'n=<n>', then '<bitstring> <repr(probability)>' per point.

        Where every probability has the same bits, as in every space built
        from a code, the body is built as one byte grid, a row per point:
        the bits unpacked from the point, a space, and the one probability
        text.  Any other space is written one line at a time, so 0.0 and
        -0.0 keep their own text.
        """
        n, size = self.n, self.points.size
        keys = self.probabilities.view(np.uint64)
        if not (keys == keys[0]).all():
            rows = zip(self.points.tolist(), self.probabilities.tolist())
            return f"n={n}\n" + "".join(f"{p:0{n}b} {q!r}\n" for p, q in rows)
        tail = f"{self.probabilities[0].item()!r}\n".encode()  # a Python float's repr
        grid = np.empty((size, n + 1 + len(tail)), dtype=np.uint8)
        octets = self.points.astype("<u8", copy=False).view(np.uint8).reshape(size, 8)
        bits = np.unpackbits(octets, axis=1, count=n, bitorder="little")  # coordinate n first
        np.add(bits[:, ::-1], ord("0"), out=grid[:, :n])
        grid[:, n] = ord(" ")
        grid[:, n + 1 :] = np.frombuffer(tail, dtype=np.uint8)
        return f"n={n}\n" + str(memoryview(grid.ravel()), "ascii")

    @classmethod
    def from_text(cls, text: str) -> "SampleSpace":
        """Read the 'n=<n>' header, then one '<bitstring> <probability>' line
        per point.

        A text in the layout to_text writes for a code (ASCII, '\\n' line
        ends, every line '<n bits> <text>' with one width and one text,
        whose values sum to 1 within FILE_TOTAL_MASS) is sliced as a byte
        grid, a row per line (_read_grid), and goes to the constructor.  Any
        other text, as one with many probability texts, is read line by line
        (_read_lines), which raises the FormatError of its first bad line,
        with its number, else of no points or of the sum; and so is a grid
        the constructor refuses.  A grid's one text that sums to 1 is finite
        and positive, so the one refusal it can meet is a repeated point,
        which _read_lines names with its line.
        """
        read = _read_grid(text)
        if read is not None:
            try:
                return cls(*read)
            except ValueError:  # a repeated point
                pass
        return cls(*_read_lines(text))


def _read_header(line: str) -> int:
    """The dimension n of an 'n=<int>' header line, in ASCII digits."""
    header = line.strip()
    if not re.fullmatch("n=-?[0-9]+", header):  # int() takes 1_0 and non-ASCII digits too
        raise FormatError("expected header 'n=<int>'", line=1)
    n = int(header[2:])
    if not 1 <= n <= MAX_SPACE_DIMENSION:
        raise DimensionError(
            f"sample space dimension must be 1..{MAX_SPACE_DIMENSION}, got {n}"
        )
    return n


def _read_grid(text: str):
    """(n, points, probabilities) of a text in the layout to_text writes for a
    code, read as a (lines, width) byte grid, the probabilities divided by
    their sum; else None.  The layout is an ASCII text whose header is one
    line ended by '\\n', and whose every later line is '<n bits of 0/1>
    <nonblank token>' with one width and one token, and whose probabilities
    sum to 1 within FILE_TOTAL_MASS, in line order.  Such lines hold no
    whitespace but the one space, so they split into the same two tokens as
    str.split finds.  A probability text float() refuses reads as NaN, whose
    sum is off."""
    end = text.find("\n")
    head = text[:end]
    if end <= 0 or not text.isascii() or head.splitlines() != [head]:
        return None
    n = _read_header(head)
    if not text.endswith("\n"):
        text += "\n"
    width = text.find("\n", end + 1) - end
    if width < n + 3 or (len(text) - end - 1) % width:
        return None
    data = text.encode("ascii")  # ASCII: one byte per character, at the same offsets
    grid = np.frombuffer(data, dtype=np.uint8, offset=end + 1).reshape(-1, width)
    tail = grid[0, n + 1 : -1]
    if not (
        (grid[:, -1] == ord("\n")).all()
        and (grid[:, n] == ord(" ")).all()
        and (grid[:, n + 1 : -1] == tail).all()  # the one probability text
        and (tail > ord(" ")).all()  # ASCII whitespace is all <= ' '
        and ((grid[:, :n] | 1) == ord("1")).all()  # only '0' and '1' OR 1 to '1'
    ):
        return None
    probs = np.full(len(grid), _float_or_nan(tail.tobytes().decode()))
    total = sum(probs.tolist())  # left to right, as _read_lines sums
    if not abs(total - 1.0) <= FILE_TOTAL_MASS:
        return None
    return n, _points(grid[:, :n]), probs / total


def _points(digits: np.ndarray) -> np.ndarray:
    """The int64 points of a (points, n) array of '0' and '1' character codes,
    coordinate 1 first."""
    bits = np.zeros((len(digits), 64), dtype=np.uint8)  # coordinate 1 at bit 64 - n
    np.bitwise_and(digits, 1, out=bits[:, 64 - digits.shape[1] :])
    return np.packbits(bits).view(">u8").astype(np.int64)


def _read_lines(text: str):
    """(n, points, probabilities) of a text read line by line, in line order,
    the probabilities divided by their sum; else the FormatError of its
    first bad line, of a text with no points, or of one whose probabilities
    do not sum to 1 within FILE_TOTAL_MASS.  Blank lines are skipped, and
    every other line must be '<n chars of 0/1> <probability text>'."""
    lines = iter(text.splitlines())  # dropped once the loop has read them
    n = _read_header(next(lines, ""))
    seen, probs = {}, []  # seen: bits -> line
    for lineno, parts in enumerate(map(str.split, lines), start=2):
        if not parts:
            continue
        if len(parts) != 2:
            raise FormatError("expected '<bitstring> <probability>'", line=lineno)
        bits, prob_text = parts
        if len(bits) != n or bits.strip("01"):
            raise FormatError(f"expected a bitstring of length {n}", line=lineno)
        prob = _float_or_nan(prob_text)
        if not 0.0 <= prob < math.inf:
            raise FormatError(f"bad probability {prob_text!r}", line=lineno)
        if seen.setdefault(bits, lineno) != lineno:
            raise FormatError(f"duplicate point {bits}", line=lineno)
        probs.append(prob)
    if not probs:
        raise FormatError("sample space has no points")
    total = sum(probs)  # left to right, as the grid read sums
    if abs(total - 1.0) > FILE_TOTAL_MASS:
        # quoted by hand: repr and :g both print FILE_TOTAL_MASS as 1e-09
        raise FormatError(f"probabilities sum to {total!r}, not 1 within 1e-9")
    digits = np.frombuffer("".join(seen).encode("ascii"), dtype=np.uint8).reshape(-1, n)
    return n, _points(digits), np.array(probs) / total


def _float_or_nan(text: str) -> float:
    """float(text), or NaN (a bad probability) where float() refuses it or
    text holds '_' or a character outside ASCII, which float() would read as
    a digit-group separator or a non-ASCII digit."""
    if "_" in text or not text.isascii():
        return math.nan
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
