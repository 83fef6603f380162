"""Bit-packed GF(2) linear algebra, small code constructions, sample spaces.

Matrices store one int bitmask per row.  Coordinate j (1-based, as written
in the text formats) lives at bit position cols - j, so the leftmost
character of a bitstring is coordinate 1 and ``int(line, 2)`` parses a row.

The sample space file of a code, every line '<n bits> <probability text>'
with one width and one probability text, is a byte grid, a row per point.
It is written and read back a block of GRID_BLOCK_ROWS rows at a time,
through buffers made once per call, so nothing the size of the file is
held; the reader checks each block in one comparison, and only accepts.
Any other space is written one line at a time, and any other file, and a
grid the constructor refuses, is read whole, decoded as strict UTF-8 and
read line by line, more slowly, to the same values or to the message of
its first bad byte, or the message and number of its first bad line.

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

import io
import math
import re
from dataclasses import dataclass
from functools import cached_property
from typing import BinaryIO, Sequence

import numpy as np

from . import cube
from .errors import DimensionError, FormatError, ResourceLimitError
from .tolerances import FILE_TOTAL_MASS, TOTAL_MASS

MAX_SPACE_DIMENSION = 63
ENUMERATION_GUARD = 10**7
GRID_BLOCK_ROWS = 1 << 12  # rows a space file is read and written by


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


def gf2_nullspace(rows: Sequence[int], cols: int, pivots: list[int] | None = None) -> list[int]:
    """Basis of {x : row . x = 0 mod 2 for every row}, as bitmasks.  Given
    pivots, the rows are taken as gf2_rref's reduced rows with those pivots,
    and not reduced again."""
    if pivots is None:
        rows, pivots = gf2_rref(rows, cols)
    pivot_set = set(pivots)
    basis = []
    for bit in range(cols - 1, -1, -1):
        if bit in pivot_set:
            continue
        vec = 1 << bit
        for row, p in zip(rows, pivots):
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
    density's spectrum) is built only when a check reads it.  The points
    are kept sorted: points given in strictly increasing order, as a code's
    are, are not sorted again, and int64 points and float64 probabilities
    given so are held with no copy and made read-only.
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
        if not (pts[1:] > pts[:-1]).all():  # a code's points come in order: no sort
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
            # the basis is reduced already: only its nullspace is reduced here
            dual = gf2_rref(gf2_nullspace(basis, n, [row.bit_length() - 1 for row in basis]), n)[0]
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

    def to_text(self, out: BinaryIO | None = None) -> str | None:
        """'n=<n>', then '<bitstring> <repr(probability)>' per point: written
        to out, a binary file, as ASCII bytes, or else returned as a str.

        Where every probability has the same bits, as in every space built
        from a code, the body is written a block of GRID_BLOCK_ROWS points at
        a time through one byte grid, a row per point: the bits unpacked from
        the point, a space, and the one probability text.  Any other space is
        written one line at a time, so 0.0 and -0.0 keep their own text.
        """
        if out is None:
            out = io.BytesIO()
            self.to_text(out)
            return out.getvalue().decode()
        n, size = self.n, self.points.size
        out.write(f"n={n}\n".encode())
        keys = self.probabilities.view(np.uint64)
        if not (keys == keys[0]).all():
            rows = zip(self.points.tolist(), self.probabilities.tolist())
            out.write("".join(f"{p:0{n}b} {q!r}\n" for p, q in rows).encode())
            return None
        tail = f"{self.probabilities[0].item()!r}\n".encode()  # a Python float's repr
        grid = np.empty((min(size, GRID_BLOCK_ROWS), n + 1 + len(tail)), dtype=np.uint8)
        grid[:, n:] = np.frombuffer(b" " + tail, dtype=np.uint8)
        octets = self.points.astype("<i8", copy=False).view(np.uint8).reshape(size, 8)
        for start in range(0, size, len(grid)):
            block = octets[start : start + len(grid)]
            bits = np.unpackbits(block, axis=1, count=n, bitorder="little")  # coordinate n first
            np.add(bits[:, ::-1], ord("0"), out=grid[: len(block), :n])
            out.write(grid[: len(block)])

    @classmethod
    def from_text(cls, data: bytes | str | BinaryIO) -> "SampleSpace":
        """Read the 'n=<n>' header, then one '<bitstring> <probability>' line
        per point, from a binary file open at its start, or from a file's
        bytes or a str (encoded to UTF-8), read as a file.

        A file in the layout to_text writes for a code (ASCII, '\\n' line
        ends, every line '<n bits> <text>' with one width and one text,
        whose values sum to 1 within FILE_TOTAL_MASS) is read a block of rows
        at a time as a byte grid (_read_grid), and goes to the constructor.
        Any other file, as one with many probability texts or '\\r\\n' line
        ends, is read whole, decoded as strict UTF-8, which raises the
        UnicodeDecodeError (a ValueError) of its first bad byte, and read line
        by line (_read_lines), which raises the FormatError of its first bad
        line, with its number, else of no points or of the sum; and so is a
        grid the constructor refuses.  A file that cannot seek, as a pipe, is
        read whole first.  A grid's one text that sums to 1 is finite and
        positive, so the one refusal it can meet is a repeated point, which
        _read_lines names with its line.
        """
        data = data.encode() if isinstance(data, str) else data
        if isinstance(data, bytes) or not data.seekable():  # a pipe cannot seek: read it whole
            data = io.BytesIO(data if isinstance(data, bytes) else data.read())
        read = _read_grid(data)
        if read is not None:
            try:
                return cls(*read)
            except ValueError:  # a repeated point
                pass
        data.seek(0)
        return cls(*_read_lines(data.read().decode()))


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


def _read_grid(handle: BinaryIO):
    """(n, points, probabilities) of a file in the layout to_text writes for a
    code, read from a seekable binary file open at its start, a block of
    rows at a time, the probabilities divided by their sum; else None, and
    never an error, so that a file that is not UTF-8 is named by its decode
    first.  The layout is an ASCII file whose header is 'n=<n>\\n' as
    to_text writes it (no blank, sign or leading zero), and whose every later
    line is '<n bits of 0/1> <nonblank token>' with one width and one token,
    the last '\\n' perhaps missing, and whose probabilities sum to 1 within
    FILE_TOTAL_MASS, in line order.  Such lines hold no whitespace but the
    one space, so they split into the same two tokens as str.split finds.  A
    probability text float() refuses reads as NaN, whose sum is off.

    A grid row is a line with its '\\n'; the width and the template come
    from the first line, and the row count from the file's size.  Each row
    OR'd with 1 on the n digit columns ('0' and '1' are the two bytes that
    OR 1 to '1') must equal the first row with '1' there; that template is
    checked once for its space and for a text of ASCII with no blank, so the
    whole grid is ASCII.  GRID_BLOCK_ROWS rows at a time are read into one
    buffer, their points read into the points array, and then checked, so
    nothing but the points and the probabilities grows with the file; a
    file that ends short of its size is declined."""
    head = re.fullmatch(rb"n=([1-9][0-9]*)\n", handle.readline())
    # the header as to_text writes it; _read_lines reads any other, or names it
    if head is None or (n := int(head[1])) > MAX_SPACE_DIMENSION:
        return None
    start = handle.tell()
    first = handle.readline()
    width = len(first) + (not first.endswith(b"\n"))  # a last line may lack its '\n'
    size = handle.seek(0, io.SEEK_END) - start
    count = -(-size // width)
    if width < n + 3 or count * width - size > 1:
        return None
    template = np.frombuffer(b"1" * n + first[n:].ljust(width - n, b"\n"), dtype=np.uint8)
    tail = template[n + 1 : -1]
    if template[n] != ord(" ") or not ((tail > ord(" ")) & (tail < 0x80)).all():
        return None
    prob = _float_or_nan(tail.tobytes().decode())
    rows = min(count, GRID_BLOCK_ROWS)
    terms, sums, total = np.full(rows, prob), np.empty(rows), 0.0
    for at in range(0, count, rows):
        terms[0] = total + prob  # left to right across blocks, as _read_lines sums
        total = np.add.accumulate(terms[: count - at], out=sums[: count - at])[-1]
    if not abs(total - 1.0) <= FILE_TOTAL_MASS:
        return None
    handle.seek(start)
    block, bits = np.empty((rows, width), dtype=np.uint8), np.zeros((rows, 64), dtype=np.uint8)
    points = np.empty(count, dtype=np.int64)
    for at in range(0, count, rows):
        grid = block[: count - at]
        flat = grid.reshape(-1)
        want = min(flat.size, size - at * width)
        if handle.readinto(flat[:want]) != want:  # a short read
            return None
        flat[want:] = ord("\n")  # the last line's, where the file ends without it
        points[at : at + len(grid)] = _points(grid[:, :n], bits[: len(grid)])
        np.bitwise_or(grid[:, :n], 1, out=grid[:, :n])  # '0' and '1' OR 1 to '1'
        np.bitwise_xor(grid, template, out=grid)
        if grid.any():  # a row out of the layout
            return None
    return n, points, np.full(count, prob / total)


def _points(digits: np.ndarray, bits: np.ndarray) -> np.ndarray:
    """The big-endian uint64 points of a (points, n) array of '0' and '1'
    character codes, coordinate 1 first, filled through bits, a (points,
    64) uint8 table that is zero outside its last n columns: coordinate 1
    lands at bit 64 - n."""
    np.bitwise_and(digits, 1, out=bits[:, 64 - digits.shape[1] :])
    return np.packbits(bits).view(">u8")


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
    probs = np.array(probs)
    # left to right, as sum() adds on Python 3.10 and 3.11 and the grid read
    # sums, on every Python; + 0.0 as sum() starts from 0: -0 lines sum to 0.0
    total = np.add.accumulate(probs)[-1].item() + 0.0
    if abs(total - 1.0) > FILE_TOTAL_MASS:
        # quoted by hand: repr and :g both print FILE_TOTAL_MASS as 1e-09
        raise FormatError(f"probabilities sum to {total!r}, not 1 within 1e-9")
    digits = np.frombuffer("".join(seen).encode("ascii"), dtype=np.uint8).reshape(-1, n)
    return n, _points(digits, np.zeros((len(digits), 64), dtype=np.uint8)), probs / total


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
