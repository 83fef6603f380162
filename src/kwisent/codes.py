"""Bit-packed GF(2) linear algebra, small code constructions, sample spaces.

Matrices store one int bitmask per row.  Coordinate j (1-based, as written
in the text formats) lives at bit position cols - j, so the leftmost
character of a bitstring is coordinate 1 and ``int(line, 2)`` parses a row.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .errors import DimensionError, FormatError, ResourceLimitError

MAX_CODE_LENGTH = 64
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


def gf2_rank(rows: Sequence[int], cols: int) -> int:
    return len(gf2_rref(rows, cols)[0])


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


@dataclass(frozen=True)
class BinaryMatrix:
    """A rows x cols matrix over GF(2) with bit-packed rows."""

    rows: tuple[int, ...]
    cols: int

    def __post_init__(self):
        if not 1 <= self.cols <= MAX_CODE_LENGTH:
            raise DimensionError(f"cols must be in 1..{MAX_CODE_LENGTH}, got {self.cols}")
        rows = tuple(int(r) for r in self.rows)
        mask = (1 << self.cols) - 1
        for r in rows:
            if r < 0 or r & ~mask:
                raise ValueError(f"row {r:#x} has bits outside {self.cols} columns")
        object.__setattr__(self, "rows", rows)
        object.__setattr__(self, "_rank", gf2_rank(rows, self.cols))

    @property
    def rank(self) -> int:
        return self._rank  # type: ignore[attr-defined]

    @property
    def shape(self) -> tuple[int, int]:
        return (len(self.rows), self.cols)

    def column_masks(self) -> list[int]:
        """Columns in coordinate order 1..cols, packed over row indices."""
        out = []
        for bit in range(self.cols - 1, -1, -1):
            col = 0
            for i, row in enumerate(self.rows):
                col |= ((row >> bit) & 1) << i
            out.append(col)
        return out

    def row_space_basis(self) -> tuple[int, ...]:
        return tuple(gf2_rref(self.rows, self.cols)[0])

    def nullspace_basis(self) -> tuple[int, ...]:
        return tuple(gf2_nullspace(self.rows, self.cols))

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


@dataclass(frozen=True)
class LinearCode:
    """A binary linear code given by a full-rank generator matrix."""

    n: int
    generator: BinaryMatrix

    def __post_init__(self):
        if self.generator.cols != self.n:
            raise DimensionError(
                f"generator has {self.generator.cols} columns, code length is {self.n}"
            )
        if self.generator.rank != len(self.generator.rows):
            raise ValueError("generator rows must be linearly independent")

    @property
    def dimension(self) -> int:
        return len(self.generator.rows)

    def codewords(self) -> np.ndarray:
        """All 2^dimension codewords as an int64 array (doubling order)."""
        words = np.zeros(1, dtype=np.int64)
        for row in self.generator.rows:
            words = np.concatenate([words, words ^ np.int64(row)])
        return words

    def min_distance(self) -> int:
        if self.dimension == 0:
            raise ValueError("the zero code has no nonzero codewords")
        if (1 << self.dimension) > ENUMERATION_GUARD:
            raise ResourceLimitError(
                f"2^{self.dimension} codewords exceed the enumeration guard"
            )
        words = self.codewords()[1:]
        return int(np.bitwise_count(words.astype(np.uint64)).min())

    def dual(self) -> "LinearCode":
        basis = gf2_nullspace(self.generator.rows, self.n)
        return LinearCode(self.n, BinaryMatrix(tuple(basis), self.n))


def hamming_parity_check(m: int) -> BinaryMatrix:
    """m x (2^m - 1) matrix whose column j is the binary encoding of j."""
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


def hamming_code(m: int) -> LinearCode:
    """The [2^m - 1, 2^m - 1 - m] code with the natural parity-check order."""
    check = hamming_parity_check(m)
    basis = gf2_nullspace(check.rows, check.cols)
    return LinearCode(check.cols, BinaryMatrix(tuple(basis), check.cols))


def simplex_code(m: int) -> LinearCode:
    """Dual of the Hamming code; every nonzero word has weight 2^(m-1)."""
    check = hamming_parity_check(m)
    return LinearCode(check.cols, check)


def check_column_independence(matrix: BinaryMatrix, t: int) -> bool:
    """True iff every set of at most t columns is linearly independent.

    Brute force over column subsets; equivalent to: no nonempty subset of
    size <= t XORs to zero.
    """
    if t > matrix.cols:
        raise ValueError(f"t={t} exceeds the column count {matrix.cols}")
    total = sum(math.comb(matrix.cols, j) for j in range(1, t + 1))
    if total > ENUMERATION_GUARD:
        raise ResourceLimitError(
            f"checking {total} column subsets exceeds the guard of {ENUMERATION_GUARD}"
        )
    from itertools import combinations

    columns = matrix.column_masks()
    for size in range(1, t + 1):
        for combo in combinations(columns, size):
            acc = 0
            for c in combo:
                acc ^= c
            if acc == 0:
                return False
    return True


@dataclass(frozen=True, eq=False)
class SampleSpace:
    """A finite distribution on {0,1}^n: distinct points with probabilities."""

    n: int
    points: np.ndarray
    probabilities: np.ndarray

    def __post_init__(self):
        if not 1 <= self.n <= 63:
            raise DimensionError(f"sample space dimension must be 1..63, got {self.n}")
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
        if probs.min() < 0.0:
            raise ValueError("probabilities must be nonnegative")
        total = float(probs.sum())
        if abs(total - 1.0) > 1e-12:
            raise ValueError(f"probabilities must sum to 1 within 1e-12, got {total!r}")
        pts.setflags(write=False)
        probs.setflags(write=False)
        object.__setattr__(self, "points", pts)
        object.__setattr__(self, "probabilities", probs)

    @property
    def support_size(self) -> int:
        return int(self.points.size)

    def to_text(self) -> str:
        lines = [f"n={self.n}"]
        for p, q in zip(self.points, self.probabilities):
            lines.append(f"{format(int(p), f'0{self.n}b')} {float(q)!r}")
        return "\n".join(lines) + "\n"

    @classmethod
    def from_text(cls, text: str) -> "SampleSpace":
        lines = text.splitlines()
        if not lines or not lines[0].strip():
            raise FormatError("expected header 'n=<int>'", line=1)
        header = lines[0].strip()
        if not header.startswith("n="):
            raise FormatError("expected header 'n=<int>'", line=1)
        try:
            n = int(header[2:])
        except ValueError:
            raise FormatError("expected header 'n=<int>'", line=1) from None
        points, probs = [], []
        seen = set()
        for lineno, raw in enumerate(lines[1:], start=2):
            stripped = raw.strip()
            if not stripped:
                continue
            parts = stripped.split()
            if len(parts) != 2:
                raise FormatError("expected '<bitstring> <probability>'", line=lineno)
            bits, prob_text = parts
            if len(bits) != n or set(bits) - {"0", "1"}:
                raise FormatError(f"expected a bitstring of length {n}", line=lineno)
            try:
                prob = float(prob_text)
            except ValueError:
                raise FormatError(f"bad probability {prob_text!r}", line=lineno) from None
            if prob < 0.0 or not math.isfinite(prob):
                raise FormatError(f"bad probability {prob_text!r}", line=lineno)
            point = int(bits, 2)
            if point in seen:
                raise FormatError(f"duplicate point {bits}", line=lineno)
            seen.add(point)
            points.append(point)
            probs.append(prob)
        if not points:
            raise FormatError("sample space has no points")
        total = sum(probs)
        if abs(total - 1.0) > 1e-9:
            raise FormatError(f"probabilities sum to {total!r}, not 1 within 1e-9")
        probs_arr = np.asarray(probs) / total
        return cls(n, np.asarray(points, dtype=np.int64), probs_arr)


def uniform_code_space(code: LinearCode) -> SampleSpace:
    """Uniform distribution on the codewords (2^-dimension each)."""
    if code.dimension > 26:
        raise DimensionError(
            f"code dimension {code.dimension} exceeds the enumeration cap of 26"
        )
    words = code.codewords()
    probs = np.full(words.size, 1.0 / words.size)
    return SampleSpace(code.n, words, probs)


def parity_sampler_space(matrix: BinaryMatrix) -> SampleSpace:
    """Distribution of y^T M for uniform y: uniform on the row space of M.

    Dependent rows merge; the result carries probability 2^-rank per point.
    """
    basis = matrix.row_space_basis()
    if len(basis) > 26:
        raise DimensionError(
            f"row space rank {len(basis)} exceeds the enumeration cap of 26"
        )
    code = LinearCode(matrix.cols, BinaryMatrix(basis, matrix.cols))
    return uniform_code_space(code)


def uniform_space(n: int) -> SampleSpace:
    """Uniform distribution on all of {0,1}^n."""
    if n > 26:
        raise DimensionError(f"dimension {n} exceeds the enumeration cap of 26")
    points = np.arange(1 << n, dtype=np.int64)
    return SampleSpace(n, points, np.full(1 << n, 1.0 / (1 << n)))


def point_space(n: int, point: int = 0) -> SampleSpace:
    """The distribution concentrated on one mask (the origin by default)."""
    return SampleSpace(n, np.asarray([point], dtype=np.int64), np.asarray([1.0]))
