"""Dense harmonic analysis on the Boolean cube {0,1}^n.

Functions are length-2^n float vectors indexed by bitmask.  All transforms
use the expectation convention:

    coeff(S)  = 2^-n * sum_x f(x) * (-1)^popcount(S & x)
    (f * g)(x) = 2^-n * sum_y f(y) * g(y ^ x)
    <f, g>     = 2^-n * sum_x f(x) * g(x)

Under these conventions the convolution theorem is coefficient-wise exact,
Plancherel reads <f, g> = sum_S coeff_f(S) * coeff_g(S), and the cube
adjacency operator (sum over the n bit-flip neighbours) equals 2^n times
convolution with the weight-one indicator.  That scale is pinned by a unit
test; do not fold 2^n factors into the transforms.

Every function reads its spectrum through its spectrum property, which wht
returns: a Density transforms once and keeps it, the weight-one kernel
writes it in closed form, (n - 2|S|) / 2^n, a convolution keeps the spectral
product it was made from and builds its values only when they are first read,
and every other function transforms on each read.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np

from .errors import DimensionError
from .tolerances import TOTAL_MASS

# Largest cube dimension for dense 2^n vectors: 512 MiB per float64 vector
DIMENSION_CAP = 26


def check_dimension(n: int) -> None:
    if not 1 <= n <= DIMENSION_CAP:
        raise DimensionError(f"dimension {n} outside supported range 1..{DIMENSION_CAP}")


@lru_cache(maxsize=8)
def subset_sizes(n: int) -> np.ndarray:
    """popcount(x) for every mask x < 2^n, as a read-only uint8 array."""
    sizes = np.bitwise_count(np.arange(1 << n, dtype=np.uint32)).astype(np.uint8)
    sizes.setflags(write=False)
    return sizes


class _Fresh:
    """A vector the package has just computed and shares with no one:
    CubeFunction and Spectrum take it over without a copy."""

    __slots__ = ("vals",)

    def __init__(self, vals: np.ndarray):
        self.vals = vals


def _frozen_vector(raw, n: int) -> np.ndarray:
    """A checked, read-only float64 vector.

    Anything a caller passes in is copied, so no array the caller holds, a
    read-only one included, can change it later; a _Fresh vector is not.
    """
    vals = raw.vals if isinstance(raw, _Fresh) else np.array(raw, dtype=np.float64)
    if vals.shape != (1 << n,):
        raise DimensionError(
            f"expected vector of length 2^{n} = {1 << n}, got shape {vals.shape}"
        )
    if not np.all(np.isfinite(vals)):
        raise ValueError("values must be finite (no NaN or infinity)")
    vals.setflags(write=False)
    return vals


@dataclass(frozen=True, eq=False)
class CubeFunction:
    """A real-valued function on {0,1}^n, stored densely by bitmask."""

    n: int
    values: np.ndarray

    def __post_init__(self):
        check_dimension(self.n)
        object.__setattr__(self, "values", _frozen_vector(self.values, self.n))

    @property
    def size(self) -> int:
        return 1 << self.n

    @property
    def spectrum(self) -> Spectrum:
        """The forward transform: the butterfly, then the 1/2^n factor once
        at the end.  A plain CubeFunction computes it on every read."""
        a = _fwht(self.values)
        a /= self.size
        return Spectrum(self.n, _Fresh(a))


@dataclass(frozen=True, eq=False)
class Density(CubeFunction):
    """Nonnegative cube function with mean 1 (2^n times a probability mass)."""

    def __post_init__(self):
        super().__post_init__()
        if self.values.min() < 0.0:
            raise ValueError("density values must be nonnegative")
        mean = float(self.values.mean())
        if abs(mean - 1.0) > TOTAL_MASS:
            raise ValueError(f"density mean must be 1 within {TOTAL_MASS!r}, got {mean!r}")

    # the same transform, computed on first read and kept
    spectrum = cached_property(CubeFunction.spectrum.fget)


@dataclass(frozen=True, eq=False)
class Spectrum:
    """The full table of Walsh-Hadamard coefficients, indexed by subset mask."""

    n: int
    coeffs: np.ndarray

    def __post_init__(self):
        check_dimension(self.n)
        object.__setattr__(self, "coeffs", _frozen_vector(self.coeffs, self.n))


def _butterfly(src: np.ndarray, dst: np.ndarray, h: int) -> None:
    """One stage: each pair (x, x + h) of dst gets src's sum and difference."""
    s, d = src.reshape(-1, 2, h), dst.reshape(-1, 2, h)
    np.add(s[:, 0], s[:, 1], out=d[:, 0])
    np.subtract(s[:, 0], s[:, 1], out=d[:, 1])


def _transpose(src: np.ndarray, dst: np.ndarray, rows: int, cols: int) -> None:
    """Write src, read as a (rows, cols) matrix, transposed into dst.

    Done 64 rows at a time: at n=20 this took 2.2 ms instead of 5.7 ms for
    one whole-matrix transposed copy, whose strided writes miss the cache
    (2-vCPU x86 host).
    """
    a, b = src.reshape(rows, cols), dst.reshape(cols, rows)
    for i in range(0, rows, 64):
        b[:, i : i + 64] = a[i : i + 64].T


def _fwht(v: np.ndarray) -> np.ndarray:
    """Unnormalized butterfly of v into a fresh array, O(n 2^n) arithmetic.

    Stage i pairs the masks that differ in bit i, for i = 0..n-1 in that
    order, and writes left + right and left - right into the other of two
    fresh buffers; the one written last is returned and v is only read.
    Seen as a (rows, cols) matrix, the low n//2 bits of a mask index the
    column; on the transposed matrix bit i sits at stride rows << i, so the
    low stages run there and every stage works on rows of at least 2^(n//2)
    contiguous values.  The stage order and each addition are those of the
    textbook in-place butterfly, so the result is bit-identical to it.
    """
    size = v.shape[0]
    n = size.bit_length() - 1
    low = n // 2
    rows, cols = size >> low, 1 << low
    src, dst = np.empty_like(v), np.empty_like(v)
    _transpose(v, src, rows, cols)
    for i in range(low):
        _butterfly(src, dst, rows << i)
        src, dst = dst, src
    _transpose(src, dst, cols, rows)
    src, dst = dst, src
    for i in range(low, n):
        _butterfly(src, dst, 1 << i)
        src, dst = dst, src
    return src


def wht(f: CubeFunction) -> Spectrum:
    """Forward transform: f's spectrum property.

    A Density returns the spectrum it keeps, the weight-one kernel its
    closed form and a convolution its spectral product, so none of them runs
    a butterfly here after the first read; any other CubeFunction runs the
    butterfly on every call, so that its spectrum is freed with the call's
    result.
    """
    return f.spectrum


def inverse_wht(s: Spectrum) -> CubeFunction:
    """Reconstruct f(x) = sum_S coeff(S) * (-1)^popcount(S & x)."""
    return CubeFunction(s.n, _Fresh(_fwht(s.coeffs)))


def _same_dimension(f: CubeFunction, g: CubeFunction) -> None:
    if f.n != g.n:
        raise DimensionError(f"dimension mismatch: {f.n} vs {g.n}")


class _Convolution(CubeFunction):
    """f * g held as its spectral product, which it keeps as its spectrum;
    its values, the inverse butterfly of that product, are built on first
    read and then kept."""

    def __init__(self, spectrum: Spectrum):
        object.__setattr__(self, "n", spectrum.n)
        object.__setattr__(self, "_product", spectrum)

    @property
    def spectrum(self) -> Spectrum:
        return self._product

    @cached_property
    def values(self) -> np.ndarray:
        return _frozen_vector(_Fresh(_fwht(self._product.coeffs)), self.n)


def convolve(f: CubeFunction, g: CubeFunction) -> CubeFunction:
    """(f * g)(x) = 2^-n sum_y f(y) g(y ^ x), as the spectral product.

    The result keeps the product as its spectrum, so wht of it runs no
    butterfly; its values are built by one inverse butterfly when first read.
    """
    _same_dimension(f, g)
    prod = wht(f).coeffs * wht(g).coeffs
    return _Convolution(Spectrum(f.n, _Fresh(prod)))


def inner_product(f: CubeFunction, g: CubeFunction) -> float:
    """<f, g> = 2^-n sum_x f(x) g(x)."""
    _same_dimension(f, g)
    return float(np.dot(f.values, g.values) / f.size)


def adjacency_apply(f: CubeFunction) -> CubeFunction:
    """(Af)(x) = sum_i f(x ^ e_i), the cube adjacency acting on f.

    Equals 2^n * convolve(weight_one_indicator(n), f); this scale is pinned
    by a normalization test.
    """
    out = np.zeros(f.size)
    for i in range(f.n):  # e_0, e_1, ... in turn: the order fixes the rounding
        h = 1 << i
        pairs = out.reshape(-1, 2, h)
        pairs += f.values.reshape(-1, 2, h)[:, ::-1]  # x picks up f(x ^ e_i)
    return CubeFunction(f.n, _Fresh(out))


def level_profile(s: Spectrum) -> np.ndarray:
    """Squared coefficient mass per level: entry j = sum_{|S|=j} coeff(S)^2."""
    return np.bincount(
        subset_sizes(s.n), weights=s.coeffs * s.coeffs, minlength=s.n + 1
    )


def level_max_abs(s: Spectrum) -> np.ndarray:
    """Largest |coeff(S)| per level |S|; the independence-order scan input."""
    out = np.zeros(s.n + 1)
    np.maximum.at(out, subset_sizes(s.n), np.abs(s.coeffs))
    return out


class _WeightOne(CubeFunction):
    @property
    def spectrum(self) -> Spectrum:
        """(n - 2|S|) / 2^n, built on each read: small integers over a power
        of two, so bit for bit the butterfly's result."""
        coeffs = adjacency_level_multipliers(self.n)[subset_sizes(self.n)]
        coeffs /= self.size
        return Spectrum(self.n, _Fresh(coeffs))


def weight_one_indicator(n: int) -> CubeFunction:
    """0/1 indicator of the Hamming weight-1 shell (the adjacency kernel),
    whose spectrum is written in closed form."""
    check_dimension(n)
    return _WeightOne(n, _Fresh((subset_sizes(n) == 1).astype(np.float64)))


def adjacency_level_multipliers(n: int) -> np.ndarray:
    """Adjacency eigenvalue per level: n - 2j on coefficients with |S| = j."""
    return n - 2.0 * np.arange(n + 1)


def log2_ball_volume(n: int, r: int) -> float:
    """log2 of the number of masks with weight <= r (exact integer count)."""
    if not 0 <= r <= n:
        raise ValueError(f"radius {r} outside 0..{n}")
    return math.log2(sum(math.comb(n, i) for i in range(r + 1)))
