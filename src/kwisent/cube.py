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

A function is made from its values or from its spectrum (a convolution is
made from the spectral product), and keeps both: whichever side it was not
made from is built from the other by one butterfly on first read, and then
kept, unless its maker sets that side too, as the density of a space uniform
on a translate of a code is given the dual code's signs, the butterfly's
result bit for bit (codes.SampleSpace.density).  wht returns the spectrum
property.  A spectrum is made from its coefficients or from its n + 1
levels, when it depends on |S| alone; the full table of a spectrum by level
is gathered only when its coeffs are read, and then kept.  A Radial function (a function of |x| alone, like the
ball density and the weight-one kernel) has such a spectrum, from exact
Krawtchouk sums, with no butterfly.  convolve multiplies two spectra by
level level for level, and scales a full table by a spectrum by level row
by row, so it gathers no 2^n table.
A third representation holds a function constant on each coset of a
linear code C (_Cosets, which also argues which bits it keeps): a table
of its 2^m values, one per coset, m = n - rank C.  Its spectrum is zero off
the 2^m words of the dual code C^⊥ (_OnWords): set by its maker, or the
2^m butterfly of the table over 2^m.  Every kernel keeps such a function or
spectrum on its 2^m values: adjacency_apply sums n shifted tables, convolve
multiplies the values at the words, inner_product reads the two tables, and
spectral_inner_product, level_profile and level_max_abs read the values at
the words.  The density of a space uniform on a translate of a code of
rank >= 1 is one, and so is the smoothed density made from it
(smoothing._smoothed_density), so a chain on such a space builds no 2^n
vector.

The two dense kernels work on a vector of more than 2^_BLOCK values row by
row, each row of 2^_BLOCK values in cache, instead of sweeping all of it
once per bit: the butterfly sweeps memory about twice rather than n times,
and the adjacency writes its result once and reads f n + 1 - _BLOCK times
rather than reading and writing the result n times.  Each value still meets
the same additions in the same order, so their results are those of the
textbook loops, bit for bit.
Inner products sum in numpy's own loop, not in BLAS, so that no result
depends on the BLAS thread count.
"""

from __future__ import annotations

import math
from functools import cached_property, lru_cache

import numpy as np

from .errors import DimensionError

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


def _frozen_vector(raw, size: int) -> np.ndarray:
    """A checked, read-only float64 vector of the given length: the values or
    spectrum of a function on the cube, or a Radial profile by weight.

    Anything a caller passes in is copied, so no array the caller holds, a
    read-only one included, can change it later, and each value is checked
    finite.  A _Fresh vector is taken over as it is and checked by its sum,
    which is NaN or infinite whenever some value is, with no 2^n temporary:
    it would refuse finite values only if their sum passed 1.8e308, which no
    density or spectrum comes near.
    """
    fresh = isinstance(raw, _Fresh)
    vals = raw.vals if fresh else np.array(raw, dtype=np.float64)
    if vals.shape != (size,):
        raise DimensionError(f"expected a vector of length {size}, got shape {vals.shape}")
    if fresh:
        # inf - inf and an overflowing sum are refusals, not warnings
        with np.errstate(over="ignore", invalid="ignore"):
            finite = math.isfinite(float(vals.sum()))
    else:
        finite = np.all(np.isfinite(vals))
    if not finite:
        raise ValueError("values must be finite (no NaN or infinity)")
    vals.setflags(write=False)
    return vals


class CubeFunction:
    """A real-valued function on {0,1}^n, indexed by bitmask: made from its
    values here, or from its spectrum by _from_spectrum.  Whichever side is
    missing is built from the other by one butterfly on first read, and
    kept, unless its maker sets it."""

    def __init__(self, n: int, values):
        check_dimension(n)
        self.n = n
        self.values = _frozen_vector(values, 1 << n)

    @property
    def size(self) -> int:
        return 1 << self.n

    @cached_property
    def values(self) -> np.ndarray:
        """The inverse transform of the spectrum: the butterfly alone."""
        return _frozen_vector(_Fresh(_fwht(self.spectrum.coeffs)), self.size)

    @cached_property
    def spectrum(self) -> Spectrum:
        """The forward transform: the butterfly, then the 1/2^n factor once
        at the end."""
        a = _fwht(self.values)
        a /= self.size
        return Spectrum(self.n, _Fresh(a))


def _xor_span(gens: np.ndarray) -> np.ndarray:
    """Entry t is the XOR of gens[j] over the bits j of t: 2^len(gens)
    entries of gens' dtype, by doubling."""
    out = np.zeros(1 << gens.size, dtype=gens.dtype)
    for i, gen in enumerate(gens):
        np.bitwise_xor(out[: 1 << i], gen, out=out[1 << i : 2 << i])
    return out


class _Cosets(CubeFunction):
    """A function constant on each coset of a linear code C, made from the
    list of C's dual words and a table of its value on each coset.

    The dual words come in increasing order, as codes._span lists them:
    words[t] is the XOR of the dual's reduced rows rows[j] over the bits j
    of t, rows in ascending pivot order (rows[j] = words[2^j], of pivot
    p_j, p_0 < p_1 < ...); m = log2 len(words) = n - rank C.  Coordinate i
    has the syndrome c_i, whose bit j is bit i of rows[j], and x has the
    syndrome sigma(x), the XOR of c_i over the bits i of x; the cosets of C
    are the sets of one syndrome, the value at x is table[sigma(x)], and
    words[t] . x = t . sigma(x).

    Why the coset route keeps the dense route's bits.  A function whose
    spectrum lies on the dual, as g = f * d of a code's density f,
    has the values table[sigma] = sum_t coeff(words[t]) (-1)^(t . sigma):
    the butterfly of the 2^m coefficients at the dual words, and that is the
    dense butterfly's result bit for bit.  The dense butterfly's stage i
    pairs masks that differ in bit i, and a mask's bits at and above i hold
    the S side.  The dual words that agree at and above bit i are those of
    one choice of the rows of pivot >= i, since a row of pivot p is zero
    above p and only it is nonzero at p; so a non-pivot stage adds or
    subtracts, at each pair, one partial sum of dual words and one of exact
    zeros (every coefficient off the dual is +0 or -0), and a pivot stage
    p_j pairs the same two sums of dual words as stage j of the 2^m
    butterfly.  Adding an exact zero leaves a nonzero sum as it is, and a
    negation is exact and passes through every rounding, so both trees meet
    the same terms, with the same signs on the way to x, in the same order:
    the values are equal bit for bit, up to the sign of a sum that is
    exactly zero.  The density of a translate C + a is its table at each
    mask: 2^(n-k) on C + a, the coset of syndrome sigma(a), and 0
    elsewhere, the dense values exactly.  adjacency_apply of such a function
    sums the n tables table[sigma ^ c_i] from zero, i = 0..n-1 in turn, the
    order in which the dense kernel adds f(x ^ e_i), so its values are the
    dense result bit for bit.

    Where the bits part.  Each coset holds 2^(n-m) masks, so a sum over the
    cube is 2^(n-m) times a sum over the table: a mean, an inner product
    and an entropy read the 2^m values, and the spectrum, unless its maker
    sets it, is the 2^m butterfly of the table over 2^m (coeff(words[t]) =
    2^-m sum_s table[s] (-1)^(t . s)), held on the words (_OnWords).  A sum
    of 2^m terms rounds otherwise than the dense route's sum of 2^n, so
    these agree with the dense route within the two sums' rounding, not bit
    for bit; tests/test_smoothing.py holds every printed number to that
    bound.  A level profile adds the same squares in the same index order
    as the dense bincount, and a level maximum does not round, so given the
    same coefficients both keep the bits.

    No step of a chain reads the values, which are CubeFunction's: the
    inverse butterfly of the spectrum's full table.
    """

    def __init__(self, n: int, dual_words: np.ndarray, table):
        check_dimension(n)
        self.n, self.dual_words = n, dual_words
        self.table = _frozen_vector(table, dual_words.size)

    def with_table(self, table: np.ndarray) -> _Cosets:
        """The function on the same cosets whose table is table, taken over."""
        h = _Cosets(self.n, self.dual_words, _Fresh(table))
        h.syndromes = self.syndromes
        return h

    @cached_property
    def syndromes(self) -> np.ndarray:
        """c_i for i = 0..n-1, in the narrowest unsigned dtype that holds 2^m."""
        m = self.dual_words.size.bit_length() - 1
        rows = self.dual_words[1 << np.arange(m)]  # rows[j] = words[2^j]
        bits = (rows[:, None] >> np.arange(self.n)) & 1
        return (bits << np.arange(m)[:, None]).sum(axis=0).astype(np.min_scalar_type((1 << m) - 1))

    @cached_property
    def spectrum(self) -> _OnWords:
        a = _fwht(self.table)
        a /= self.table.size
        return _OnWords(self.n, self.dual_words, _Fresh(a))


def _from_spectrum(s: Spectrum) -> CubeFunction:
    """The function whose spectrum is s; its values are built on first read."""
    f = CubeFunction.__new__(CubeFunction)
    f.n, f.spectrum = s.n, s
    return f


class Spectrum:
    """The Walsh-Hadamard coefficients, indexed by subset mask: made from the
    full table here, or by _by_level from the n + 1 values of a spectrum
    that depends on |S| alone (levels; None for a table), whose full table
    is gathered on first read of coeffs, and kept; _OnWords holds one that
    is zero off a list of words by its values there."""

    levels = None

    def __init__(self, n: int, coeffs):
        check_dimension(n)
        self.n = n
        self.coeffs = _frozen_vector(coeffs, 1 << n)

    @cached_property
    def coeffs(self) -> np.ndarray:
        return _frozen_vector(_Fresh(self.levels[subset_sizes(self.n)]), 1 << self.n)


class _OnWords(Spectrum):
    """A spectrum that is zero off a sorted list of words, the dual words of
    a function on cosets (_Cosets): on_words[t] is the coefficient at
    words[t].  Its full table is scattered, +0.0 off the words, on first
    read of coeffs, and kept; the kernels read the 2^m values instead."""

    def __init__(self, n: int, words: np.ndarray, on_words):
        check_dimension(n)
        self.n, self.words = n, words
        self.on_words = _frozen_vector(on_words, words.size)

    @cached_property
    def coeffs(self) -> np.ndarray:
        table = np.zeros(1 << self.n)
        table[self.words] = self.on_words
        return _frozen_vector(_Fresh(table), 1 << self.n)

    @cached_property
    def sizes(self) -> np.ndarray:
        """|S| for each word S."""
        return np.bitwise_count(self.words)

    def at(self, s: Spectrum) -> np.ndarray:
        """s's coefficients at the words: read from its levels, from its
        values on the same words, or from its full table."""
        if s.levels is not None:
            return s.levels[self.sizes]
        if isinstance(s, _OnWords) and s.words is self.words:
            return s.on_words
        return s.coeffs[self.words]


def _by_level(n: int, levels: np.ndarray) -> Spectrum:
    """The spectrum whose coefficient on every S is levels[|S|], taken over
    read-only; the levels are checked finite, as every computed vector is,
    in each 2^n table made from them: the gather, and a product by a table."""
    levels.setflags(write=False)
    s = Spectrum.__new__(Spectrum)
    s.n, s.levels = n, levels
    return s


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


def _fwht_row(v: np.ndarray, src: np.ndarray, dst: np.ndarray) -> np.ndarray:
    """Stages 0..n-1 of v, of length 2^n, through the buffers src and dst of
    v's length; returns the one written last, and v is only read.

    Seen as a (rows, cols) matrix, the low n//2 bits of a mask index the
    column; on the transposed matrix bit i sits at stride rows << i, so the
    low stages run there and every stage works on rows of at least 2^(n//2)
    contiguous values.
    """
    size = v.shape[0]
    n = size.bit_length() - 1
    low = n // 2
    rows, cols = size >> low, 1 << low
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


# log2 of the values in one row of the blocked kernels: 2^16 float64 values
# (512 KiB) sit in a 2 MiB L2 cache with room for the buffers beside them
_BLOCK = 16


def _fwht(v: np.ndarray) -> np.ndarray:
    """Unnormalized butterfly of v into a fresh array, O(n 2^n) arithmetic.

    Stage i pairs the masks that differ in bit i, for i = 0..n-1 in that
    order, and writes left + right and left - right; v is only read.  Up to
    2^_BLOCK values, _fwht_row runs every stage over the whole vector.
    Above, v is a (rows, 2^_BLOCK) matrix: each row runs stages 0.._BLOCK-1
    through _fwht_row while it sits in cache, and then stages _BLOCK..n-1,
    which pair rows r and r ^ 2^(i - _BLOCK), run on slabs of columns copied
    into two buffers of max(2^_BLOCK, rows) values (512 KiB each).  So
    memory is swept about twice, not n times, and the call holds the result
    and those two buffers, not a second vector.
    Every value sees the stages in the same order with the same additions as
    in the textbook in-place butterfly, so the result is bit-identical to it.
    """
    size = v.shape[0]
    n = size.bit_length() - 1
    if n <= _BLOCK:
        return _fwht_row(v, np.empty_like(v), np.empty_like(v))
    rows, cols = size >> _BLOCK, 1 << _BLOCK
    width = max(cols // rows, 1)  # columns per slab
    src, dst = np.empty(width * rows), np.empty(width * rows)
    out = np.empty_like(v)
    grid, flat = out.reshape(rows, cols), v.reshape(rows, cols)
    for r in range(rows):
        grid[r] = _fwht_row(flat[r], src[:cols], dst[:cols])
    for start in range(0, cols, width):
        a, b = src, dst
        a.reshape(rows, width)[:] = grid[:, start : start + width]
        for i in range(n - _BLOCK):
            _butterfly(a, b, width << i)
            a, b = b, a
        grid[:, start : start + width] = a.reshape(rows, width)
    return out


def wht(f: CubeFunction) -> Spectrum:
    """Forward transform: f's spectrum property.

    Every function keeps its spectrum, so at most the first call runs a
    butterfly: none for a convolution, which was made from its spectrum, or
    for a Radial function, which sums its levels.
    """
    return f.spectrum


def inverse_wht(s: Spectrum) -> CubeFunction:
    """Reconstruct f(x) = sum_S coeff(S) * (-1)^popcount(S & x)."""
    return CubeFunction(s.n, _Fresh(_fwht(s.coeffs)))


def _same_dimension(f: CubeFunction, g: CubeFunction) -> None:
    if f.n != g.n:
        raise DimensionError(f"dimension mismatch: {f.n} vs {g.n}")


def convolve(f: CubeFunction, g: CubeFunction) -> CubeFunction:
    """(f * g)(x) = 2^-n sum_y f(y) g(y ^ x), as the spectral product.

    The result keeps the product as its spectrum, so wht of it runs no
    butterfly; its values are built by one inverse butterfly when first read.
    Two spectra by level multiply their n + 1 levels; a spectrum on words
    (_OnWords) multiplies its values by the other's coefficients at its
    words, and the product stays on them; one by level scales the other's
    table by _level_scaled, with no 2^n gather.  Each product is the same
    double either way.
    """
    _same_dimension(f, g)
    a, b = wht(f), wht(g)
    # IEEE products commute: one on words goes first (f's, if both are),
    # and one by level second
    if not isinstance(a, _OnWords) and (a.levels is not None or isinstance(b, _OnWords)):
        a, b = b, a
    if a.levels is not None:
        return _from_spectrum(_by_level(f.n, a.levels * b.levels))
    if isinstance(a, _OnWords):
        return _from_spectrum(_OnWords(f.n, a.words, _Fresh(a.on_words * a.at(b))))
    if b.levels is not None:
        prod = _level_scaled(a.coeffs, b.levels)
    else:
        prod = a.coeffs * b.coeffs
    return _from_spectrum(Spectrum(f.n, _Fresh(prod)))


def _dot(a: np.ndarray, b: np.ndarray) -> float:
    """sum_i a_i b_i in numpy's own loop: BLAS (np.dot) splits the sum by
    thread, so its last bits, and the printed slacks, would follow the
    thread count."""
    return np.einsum("i,i->", a, b)


def inner_product(f: CubeFunction, g: CubeFunction) -> float:
    """<f, g> = 2^-n sum_x f(x) g(x); of two functions on the same cosets,
    2^-m sum_s table_f(s) table_g(s), as each coset holds 2^(n-m) masks."""
    _same_dimension(f, g)
    if isinstance(f, _Cosets) and isinstance(g, _Cosets) and f.dual_words is g.dual_words:
        return float(_dot(f.table, g.table) / f.table.size)
    return float(_dot(f.values, g.values) / f.size)


def spectral_inner_product(f: CubeFunction, g: CubeFunction) -> float:
    """<f, g> by Plancherel, sum_S coeff_f(S) coeff_g(S): reads the two
    spectra, which every function keeps, and no values; a spectrum on words
    (_OnWords) is read at its words alone."""
    _same_dimension(f, g)
    a, b = f.spectrum, g.spectrum
    if isinstance(b, _OnWords):
        a, b = b, a
    if isinstance(a, _OnWords):
        return float(_dot(a.on_words, a.at(b)))
    return float(_dot(a.coeffs, b.coeffs))


def _add_flips(acc: np.ndarray, vals: np.ndarray, h: int) -> None:
    """acc[x] += vals[x ^ h] for every x, h a power of two below their length."""
    pairs = acc.reshape(-1, 2, h)
    pairs += vals.reshape(-1, 2, h)[:, ::-1]


def adjacency_apply(f: CubeFunction) -> CubeFunction:
    """(Af)(x) = sum_i f(x ^ e_i), the cube adjacency acting on f.

    Equals 2^n * convolve(weight_one_indicator(n), f); this scale is pinned
    by a normalization test.  Each row of 2^_BLOCK values of the result (all
    of it at n <= _BLOCK) is built once, while it sits in cache: from zero,
    x picks up f(x ^ e_i) for i = 0, 1, ... in turn, the flips inside the
    row first and then the partner rows r ^ 2^(i - _BLOCK).  That order
    fixes the rounding.  As in _fwht_row, the flips of the low half of the
    row's bits run on transposed copies, where they pair long contiguous
    runs instead of single values: the result row holds f's row transposed
    until the sums, made in one buffer, replace it.

    A function on cosets (_Cosets) gives one on the same cosets, the sum of
    its table shifted by each coordinate's syndrome c_i in the same order:
    by the flips of bit j where c_i = 2^j, as at a pivot coordinate, and by
    one gather of 2^m values otherwise.
    """
    n = f.n
    if isinstance(f, _Cosets):
        shift = np.arange(f.table.size, dtype=f.syndromes.dtype)
        acc = np.zeros(f.table.size)
        for c in f.syndromes.tolist():  # acc[sigma] += table[sigma ^ c_i], i = 0..n-1
            if c and not c & (c - 1):  # c_i = 2^j: the flips of bit j
                _add_flips(acc, f.table, c)
            else:
                acc += f.table[shift ^ c]
        return f.with_table(acc)
    low = min(n, _BLOCK)
    half = low // 2
    rows, cols = 1 << (low - half), 1 << half
    out = np.empty(f.size)
    grid, flat = out.reshape(-1, 1 << low), f.values.reshape(-1, 1 << low)
    sums_t = np.empty(1 << low)
    for r, row in enumerate(grid):
        _transpose(flat[r], row, rows, cols)
        sums_t.fill(0.0)
        for i in range(half):
            _add_flips(sums_t, row, rows << i)
        _transpose(sums_t, row, cols, rows)
        for i in range(half, low):
            _add_flips(row, flat[r], 1 << i)
        for i in range(low, n):
            row += flat[r ^ (1 << (i - low))]
    return CubeFunction(n, _Fresh(out))


def level_profile(s: Spectrum) -> np.ndarray:
    """Squared coefficient mass per level: entry j = sum_{|S|=j} coeff(S)^2.

    A spectrum on words is read at its words: bincount adds in index order,
    and the words ascend, so that adds the nonzero squares of the full
    table in its order, and the +0.0 squares off the words change no sum.
    """
    on_words = isinstance(s, _OnWords)
    sizes, coeffs = (s.sizes, s.on_words) if on_words else (subset_sizes(s.n), s.coeffs)
    return np.bincount(sizes, weights=coeffs * coeffs, minlength=s.n + 1)


# log2 of the row length of level_max_abs and _level_scaled: 2^12 values
# (32 KiB) per row
_LEVEL_ROW = 12


@lru_cache(maxsize=DIMENSION_CAP)  # one layout per dimension, under 1 MiB each
def _level_rows(n: int, low: int) -> tuple[tuple[int, ...], np.ndarray, np.ndarray, np.ndarray]:
    """A 2^n table seen as 2^high rows of 2^low values (high = n - low), by
    popcount: mask S is row S >> low, column c = S & (2^low - 1), and |S| is
    the popcount p of its row plus |c|.

    Returns p for each row, as a tuple; the (high + 1, 2^low) table of the
    levels p + |c|; and the low masks c ordered by popcount, with where each
    popcount begins.  The arrays are read-only.  Each caller passes
    low = min(n, _LEVEL_ROW), so the cache key holds the row length, and a
    layout built for one row length is never read for another.
    """
    sizes = subset_sizes(low)
    level_table = np.add.outer(np.arange(n - low + 1), sizes)
    order = np.argsort(sizes, kind="stable")
    starts = np.searchsorted(sizes[order], np.arange(low + 1))
    for table in (level_table, order, starts):
        table.setflags(write=False)
    return tuple(subset_sizes(n - low).tolist()), level_table, order, starts


def _level_scaled(coeffs: np.ndarray, levels: np.ndarray) -> np.ndarray:
    """coeffs[S] * levels[|S|] for every mask S, into a fresh array.

    On the rows of _level_rows, row r is multiplied by row p of
    levels[p + |c|], p the popcount of r's high bits: the same products as
    against the gathered table, with no 2^n gather.
    """
    n = levels.size - 1
    low = min(n, _LEVEL_ROW)
    pops, level_table, _, _ = _level_rows(n, low)
    scale = levels[level_table]
    out = np.empty_like(coeffs)
    grid, flat = out.reshape(-1, 1 << low), coeffs.reshape(-1, 1 << low)
    for r, p in enumerate(pops):
        np.multiply(flat[r], scale[p], out=grid[r])
    return out


def level_max_abs(s: Spectrum) -> np.ndarray:
    """Largest |coeff(S)| per level |S|; the independence-order scan input.

    On the rows of _level_rows, each row's |coeff| goes into the running
    maximum of the rows whose high bits have its popcount p; then each of
    those high + 1 rows is split by the popcount q of the low bits, and its
    maxima go to level p + q.  A maximum does not round, so the order in
    which the values meet does not matter.  A spectrum on words takes the
    maxima of its values by their words' levels; the coefficients off the
    words are zeros, which no maximum of absolute values passes.
    """
    n = s.n
    if isinstance(s, _OnWords):
        out = np.zeros(n + 1)
        np.maximum.at(out, s.sizes, np.abs(s.on_words))
        return out
    low = min(n, _LEVEL_ROW)
    pops, _, order, starts = _level_rows(n, low)
    rows = np.zeros((n - low + 1, 1 << low))
    buf = np.empty(1 << low)
    for row, p in zip(s.coeffs.reshape(-1, 1 << low), pops):
        np.maximum(rows[p], np.abs(row, out=buf), out=rows[p])
    out = np.zeros(n + 1)
    for p, maxima in enumerate(np.maximum.reduceat(np.take(rows, order, axis=1), starts, axis=1)):
        np.maximum(out[p : p + low + 1], maxima, out=out[p : p + low + 1])
    return out


def krawtchouk(n: int, top: int) -> list[list[int]]:
    """Rows j = 0..n of K_j(w) for w = 0..top, in Python integers.

    K_j(w) is the sum of (-1)^popcount(S & x) over the masks x of weight w,
    for any S of weight j: the coefficient of z^w in (1 - z)^j (1 + z)^(n - j)
    (MacWilliams & Sloane, ch. 5).  Each row follows the exact recurrence
    (w + 1) K_j(w + 1) = (n - 2j) K_j(w) - (n - w + 1) K_j(w - 1).
    """
    rows = []
    for j in range(n + 1):
        row, prev = [1], 0
        for w in range(top):
            row.append(((n - 2 * j) * row[w] - (n - w + 1) * prev) // (w + 1))
            prev = row[w]
        rows.append(row)
    return rows


class Radial(CubeFunction):
    """A function of the weight |x| alone: profile[w] on every mask of weight w.

    Its spectrum depends on the level alone, coeff(S) = sum_w profile[w]
    K_|S|(w) / 2^n.  Each profile value is an integer over a power of two, so
    over their largest denominator the level sum is one integer ratio, and
    Python's integer division rounds it correctly.  The spectrum is made
    from those n + 1 levels on first read, and gathers its dense table only
    when coeffs is read; the values are gathered from the profile on first
    read.  Each is kept.  The profile is checked as any vector a caller
    passes in (_frozen_vector, with n + 1 values): copied, checked finite,
    and kept read-only.
    """

    def __init__(self, n: int, profile):
        check_dimension(n)
        self.n, self.profile = n, _frozen_vector(profile, n + 1)

    @cached_property
    def level_spectrum(self) -> np.ndarray:
        """coeff(S) for |S| = 0..n, each correctly rounded."""
        ratios = [value.as_integer_ratio() for value in self.profile.tolist()]
        scale = max(den for _, den in ratios)  # every denominator is a power of two
        numerators = [num * (scale // den) for num, den in ratios]
        top = max((w for w, num in enumerate(numerators) if num), default=0)
        total = scale << self.n
        return np.array(
            [sum(a * k for a, k in zip(numerators, row)) / total for row in krawtchouk(self.n, top)]
        )

    @cached_property
    def spectrum(self) -> Spectrum:
        return _by_level(self.n, self.level_spectrum)

    @cached_property
    def values(self) -> np.ndarray:
        return _frozen_vector(_Fresh(self.profile[subset_sizes(self.n)]), self.size)


def weight_one_indicator(n: int) -> Radial:
    """0/1 indicator of the Hamming weight-1 shell (the adjacency kernel).

    Its spectrum is K_|S|(1) / 2^n = (n - 2|S|) / 2^n: small integers over a
    power of two, so bit for bit the butterfly's result.
    """
    return Radial(n, np.eye(n + 1)[1])


def log2_ball_volume(n: int, r: int) -> float:
    """log2 of the number of masks with weight <= r (exact integer count)."""
    if not 0 <= r <= n:
        raise ValueError(f"radius {r} outside 0..{n}")
    return math.log2(sum(math.comb(n, i) for i in range(r + 1)))
