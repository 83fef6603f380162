"""Independence detection: spectral criterion against the marginal oracle."""

from __future__ import annotations

import math
import tracemalloc
from itertools import combinations
from unittest import mock

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import biased_product_space, point_space, uniform_space
from kwisent import kwise
from kwisent.codes import BinaryMatrix, SampleSpace, hamming_code, parity_sampler_space
from kwisent.cube import level_profile
from kwisent.errors import ResourceLimitError
from kwisent.tolerances import MARGINAL_ZERO
from kwisent.kwise import independence_order, marginal_order
import oracles
from oracles import from_density, marginal_check


def test_density_from_space_examples(hamming7):
    vals = uniform_space(2).density.values
    np.testing.assert_array_equal(vals, np.ones(4))

    vals = point_space(4).density.values
    expect = np.zeros(16)
    expect[0] = 16.0
    np.testing.assert_array_equal(vals, expect)

    dens = hamming7.density.values
    assert sorted(set(dens.tolist())) == [0.0, 8.0]  # 2^7 / 16 on support
    assert (dens > 0).sum() == 16


def test_uniform_distribution_has_full_order():
    dist = uniform_space(6)
    assert independence_order(dist) == 6
    assert independence_order(dist) >= 6


def test_point_mass_has_order_zero():
    dist = point_space(5)
    assert independence_order(dist) == 0
    assert independence_order(dist) < 1


def test_hamming7_order_three(hamming7):
    assert independence_order(hamming7) == 3
    assert independence_order(hamming7) >= 3
    assert independence_order(hamming7) < 4
    assert marginal_order(hamming7, 7) == 3


def test_hamming7_fourier_levels_match_dual_distance(hamming7):
    # dual distance 4: levels 1..3 carry no coefficient mass
    profile = level_profile(hamming7.density.spectrum)
    np.testing.assert_array_equal(profile[1:4], np.zeros(3))
    assert profile[4] == 7.0  # seven dual words of weight 4


def test_simplex7_order_two(simplex7):
    # dual of the simplex is the Hamming code with distance 3, so the
    # uniform simplex space is pairwise independent and no more
    assert independence_order(simplex7) == 2
    assert marginal_order(simplex7, 7) == 2
    assert independence_order(simplex7) >= 2
    assert independence_order(simplex7) < 3


def test_marginal_check_examples(hamming7):
    assert marginal_check(uniform_space(5), 3) == 0.0

    assert marginal_check(hamming7, 3) == 0.0
    assert marginal_check(hamming7, 4) == 2.0**-4

    biased = biased_product_space(4, 0.6)
    assert marginal_check(biased, 1) == pytest.approx(0.1, abs=1e-12)


def test_marginal_check_guard():
    dist = uniform_space(18)
    with pytest.raises(ResourceLimitError):
        marginal_check(dist, 9)


def test_marginal_check_guard_reads_every_level():
    # level bins C(n, j) 2^j peak near j = 2n/3, not at j = k
    point = point_space(12)
    assert kwise.level_bins(12, 12) <= 10**5 < kwise.level_bins(12, 8)
    with mock.patch.object(kwise, "MARGINAL_WORK_GUARD", 10**5):
        with pytest.raises(ResourceLimitError, match="n=12, k=12 exceeds"):
            marginal_check(point, 12)
    # at the default guard, level 18 costs 2^18 but level 12 costs 7.6e7
    with pytest.raises(ResourceLimitError, match="n=18, k=18 exceeds"):
        marginal_check(point_space(18), 18)


def test_code_independence_link(corpus):
    # uniform code spaces are independent at exactly (dual distance - 1)
    for name, dist in corpus:
        if not name.startswith(("hamming", "simplex", "random")):
            continue
        spectral = independence_order(dist)
        if name == "hamming3":
            assert spectral == hamming_code(2).dual().min_distance() - 1 == 1
        if name == "hamming7":
            assert spectral == 3
        if name == "hamming15":
            assert spectral == 7


def test_code_independence_link_random_codes():
    rng = np.random.default_rng(41)
    checked = 0
    for n in (6, 9, 12, 15):
        for _ in range(6):
            rows = tuple(int(rng.integers(1, 1 << n)) for _ in range(int(rng.integers(1, 4))))
            code = BinaryMatrix(rows, n)
            dual = code.dual()
            if len(dual.rows) in (0, n):
                continue
            dist = parity_sampler_space(code)
            dual_distance = dual.min_distance()
            assert independence_order(dist) == dual_distance - 1, (n, rows)
            checked += 1
    assert checked >= 15


def test_spectral_equals_marginal_order_on_corpus(corpus):
    for name, dist in corpus:
        if dist.n > 12:
            continue
        assert independence_order(dist) == marginal_order(dist, dist.n), name


def test_plancherel_consistency_on_corpus(corpus):
    for name, dist in corpus:
        direct = float((dist.density.values**2).mean())
        spectral = float((dist.density.spectrum.coeffs**2).sum())
        assert abs(direct - spectral) < 1e-9, name


def test_distribution_from_density_round_trip(hamming7):
    rebuilt = from_density(hamming7.density)
    np.testing.assert_array_equal(rebuilt.points, hamming7.points)
    np.testing.assert_allclose(rebuilt.probabilities, hamming7.probabilities, atol=1e-15)


# The per-subset scan the level-batched oracle replaced, kept as its
# reference: one np.unique sort and one bincount per coordinate subset.


def _subset_deviation_reference(space, mask, size):
    uniq, inverse = np.unique(space.points & mask, return_inverse=True)
    target = 2.0**-size
    dev = float(np.abs(np.bincount(inverse, weights=space.probabilities) - target).max())
    if uniq.size < (1 << size):  # an absent pattern deviates by the full target
        dev = max(dev, target)
    return dev


def marginal_check_by_subset_reference(space, k):
    n = space.n
    if not 0 <= k <= n:
        raise ValueError(f"k must be in 0..{n}, got {k}")
    costs = [math.comb(n, size) * (1 << size) for size in range(1, k + 1)]
    if max(costs, default=0) > kwise.MARGINAL_WORK_GUARD:
        raise ResourceLimitError(f"marginal check at n={n}, k={k} exceeds the work guard")
    worst = 0.0
    for size in range(1, k + 1):
        for combo in combinations(range(n), size):
            mask = 0
            for c in combo:
                mask |= 1 << (n - 1 - c)
            worst = max(worst, _subset_deviation_reference(space, mask, size))
    return worst


def marginal_order_by_subset_reference(space, stop, tol=MARGINAL_ZERO):
    n = space.n
    order = 0
    for size in range(1, stop + 1):
        if math.comb(n, size) * (1 << size) > kwise.MARGINAL_WORK_GUARD:
            raise ResourceLimitError(
                f"marginal order scan at n={n}, size={size} exceeds the work guard"
            )
        level_ok = True
        for combo in combinations(range(n), size):
            mask = 0
            for c in combo:
                mask |= 1 << (n - 1 - c)
            if _subset_deviation_reference(space, mask, size) > tol:
                level_ok = False
                break
        if not level_ok:
            break
        order = size
    return order


@st.composite
def oracle_spaces(draw):
    """Random supports, or spans of a few vectors (deep uniform levels), with
    weights that may be unequal or zero; n <= 12."""
    n = draw(st.integers(1, 12))
    vectors = st.integers(0, (1 << n) - 1)
    if draw(st.booleans()):
        points = set(draw(st.lists(vectors, min_size=1, max_size=80)))
    else:
        points = {0}
        for g in draw(st.lists(vectors, max_size=min(n, 8))):
            points |= {p ^ g for p in points}
    points = sorted(points)
    weights = draw(
        st.one_of(
            st.just([1.0] * len(points)),
            st.lists(
                st.sampled_from([0.0, 0.5, 1.0, 3.0, 0.1]),
                min_size=len(points),
                max_size=len(points),
            ),
        )
    )
    weights = np.asarray(weights) if sum(weights) > 0 else np.ones(len(points))
    return SampleSpace(n, np.asarray(points, dtype=np.int64), weights / weights.sum())


def _outcome(oracle, *args):
    try:
        return oracle(*args)
    except ResourceLimitError as exc:
        return ("refused", str(exc))


@given(
    oracle_spaces(),
    st.integers(0, 12),
    st.sampled_from([1, 3, oracles.MARGINAL_BLOCK_ELEMENTS]),
    st.sampled_from([kwise.MARGINAL_WORK_GUARD, 30, 300, 3000]),
    st.sampled_from([1, 40, kwise.MARGINAL_STACK_ELEMENTS]),
)
def test_level_batched_oracle_matches_per_subset_reference(space, k, block, guard, budget):
    # a lattice budget of 1 or 40 sums splits the stacks at nearly every
    # step; stop = k below n checks the subsets of size k within the first
    # coordinates, which the lattice reads straight from the support
    k = min(k, space.n)
    with mock.patch.object(oracles, "MARGINAL_BLOCK_ELEMENTS", block), mock.patch.object(
        kwise, "MARGINAL_WORK_GUARD", guard
    ), mock.patch.object(kwise, "MARGINAL_STACK_ELEMENTS", budget):
        orders = [_outcome(marginal_order, space, stop) for stop in (space.n, k)]
        expected_orders = [
            _outcome(marginal_order_by_subset_reference, space, stop) for stop in (space.n, k)
        ]
        deviation = _outcome(marginal_check, space, k)
        expected = _outcome(marginal_check_by_subset_reference, space, k)
    assert orders == expected_orders
    if isinstance(expected, tuple):  # the same guard refused with the same message
        assert deviation == expected
        return
    assert deviation.hex() == expected.hex()


def test_level_batched_oracle_on_hamming7_every_level(hamming7):
    for block in (1, 3, oracles.MARGINAL_BLOCK_ELEMENTS):
        with mock.patch.object(oracles, "MARGINAL_BLOCK_ELEMENTS", block):
            for k in range(8):
                deviation = marginal_check(hamming7, k)
                assert deviation.hex() == marginal_check_by_subset_reference(hamming7, k).hex()
    for budget in (1, 3, kwise.MARGINAL_STACK_ELEMENTS):
        with mock.patch.object(kwise, "MARGINAL_STACK_ELEMENTS", budget):
            assert marginal_order(hamming7, 7) == 3


def test_level_batched_oracle_one_subset_per_block():
    # 2^15 bins of the one subset at level 15 exceed the block, so rows = 1
    point = point_space(15)
    assert 1 << 15 > oracles.MARGINAL_BLOCK_ELEMENTS
    assert marginal_check(point, 15).hex() == marginal_check_by_subset_reference(point, 15).hex()


def test_bin_index_is_exact_in_float64():
    # every product entry is an integer below this maximum (_level_deviations)
    assert max(oracles.MARGINAL_BLOCK_ELEMENTS, kwise.MARGINAL_WORK_GUARD) < 2**53


def test_marginal_lattice_checks_top_subsets_within_the_support_prefix(hamming7):
    # Hamming n=7 with its first coordinate doubled: 16 points at n = 8, so
    # the lattice reads coordinates 0 and 1 from support bincounts, and the
    # pair {0, 1}, the one pair that is not uniform, lies there
    points = hamming7.points | (hamming7.points >> 6) << 7
    space = SampleSpace(8, points, hamming7.probabilities)
    for stop in (2, 8):
        assert marginal_order(space, stop) == 1 == marginal_order_by_subset_reference(space, stop)


def test_marginal_order_refuses_a_guarded_level_without_building_it(monkeypatch):
    # at a guard of 10^5 bins, level 7 of n = 12 (101,376 bins) is refused
    # once levels 1..6 pass, and the lattice is built to level 6 only
    lattice, levels = kwise._worst_by_level, []

    def recorded(space, top):
        levels.append(top)
        return lattice(space, top)

    monkeypatch.setattr(kwise, "_worst_by_level", recorded)
    monkeypatch.setattr(kwise, "MARGINAL_WORK_GUARD", 10**5)
    with pytest.raises(ResourceLimitError, match=r"^marginal order scan at n=12, size=7 exceeds"):
        marginal_order(uniform_space(12), 12)
    assert levels == [6]
    assert marginal_order(point_space(12), 12) == 0 and levels == [6, 6]


def traced_peak(call) -> int:
    """tracemalloc's peak, in bytes, over one call."""
    tracemalloc.start()
    try:
        call()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return peak


def test_marginal_lattice_starts_from_the_support():
    # one point at n = 24: a 2^24 start vector would be 128 MiB
    assert traced_peak(lambda: marginal_order(point_space(24), 1)) < 1 << 20


def test_marginal_lattice_stacks_stay_in_their_budget():
    # a random [14, 12] code starts dense; its stacks to level 6, split at
    # MARGINAL_STACK_ELEMENTS, peak at 1.5 MiB, and unsplit at 2.9 MiB
    rng = np.random.default_rng(31)
    dual = BinaryMatrix(tuple(int(row) for row in rng.integers(1, 1 << 14, size=2)), 14)
    space = parity_sampler_space(dual.dual())
    assert space.support_size == 1 << 12
    assert traced_peak(lambda: marginal_order(space, 6)) <= 2 << 20


def test_level_cost_is_the_guarded_work():
    # the limit counts subsets x (support + 2^size); the guard caps bins
    assert kwise.level_cost(15, 8, 2048) == math.comb(15, 8) * (2048 + 256) == 14826240
    assert kwise.level_bins(15, 8) == math.comb(15, 8) << 8 == 1647360
    assert kwise.level_bins(18, 9) > kwise.MARGINAL_WORK_GUARD
    assert kwise.level_cost(5, 0, 1) == 2 and kwise.level_bins(5, 0) == 1


def test_oracle_limit_counts_the_support(hamming15, monkeypatch):
    # analyze scans levels 1..8 of Hamming n=15: 4.96e7 units at 2,048 points
    cost = sum(math.comb(15, j) * (2048 + (1 << j)) for j in range(1, 9))
    assert cost == 49644650
    assert kwise.marginal_affordable(hamming15, 8)  # at the default limit
    point = point_space(15)
    for limit, affordable in (
        (cost, [True, True]),
        (cost - 1, [False, True]),
        # the same levels on a point mass: 22,818 subsets of one point, 2,913,386 bins
        (22818 + 2913386, [False, True]),
        (22818 + 2913385, [False, False]),
    ):
        monkeypatch.setattr(kwise, "MARGINAL_WORK_LIMIT", limit)
        assert [kwise.marginal_affordable(s, 8) for s in (hamming15, point)] == affordable, limit
    # a level of more than MARGINAL_WORK_GUARD bins is refused at any limit
    monkeypatch.setattr(kwise, "MARGINAL_WORK_LIMIT", math.inf)
    assert not kwise.marginal_affordable(point_space(18), 9)
