"""Acceptance suite: one test per criterion, at the stated tolerances.

Each test prints a single `[PASS] criterion N` line (visible with -s or
-rA); a failed assertion leaves the criterion red.  Runtime limits are
asserted with the generous wall-clock budgets the criteria state.
"""

from __future__ import annotations

import math
import time

import numpy as np
import pytest

from conftest import random_halfwise_distribution, random_sample_space, uniform_space
from kwisent.balls import lambda_ball, lambda_ball_dense_oracle, min_radius
from kwisent.bounds import binary_entropy, renyi2_entropy, shannon_entropy
from kwisent.codes import hamming_code, parity_sampler_space
from kwisent.cube import CubeFunction, convolve, inner_product, inverse_wht, wht
from kwisent.kwise import Distribution, independence_order, marginal_order
from kwisent.smoothing import halfwise_chain, smoothing_chain, verify_smoothing
from kwisent.tolerances import CONVOLUTION_POINTWISE, ENTROPY_SLACK, MARGINAL_ZERO


def report(number: int, title: str, started: float, budget: float):
    elapsed = time.time() - started
    print(f"[PASS] criterion {number}: {title} ({elapsed:.2f}s of {budget:.0f}s budget)")
    assert elapsed < budget, f"criterion {number} exceeded its {budget}s budget"


def test_criterion_1_halfwise_tightness():
    started = time.time()
    for m in (2, 3, 4):
        n = 2**m - 1
        dist = Distribution.from_space(parity_sampler_space(hamming_code(m)))
        assert independence_order(dist) == n // 2
        shannon = shannon_entropy(dist.space)
        assert abs(shannon - (n - math.log2(n + 1))) < 1e-9
        second_moment = inner_product(dist.density, dist.density)
        assert abs(second_moment - (n + 1)) < 1e-9
    report(1, "half-independence bound tight at n=3,7,15", started, 1.0)


def test_criterion_2_halfwise_chain_on_random_codes():
    started = time.time()
    rng = np.random.default_rng(20250808)
    total = 0
    for n in (6, 8, 10):
        for _ in range(167):
            dist = random_halfwise_distribution(n, rng)
            assert independence_order(dist) >= n // 2
            chain = halfwise_chain(dist)
            for line in chain.lines:
                assert line.slack >= -1e-8, (n, line.name, line.cell)
            total += 1
    assert total >= 500
    report(2, f"no-smoothing chain on {total} random code spaces", started, 30.0)


def test_criterion_3_shannon_dominates_collision():
    started = time.time()
    rng = np.random.default_rng(31)
    for i in range(10_000):
        space = random_sample_space(12, rng, max_support=64 if i % 2 else 200)
        assert shannon_entropy(space) >= renyi2_entropy(space) - 1e-9
    report(3, "Shannon >= collision entropy on 10000 random spaces", started, 10.0)


def test_criterion_4_radial_reduction_oracle():
    started = time.time()
    for n in range(1, 13):
        lams = []
        for r in range(n + 1):
            lam = lambda_ball(n, r).lam
            assert abs(lam - lambda_ball_dense_oracle(n, r)) < 1e-8, (n, r)
            lams.append(lam)
        assert abs(lams[1] - math.sqrt(n)) < 1e-10
        assert abs(lams[n] - n) < 1e-10
        assert all(b >= a - 1e-10 for a, b in zip(lams, lams[1:]))
    report(4, "radial eigenvalues match the dense oracle for all n <= 12", started, 120.0)


def test_criterion_5_smoothing_facts():
    started = time.time()
    # the criterion's tolerances, which verify_smoothing reads from the table
    assert MARGINAL_ZERO == ENTROPY_SLACK == 1e-9 and CONVOLUTION_POINTWISE == 1e-10
    rng = np.random.default_rng(52)
    inputs = [
        Distribution.from_space(parity_sampler_space(hamming_code(3))),
        Distribution.from_space(parity_sampler_space(hamming_code(4))),
        Distribution.from_space(uniform_space(8)),
    ]
    inputs += [random_halfwise_distribution(10, rng) for _ in range(3)]
    for dist in inputs:
        for r in (1, 2, 3):
            result = verify_smoothing(dist, lambda_ball(dist.n, r))
            assert result.order_preserved, (dist.n, r)
            assert result.shannon_x + result.shannon_y >= result.shannon_z - 1e-9
            assert result.max_convolution_error <= 1e-10
    report(5, "smoothing preserves order, entropy, and the convolution law", started, 60.0)


def test_criterion_6_smoothing_chain(corpus):
    started = time.time()
    runs = 0
    for name, dist in corpus:
        order = independence_order(dist)
        for k in range(2, min(order + 1, dist.n // 2) + 1):
            chain = smoothing_chain(dist, k)
            rec, n = chain.record, dist.n
            assert rec["r"] == min_radius(n, k)
            assert rec["lambda"] >= n - 2 * k + 1 - 1e-9, (name, k)
            assert rec["second_moment"] <= n + 1e-8, (name, k)
            assert rec["entropy_bound"] is not None, (name, k)
            floor = n - n * binary_entropy(rec["r"] / n) - math.log2(n)
            assert rec["shannon_x"] >= floor - 1e-8, (name, k)
            assert chain.passed, (name, k)
            runs += 1
    assert runs >= 15
    report(6, f"smoothing chain certified on {runs} corpus runs", started, 120.0)


def test_criterion_7_transform_kernel_properties():
    started = time.time()
    rng = np.random.default_rng(71)
    for n in (4, 8, 12):
        size = 1 << n
        for _ in range(1000):
            f = CubeFunction(n, rng.uniform(-1.0, 1.0, size=size))
            g = CubeFunction(n, rng.uniform(-1.0, 1.0, size=size))
            fs, gs = wht(f), wht(g)
            assert np.max(np.abs(inverse_wht(fs).values - f.values)) < 1e-12
            assert abs(inner_product(f, g) - float((fs.coeffs * gs.coeffs).sum())) < 1e-10
            conv_coeffs = wht(convolve(f, g)).coeffs
            assert np.max(np.abs(conv_coeffs - fs.coeffs * gs.coeffs)) < 1e-12
    report(7, "round trip, Plancherel, convolution theorem x 3000", started, 30.0)


def test_criterion_8_independence_criteria_agree(corpus):
    started = time.time()
    checked = 0
    for name, dist in corpus:
        if dist.n > 12:
            continue
        assert independence_order(dist) == marginal_order(dist), name
        checked += 1
    assert checked >= 8
    report(8, f"spectral order equals marginal order on {checked} spaces", started, 60.0)


def test_criterion_9_eigenvalue_sweep_csv(tmp_path):
    from click.testing import CliRunner

    from kwisent.cli import main

    started = time.time()
    runner = CliRunner()
    for n in (16, 20, 24):
        out = tmp_path / f"spectra_{n}.csv"
        result = runner.invoke(
            main, ["sweep", "spectra", "--n", str(n), "--r", f"1..{n - 1}", "-o", str(out)]
        )
        assert result.exit_code == 0, result.output
        rows = out.read_text().strip().splitlines()
        assert rows[0] == "n,r,lambda,asymptotic_lambda,iterations,residual"
        assert len(rows) == n
        lams = [float(line.split(",")[2]) for line in rows[1:]]
        estimates = [float(line.split(",")[3]) for line in rows[1:]]
        assert all(b >= a - 1e-10 for a, b in zip(lams, lams[1:]))
        assert len(estimates) == n - 1
    report(9, "eigenvalue comparison sweeps at n=16,20,24", started, 60.0)
