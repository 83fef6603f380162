"""Ball eigenvalues: the bisection against closed forms, two oracles and the
exact radius search; the Perron profile against its own eigen-residual."""

from __future__ import annotations

import math

import numpy as np
import pytest
from click.testing import CliRunner
from scipy.linalg import eigh_tridiagonal

from kwisent.balls import (
    _above_spectrum,
    asymptotic_lambda,
    lambda_ball,
    min_radius,
    predicted_radius,
)
from kwisent.bounds import shannon_from_density, shannon_from_radial
from kwisent.cli import main
from kwisent.cube import adjacency_apply, inner_product, subset_sizes
from kwisent.errors import DimensionError
from kwisent.smoothing import _eigen_margin
from oracles import dense_ball_density, dense_eigen_margin, lambda_ball_dense_oracle

U = 2.0**-53  # unit roundoff


def tridiagonal_oracle(n, r):
    """Top eigenvalue via the banded symmetric eigensolver (third path)."""
    if r == 0:
        return 0.0
    off = np.sqrt(np.arange(1.0, r + 1) * (n - np.arange(0.0, r)))
    vals = eigh_tridiagonal(np.zeros(r + 1), off, select="i", select_range=(r, r))[0]
    return float(vals[0])


def test_whole_cube_and_trivial_radii():
    assert lambda_ball(10, 10).lam == pytest.approx(10.0, abs=1e-10)
    assert lambda_ball(10, 0).lam == 0.0
    assert lambda_ball(1, 1).lam == pytest.approx(1.0, abs=1e-10)


@pytest.mark.parametrize("n", [4, 9, 16, 25])
def test_radius_one_is_star_eigenvalue(n):
    assert lambda_ball(n, 1).lam == pytest.approx(math.sqrt(n), abs=1e-10)


@pytest.mark.parametrize("n", [5, 9, 16])
def test_radius_two_closed_form(n):
    # 3x3 zero-diagonal tridiagonal: top eigenvalue sqrt(a^2 + b^2)
    assert lambda_ball(n, 2).lam == pytest.approx(math.sqrt(3 * n - 2), abs=1e-10)


@pytest.mark.parametrize("n", [*range(1, 65), 96, 192, 400])
def test_matches_tridiagonal_oracle(n):
    # every radius up to n = 64, every 7th above; 2 r u relative is the
    # bisection's error bound (balls module docstring)
    for r in range(0, n + 1, 1 if n <= 64 else 7):
        assert lambda_ball(n, r).lam == pytest.approx(tridiagonal_oracle(n, r), rel=1e-13, abs=0)


def test_integer_eigenvalues_are_exact():
    assert lambda_ball(12, 5).lam == 10.0
    for n in range(1, 65):
        assert lambda_ball(n, n).lam == n
        assert lambda_ball(n, 0).lam == 0.0


def test_matches_dense_oracle_spot_checks():
    for n, r in ((10, 1), (10, 4), (12, 4), (12, 6), (12, 11)):
        assert abs(lambda_ball(n, r).lam - lambda_ball_dense_oracle(n, r)) < 1e-8


def test_dense_oracle_examples():
    assert lambda_ball_dense_oracle(10, 10) == pytest.approx(10.0, abs=1e-10)
    assert lambda_ball_dense_oracle(10, 1) == pytest.approx(math.sqrt(10), abs=1e-10)
    with pytest.raises(DimensionError):
        lambda_ball_dense_oracle(15, 3)


def test_monotone_in_radius_and_range():
    for n in (8, 13):
        lams = [lambda_ball(n, r).lam for r in range(n + 1)]
        assert all(b >= a - 1e-10 for a, b in zip(lams, lams[1:]))
        assert all(-1e-10 <= lam <= n + 1e-10 for lam in lams)
        assert lams[-1] == pytest.approx(n, abs=1e-10)
        assert max(lams[:-1]) < n


def test_lam_is_the_lower_end_of_the_final_bracket():
    for n, r in ((12, 4), (48, 24), (400, 200)):
        spec = lambda_ball(n, r)
        squares = [float(j * (n - j + 1)) for j in range(1, r + 1)]
        assert spec.residual == math.ulp(spec.lam)
        assert not _above_spectrum(spec.lam, squares)
        assert _above_spectrum(spec.lam + spec.residual, squares)


def test_radial_profile_positive_and_residual_small():
    for n, r in ((9, 3), (14, 7), (24, 10)):
        spec = lambda_ball(n, r)
        h = spec.radial_profile
        assert np.all(h > 0)
        assert h.max() == pytest.approx(1.0, abs=0.0)
        # eigen-residual of the profile in the symmetric form, unit vector
        u = h * np.sqrt([math.comb(n, w) for w in range(r + 1)])
        u /= np.linalg.norm(u)
        off = np.sqrt(np.arange(1.0, r + 1) * (n - np.arange(0.0, r)))
        tu = np.zeros(r + 1)
        tu[:-1] += off * u[1:]
        tu[1:] += off * u[:-1]
        assert np.linalg.norm(tu - spec.lam * u) <= 1e-9
        assert spec.iterations >= 1


def test_lifted_density_is_eigenfunction(hamming7):
    for n, r in ((7, 2), (10, 3)):
        spec = lambda_ball(n, r)
        d = spec.density()
        assert d.values.min() >= 0.0
        assert abs(d.values.mean() - 1.0) <= 1e-12
        sizes = subset_sizes(n)
        assert np.all(d.values[sizes > r] == 0.0)
        ad = adjacency_apply(d)
        # pointwise domination, with equality on the ball
        assert np.min(ad.values - (spec.lam - 1e-8) * d.values) >= -1e-8
        quotient = inner_product(ad, d) / inner_product(d, d)
        assert quotient == pytest.approx(spec.lam, abs=1e-8)


def radial_vs_dense_tolerances(n: int) -> dict:
    """Largest gaps allowed between the radial density and the dense oracle.

    values, relative to each value: the radial d(w) is the profile divided
    by its correctly rounded mean (2 u); the oracle divides by numpy's
    pairwise mean of 2^n nonnegative terms, within (n + 17) u (blocks of 128
    summed 8 ways, then halved log2(2^n / 128) times).
    spectrum, absolute (both have mean 1, so every coefficient is at most 1):
    the radial level sums are correctly rounded (u), the butterfly is off by
    n u times the mean, and the two exact transforms differ by at most the
    largest relative value gap.
    margin, relative to max d: the dense A d sums n neighbours one at a time
    (n u times n max d), the radial one rounds 3 products and 2 sums; lam
    and n <= n carry the value gap, twice.
    entropy, relative to H + 2: each side rounds its log2 and products (8 u
    in all) and its sum (n + 1 terms, or 2^n pairwise: (2n + 18) u H); a
    relative change delta of every q moves -q log2 q by at most
    delta q (|log2 q| + 1.45), so H by delta (H + 1.45).
    """
    values = (n + 21) * U
    return {
        "values": values,
        "spectrum": (2 * n + 24) * U,
        "margin": (3 * n * n + 48 * n) * U,
        "entropy": (3 * n + 48) * U,
    }


def assert_radial_matches_dense(n: int, r: int) -> None:
    ball = lambda_ball(n, r)
    radial, dense = ball.density(), dense_ball_density(ball)
    tol = radial_vs_dense_tolerances(n)
    top = float(dense.values.max())
    np.testing.assert_allclose(radial.values, dense.values, rtol=tol["values"], atol=0.0)
    np.testing.assert_allclose(
        radial.spectrum.coeffs, dense.spectrum.coeffs, rtol=0.0, atol=tol["spectrum"]
    )
    margin = _eigen_margin(radial, ball.lam)
    assert abs(margin - dense_eigen_margin(ball, dense)) <= tol["margin"] * top, (n, r)
    h = shannon_from_density(dense)
    assert abs(shannon_from_radial(radial) - h) <= tol["entropy"] * (h + 2.0), (n, r)


@pytest.mark.parametrize("n", range(1, 13))
def test_radial_density_matches_the_dense_oracle(n):
    for r in range(n + 1):
        assert_radial_matches_dense(n, r)


def test_radial_density_matches_the_dense_oracle_at_n15():
    for r in range(16):
        assert_radial_matches_dense(15, r)


def test_density_respects_dimension_cap():
    spec = lambda_ball(40, 5)
    assert spec.lam > 0
    with pytest.raises(DimensionError):
        spec.density()


def test_min_radius_examples():
    assert min_radius(14, 7) == 1  # threshold 1, star eigenvalue sqrt(14)
    assert min_radius(16, 8) == 1  # threshold 1, star eigenvalue 4
    assert min_radius(9, 3) == 2  # threshold 4: lam_1 = 3 < 4, lam_2 = 5
    assert min_radius(7, 4) == 0  # threshold 0 already met by the origin
    assert min_radius(16, 4) == 4  # threshold 9; oracle-checked below


# Every k <= n/2 for n <= 64, plus the (n, k) pairs of the radial benchmark.
ORACLE_PAIRS = [(n, k) for n in range(1, 65) for k in range(1, n // 2 + 1)] + [
    *((48, k) for k in range(1, 25)),
    *((96, k) for k in range(1, 46, 4)),
    (192, 24),
    (192, 72),
]


def test_min_radius_against_oracle_scan():
    spectra = {}
    for n, k in ORACLE_PAIRS:
        if n not in spectra:
            spectra[n] = [tridiagonal_oracle(n, r) for r in range(n + 1)]
        threshold = n - 2 * k + 1
        expect = next(r for r, lam in enumerate(spectra[n]) if lam >= threshold - 1e-9)
        assert min_radius(n, k) == expect, (n, k)


def test_min_radius_is_the_first_radius_whose_bisection_reaches_the_threshold():
    spectra = {}
    for n, k in ORACLE_PAIRS:
        if n not in spectra:
            spectra[n] = [lambda_ball(n, r).lam for r in range(n + 1)]
        threshold = n - 2 * k + 1
        assert min_radius(n, k) == next(r for r, lam in enumerate(spectra[n]) if lam >= threshold)


def test_min_radius_never_solves_an_eigenproblem(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("min_radius called lambda_ball")

    monkeypatch.setattr("kwisent.balls.lambda_ball", refuse)
    assert min_radius(16, 4) == 4
    assert min_radius(192, 24) == 40


def test_min_radius_validation():
    with pytest.raises(ValueError):
        min_radius(8, 0)
    with pytest.raises(ValueError):
        lambda_ball(8, 9)
    with pytest.raises(ValueError):
        lambda_ball(8, -1)


def test_predicted_radius_formula():
    assert predicted_radius(16, 4) == pytest.approx(8 - math.sqrt(48), abs=1e-12)
    assert predicted_radius(8, 4) == pytest.approx(0.0, abs=1e-12)


def test_lambda_comparison_pairs():
    row = lambda_ball(16, 8).as_dict()
    assert row["asymptotic_lambda"] == pytest.approx(16.0, abs=1e-12)
    assert row["lambda"] < 16.0
    row = lambda_ball(12, 0).as_dict()
    assert (row["lambda"], row["asymptotic_lambda"]) == (0.0, 0.0)
    assert asymptotic_lambda(20, 5) == pytest.approx(2 * math.sqrt(75), abs=1e-12)


def test_only_the_chain_runs_the_power_iteration(tmp_path, monkeypatch):
    runner = CliRunner()
    space = str(tmp_path / "hamming15.txt")
    assert runner.invoke(main, ["construct", "hamming", "--m", "4", "-o", space]).exit_code == 0
    commands = [
        ["bound", "--n", "15", "--k", "4"],
        ["sweep", "bounds", "--n", "15", "--k", "1..8"],
        ["spectra", "--n", "15"],
        ["sweep", "spectra", "--n", "15"],
        ["analyze", space],
    ]
    expected = [runner.invoke(main, args).stdout for args in commands]

    def refuse(*args, **kwargs):
        raise AssertionError("power iteration reached")

    monkeypatch.setattr("kwisent.balls._perron_profile", refuse)
    for args, out in zip(commands, expected):
        result = runner.invoke(main, args)
        assert (result.exit_code, result.stdout) == (0, out), args
    chain = runner.invoke(main, ["chain", space, "--k", "3"])
    assert isinstance(chain.exception, AssertionError)
    assert str(chain.exception) == "power iteration reached"
