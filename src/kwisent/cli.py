"""Command-line front end.

Subcommands: construct (write sample-space files), analyze (entropies and
bounds for a space file), bound (bound values for given n, k), spectra
(ball eigenvalues), chain (proof-chain certification), sweep (batch CSV).

Exit status: 0 on success / all checks passing, 1 on verification failure,
2 on usage or parse errors.  All commands are deterministic: identical
inputs produce byte-identical output.
"""

from __future__ import annotations

import math

import click

from . import kwise
from .balls import lambda_ball
from .bounds import bound_row, evaluate
from .codes import (
    BinaryMatrix,
    SampleSpace,
    hamming_code,
    parity_sampler_space,
    point_space,
    simplex_code,
    uniform_code_space,
    uniform_space,
)
from .errors import IndependenceError, KwisentError
from .kwise import Distribution, marginal_order
from .smoothing import halfwise_chain, smoothing_chain
from .table import render

FORMAT_CHOICE = click.Choice(["text", "csv", "json"])


def _parse_range(text: str, what: str) -> list[int]:
    """'A..B' (inclusive) or a single integer; empty ranges are usage errors."""
    try:
        if ".." in text:
            lo_text, hi_text = text.split("..", 1)
            lo, hi = int(lo_text), int(hi_text)
        else:
            lo = hi = int(text)
    except ValueError:
        raise click.UsageError(f"bad {what} range {text!r}; expected 'A..B' or 'A'")
    if hi < lo:
        raise click.UsageError(f"empty {what} range {text!r}")
    return list(range(lo, hi + 1))


def _emit(text: str, output: str) -> None:
    if output == "-":
        click.echo(text, nl=False)
    else:
        with open(output, "w") as handle:
            handle.write(text)


def _load_distribution(path: str) -> Distribution:
    try:
        with open(path) as handle:
            space = SampleSpace.from_text(handle.read())
        return Distribution.from_space(space)
    except ValueError as exc:  # FormatError and DimensionError included
        raise click.UsageError(f"{path}: {exc}")


@click.group(context_settings={"help_option_names": ["-h", "--help"]})
def main():
    """k-wise independent sample spaces from binary linear codes, with
    numerically certified entropy lower bounds."""


@main.command()
@click.argument(
    "kind",
    type=click.Choice(["hamming", "simplex", "hadamard", "uniform", "point", "from-matrix"]),
)
@click.option("--m", "m", type=int, default=None, help="Code parameter (length 2^m - 1).")
@click.option("--n", "n", type=int, default=None, help="Cube dimension.")
@click.option(
    "--matrix",
    "matrix_path",
    type=click.Path(exists=True, dir_okay=False),
    default=None,
    help="Matrix file for from-matrix (distribution of y^T M over uniform y).",
)
@click.option("--output", "-o", default="-", help="Output file ('-' for stdout).")
def construct(kind, m, n, matrix_path, output):
    """Write a sample space in the text format (header n=<int>, then one
    '<bitstring> <probability>' line per point)."""
    try:
        if kind in ("hamming", "simplex", "hadamard"):
            if m is None:
                raise click.UsageError(f"construct {kind} requires --m")
            code = hamming_code(m) if kind == "hamming" else simplex_code(m)
            space = uniform_code_space(code)
            dimension = code.dimension
        elif kind == "uniform":
            if n is None:
                raise click.UsageError("construct uniform requires --n")
            space = uniform_space(n)
            dimension = n
        elif kind == "point":
            if n is None:
                raise click.UsageError("construct point requires --n")
            space = point_space(n)
            dimension = 0
        else:
            if matrix_path is None:
                raise click.UsageError("construct from-matrix requires --matrix")
            with open(matrix_path) as handle:
                matrix = BinaryMatrix.from_text(handle.read())
            space = parity_sampler_space(matrix)
            dimension = matrix.rank
    except ValueError as exc:  # FormatError and DimensionError included
        raise click.UsageError(str(exc))
    _emit(space.to_text(), output)
    summary = f"n={space.n} support={space.support_size} dimension={dimension}"
    click.echo(summary, err=(output == "-"))


@main.command()
@click.argument("space_file", type=click.Path(exists=True, dir_okay=False))
@click.option("--tol", type=float, default=1e-9, show_default=True)
@click.option("--format", "fmt", type=FORMAT_CHOICE, default="text", show_default=True)
@click.option("--output", "-o", default="-")
@click.option(
    "--marginal-limit",
    type=int,
    default=10**6,
    show_default=True,
    help="Work cap for the brute-force marginal cross-check (0 disables it).",
)
@click.pass_context
def analyze(ctx, space_file, tol, fmt, output, marginal_limit):
    """Independence order, entropies, and every applicable bound with slack."""
    dist = _load_distribution(space_file)
    report = evaluate(dist, tol)
    oracle_order = None
    # The levels marginal_order scans when it agrees with the spectral order;
    # one of them above the oracle's own guard skips the oracle up front.
    costs = [
        math.comb(dist.n, j) << j for j in range(1, min(report.order + 2, dist.n + 1))
    ]
    if sum(costs) <= marginal_limit and max(costs) <= kwise.MARGINAL_WORK_GUARD:
        oracle_order = marginal_order(dist, tol)
    _emit(render({"marginal_order": oracle_order, **report.as_dict()}, fmt), output)
    failed = any(slack < -tol for slack in report.certified_slacks().values())
    if oracle_order is not None and oracle_order != report.order:
        failed = True
    if failed:
        ctx.exit(1)


@main.command()
@click.argument("space_file", type=click.Path(exists=True, dir_okay=False))
@click.option("--k", "k", type=int, default=None, help="Chain parameter; the input must be (k-1)-wise independent.")
@click.option("--halfwise", is_flag=True, help="Run the no-smoothing chain at order floor(n/2).")
@click.option(
    "--half-rounding",
    type=click.Choice(["floor", "ceil"]),
    default="floor",
    show_default=True,
    help="Reading of 'half of n' for odd n in --halfwise mode.",
)
@click.option("--tol", type=float, default=1e-9, show_default=True)
@click.option("--format", "fmt", type=click.Choice(["text", "csv"]), default="text", show_default=True)
@click.option("--output", "-o", default="-")
@click.pass_context
def chain(ctx, space_file, k, halfwise, half_rounding, tol, fmt, output):
    """Certify a proof chain on a sample space, one inequality per line."""
    if (k is None) == (not halfwise):
        raise click.UsageError("provide exactly one of --k or --halfwise")
    dist = _load_distribution(space_file)
    try:
        if halfwise:
            report = halfwise_chain(dist, tol, rounding=half_rounding)
        else:
            report = smoothing_chain(dist, k, tol)
    except IndependenceError as exc:
        click.echo(f"precondition failed: {exc}", err=True)
        ctx.exit(1)
    except (ValueError, KwisentError) as exc:
        raise click.UsageError(str(exc))
    _emit(report.to_text() if fmt == "text" else render(report.as_dict(), fmt), output)
    if not report.passed:
        ctx.exit(1)


@main.command()
@click.option("--n", "n", type=int, required=True)
@click.option("--k", "k", type=int, required=True, help="Assumes a (k-1)-wise independent distribution.")
@click.option("--format", "fmt", type=FORMAT_CHOICE, default="text", show_default=True)
@click.option("--output", "-o", default="-")
def bound(n, k, fmt, output):
    """Entropy lower bounds for a (k-1)-wise independent distribution on n bits."""
    if n < 1 or not 1 <= k <= n + 1:
        raise click.UsageError(f"need n >= 1 and 1 <= k <= n + 1, got n={n} k={k}")
    _emit(render(bound_row(n, k), fmt), output)


@main.command()
@click.option("--n", "n", type=int, required=True)
@click.option("--r", "r_range", default=None, help="Radius or range 'A..B' (default 0..n).")
@click.option("--tol", type=float, default=1e-12, show_default=True)
@click.option("--format", "fmt", type=FORMAT_CHOICE, default="text", show_default=True)
@click.option("--output", "-o", default="-")
def spectra(n, r_range, tol, fmt, output):
    """Exact ball eigenvalues next to the asymptotic leading term."""
    if n < 1:
        raise click.UsageError(f"need n >= 1, got n={n}")
    radii = _parse_range(r_range, "radius") if r_range else list(range(n + 1))
    if radii[0] < 0 or radii[-1] > n:
        raise click.UsageError(f"radius range outside 0..{n}")
    _emit(render([lambda_ball(n, r, tol).as_dict() for r in radii], fmt), output)


@main.group()
def sweep():
    """Batch CSV reports over parameter ranges (deterministic row order)."""


@sweep.command("spectra")
@click.option("--n", "n", type=int, required=True)
@click.option("--r", "r_range", default=None, help="Radius range 'A..B' (default 1..n-1).")
@click.option("--output", "-o", default="-")
def sweep_spectra(n, r_range, output):
    """Rows of (n, r, lambda, asymptotic_lambda, iterations, residual)."""
    if n < 2:
        raise click.UsageError(f"need n >= 2, got n={n}")
    radii = _parse_range(r_range, "radius") if r_range else list(range(1, n))
    if radii[0] < 0 or radii[-1] > n:
        raise click.UsageError(f"radius range outside 0..{n}")
    _emit(render([lambda_ball(n, r).as_dict() for r in radii], "csv"), output)


@sweep.command("bounds")
@click.option("--n", "n", type=int, required=True)
@click.option("--k", "k_range", required=True, help="Chain-parameter range 'A..B'.")
@click.option("--output", "-o", default="-")
def sweep_bounds(n, k_range, output):
    """One row per k: radius, eigenvalue, and every bound with the best one."""
    if n < 1:
        raise click.UsageError(f"need n >= 1, got n={n}")
    ks = _parse_range(k_range, "k")
    if ks[0] < 1 or ks[-1] > n + 1:
        raise click.UsageError(f"k range outside 1..{n + 1}")
    _emit(render([bound_row(n, k) for k in ks], "csv"), output)


if __name__ == "__main__":
    main()
