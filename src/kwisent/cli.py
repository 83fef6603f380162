"""Command-line front end.

Subcommands: construct (write sample-space files), analyze (entropies and
bounds for a space file), bound (bound values for given n, k), spectra
(ball eigenvalues), chain (proof-chain certification), sweep (batch CSV).

Exit status: 0 on success / all checks passing, 1 on verification failure,
2 on usage or parse errors and on requests refused by a work guard, 3 on an
unexpected internal error (one line on stderr, no traceback).  All commands
are deterministic: identical inputs produce byte-identical output.

No command takes a tolerance: every float tolerance is a named constant in
kwisent.tolerances, with the error argument that makes it safe.
"""

from __future__ import annotations

import sys
from typing import BinaryIO, Callable

import click

from . import balls
from .balls import lambda_ball
from .bounds import bound_row, certified_slacks, evaluate
from .codes import BinaryMatrix, SampleSpace, hamming_code, parity_sampler_space, simplex_code
from .cube import check_dimension
from .errors import IndependenceError, KwisentError, ResourceLimitError
from .kwise import marginal_affordable, marginal_order
from .smoothing import halfwise_chain, smoothing_chain
from .table import render
from .tolerances import ENTROPY_SLACK

FORMAT_CHOICE = click.Choice(["text", "csv", "json"])


def _parse_range(text: str, what: str) -> range:
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
    return range(lo, hi + 1)


def _emit(text: str | Callable[[BinaryIO], object], output: str) -> None:
    """Write text to output ('-' for stdout) as bytes; a callable text is
    handed the binary file, stdout's or output's, and writes to it itself."""
    write = text if callable(text) else lambda handle: handle.write(text.encode())
    if output == "-":
        write(click.get_binary_stream("stdout"))  # sys.stdout flushes it at exit
    else:
        try:
            with open(output, "wb") as handle:
                write(handle)
        except OSError as exc:
            raise click.BadParameter(
                f"cannot write {output}: {exc.strerror}", param_hint="'--output'"
            )


def _load_space(path: str) -> SampleSpace:
    """The space a file holds, read from the open binary file a block of rows
    at a time (SampleSpace.from_text); refused at load above the dense cube
    cap, since every command that reads a file builds its density."""
    try:
        with open(path, "rb") as handle:
            space = SampleSpace.from_text(handle)
        check_dimension(space.n)
        return space
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
            matrix = hamming_code(m) if kind == "hamming" else simplex_code(m)
        elif kind in ("uniform", "point"):
            if n is None:
                raise click.UsageError(f"construct {kind} requires --n")
            # the identity's rows stay lazy until BinaryMatrix has checked n
            rows = (1 << i for i in range(n)) if kind == "uniform" else ()
            matrix = BinaryMatrix(rows, n)
        else:
            if matrix_path is None:
                raise click.UsageError("construct from-matrix requires --matrix")
            with open(matrix_path) as handle:
                matrix = BinaryMatrix.from_text(handle.read())
        space = parity_sampler_space(matrix)
    except ValueError as exc:  # FormatError and DimensionError included
        raise click.UsageError(str(exc))
    _emit(space.to_text, output)  # a block of rows at a time
    dimension = space.support_size.bit_length() - 1  # the support is 2^rank points
    summary = f"n={space.n} support={space.support_size} dimension={dimension}"
    click.echo(summary, err=(output == "-"))


@main.command()
@click.argument("space_file", type=click.Path(exists=True, dir_okay=False))
@click.option("--format", "fmt", type=FORMAT_CHOICE, default="text", show_default=True)
@click.option("--output", "-o", default="-")
@click.pass_context
def analyze(ctx, space_file, fmt, output):
    """Independence order, entropies, and every applicable bound with slack."""
    space = _load_space(space_file)
    report = evaluate(space)
    oracle_order = None
    # The oracle scans only levels 1..order + 1, the ones priced here; where
    # it agrees with the spectral order it stops there anyway.
    stop = min(report["order"] + 1, space.n)
    if marginal_affordable(space, stop):
        oracle_order = marginal_order(space, stop)
    _emit(render({"marginal_order": oracle_order, **report}, fmt), output)
    failed = any(slack < -ENTROPY_SLACK for slack in certified_slacks(report).values())
    if oracle_order is not None and oracle_order != report["order"]:
        failed = True
    if failed:
        ctx.exit(1)


@main.command()
@click.argument("space_file", type=click.Path(exists=True, dir_okay=False))
@click.option("--k", "k", type=int, default=None, help="Chain parameter; the input must be (k-1)-wise independent.")
@click.option("--halfwise", is_flag=True, help="The no-smoothing chain at order floor(n/2): --k floor(n/2)+1.")
@click.option("--format", "fmt", type=click.Choice(["text", "csv"]), default="text", show_default=True)
@click.option("--output", "-o", default="-")
@click.pass_context
def chain(ctx, space_file, k, halfwise, fmt, output):
    """Certify a proof chain on a sample space, one inequality per line."""
    if (k is None) == (not halfwise):
        raise click.UsageError("provide exactly one of --k or --halfwise")
    space = _load_space(space_file)
    try:
        report = halfwise_chain(space) if halfwise else smoothing_chain(space, k)
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


def _ball_rows(n: int, radii: range):
    """One lambda_ball row per radius in 0..n, refused above the spectra work guard."""
    if radii[0] < 0 or radii[-1] > n:
        raise click.UsageError(f"radius range outside 0..{n}")
    if len(radii) * n * n > balls.SPECTRA_WORK_GUARD:
        raise ResourceLimitError(
            f"{len(radii)} ball eigenvalues at n={n} exceed the spectra work guard"
        )
    return [lambda_ball(n, r).as_dict() for r in radii]


@main.command()
@click.option("--n", "n", type=int, required=True)
@click.option("--r", "r_range", default=None, help="Radius or range 'A..B' (default 0..n).")
@click.option("--format", "fmt", type=FORMAT_CHOICE, default="text", show_default=True)
@click.option("--output", "-o", default="-")
def spectra(n, r_range, fmt, output):
    """Exact ball eigenvalues next to the asymptotic leading term."""
    if n < 1:
        raise click.UsageError(f"need n >= 1, got n={n}")
    radii = _parse_range(r_range, "radius") if r_range else range(n + 1)
    _emit(render(_ball_rows(n, radii), fmt), output)


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
    radii = _parse_range(r_range, "radius") if r_range else range(1, n)
    _emit(render(_ball_rows(n, radii), "csv"), output)


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


def run(argv: list[str] | None = None) -> None:
    """Process entry point: main() with exit 2 for a request a work guard
    refused and exit 3 for an unexpected error, one stderr line each, so
    neither reads as a failed check (exit 1).  Calling main directly, as
    click's test runner does, lets such exceptions propagate."""
    try:
        main.main(args=argv)
    except ResourceLimitError as exc:
        click.echo(f"Error: {exc}", err=True)
        sys.exit(2)
    except Exception as exc:
        click.echo(f"Error: internal error: {type(exc).__name__}: {exc}", err=True)
        sys.exit(3)


if __name__ == "__main__":
    run()
