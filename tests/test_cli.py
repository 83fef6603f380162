"""Command-line interface: commands, formats, exit-status contract."""

from __future__ import annotations

import json
import time
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from click.testing import CliRunner

from kwisent import balls, codes, kwise
from kwisent.cli import main, run
from kwisent.errors import ResourceLimitError
from test_golden import CASES, GOLDEN, make_inputs


@pytest.fixture()
def runner():
    return CliRunner()


def invoke(runner, *args):
    return runner.invoke(main, list(args))


def write_space(tmp_path, runner, *construct_args):
    path = tmp_path / "space.txt"
    result = invoke(runner, "construct", *construct_args, "-o", str(path))
    assert result.exit_code == 0, result.output
    return path


def test_construct_hamming(tmp_path, runner):
    path = write_space(tmp_path, runner, "hamming", "--m", "3")
    lines = path.read_text().splitlines()
    assert lines[0] == "n=7"
    assert len(lines) == 17
    result = invoke(runner, "construct", "hamming", "--m", "3")
    assert "support=16" in result.stderr and "dimension=4" in result.stderr


def test_construct_other_kinds(tmp_path, runner):
    assert len(write_space(tmp_path, runner, "uniform", "--n", "4").read_text().splitlines()) == 17
    assert len(write_space(tmp_path, runner, "point", "--n", "5").read_text().splitlines()) == 2
    assert len(write_space(tmp_path, runner, "simplex", "--m", "3").read_text().splitlines()) == 9
    assert (
        write_space(tmp_path, runner, "hadamard", "--m", "3").read_text()
        == write_space(tmp_path, runner, "simplex", "--m", "3").read_text()
    )


def test_construct_from_matrix(tmp_path, runner):
    matrix = tmp_path / "matrix.txt"
    matrix.write_text("3 7\n1010101\n0110011\n0001111\n")  # simplex generator
    path = tmp_path / "space.txt"
    result = invoke(runner, "construct", "from-matrix", "--matrix", str(matrix), "-o", str(path))
    assert result.exit_code == 0
    assert "support=8 dimension=3" in result.output
    assert len(path.read_text().splitlines()) == 9


def test_construct_usage_errors(runner):
    assert invoke(runner, "construct", "hamming").exit_code == 2
    assert invoke(runner, "construct", "hamming", "--m", "9").exit_code == 2
    assert invoke(runner, "construct", "banana", "--m", "3").exit_code == 2


SIMPLEX3 = "3 7\n1010101\n0110011\n0001111\n"


@pytest.mark.parametrize(
    "kind, args, summary",
    [
        ("hamming", ["--m", "3"], "n=7 support=16 dimension=4"),
        ("simplex", ["--m", "3"], "n=7 support=8 dimension=3"),
        ("hadamard", ["--m", "3"], "n=7 support=8 dimension=3"),
        ("uniform", ["--n", "4"], "n=4 support=16 dimension=4"),
        ("point", ["--n", "5"], "n=5 support=1 dimension=0"),
        ("from-matrix", [SIMPLEX3], "n=7 support=8 dimension=3"),
        # the fourth row is the sum of the first two: the dimension is the rank
        ("from-matrix", [SIMPLEX3.replace("3 7", "4 7") + "1100110\n"], "n=7 support=8 dimension=3"),
        ("from-matrix", ["0 5\n"], "n=5 support=1 dimension=0"),
    ],
    ids=["hamming", "simplex", "hadamard", "uniform", "point", "from-matrix", "dependent-rows", "no-rows"],
)
def test_construct_summary_gives_the_dimension(tmp_path, runner, kind, args, summary):
    if kind == "from-matrix":
        matrix = tmp_path / "matrix.txt"
        matrix.write_text(args[0])
        args = ["--matrix", str(matrix)]
    result = invoke(runner, "construct", kind, *args, "-o", str(tmp_path / "space.txt"))
    assert (result.exit_code, result.stdout) == (0, summary + "\n")


def test_construct_from_matrix_reduces_the_matrix_once(tmp_path, runner, monkeypatch):
    reduce, calls = codes.gf2_rref, []

    def counted(rows, cols):
        calls.append(cols)
        return reduce(rows, cols)

    monkeypatch.setattr(codes, "gf2_rref", counted)
    matrix = tmp_path / "matrix.txt"
    matrix.write_text(SIMPLEX3)
    assert invoke(runner, "construct", "from-matrix", "--matrix", str(matrix)).exit_code == 0
    assert calls == [7]


def test_analyze_hamming7(tmp_path, runner):
    path = write_space(tmp_path, runner, "hamming", "--m", "3")
    result = invoke(runner, "analyze", str(path))
    assert result.exit_code == 0
    assert "order: 3" in result.output
    assert "marginal_order: 3" in result.output
    assert "shannon: 4" in result.output
    assert "halfwise_bound: 4" in result.output
    assert "halfwise_slack: 0" in result.output


def test_analyze_uniform8(tmp_path, runner):
    path = write_space(tmp_path, runner, "uniform", "--n", "8")
    result = invoke(runner, "analyze", str(path))
    assert result.exit_code == 0
    assert "order: 8" in result.output
    assert "shannon: 8" in result.output


def test_analyze_formats(tmp_path, runner):
    path = write_space(tmp_path, runner, "hamming", "--m", "3")
    as_json = json.loads(invoke(runner, "analyze", str(path), "--format", "json").output)
    assert as_json["order"] == 3 and as_json["shannon"] == 4.0
    as_csv = invoke(runner, "analyze", str(path), "--format", "csv").output.splitlines()
    assert len(as_csv) == 2
    assert as_csv[0].startswith("marginal_order,n,order,")


def test_analyze_skips_marginal_oracle_above_its_guard(tmp_path, runner, monkeypatch):
    # Hamming n=15 has order 7: its level-2 scan already costs 105 * 4 > 100.
    monkeypatch.setattr("kwisent.kwise.MARGINAL_WORK_GUARD", 100)
    monkeypatch.setattr("kwisent.kwise.MARGINAL_WORK_LIMIT", 10**9)
    path = write_space(tmp_path, runner, "hamming", "--m", "4")
    result = invoke(runner, "analyze", str(path), "--format", "json")
    assert result.exit_code == 0, result.output
    assert json.loads(result.stdout)["marginal_order"] is None


def test_analyze_runs_the_oracle_on_hamming15_by_default(tmp_path, runner, monkeypatch):
    # levels 1..8 cost 49,644,650 units at 2,048 points: run at the
    # limit of 10^8, skipped one unit below the cost
    path = write_space(tmp_path, runner, "hamming", "--m", "4")
    result = invoke(runner, "analyze", str(path))
    assert result.exit_code == 0, result.output
    assert "marginal_order: 7\n" in result.output and "order: 7\n" in result.output
    for limit, expect in ((49644650, 7), (49644649, None), (5000000, None)):
        monkeypatch.setattr("kwisent.kwise.MARGINAL_WORK_LIMIT", limit)
        capped = invoke(runner, "analyze", str(path), "--format", "json")
        assert json.loads(capped.stdout)["marginal_order"] == expect, limit


def test_analyze_scans_only_the_levels_it_priced(tmp_path, runner, monkeypatch):
    # p proportional to 1 + 4e-9 chi_T, |T| = 3, on all of {0,1}^10: the
    # coefficient 4e-9 at level 3 is above COEFF_ZERO, so the spectral order
    # is 2, but every marginal deviates by at most 4e-9 / 8, under
    # MARGINAL_ZERO, so the oracle passes every level.  analyze priced levels
    # 1..3, so the oracle's lattice builds those, reads 3 and the run fails.
    n = 10
    points = np.arange(1 << n)
    chi = 1.0 - 2.0 * (np.bitwise_count(points & 0b111) & 1)
    path = tmp_path / "tilted.txt"
    path.write_text(codes.SampleSpace(n, points, (1 + 4e-9 * chi) / (1 << n)).to_text())
    lattice, levels = kwise._worst_by_level, []

    def recorded(space, top):
        worst = lattice(space, top)
        levels.append(len(worst) - 1)
        return worst

    monkeypatch.setattr(kwise, "_worst_by_level", recorded)
    result = invoke(runner, "analyze", str(path), "--format", "json")
    assert result.exit_code == 1, result.output
    record = json.loads(result.stdout)
    assert (record["order"], record["marginal_order"]) == (2, 3)
    assert levels == [3]  # one lattice, whose deepest level is 3


def test_analyze_rejects_bad_probability_sum(tmp_path, runner):
    path = tmp_path / "bad.txt"
    path.write_text("n=3\n000 0.5\n111 0.4\n")
    result = invoke(runner, "analyze", str(path))
    assert result.exit_code == 2
    assert "0.9" in result.output


def test_analyze_cites_line_number(tmp_path, runner):
    path = tmp_path / "bad.txt"
    path.write_text("n=3\n000 0.5\nxx1 0.5\n")
    result = invoke(runner, "analyze", str(path))
    assert result.exit_code == 2
    assert "line 3" in result.output


def test_chain_halfwise_hamming7(tmp_path, runner):
    path = write_space(tmp_path, runner, "hamming", "--m", "3")
    result = invoke(runner, "chain", str(path), "--halfwise")
    assert result.exit_code == 0
    assert "result: PASS" in result.output
    assert "second_moment_bound: 8 <= 8" in result.output


def test_chain_smoothing_hamming15(tmp_path, runner):
    path = write_space(tmp_path, runner, "hamming", "--m", "4")
    result = invoke(runner, "chain", str(path), "--k", "4")
    assert result.exit_code == 0
    assert "result: PASS" in result.output


def test_chain_point_mass_precondition(tmp_path, runner):
    path = write_space(tmp_path, runner, "point", "--n", "5")
    result = invoke(runner, "chain", str(path), "--k", "2")
    assert result.exit_code == 1
    assert "level-1" in result.stderr
    assert "magnitude 1" in result.stderr


def test_chain_option_validation(tmp_path, runner):
    path = write_space(tmp_path, runner, "hamming", "--m", "3")
    assert invoke(runner, "chain", str(path)).exit_code == 2
    assert invoke(runner, "chain", str(path), "--k", "3", "--halfwise").exit_code == 2


def test_chain_csv_format(tmp_path, runner):
    path = write_space(tmp_path, runner, "hamming", "--m", "3")
    out = invoke(runner, "chain", str(path), "--halfwise", "--format", "csv").output
    header, row = out.splitlines()
    assert header.startswith("n,k,r,lambda")
    assert row.split(",")[-1] == "true"


@pytest.mark.parametrize("space", ["hamming7", "hamming15", "uniform8", "space6", "point8"])
@pytest.mark.parametrize("form", ["text", "csv"])
def test_chain_halfwise_is_k_half_n_plus_one(tmp_path, runner, space, form):
    inputs = make_inputs(tmp_path)
    inputs["point8"] = str(write_space(tmp_path, runner, "point", "--n", "8"))
    path = inputs[space]
    n = int(Path(path).read_text().split("\n", 1)[0].removeprefix("n="))
    halfwise = invoke(runner, "chain", path, "--halfwise", "--format", form)
    by_k = invoke(runner, "chain", path, "--k", str(n // 2 + 1), "--format", form)
    assert halfwise.exit_code == by_k.exit_code  # 1 on space6 and point8: order too low
    assert (halfwise.stdout_bytes, halfwise.stderr_bytes) == (by_k.stdout_bytes, by_k.stderr_bytes)


# The head cells of the chain's text form, by the CSV column each repeats.
HEAD_COLUMNS = {"lambda": "lambda_r"} | {
    key: key
    for key in "second_moment rayleigh shannon_x shannon_y shannon_z renyi2_z entropy_bound".split()
}
# every chain golden case that prints a report (the others fail the precondition)
CHAIN_COMMANDS = sorted(
    {
        CASES[name].removesuffix(" --format csv")
        for name in CASES
        if name.startswith("chain-") and (GOLDEN / f"{name}.txt").read_text().count("\n") > 1
    }
)


def chain_head_and_row(runner, path, *args):
    """The chain's text head and its CSV row, each as {name: cell}."""
    text = invoke(runner, "chain", path, *args)
    csv = invoke(runner, "chain", path, *args, "--format", "csv")
    assert text.exit_code == csv.exit_code and text.stdout, text.output
    # the title line `chain: ...`, then one line per head cell
    head = dict(line.split(": ", 1) for line in text.stdout.splitlines()[: 1 + len(HEAD_COLUMNS)])
    header, row = csv.stdout.splitlines()
    return head, dict(zip(header.split(","), row.split(",")))


def assert_head_matches_row(head, row):
    assert list(head)[:2] == ["chain", "lambda_r"]
    assert head["chain"].endswith(f"(n={row['n']}, k={row['k']}, r={row['r']})")
    for column, key in HEAD_COLUMNS.items():
        assert head[key] == row[column], column


@pytest.mark.parametrize("command", CHAIN_COMMANDS)
def test_chain_text_head_repeats_the_csv_row(tmp_path, runner, command):
    inputs = make_inputs(tmp_path)
    _, space, *args = [token.format(**inputs) for token in command.split()]
    assert_head_matches_row(*chain_head_and_row(runner, space, *args))


# (space, chain options, mode, CSV cells n through entropy_bound)
ONE_AND_TWO_BITS = [
    ("uniform --n 1", "--halfwise", "half-independence", "1,1,0,0,1,1,0,1,1,0,1,1,0"),
    ("uniform --n 1", "--k 1", "half-independence", "1,1,0,0,1,1,0,1,1,0,1,1,0"),
    ("point --n 1", "--halfwise", "half-independence", "1,1,0,0,2,0,0,0,0,0,0,0,0"),
    ("uniform --n 2", "--halfwise", "half-independence", "2,2,0,0,1,2,0,2,2,0,2,2,0.415037499279"),
    (
        "uniform --n 2",
        "--k 1",
        "smoothing",
        "2,1,1,1.41421356237,1,2,1.41421356237,2,2,1.56444652198,2,2,-1",
    ),
]


@pytest.mark.parametrize(
    "space, options, mode, record", ONE_AND_TWO_BITS, ids=[f"{c[0]} {c[1]}" for c in ONE_AND_TWO_BITS]
)
def test_chain_on_one_and_two_bits(tmp_path, runner, space, options, mode, record):
    path = str(write_space(tmp_path, runner, *space.split()))
    head, row = chain_head_and_row(runner, path, *options.split())
    assert_head_matches_row(head, row)
    assert head["chain"].startswith(mode + " ")
    assert ",".join(list(row.values())[:-2]) == record
    assert (row["final_check"], row["passed"]) == ("true", "true")


def test_chain_precondition_names_the_first_leaking_level(tmp_path, runner):
    # two bits, each uniform, always equal: order 1, the level-2 coefficient is 1
    path = tmp_path / "space.txt"
    path.write_text("n=2\n00 0.5\n11 0.5\n")
    result = invoke(runner, "chain", str(path), "--k", "3")
    assert (result.exit_code, result.stdout) == (1, "")
    assert result.stderr == (
        "precondition failed: level-2 Fourier coefficient has magnitude 1; "
        "required independence order is not certified\n"
    )


def test_chain_has_no_half_rounding_option(tmp_path, runner):
    path = write_space(tmp_path, runner, "hamming", "--m", "3")
    result = invoke(runner, "chain", str(path), "--halfwise", "--half-rounding", "ceil")
    assert result.exit_code == 2
    assert "No such option '--half-rounding'" in result.output


def test_bound_command(runner):
    out = invoke(runner, "bound", "--n", "7", "--k", "4").output
    assert "halfwise_bound: 4" in out
    as_json = json.loads(invoke(runner, "bound", "--n", "16", "--k", "4", "--format", "json").output)
    assert as_json["radius"] == 4
    assert invoke(runner, "bound", "--n", "7", "--k", "9").exit_code == 2


def test_spectra_command(runner):
    out = invoke(runner, "spectra", "--n", "12", "--r", "4", "--format", "csv").output
    header, row = out.splitlines()
    assert header == "n,r,lambda,asymptotic_lambda,iterations,residual"
    assert row.startswith("12,4,8.95910106")


@pytest.mark.parametrize(
    "args",
    [
        # a tolerance of 10 would read every coefficient of a point mass as zero
        ("analyze", "{point}", "--tol", "10"),
        ("chain", "{point}", "--halfwise", "--tol", "10"),
        # a tolerance of 0 would run the power iteration to its cap (about 17 s)
        ("spectra", "--n", "12", "--r", "6", "--tol", "0"),
    ],
    ids=lambda args: args[0],
)
def test_no_command_takes_a_tolerance(tmp_path, runner, args):
    point = write_space(tmp_path, runner, "point", "--n", "8")
    started = time.perf_counter()
    result = invoke(runner, *(arg.format(point=point) for arg in args))
    assert time.perf_counter() - started < 1.0
    assert result.exit_code == 2
    assert "No such option '--tol'" in result.output


def test_sweep_spectra_rows_and_monotonicity(runner):
    out = invoke(runner, "sweep", "spectra", "--n", "20", "--r", "1..19").output
    rows = out.strip().splitlines()
    assert len(rows) == 20
    lams = [float(line.split(",")[2]) for line in rows[1:]]
    assert all(b >= a - 1e-10 for a, b in zip(lams, lams[1:]))


def test_sweep_bounds_monotone_and_halfwise_column(runner):
    out = invoke(runner, "sweep", "bounds", "--n", "16", "--k", "1..8").output
    rows = [line.split(",") for line in out.strip().splitlines()[1:]]
    smoothed = [float(r[5]) for r in rows if r[5] != ""]
    assert all(b >= a - 1e-12 for a, b in zip(smoothed, smoothed[1:]))

    out = invoke(runner, "sweep", "bounds", "--n", "7", "--k", "4..4").output
    header, row = out.strip().splitlines()
    cells = dict(zip(header.split(","), row.split(",")))
    assert cells["halfwise_bound"] == "4"


def test_sweep_empty_range_is_usage_error(runner):
    assert invoke(runner, "sweep", "spectra", "--n", "10", "--r", "5..3").exit_code == 2
    assert invoke(runner, "sweep", "bounds", "--n", "10", "--k", "oops").exit_code == 2


def run_exit(capsys, *args):
    """Exit status and stderr of the process entry point run on args."""
    with pytest.raises(SystemExit) as exit_info:
        run(list(args))
    return exit_info.value.code, capsys.readouterr().err


def test_entry_point_maps_unexpected_errors_to_exit_3(capsys, monkeypatch):
    assert run_exit(capsys, "bound", "--n", "7", "--k", "4")[0] == 0

    def broken(*args, **kwargs):
        raise RuntimeError("injected")

    monkeypatch.setattr("kwisent.cli.bound_row", broken)
    assert run_exit(capsys, "bound", "--n", "7", "--k", "4") == (
        3,
        "Error: internal error: RuntimeError: injected\n",
    )
    assert run_exit(capsys, "bound", "--n", "7", "--k", "0")[0] == 2  # usage errors stay 2


def test_entry_point_maps_guard_refusals_to_exit_2(capsys, monkeypatch):
    def refused(*args, **kwargs):
        raise ResourceLimitError("too big")

    monkeypatch.setattr("kwisent.cli.bound_row", refused)
    assert run_exit(capsys, "bound", "--n", "7", "--k", "4") == (2, "Error: too big\n")


def test_spectra_tables_above_the_work_guard_are_refused(capsys, monkeypatch):
    monkeypatch.setattr("kwisent.balls.SPECTRA_WORK_GUARD", 10 * 10 * 10)
    code, err = run_exit(capsys, "spectra", "--n", "10", "--r", "1..40")
    assert code == 2 and "radius range outside" in err  # usage errors come first
    assert run_exit(capsys, "sweep", "spectra", "--n", "10", "--r", "1..9")[0] == 0
    for args in (("spectra", "--n", "10"), ("sweep", "spectra", "--n", "20", "--r", "1..3")):
        code, err = run_exit(capsys, *args)
        assert code == 2 and "exceed the spectra work guard" in err, (args, err)
    assert run_exit(capsys, "spectra", "--n", "10", "--r", "0..9")[0] == 0  # at the cap


def test_default_spectra_guard_refuses_huge_tables_before_any_work(capsys):
    code, err = run_exit(capsys, "spectra", "--n", "100000000")
    assert code == 2 and err == (
        "Error: 100000001 ball eigenvalues at n=100000000 exceed the spectra work guard\n"
    )
    assert run_exit(capsys, "sweep", "spectra", "--n", "4096")[0] == 2


def test_golden_and_benchmark_spectra_stay_far_below_the_guard():
    # (n, rows) of the golden spectra requests and of the benchmark's sweeps
    for n, rows in ((6, 3), (12, 13), (16, 15), (20, 19), (24, 23), (48, 47)):
        assert 1000 * rows * n * n < balls.SPECTRA_WORK_GUARD


def test_unwritable_output_is_a_usage_error(tmp_path, runner):
    target = tmp_path / "missing-dir" / "out.csv"
    result = invoke(runner, "bound", "--n", "7", "--k", "4", "-o", str(target))
    assert result.exit_code == 2
    assert "cannot write" in result.stderr and result.exception.__class__ is SystemExit


def test_outputs_are_deterministic(tmp_path, runner):
    path = write_space(tmp_path, runner, "hamming", "--m", "3")
    first = invoke(runner, "analyze", str(path), "--format", "csv").output
    second = invoke(runner, "analyze", str(path), "--format", "csv").output
    assert first == second
    sweep_a = invoke(runner, "sweep", "spectra", "--n", "16", "--r", "1..15").output
    sweep_b = invoke(runner, "sweep", "spectra", "--n", "16", "--r", "1..15").output
    assert sweep_a == sweep_b


@pytest.mark.parametrize("args", [(), ("--k", "3")], ids=["analyze", "chain"])
def test_a_space_above_the_dense_cap_is_refused_at_load(tmp_path, capsys, args):
    # a 27-bit space is valid, but its density would be 2^27 floats
    path = tmp_path / "space27.txt"
    path.write_text("n=27\n" + "0" * 27 + " 1.0\n")
    command = "chain" if args else "analyze"
    status, err = run_exit(capsys, command, str(path), *args)
    assert status == 2
    assert err.endswith(f"\nError: {path}: dimension 27 outside supported range 1..26\n")


@pytest.mark.parametrize("row", ["1" * 64, "0" + "1" * 63], ids=["all-ones", "top-bit-clear"])
def test_construct_refuses_a_matrix_wider_than_63_columns(tmp_path, capsys, row):
    # a point is an int64 bitmask, so column 1 of 64 (bit 63) has no room
    matrix = tmp_path / "wide.txt"
    matrix.write_text(f"1 64\n{row}\n")
    status, err = run_exit(capsys, "construct", "from-matrix", "--matrix", str(matrix))
    assert status == 2 and "internal error" not in err
    assert err.endswith("\nError: code length must be in 1..63, got 64\n")


def test_construct_uniform_refuses_above_the_cube_cap_before_allocating(capsys, monkeypatch):
    # 2^20 points would be 8 MiB of int64; the cap is read at call time
    monkeypatch.setattr("kwisent.cube.DIMENSION_CAP", 10)
    tracemalloc.start()
    try:
        status, err = run_exit(capsys, "construct", "uniform", "--n", "20")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert status == 2
    assert err.endswith("\nError: row space rank 20 exceeds the enumeration cap of 10\n")
    assert peak < 1 << 20
    # no identity row is built for a length that no point can hold
    status, err = run_exit(capsys, "construct", "uniform", "--n", str(10**12))
    assert status == 2
    assert err.endswith("\nError: code length must be in 1..63, got 1000000000000\n")
