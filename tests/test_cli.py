"""Command-line interface: commands, formats, exit-status contract."""

from __future__ import annotations

import json

import pytest
from click.testing import CliRunner

from kwisent.cli import main


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
    path = write_space(tmp_path, runner, "hamming", "--m", "4")
    result = invoke(
        runner, "analyze", str(path), "--format", "json", "--marginal-limit", str(10**9)
    )
    assert result.exit_code == 0, result.output
    assert json.loads(result.stdout)["marginal_order"] is None


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


def test_outputs_are_deterministic(tmp_path, runner):
    path = write_space(tmp_path, runner, "hamming", "--m", "3")
    first = invoke(runner, "analyze", str(path), "--format", "csv").output
    second = invoke(runner, "analyze", str(path), "--format", "csv").output
    assert first == second
    sweep_a = invoke(runner, "sweep", "spectra", "--n", "16", "--r", "1..15").output
    sweep_b = invoke(runner, "sweep", "spectra", "--n", "16", "--r", "1..15").output
    assert sweep_a == sweep_b
