"""scripts/run_sweeps.py writes the same CSV bytes as the sweep commands, and
its witness report matches a recorded copy byte for byte."""

from __future__ import annotations

import importlib.util
from pathlib import Path

from click.testing import CliRunner

from kwisent.cli import main

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "run_sweeps.py"
WITNESSES = Path(__file__).resolve().parent / "golden" / "run-sweeps-witnesses.txt"


def load_script():
    spec = importlib.util.spec_from_file_location("run_sweeps", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_run_sweeps_csvs_match_sweep_commands():
    script = load_script()
    runner = CliRunner()
    spectra = runner.invoke(main, ["sweep", "spectra", "--n", "16"])
    bounds = runner.invoke(main, ["sweep", "bounds", "--n", "16", "--k", "1..8"])
    assert (spectra.exit_code, bounds.exit_code) == (0, 0)
    assert script.spectra_csv(16).encode() == spectra.stdout_bytes
    assert script.bounds_csv(16, 8).encode() == bounds.stdout_bytes


def test_run_sweeps_witness_report_matches_golden():
    assert load_script().witness_report().encode() == WITNESSES.read_bytes()
