"""Tests of the benchmark's own parts: tracer, generator, verifier, time limit.

Run from the root of the repository: python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
import sys
import time
from collections import Counter
from pathlib import Path

import pytest

import harness
import verify
import workloads
from tracer import LAYERS, Tracer, layer_metrics

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from click.testing import CliRunner  # noqa: E402

from kwisent.cli import main as cli  # noqa: E402


@pytest.fixture(scope="module")
def hamming15(tmp_path_factory) -> str:
    path = tmp_path_factory.mktemp("spaces") / "hamming15.txt"
    result = CliRunner().invoke(cli, ["construct", "hamming", "--m", "4", "-o", str(path)])
    assert result.exit_code == 0
    return str(path)


def test_tracer_counts_match_the_profiler_and_leave_output_unchanged(hamming15):
    args = ["chain", hamming15, "--k", "3"]
    plain = CliRunner().invoke(cli, args)
    tracer = Tracer()
    wrapped = tracer.install()
    seen: Counter = Counter()
    codes = {func.__code__ for func in wrapped.values()}

    def profile(frame, event, arg):
        if event == "call" and frame.f_code in codes:
            seen[frame.f_code] += 1

    sys.setprofile(profile)
    try:
        with tracer.op_span(1):
            traced = CliRunner().invoke(cli, args)
    finally:
        sys.setprofile(None)
        tracer.uninstall()
    spans = Counter(span[0] for span in tracer.spans)
    for name, func in wrapped.items():
        assert spans[name] == seen[func.__code__], name
    assert spans["smoothing.smoothing_chain"] == 1
    assert spans["cube.wht"] > 0 and spans["balls.lambda_ball"] > 0
    assert (traced.exit_code, traced.stdout_bytes) == (plain.exit_code, plain.stdout_bytes)
    from kwisent import cube, smoothing

    assert smoothing.wht is cube.wht and not hasattr(cube.wht, "__wrapped__")
    metrics, _ = layer_metrics(tracer.spans, passes=1, ops_per_pass=1)
    assert metrics["smoothing.fwht_per_chain"] == 16


def test_layer_metric_names_match_benchmark_json():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    metrics, _ = layer_metrics([], passes=1, ops_per_pass=1)
    assert [m["name"] for m in spec["per_layer"]] == list(metrics) + ["trace_overhead_frac"]
    assert {m.split(".")[0] for m in metrics} == set(LAYERS) | {"cli"}


def _op_classes(plan: dict) -> Counter:
    dims = {name: int(text.split()[1]) for name, text in plan["files"].items()}
    classes: Counter = Counter()
    for unit in plan["units"]:
        n = dims[unit["inputs"][0]] if unit["inputs"] else None
        for op in unit["setup"] + unit["ops"]:
            args = op["args"]
            words = [a for a in args if not a.startswith("{") and not a.isdigit()]
            size = n if n is not None else args[args.index("--n") + 1]
            classes[(tuple(words), size)] += 1
    return classes


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_plans_repeat_per_seed_and_keep_their_strata(workload):
    first, again, other = (workloads.generate(workload, s) for s in (1, 1, 2))
    assert first == again
    assert _op_classes(first) == _op_classes(other)
    assert (first["files"], first["units"]) != (other["files"], other["units"])


def test_generated_codes_follow_the_schedule():
    plan = workloads.generate("small-corpus", 3)
    found: Counter = Counter()
    for text in plan["files"].values():
        header, *rows = text.splitlines()
        k, n = map(int, header.split())
        gens = [int(row, 2) for row in rows]
        assert len(gens) == k and workloads.min_weight(gens) > 0  # full rank
        dual = workloads.nullspace(gens, n)
        found[(n, len(dual), workloads.min_weight(dual))] += 1
    schedule = Counter((n, m, d) for n, pairs in workloads.SMALL_CODES.items() for m, d in pairs)
    assert found == schedule


def test_verifier_tolerates_float_noise_but_not_logic_changes():
    ref = "chain: smoothing (n=15, k=3, r=4)\nlambda_r: 10.2322464045\nx: 3e-07 <= 0 slack=-3e-07 PASS\n"
    assert verify.text_mismatch(ref, ref.replace("10.2322464045", "10.2322464046"), csv=False) is None
    assert verify.text_mismatch(ref, ref.replace("3e-07", "1e-13"), csv=False) is None
    assert verify.text_mismatch(ref, ref.replace("10.2322464045", "10.24"), csv=False)
    assert verify.text_mismatch(ref, ref.replace("r=4", "r=5"), csv=False)
    assert verify.text_mismatch(ref, ref.replace("PASS", "FAIL"), csv=False)
    sweep = "n,r,lambda,asymptotic_lambda,iterations,residual\n8,2,4.69041575982,6.9282,45,8.2e-10\n"
    assert verify.text_mismatch(sweep, sweep.replace(",45,8.2e-10", ",3,1e-15"), csv=True) is None
    assert verify.text_mismatch(sweep, sweep.replace("8,2,", "8,3,"), csv=True)


def test_crash_and_timeout_count_as_failures(hamming15, monkeypatch, tmp_path):
    runner = harness.Runner(harness.program_cli(), "", str(tmp_path), time.monotonic() + 60)
    chain = {"args": ["chain", hamming15, "--k", "3"]}
    reference, _ = runner.run(chain)
    assert reference["error"] is None and reference["exit"] == 0

    def broken(*args, **kwargs):
        raise RuntimeError("injected")

    monkeypatch.setattr("kwisent.cli.smoothing_chain", broken)
    crashed, _ = runner.run(chain)
    assert crashed["exit"] == 1 and crashed["error"].startswith("uncaught RuntimeError")
    assert verify.mismatch(chain["args"], dict(reference, exit=1), crashed)

    monkeypatch.setattr(harness, "OP_TIMEOUT_S", 0.5)
    hung, elapsed = runner.run({"args": ["bound", "--n", "100000000", "--k", "1"]})
    assert hung["error"].startswith("timeout") and elapsed < 5
    assert verify.mismatch(["bound"], reference, hung)
