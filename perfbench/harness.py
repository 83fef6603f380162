"""Run a plan's ops through the kwisent CLI in-process: one closed-loop client,
one process, no extra threads.

    python3 perfbench/harness.py --plan FILE --inputs DIR --work DIR --result FILE
        --budget S --seconds S --trace 0|1

The worker imports two copies of the CLI: the program under test from
``src`` and the frozen seed-commit copy in ``seedref`` (loaded as the
package ``kwisent_seed``).  It first runs the setup ops and one pass with
the program alone, and reads the peak RSS there.  Then, for ``--seconds``,
it makes timed passes in which every op runs under both copies back to
back, which copy goes first alternating from op to op and from pass to
pass.  The seed copy's outcome is the reference the program's outcome is
checked against, and its time is the yardstick the program's time is
divided by.  The host this runs on changes speed by up
to 1.7x between runs, but both copies of an op see the same speed.

Each op has a time limit; an op that hits it, or that starts after
``--budget`` seconds are spent, counts as failed.  With ``--trace 1`` the
second half of the passes runs with the program's layers wrapped.
"""

from __future__ import annotations

import argparse
import importlib
import importlib.util
import json
import os
import resource
import signal
import subprocess
import sys
import time
from contextlib import nullcontext
from pathlib import Path
from time import perf_counter

from click.testing import CliRunner

from verify import mismatch, space_file_summary

BENCH = Path(__file__).resolve().parent
SRC = BENCH.parent / "src"
SEEDREF = BENCH / "seedref" / "kwisent"
OP_TIMEOUT_S = 60.0
MAX_REPORTED_FAILURES = 10
MIN_SETUP_PROBES = 5


class OpTimeout(BaseException):
    """Raised from SIGALRM inside an op; BaseException so no handler in the program swallows it."""


def _on_alarm(signum, frame):
    raise OpTimeout


def program_cli():
    """The CLI of the program under test, imported from src."""
    sys.path.insert(0, str(SRC))
    return importlib.import_module("kwisent.cli").main


def seed_cli():
    """The CLI of the frozen seed copy, imported under the package name kwisent_seed."""
    spec = importlib.util.spec_from_file_location(
        "kwisent_seed", SEEDREF / "__init__.py", submodule_search_locations=[str(SEEDREF)]
    )
    package = importlib.util.module_from_spec(spec)
    sys.modules["kwisent_seed"] = package
    spec.loader.exec_module(package)
    return importlib.import_module("kwisent_seed.cli").main


class Runner:
    """Invokes ops on one copy of the CLI, with a per-op limit and a deadline."""

    def __init__(self, cli, inputs: str, work: str, deadline: float):
        os.makedirs(work, exist_ok=True)
        self.cli, self.runner = cli, CliRunner()
        self.paths = {"inputs": inputs, "work": work}
        self.deadline = deadline
        self.tracer = None
        self.ops_run = 0
        signal.signal(signal.SIGALRM, _on_alarm)

    def run(self, op: dict) -> tuple[dict, float]:
        """(outcome, seconds) of one op."""
        args = [arg.format(**self.paths) for arg in op["args"]]
        limit = min(OP_TIMEOUT_S, self.deadline - time.monotonic())
        outcome = {"exit": None, "stdout": "", "stderr": "", "error": None, "file": None}
        if limit <= 0:
            outcome["error"] = "timeout: the run's time budget was spent before the op started"
            return outcome, 0.0
        self.ops_run += 1
        span = self.tracer.op_span(self.ops_run) if self.tracer else nullcontext()
        signal.setitimer(signal.ITIMER_REAL, limit)
        start = perf_counter()
        try:
            with span:
                result = self.runner.invoke(self.cli, args, catch_exceptions=True)
            elapsed = perf_counter() - start
            signal.setitimer(signal.ITIMER_REAL, 0)
        except OpTimeout:
            outcome["error"] = f"timeout after {limit:.1f} s"
            return outcome, perf_counter() - start
        outcome.update(exit=result.exit_code, stdout=result.stdout, stderr=result.stderr)
        exc = result.exception
        if exc is not None and not isinstance(exc, SystemExit):
            outcome["error"] = f"uncaught {type(exc).__name__}: {exc}"
        path = op.get("output_file", "").format(**self.paths)
        if path and result.exit_code == 0 and os.path.exists(path):
            outcome["file"] = space_file_summary(path)
        return outcome, elapsed


class Tally:
    """Attempted and failed op counts, with the first few failure reasons."""

    def __init__(self):
        self.attempted = self.failed = 0
        self.failures: list[dict] = []

    def check(self, op: dict, ref: dict, got: dict) -> None:
        self.attempted += 1
        why = mismatch(op["args"], ref, got)
        if why:
            self.failed += 1
            if len(self.failures) < MAX_REPORTED_FAILURES:
                self.failures.append({"args": op["args"], "why": why})


def setup_probe() -> float:
    """Seconds from a fresh interpreter to a ready CLI (`python -m kwisent.cli --help`)."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    start = perf_counter()
    subprocess.run([sys.executable, "-m", "kwisent.cli", "--help"], env=env,
                   stdout=subprocess.DEVNULL, check=True, timeout=60)
    return perf_counter() - start


def run_measure(plan: dict, inputs: str, work: str, budget: float, seconds: float,
                trace: bool) -> dict:
    """Latencies come back as one list of op seconds per pass, for each copy.

    Without tracing, one set-up probe follows each pass (at least
    MIN_SETUP_PROBES in all), so the probes sample the whole run.
    """
    deadline = time.monotonic() + budget
    setup_ops = [op for unit in plan["units"] for op in unit["setup"]]
    ops = [op for unit in plan["units"] for op in unit["ops"]]
    program = Runner(program_cli(), inputs, os.path.join(work, "program"), deadline)
    setup_outcomes = [program.run(op)[0] for op in setup_ops]
    for op in ops:
        program.run(op)
    peak_rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss

    seed = Runner(seed_cli(), inputs, os.path.join(work, "seed"), deadline)
    tally = Tally()
    for op, got in zip(setup_ops, setup_outcomes):
        tally.check(op, seed.run(op)[0], got)
    setup_times: list[float] = []

    def one_pass(parity: int) -> tuple[list[float], list[float]]:
        mine, theirs = [], []
        for j, op in enumerate(ops):
            if (j + parity) % 2 == 0:
                got, t_program = program.run(op)
                ref, t_seed = seed.run(op)
            else:
                ref, t_seed = seed.run(op)
                got, t_program = program.run(op)
            tally.check(op, ref, got)
            mine.append(t_program)
            theirs.append(t_seed)
        return mine, theirs

    def passes(budget_s: float, probe: bool) -> dict:
        done: dict = {"program": [], "seed": []}
        start = perf_counter()
        while True:
            mine, theirs = one_pass(parity=len(done["program"]) % 2)
            done["program"].append(mine)
            done["seed"].append(theirs)
            if probe:
                setup_times.append(setup_probe())
            count = len(done["program"])
            spent = perf_counter() - start
            if spent * (count + 1) / count > budget_s or time.monotonic() > deadline:
                return done

    result = {"ops_per_pass": len(ops), "peak_rss_kb": peak_rss_kb}
    if not trace:
        result["latencies"] = passes(seconds, probe=True)
        while len(setup_times) < MIN_SETUP_PROBES:
            setup_times.append(setup_probe())
        result["setup_times"] = setup_times
    else:
        from tracer import Tracer, layer_metrics

        result["latencies"] = passes(seconds / 2, probe=False)
        program.tracer = Tracer()
        program.tracer.install()
        result["traced_latencies"] = passes(seconds / 2, probe=False)
        program.tracer.uninstall()
        result["layers"], result["self_s_by_name"] = layer_metrics(
            program.tracer.spans, len(result["traced_latencies"]["program"]), len(ops)
        )
        result["spans"] = program.tracer.spans
    result.update(attempted=tally.attempted, failed=tally.failed, failures=tally.failures)
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--plan", required=True)
    parser.add_argument("--inputs", required=True)
    parser.add_argument("--work", required=True)
    parser.add_argument("--result", required=True)
    parser.add_argument("--budget", type=float, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)
    with open(args.plan) as handle:
        plan = json.load(handle)
    result = run_measure(plan, args.inputs, args.work, args.budget, args.seconds, bool(args.trace))
    with open(args.result, "w") as handle:
        json.dump(result, handle)
    return 0


if __name__ == "__main__":
    sys.exit(main())
