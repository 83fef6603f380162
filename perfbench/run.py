"""Benchmark of the kwisent command line, run from the root of a checkout:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all        # every workload, one table

Workloads (see workloads.py and BENCHMARK.json): radial-bounds, dense-chain,
small-corpus.  A run generates the workload's inputs from the seed and hands
the op list to a fresh worker process (harness.py), which drives the CLI
in-process, runs every op under the program and under the frozen seed copy
in perfbench/seedref, and checks the program's outcomes against the seed's.

With --trace 0 the last line reports the end-to-end metrics:
- setup_s: median over fresh `python -m kwisent.cli --help` launches, one
  after each pass;
- wall_vs_seed: the program's time for a pass over the seed copy's time for
  the same ops, each op's latency averaged over the run's passes;
- op_p50_vs_seed, op_p90_vs_seed: the same ratio over the ops whose
  latency ranks within 10 points of the 50th and the 90th percentile;
- peak_rss_mb: ru_maxrss of the worker after its program-only pass.
The times behind the ratios (wall_s, op_p50_ms, op_p90_ms) are printed as
comment lines and kept in the run record.  The failed share of ops is the
result's failed / attempted.  With --trace 1 the worker runs half the time
untraced and half with every program layer wrapped (tracer.py); the last
line reports the per-layer metrics and trace_overhead_frac, and the spans go
to .perfbench/traces/.  Each run writes its full record, with the
environment, to .perfbench/results/.
"""

from __future__ import annotations

import argparse
import importlib.metadata
import json
import math
import os
import platform
import re
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

from workloads import WORKLOADS, generate

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
STATE = ROOT / ".perfbench"
HARNESS = BENCH / "harness.py"
RUN_BUDGET_S = 150.0
SINGLE_THREAD = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}


class BenchError(Exception):
    """The benchmark could not produce a result."""


def run_worker(plan: dict, run_dir: Path, seconds: float, trace: bool) -> dict:
    """Run harness.py on the plan in a fresh process and return its result record."""
    inputs = run_dir / "inputs"
    inputs.mkdir(parents=True, exist_ok=True)
    for name, text in plan["files"].items():
        (inputs / f"{name}.txt").write_text(text)
    plan_path = run_dir / "plan.json"
    plan_path.write_text(json.dumps(plan))
    result_path = run_dir / "result.json"
    cmd = [sys.executable, str(HARNESS), "--plan", str(plan_path), "--inputs", str(inputs),
           "--work", str(run_dir / "work"), "--result", str(result_path),
           "--budget", str(RUN_BUDGET_S), "--seconds", str(seconds), "--trace", str(int(trace))]
    try:
        proc = subprocess.run(cmd, env=dict(os.environ, **SINGLE_THREAD), cwd=ROOT,
                              timeout=RUN_BUDGET_S + 15, check=False)
    except subprocess.TimeoutExpired:
        raise BenchError(f"the worker overran its {RUN_BUDGET_S:.0f} s budget") from None
    if proc.returncode != 0:
        raise BenchError(f"the worker exited with code {proc.returncode}")
    with open(result_path) as handle:
        return json.load(handle)


def _size_bytes(text: str) -> int | None:
    match = re.match(r"([\d.]+)\s*([KMG])i?B", text)
    if not match:
        return None
    return int(float(match.group(1)) * 1024 ** " KMG".index(match.group(2)))


def environment(seed: int) -> dict:
    """Versions, CPUs, commit and caches, next to the dense vector sizes."""
    env = {
        "python": platform.python_version(),
        "numpy": importlib.metadata.version("numpy"),
        "click": importlib.metadata.version("click"),
        "nproc": len(os.sched_getaffinity(0)),
        "seed": seed,
        "git_commit": None,
        "caches": {},
        "dense_vector_bytes": {f"n={n}": 8 << n for n in (20, 22)},
    }
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True)
        env["git_commit"] = proc.stdout.strip() or None
    try:
        lscpu = subprocess.run(["lscpu"], capture_output=True, text=True, timeout=10).stdout
    except (OSError, subprocess.TimeoutExpired):
        lscpu = ""
    for line in lscpu.splitlines():
        name, _, value = line.partition(":")
        if name.strip() in ("L1d cache", "L2 cache", "L3 cache"):
            env["caches"][name.strip()] = value.strip()
    llc = _size_bytes(env["caches"].get("L3 cache", ""))
    if llc:
        n = 1
        while (8 << n) < 4 * llc:
            n += 1
        env["note"] = (
            f"dense vectors of {8 << 20 >> 20} MiB (n=20) and {8 << 22 >> 20} MiB (n=22) fit in "
            f"the last-level cache, so cube.gbytes_per_s_computed is a cache-resident rate, not "
            f"DRAM bandwidth; vectors of 4x the LLC need n >= {n}, above the default cap of 26"
        )
    return env


def percentile(samples: list[float], q: int) -> float:
    """q-th percentile (inclusive method) of at least two samples."""
    return statistics.quantiles(samples, n=100, method="inclusive")[q - 1]


def predictions(workload: str, layers: dict, self_by_name: dict, wall_s: float) -> dict:
    """The predictions recorded with the baseline, as met (true) or not met (false)."""
    if workload == "radial-bounds":
        cube = {k: v for k, v in layers.items() if k.startswith("cube.")}
        return {"cube.* metrics are zero": all(v == 0 for v in cube.values())}
    if workload == "dense-chain":
        return {"balls.lambda_ball.self_s < 1% of wall_s": layers["balls.lambda_ball.self_s"] < 0.01 * wall_s}
    largest = max(self_by_name, key=self_by_name.get)
    return {f"kwise.marginal_order has the largest self time (largest: {largest})":
            largest == "kwise.marginal_order"}


def band_ratio(program: list[float], seed: list[float], q: int) -> float:
    """Program-to-seed ratio of the summed latency of the ops whose seed
    latency ranks within 10 points of the q-th percentile (at least one op).

    A ratio of single percentiles rests on one op's few samples: in
    radial-bounds it spread by 10-20% from run to run, the bands by 3-8%.
    """
    order = sorted(range(len(seed)), key=seed.__getitem__)
    low = int(len(order) * (q - 10) / 100)
    high = max(low + 1, math.ceil(len(order) * min(q + 10, 100) / 100))
    band = order[low:high]
    return sum(program[i] for i in band) / sum(seed[i] for i in band)


def timings(latencies: dict) -> dict:
    """Each copy's pass time and latency percentiles, and program-to-seed ratios.

    Every op's latency is first averaged over the run's passes.  Both copies
    ran each op back to back, so they met the host's changes of speed in the
    same proportion and the ratios are free of them.
    """
    per_op = {copy: [statistics.fmean(s) for s in zip(*passes)] for copy, passes in latencies.items()}
    out = {
        copy: {
            "wall_s": sum(values),
            "op_p50_ms": statistics.median(values) * 1e3,
            "op_p90_ms": percentile(values, 90) * 1e3,
        }
        for copy, values in per_op.items()
    }
    if not all(out["seed"].values()):
        raise BenchError("no op of the seed copy finished within the run's time budget")
    program, seed = per_op["program"], per_op["seed"]
    out["ratio"] = {
        "wall_s": sum(program) / sum(seed),
        "op_p50_ms": band_ratio(program, seed, 50),
        "op_p90_ms": band_ratio(program, seed, 90),
    }
    return out


def run_workload(workload: str, seed: int, seconds: float, trace: bool, spec: dict) -> dict:
    plan = generate(workload, seed)
    run_dir = STATE / "runs" / f"{workload}-{seed}-{os.getpid()}"
    try:
        result = run_worker(plan, run_dir, seconds, trace)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)

    times = timings(result["latencies"])
    record = {
        "workload": workload,
        "seed": seed,
        "trace": int(trace),
        "env": environment(seed),
        "ops_per_pass": result["ops_per_pass"],
        "passes": len(result["latencies"]["program"]),
        "attempted": result["attempted"],
        "failed": result["failed"],
        "failures": result["failures"],
        "times": times,
    }
    if not trace:
        setup = result["setup_times"]
        values = {
            "setup_s": statistics.median(setup),
            "wall_vs_seed": times["ratio"]["wall_s"],
            "op_p50_vs_seed": times["ratio"]["op_p50_ms"],
            "op_p90_vs_seed": times["ratio"]["op_p90_ms"],
            "peak_rss_mb": result["peak_rss_kb"] / 1024,
        }
        record["setup_times"] = setup
        wanted = spec["end_to_end"]
    else:
        traced = timings(result["traced_latencies"])
        values = dict(result["layers"])
        values["trace_overhead_frac"] = traced["ratio"]["wall_s"] / times["ratio"]["wall_s"] - 1
        record.update(traced_times=traced, self_s_by_name=result["self_s_by_name"],
                      predictions=predictions(workload, values, result["self_s_by_name"],
                                              times["program"]["wall_s"]))
        traces = STATE / "traces"
        traces.mkdir(parents=True, exist_ok=True)
        fields = ["name", "start", "end", "parent", "op", "extra"]
        (traces / f"{workload}-seed{seed}.json").write_text(
            json.dumps({"fields": fields, "spans": result["spans"]})
        )
        wanted = spec["per_layer"]
    record["metrics"] = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted}
    results = STATE / "results"
    results.mkdir(parents=True, exist_ok=True)
    (results / f"{workload}-seed{seed}-trace{int(trace)}.json").write_text(json.dumps(record, indent=1))
    return record


def report(record: dict) -> dict:
    """Print the human-readable lines of one run; return its result object."""
    print(json.dumps({"env": record["env"]}))
    print(f"# {record['workload']} seed={record['seed']} trace={record['trace']}: "
          f"{record['passes']} timed pass(es) of {record['ops_per_pass']} ops, "
          f"failed {record['failed']} of {record['attempted']} ops "
          f"(fail_frac {record['failed'] / record['attempted']:.4g})")
    for failure in record["failures"]:
        print(f"# FAILED {' '.join(failure['args'])}: {failure['why']}")
    for copy, times in record["times"].items():
        print(f"# {copy:7s} " + "  ".join(f"{name} {value:.6g}" for name, value in times.items()))
    for name, metric in record["metrics"].items():
        print(f"{record['workload']:14s} {name:40s} {metric['value']:.6g} {metric['unit']}")
    for claim, met in record.get("predictions", {}).items():
        print(f"# prediction {'met' if met else 'NOT met'}: {claim}")
    return {
        "correct": record["failed"] == 0,
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": record["metrics"],
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="kwisent CLI benchmark")
    parser.add_argument("--workload", required=True, choices=list(WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=None)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)
    spec_path = ROOT / "BENCHMARK.json"
    if not (ROOT / "src" / "kwisent" / "cli.py").is_file() or not spec_path.is_file():
        print(f"error: {ROOT} holds no src/kwisent package or no BENCHMARK.json; "
              "run from the root of a kwisent checkout", file=sys.stderr)
        return 2
    spec = json.loads(spec_path.read_text())
    seconds = args.seconds if args.seconds is not None else spec["run_seconds"]
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    results = {}
    for name in names:
        try:
            record = run_workload(name, args.seed, seconds, bool(args.trace), spec)
        except BenchError as exc:
            print(f"error: {name}: {exc}", file=sys.stderr)
            return 1
        results[name] = report(record)
    print(json.dumps(results[names[0]] if len(names) == 1 else results))
    return 0


if __name__ == "__main__":
    sys.exit(main())
