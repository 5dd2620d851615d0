"""diffcomb benchmark: one workload per call, or every workload at once.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all --seed N --seconds S [--smoke]

With --trace 0 the result holds every end-to-end metric of
BENCHMARK.json, with --trace 1 every per-layer metric.  The workload
runs in its own process (pipeline.py) on the src/ tree of this checkout;
set-up time is sampled in fresh interpreters (setup_probe.py).  The run
record goes to standard output as a JSON line; the last line is the
result: {"correct", "attempted", "failed", "metrics"}.

--workload all runs every workload untraced and traced, prints every
metric by name with its unit, and ends with one result line whose
metric names are prefixed by the workload.  --smoke shrinks every
workload to a few steps and samples set-up once.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SETUP_SAMPLES = 11
RUN_LIMIT_S = 170.0
# one BLAS thread per process: workers x threads stays <= nproc, and a
# second BLAS thread made NL=500 evolve up to ten times slower whenever
# another process competed for the cores
BLAS_THREADS = 1


class BenchError(Exception):
    """The benchmark could not measure; no result is printed."""


def _metric_units() -> tuple:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return ({m["name"]: m["unit"] for m in spec["end_to_end"]},
            {m["name"]: m["unit"] for m in spec["per_layer"]})


def _child_env() -> dict:
    env = dict(os.environ, PYTHONPATH=str(SRC))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(BLAS_THREADS)
    return env


def _run_child(args, env, deadline) -> dict:
    """Run one child in its own process group; return its last JSON line."""
    proc = subprocess.Popen([sys.executable, *map(str, args)], env=env,
                            cwd=ROOT, stdout=subprocess.PIPE,
                            start_new_session=True, text=True)
    try:
        out, _ = proc.communicate(
            timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise BenchError(f"{args[0].name} ran past the time limit") from None
    finally:
        try:  # pool workers left by a failed child
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
    lines = out.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"{args[0].name} exited with code {proc.returncode}")
    return json.loads(lines[-1])


def _commit() -> str:
    if not (ROOT / ".git").exists():
        return "unknown"
    try:
        out = subprocess.run(["git", "--git-dir", str(ROOT / ".git"),
                              "rev-parse", "HEAD"], capture_output=True,
                             text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def run_workload(name, seed, seconds, trace, smoke) -> tuple:
    """Measure one workload; returns (result, record)."""
    deadline = time.monotonic() + RUN_LIMIT_S
    env = _child_env()
    setup, setup_failed = [], 0
    if not trace:
        for _ in range(1 if smoke else SETUP_SAMPLES):
            try:
                setup.append(_run_child(
                    [HERE / "setup_probe.py", name, seed, int(smoke)],
                    env, deadline)["setup_s"])
            except BenchError:
                setup_failed += 1
        if not setup:
            raise BenchError("every set-up probe failed")
    args = [HERE / "pipeline.py", "--workload", name, "--seed", seed,
            "--seconds", seconds, "--trace", int(trace)]
    child = _run_child(args + (["--smoke"] if smoke else []), env, deadline)
    values = dict(child["metrics"])
    if not trace:
        values["setup_s"] = statistics.median(setup)
    e2e, layers = _metric_units()
    units = layers if trace else e2e
    if set(values) != set(units):
        raise BenchError(f"metrics {sorted(set(values) ^ set(units))} do "
                         "not match BENCHMARK.json")
    bad = sorted(k for k, v in values.items() if not math.isfinite(v))
    if bad:
        raise BenchError(f"no measurement for {bad}")
    attempted = child["attempted"] + len(setup) + setup_failed
    failed = child["failed"] + setup_failed
    record = dict(child["record"], commit=_commit(), trace=int(trace),
                  setup_samples=len(setup), failures=child["failures"])
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": values[k], "unit": units[k]}
                    for k in units},
    }
    return result, record


def run_all(seed, seconds, smoke) -> dict:
    """Every workload untraced and traced, printed as a table."""
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        for trace in (0, 1):
            result, record = run_workload(name, seed, seconds, trace, smoke)
            print(json.dumps({"record": record}))
            merged["correct"] &= result["correct"]
            merged["attempted"] += result["attempted"]
            merged["failed"] += result["failed"]
            for metric, entry in result["metrics"].items():
                merged["metrics"][f"{name}/{metric}"] = entry
                print(f"{name:18s} {metric:28s} {entry['value']:>16.6g} "
                      f"{entry['unit']}")
            print(f"{name:18s} {'error_rate':28s} "
                  f"{result['failed'] / result['attempted']:>16.6g} "
                  f"({result['failed']}/{result['attempted']} operations, "
                  f"trace {trace})")
    return merged


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="diffcomb benchmark (see the module docstring)")
    parser.add_argument("--workload", required=True,
                        choices=sorted(WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args(argv)

    # the children run in their own process group; a terminated run still
    # passes through _run_child's cleanup, which kills that group
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    if not (SRC / "diffcomb" / "__init__.py").is_file():
        print(f"no diffcomb sources under {SRC}", file=sys.stderr)
        return 2
    try:
        if args.workload == "all":
            result = run_all(args.seed, args.seconds, args.smoke)
        else:
            result, record = run_workload(args.workload, args.seed,
                                          args.seconds, args.trace, args.smoke)
            print(json.dumps({"record": record}))
    except BenchError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
