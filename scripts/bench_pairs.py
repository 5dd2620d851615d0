"""Benchmark two checkouts against each other in alternating pairs.

For every workload of BENCHMARK.json, each of PAIRS pairs runs
``perfbench/run.py --workload W --seed S --seconds T --trace 0`` once in
the parent checkout and once in the change checkout, alternating which
side runs first, at seeds FIRST_SEED, FIRST_SEED + 1, ...; T is the
benchmark's run_seconds.  The end-to-end metrics of every run, their
medians, quartiles and the number of pairs the change wins (lower is
better for every metric of BENCHMARK.json), the operation counts, what
each side ran (its commit and, for an uncommitted tree, the SHA-256 of
``git diff HEAD -- src``) and the machine (nproc, Python, numpy, BLAS
threads, CPU) are written as one JSON record.

Usage: python3 scripts/bench_pairs.py --parent ../parent --change . \\
           --out BENCH_topic.json
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import pathlib
import platform
import statistics
import subprocess
import sys

import numpy as np

ROOT = pathlib.Path(__file__).resolve().parents[1]
SIDES = ("parent", "change")
PAIRS, FIRST_SEED = 10, 501


def run_once(checkout, workload, seed, seconds) -> dict:
    """The result line of one untraced perfbench run in a checkout."""
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=checkout, capture_output=True, text=True, check=True)
    return json.loads(out.stdout.strip().splitlines()[-1])


def summary(parent, change) -> dict:
    q1, _, q3 = statistics.quantiles(parent, n=4)
    return {"parent": parent, "change": change,
            "parent_median": statistics.median(parent),
            "change_median": statistics.median(change),
            "parent_quartiles": [q1, q3], "parent_iqr": q3 - q1,
            "change_wins": sum(c < p for p, c in zip(parent, change)),
            "parent_over_change": (statistics.median(parent)
                                   / statistics.median(change))}


def machine() -> dict:
    cpu = ""
    info = pathlib.Path("/proc/cpuinfo")
    if info.is_file():
        cpu = next((line.split(":", 1)[1].strip()
                    for line in info.read_text().splitlines()
                    if line.startswith("model name")), "")
    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": np.__version__, "blas_threads": "1 (perfbench/run.py)",
            "cpu": cpu or platform.processor()}


def git(checkout, *args) -> bytes:
    """The raw standard output of a git command in a checkout."""
    return subprocess.run(["git", *args], cwd=checkout,
                          capture_output=True).stdout


def source(checkout) -> dict:
    """The commit of a checkout and, if src/ differs from it, the SHA-256
    of the raw bytes of that difference, trailing blank context lines
    included; after committing, ``git diff PARENT COMMIT -- src |
    sha256sum`` gives the same digest."""
    commit = git(checkout, "rev-parse", "HEAD").decode().strip()
    out = {"commit": commit or "unknown"}
    diff = git(checkout, "diff", "HEAD", "--", "src")
    if diff:
        out["src_diff_sha256"] = hashlib.sha256(diff).hexdigest()
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", type=pathlib.Path, required=True)
    parser.add_argument("--change", type=pathlib.Path, default=ROOT)
    parser.add_argument("--out", type=pathlib.Path, required=True)
    args = parser.parse_args(argv)
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = bench["run_seconds"]

    checkouts = {"parent": args.parent.resolve(),
                 "change": args.change.resolve()}
    pairs = {}
    for workload in (w["name"] for w in bench["workloads"]):
        runs = {side: [] for side in SIDES}
        seeds = range(FIRST_SEED, FIRST_SEED + PAIRS)
        for i, seed in enumerate(seeds):
            for side in SIDES if i % 2 == 0 else SIDES[::-1]:
                runs[side].append(run_once(checkouts[side], workload, seed,
                                           seconds))
                print(workload, seed, side,
                      runs[side][-1]["metrics"]["theory_s"]["value"],
                      file=sys.stderr, flush=True)
        names = list(runs["parent"][0]["metrics"])
        pairs[workload] = {
            "seeds": list(seeds),
            "first_side": [SIDES[i % 2] for i in range(PAIRS)],
            "failed_ops": {s: sum(r["failed"] for r in runs[s])
                           for s in SIDES},
            "attempted_ops": {s: sum(r["attempted"] for r in runs[s])
                              for s in SIDES},
            "metrics": {name: summary(
                *([r["metrics"][name]["value"] for r in runs[s]]
                  for s in SIDES)) for name in names},
        }
    record = {
        "command": (f"python3 perfbench/run.py --workload W --seed S "
                    f"--seconds {seconds:g} --trace 0"),
        "sources": {s: source(checkouts[s]) for s in SIDES},
        "machine": machine(),
        "pairs_trace0": pairs,
    }
    args.out.write_text(json.dumps(record, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
