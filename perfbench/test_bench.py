"""Tests of the benchmark itself: smoke mode and the refusal to run
without the program's sources.

    python3 -m pytest perfbench/test_bench.py
"""

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def _bench(root, *args):
    return subprocess.run(
        [sys.executable, str(root / "perfbench" / "run.py"), *args],
        capture_output=True, text=True, cwd=root, timeout=900)


def test_smoke_reports_every_metric_with_its_unit():
    out = _bench(ROOT, "--workload", "all", "--seed", "1", "--seconds", "0",
                 "--smoke")
    assert out.returncode == 0, out.stderr
    result = json.loads(out.stdout.strip().splitlines()[-1])
    assert result["correct"], out.stdout
    assert result["failed"] == 0 and result["attempted"] > 0
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    for workload in spec["workloads"]:
        for metric in spec["end_to_end"] + spec["per_layer"]:
            entry = result["metrics"][f"{workload['name']}/{metric['name']}"]
            assert entry["unit"] == metric["unit"]
            assert math.isfinite(entry["value"]), (workload, metric)


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    out = _bench(tmp_path, "--workload", "quickstart_white", "--seed", "1",
                 "--seconds", "1", "--trace", "0")
    assert out.returncode != 0
    assert out.stdout == ""
