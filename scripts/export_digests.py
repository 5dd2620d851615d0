"""Print the SHA-256 of the CSV and JSON exports of every bundled preset.

Each preset is cut to the given horizon and run count, simulated on the
given number of workers, and predicted where the moment theory covers
it (harness.theory_covers).  One line per export:
``<preset> sim|theory csv|json <sha256>``, and for a prediction one more
per SteadyReport field, ``<preset> theory steady <field> <sha256>``, over
every stage's start and that field's arrays, stage by stage.  Two runs
that must agree byte for byte, say at one and at three workers or before
and after a refactor, are checked by diffing their outputs, which name
the steady field that changed.

Usage: python3 scripts/export_digests.py --horizon 40 --runs 75 --workers 3
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import pathlib
import sys
import tempfile

import numpy as np
sys.path.insert(0, str(pathlib.Path(__file__).resolve().parents[1] / "src"))

from diffcomb import harness  # noqa: E402


def print_digests(name, kind, result, columns, tmp) -> None:
    for fmt in ("csv", "json"):
        path = tmp / f"export.{fmt}"
        harness.export(result, path, columns=columns)
        print(name, kind, fmt, hashlib.sha256(path.read_bytes()).hexdigest(),
              flush=True)


def report_bytes(value):
    """Every leaf of a steady report, nested records included, in field
    order, each with its dtype and shape."""
    if dataclasses.is_dataclass(value):
        for field in dataclasses.fields(value):
            yield from report_bytes(getattr(value, field.name))
    else:
        arr = np.asarray(value)
        yield f"{arr.dtype.str}{arr.shape}".encode()
        yield arr.tobytes()


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--horizon", type=int, required=True)
    parser.add_argument("--runs", type=int, required=True)
    parser.add_argument("--workers", type=int, default=1)
    args = parser.parse_args(argv)

    with tempfile.TemporaryDirectory() as tmp:
        tmp = pathlib.Path(tmp)
        for name in harness.preset_names():
            cfg = dataclasses.replace(harness.load_preset_config(name),
                                      horizon=args.horizon, runs=args.runs)
            sim = harness.run_monte_carlo(cfg, workers=args.workers)
            print_digests(name, "sim", sim, cfg.outputs, tmp)
            if harness.theory_covers(cfg):
                theo = harness.run_theory(cfg)
                print_digests(name, "theory", theo, cfg.outputs, tmp)
                for field in dataclasses.fields(theo.steady[0][1]):
                    digest = hashlib.sha256()
                    for start, report in theo.steady:
                        for chunk in (*report_bytes(start), *report_bytes(
                                getattr(report, field.name))):
                            digest.update(chunk)
                    print(name, "theory", "steady", field.name,
                          digest.hexdigest(), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
