"""Print the SHA-256 of the CSV export of every bundled preset.

Each preset is cut to the given horizon and run count, simulated on the
given number of workers, and predicted where the moment theory covers
it (static fusion, two-component scheme).  One line per export:
``<preset> sim|theory <sha256>``.  Two runs that must agree byte for
byte, say at one and at three workers or before and after a refactor,
are checked by diffing their outputs.

Usage: python3 scripts/export_digests.py --horizon 40 --runs 75 --workers 3
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import pathlib
import sys
import tempfile

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parents[1] / "src"))

from diffcomb import harness  # noqa: E402


def covered(cfg) -> bool:
    """Whether the moment theory predicts this experiment."""
    return (cfg.combiner.scheme != "multi_sign"
            and all(comp.a2_mode == "static" for comp in cfg.components))


def digest(result, columns, path) -> str:
    harness.export_csv(result, path, columns=columns)
    return hashlib.sha256(path.read_bytes()).hexdigest()


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--horizon", type=int, required=True)
    parser.add_argument("--runs", type=int, required=True)
    parser.add_argument("--workers", type=int, default=1)
    args = parser.parse_args(argv)

    with tempfile.TemporaryDirectory() as tmp:
        path = pathlib.Path(tmp) / "export.csv"
        for name in harness.preset_names():
            cfg = dataclasses.replace(harness.load_preset_config(name),
                                      horizon=args.horizon, runs=args.runs)
            sim = harness.run_monte_carlo(cfg, workers=args.workers)
            print(name, "sim", digest(sim, cfg.outputs, path), flush=True)
            if covered(cfg):
                theory = harness.run_theory(cfg)
                print(name, "theory", digest(theory, cfg.outputs, path),
                      flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
