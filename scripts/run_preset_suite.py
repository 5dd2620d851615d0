"""Run the bundled experiment presets and collect results.

Stationary presets get the full simulate / theory / compare treatment.
The static tracking presets are simulated and predicted, and the steady
MSD deviation on the tail of every stationary stage is printed for
information only: the moment theory is known to sit off the simulation
on that pair, so it does not count as a failure.  Presets the moment
theory does not cover (harness.theory_covers), such as the adaptive
tracking ones, are simulated only.

Usage: python3 scripts/run_preset_suite.py --out results [--runs 20]
"""

from __future__ import annotations

import argparse
import fnmatch
import pathlib
import sys
import time

import numpy as np

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parents[1] / "src"))

from diffcomb import harness  # noqa: E402
from run_stepsize_sweep import STAGE_TAILS  # noqa: E402

TAIL_SERIES = ("msd_network_1", "msd_network_2", "msd_combined")


def tail_deviations_db(sim, theo, name):
    """Theory minus simulation, in dB, of a series' mean over each tail."""
    return [10.0 * np.log10(np.mean(theo.series[name][lo:hi])
                            / np.mean(sim.series[name][lo:hi]))
            for lo, hi in STAGE_TAILS]


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out", default="results", help="output directory")
    parser.add_argument("--only", default="*",
                        help="glob over preset names (default: all)")
    parser.add_argument("--runs", type=int, default=None,
                        help="override the per-preset run count")
    parser.add_argument("--workers", type=int, default=None)
    parser.add_argument("--tol-msd-db", type=float, default=2.0)
    parser.add_argument("--tol-gamma", type=float, default=0.05)
    args = parser.parse_args(argv)

    out_dir = pathlib.Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    names = [n for n in harness.preset_names()
             if fnmatch.fnmatch(n, args.only)]
    if not names:
        parser.error(f"no preset matches {args.only!r}")

    failures = []
    for name in names:
        cfg = harness.load_preset_config(name)
        run_indices = range(args.runs) if args.runs else None
        start = time.perf_counter()
        sim = harness.run_monte_carlo(cfg, run_indices=run_indices,
                                      workers=args.workers)
        sim_path = out_dir / f"{name}_sim.csv"
        harness.export(sim, sim_path, columns=cfg.outputs)
        elapsed = time.perf_counter() - start
        print(f"{name}: simulated {sim.metadata['runs']} runs in "
              f"{elapsed:.1f}s -> {sim_path.name}")

        if not harness.theory_covers(cfg):
            continue
        theo = harness.run_theory(cfg)
        theo_path = out_dir / f"{name}_theory.csv"
        harness.export(theo, theo_path, columns=cfg.outputs)
        for stage_start, report in theo.steady:
            print(f"  stage n={stage_start}: steady combined MSD "
                  f"{report.combined_msd:.3e}, "
                  f"{report.universality.verdict}")
        if name.startswith("tracking"):
            for series in TAIL_SERIES:
                devs = "  ".join(f"{v:+7.2f}" for v in
                                 tail_deviations_db(sim, theo, series))
                print(f"  {series} theory - MC per stage tail (dB, "
                      f"informational): {devs}")
            continue
        verdict = harness.compare(sim, theo, tol_msd_db=args.tol_msd_db,
                                  tol_gamma=args.tol_gamma)
        failed = [e.name for e in verdict.entries if not e.passed]
        if failed:
            failures.append((name, failed))
            print(f"  compare FAILED: {', '.join(failed)}")
        else:
            print("  compare passed")

    if failures:
        print(f"\n{len(failures)} preset(s) beyond tolerance")
        return 1
    print("\nall comparisons within tolerance")
    return 0


if __name__ == "__main__":
    sys.exit(main())
