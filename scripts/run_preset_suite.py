"""Run the bundled experiment presets and collect results.

Every preset is simulated, and predicted and compared where the moment
theory covers it (harness.theory_covers); the adaptive tracking presets
are simulated only.  The steady windows come from the target schedule,
harness.stage_windows: the last tenth of each stationary stretch.  A
single-stretch preset fails the suite when compare finds a series
beyond tolerance.  A preset with several stretches, such as the static
tracking ones, prints the signed theory - MC deviation of each window
for information only: the moment theory is known to sit off the
simulation across target changes, so it does not count as a failure.

Usage: python3 scripts/run_preset_suite.py --out results [--runs 20]
"""

from __future__ import annotations

import argparse
import dataclasses
import fnmatch
import pathlib
import sys
import time

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parents[1] / "src"))

from diffcomb import harness  # noqa: E402

TAIL_SERIES = ("msd_network_1", "msd_network_2", "msd_combined")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out", default="results", help="output directory")
    parser.add_argument("--only", default="*",
                        help="glob over preset names (default: all)")
    parser.add_argument("--runs", type=int, default=None,
                        help="override the per-preset run count")
    parser.add_argument("--workers", type=int, default=1)
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
        if args.runs is not None:
            try:
                cfg = dataclasses.replace(cfg, runs=args.runs)
            except ValueError as exc:
                parser.exit(2, f"{parser.prog}: error: {exc}\n")
        start = time.perf_counter()
        sim = harness.run_monte_carlo(cfg, workers=args.workers)
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
        verdict = harness.compare(
            sim, theo, tol_msd_db=args.tol_msd_db, tol_gamma=args.tol_gamma,
            windows=harness.stage_windows(cfg.horizon, cfg.schedule))
        if len(verdict.windows) > 1:
            entries = {e.name: e for e in verdict.entries}
            for series in TAIL_SERIES:
                devs = "  ".join(f"{v:+7.2f}"
                                 for v in entries[series].window_devs)
                print(f"  {series} theory - MC per stage window (dB, "
                      f"informational): {devs}")
            continue
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
