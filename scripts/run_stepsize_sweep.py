"""Sweep the coefficient adaptation gain on the static tracking setup.

For each gain the tracking preset is rerun and the steady combined MSD
over the last fifth of every stationary stretch of the target schedule
(harness.stage_windows) is reported, showing the tradeoff between
reconvergence speed after a target change and steady accuracy.  The
CSV has one stage<i>_msd_db column per stretch.

Usage: python3 scripts/run_stepsize_sweep.py --scheme power_normalized
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import pathlib
import sys

import numpy as np

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parents[1] / "src"))

from diffcomb import harness  # noqa: E402

DEFAULT_GAINS = {
    "power_normalized": (0.001, 0.005, 0.01, 0.02, 0.05),
    "sign_regressor": (0.001, 0.005, 0.015, 0.03, 0.06),
}
BASE_PRESET = {
    "power_normalized": "tracking_static_pn",
    "sign_regressor": "tracking_static_sr",
}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--scheme", choices=sorted(DEFAULT_GAINS),
                        default="power_normalized")
    parser.add_argument("--gains", type=float, nargs="+", default=None)
    parser.add_argument("--runs", type=int, default=20)
    parser.add_argument("--workers", type=int, default=1)
    parser.add_argument("--out", default=None,
                        help="optional CSV file for the summary table")
    args = parser.parse_args(argv)

    gains = tuple(args.gains) if args.gains else DEFAULT_GAINS[args.scheme]
    try:
        base = dataclasses.replace(
            harness.load_preset_config(BASE_PRESET[args.scheme]), runs=args.runs)
    except ValueError as exc:
        parser.exit(2, f"{parser.prog}: error: {exc}\n")
    windows = harness.stage_windows(base.horizon, base.schedule, 0.2)

    rows = []
    for nu in gains:
        raw = json.loads(json.dumps(base.source))
        raw["combiner"]["nu_gamma"] = nu
        raw["label"] = f"{args.scheme} sweep nu={nu}"
        cfg = dataclasses.replace(harness.config_from_dict(raw), runs=base.runs)
        sim = harness.run_monte_carlo(cfg, workers=args.workers)
        msd = sim.series["msd_combined"]
        tails = [10.0 * np.log10(np.mean(msd[lo:hi]))
                 for lo, hi in windows]
        rows.append((nu, tails))
        stages = "  ".join(f"{v:8.3f}" for v in tails)
        print(f"nu={nu:<7g} steady combined MSD per stage (dB): {stages}")

    if args.out:
        with open(args.out, "w") as fh:
            fh.write("nu," + ",".join(
                f"stage{i + 1}_msd_db" for i in range(len(windows))) + "\n")
            for nu, tails in rows:
                fh.write(",".join([f"{nu:g}"] +
                                  [f"{v:.6f}" for v in tails]) + "\n")
        print(f"wrote {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
