"""Command line front end: simulate, theory, compare, validate.

Exit codes: 0 on success, 1 for invalid parameter values or tolerance
failures, 2 for unreadable or malformed inputs.
"""

from __future__ import annotations

import argparse
import sys

from .harness import (
    ConfigError,
    ExportError,
    check_step_sizes,
    compare,
    export,
    load_result,
    resolve_config,
    run_monte_carlo,
    run_theory,
    stage_windows,
)
from .theory import InstabilityError


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="diffcomb",
        description="Simulate and predict affine combinations of diffusion "
                    "LMS strategies.")
    sub = parser.add_subparsers(dest="command", required=True)

    sim = sub.add_parser("simulate", help="run the Monte Carlo experiment")
    sim.add_argument("config", help="config file path or bundled preset name")
    sim.add_argument("-o", "--output", required=True,
                     help="output file: JSON if named *.json, else CSV")
    sim.add_argument("--workers", type=int, default=1,
                     help="worker processes (default: 1)")

    theo = sub.add_parser("theory", help="evaluate the moment recursions")
    theo.add_argument("config", help="config file path or bundled preset name")
    theo.add_argument("-o", "--output", required=True,
                      help="output file: JSON if named *.json, else CSV")

    cmp_ = sub.add_parser("compare",
                          help="compare two exported result files")
    cmp_.add_argument("simulated", help="exported simulation result")
    cmp_.add_argument("predicted", help="exported theory result")
    cmp_.add_argument("--tol-msd-db", type=float, default=1.0,
                      help="steady tolerance for power series, in dB")
    cmp_.add_argument("--tol-gamma", type=float, default=0.05,
                      help="steady tolerance for coefficient series")
    cmp_.add_argument("--steady-window", type=float, default=0.1,
                      help="fraction in (0, 1] of the horizon, or of each "
                           "stretch with --config, used as steady window")
    cmp_.add_argument("--config", help="config or preset whose target "
                      "schedule gives one window per stationary stretch")

    val = sub.add_parser("validate", help="check a config without running it")
    val.add_argument("config", help="config file path or bundled preset name")
    return parser


def _cmd_simulate(args) -> int:
    cfg = resolve_config(args.config)
    result = run_monte_carlo(cfg, workers=args.workers)
    export(result, args.output, columns=cfg.outputs)
    print(f"wrote {args.output} ({result.metadata['runs']} runs, "
          f"horizon {result.horizon})")
    return 0


def _cmd_theory(args) -> int:
    cfg = resolve_config(args.config)
    result = run_theory(cfg)
    export(result, args.output, columns=cfg.outputs)
    for start, report in result.steady:
        verdict = report.universality.verdict
        print(f"stage at n={start}: combined steady MSD "
              f"{report.combined_msd:.6e}, {verdict}")
    print(f"wrote {args.output} (horizon {result.horizon})")
    return 0


def _cmd_compare(args) -> int:
    sim = load_result(args.simulated)
    theo = load_result(args.predicted)
    cfg = resolve_config(args.config) if args.config else None
    if cfg is not None and cfg.horizon != sim.horizon:
        raise ValueError(f"the config's horizon {cfg.horizon} differs from "
                         f"the exports' horizon {sim.horizon}")
    windows = stage_windows(sim.horizon, None if cfg is None else cfg.schedule,
                            args.steady_window)
    report = compare(sim, theo, tol_msd_db=args.tol_msd_db,
                     tol_gamma=args.tol_gamma, windows=windows)
    for lo, hi in report.windows:
        print(f"steady window [{lo}, {hi})")
    for entry in report.entries:
        unit = "dB" if entry.kind == "db" else ""
        flag = "pass" if entry.passed else "FAIL"
        print(f"  {entry.name}: steady dev {entry.steady_abs_dev:.4f} "
              f"{unit} (tol {entry.tol:g}), max {entry.max_abs_dev:.4f} "
              f"[{flag}]")
    if report.passed:
        print("comparison passed")
        return 0
    print("comparison failed")
    return 1


def _cmd_validate(args) -> int:
    cfg = resolve_config(args.config)
    check_step_sizes(cfg)
    schemes = ", ".join(comp.a2_mode for comp in cfg.components)
    print(f"config ok: {cfg.n_agents} agents, filter length "
          f"{cfg.filter_len}, {len(cfg.components)} components ({schemes}), "
          f"{cfg.combiner.scheme} combiner, horizon {cfg.horizon}, "
          f"{cfg.runs} runs")
    return 0


_COMMANDS = {
    "simulate": _cmd_simulate,
    "theory": _cmd_theory,
    "compare": _cmd_compare,
    "validate": _cmd_validate,
}


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except (OSError, ExportError) as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 2
    except (ValueError, InstabilityError) as exc:
        print(f"invalid experiment: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
