"""Workloads of the diffcomb benchmark and the configs each one builds.

Every workload starts from bundled presets and overrides only the run
length, the run count and the seed, so the program receives ordinary
experiment configs.  This module imports nothing from diffcomb at import
time: the cold set-up probe times that import itself.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass

MSD_NAMES = ("msd_network_1", "msd_network_2", "msd_combined")


@dataclass(frozen=True)
class Workload:
    """One benchmark workload.

    sim_preset is simulated, theory_preset predicted; they differ only
    where the theory cannot cover the simulated strategy.  horizon and
    runs size a measured pass, smoke_horizon and smoke_runs the smoke
    mode.  A staged target schedule is rescaled with the horizon.
    tol_msd_db gates compare on the MSD series; None leaves finiteness
    as the only correctness check.  pool runs the Monte Carlo at one
    worker per core.
    """

    name: str
    sim_preset: str
    theory_preset: str
    horizon: int
    runs: int
    smoke_horizon: int
    smoke_runs: int
    tol_msd_db: float | None
    pool: bool


WORKLOADS = {
    wl.name: wl for wl in (
        # small arrays: per-call overhead of the strategy step and the
        # harness reductions dominates; no pool, no AR(1) refill
        Workload("quickstart_white", "universality_pn", "universality_pn",
                 horizon=6000, runs=25, smoke_horizon=100, smoke_runs=25,
                 tol_msd_db=1.0, pool=False),
        # the only workload on the process pool; AR(1) refill in the
        # sampler and the Kronecker steady solve at NL=40; AR(1)
        # covariance is not sigma^2 I, so a structured theory falls back
        Workload("grid_ar1_pool", "steady_net2_snr1_ar1_pn",
                 "steady_net2_snr1_ar1_pn",
                 horizon=2000, runs=100, smoke_horizon=100, smoke_runs=26,
                 tol_msd_db=2.0, pool=True),
        # adaptive A2 refresh in the simulator and the dense NL=500 moment
        # recursion over four staged targets; the static pair's theory
        # is known to sit several dB off Monte Carlo, so no compare gate
        Workload("tracking_l50", "tracking_adaptive_pn", "tracking_static_pn",
                 horizon=200, runs=50, smoke_horizon=50, smoke_runs=25,
                 tol_msd_db=None, pool=False),
    )
}


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def workers_for(wl: Workload) -> int:
    return nproc() if wl.pool else 1


def _sized(raw: dict, horizon: int, runs: int, seed: int) -> dict:
    scale = horizon / raw["horizon"]
    raw = dict(raw, horizon=horizon, runs=runs, seed=seed)
    targets = raw.get("targets")
    if targets and "stages" in targets:
        raw["targets"] = dict(
            targets,
            transition_len=round(targets.get("transition_len", 0) * scale),
            stages=[dict(stage, start=round(stage["start"] * scale))
                    for stage in targets["stages"]])
    return raw


def build_configs(wl: Workload, seed: int, smoke: bool) -> tuple:
    """ExperimentConfigs (simulated, predicted) for one seed, built through
    the public config_from_dict, looked up at call time so tracing can
    wrap it."""
    from importlib import resources

    from diffcomb import harness
    horizon = wl.smoke_horizon if smoke else wl.horizon
    runs = wl.smoke_runs if smoke else wl.runs
    presets = resources.files("diffcomb").joinpath("presets")
    sim_raw, theory_raw = (
        _sized(json.loads(presets.joinpath(f"{name}.json").read_text()),
               horizon, runs, seed)
        for name in (wl.sim_preset, wl.theory_preset))
    sim_cfg = harness.config_from_dict(sim_raw)
    if theory_raw == sim_raw:
        return sim_cfg, sim_cfg
    return sim_cfg, harness.config_from_dict(theory_raw)
