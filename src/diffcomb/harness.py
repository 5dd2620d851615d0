"""Experiment orchestration around the strategies and their moment models.

An experiment couples a network, per-agent data statistics, a target
schedule, at least two component strategies, and a combination layer.
The same description drives three paths: seeded Monte Carlo simulation,
the deterministic moment recursions, and a comparison of the two.

Monte Carlo runs are split into fixed-size chunks of consecutive run
indices.  Each chunk advances all of its runs as one batched simulation,
and chunk partial sums are reduced in chunk order, so the aggregate is
bit-identical no matter how many worker processes execute the chunks.

Within a chunk the M component estimates and their combination are one
(M+1, runs, N, L) array.  Each instant reads it once for the outputs
and errors, updates the combiner once, advances all M components with
one step (a ``StrategyStack`` built once per experiment), writes the
combination into row M, and reduces each power family with one sum
over the stack, straight into the series table.
"""

from __future__ import annotations

import hashlib
import json
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from importlib import resources
from pathlib import Path

import numpy as np

from .combine import (
    CombinerConfig,
    combine_weights,
    init_combiner,
    multi_update,
    pn_update,
    sr_update,
)
from .diffusion import (
    StrategyConfig,
    StrategyStack,
    errors_and_outputs,
    init_state,
    step,
)
from .graph import StochasticMatrix, Topology, build_preset, read_edge_list, static_rule
from .signal import (
    AgentSignalParams,
    ChunkedSampler,
    TargetSchedule,
    load_snr_preset,
    regressor_covariance,
)
from .theory import (
    PairModel,
    build_component_model,
    evolve,
    initial_moments,
    mu_bounds,
    shift_targets,
    steady_state,
)

CHUNK_RUNS = 25
WORKERS_ENV = "DIFFCOMB_WORKERS"

_TOP_LEVEL_KEYS = {
    "topology", "signal", "targets", "components", "combiner",
    "horizon", "runs", "seed", "outputs", "gamma_init", "label",
}
_COMPONENT_KEYS = {"a1", "c", "a2", "a2_mode", "mu", "tau"}


class ConfigError(Exception):
    """Structural problem in an experiment description (unreadable file,
    malformed syntax, unknown keys, missing sections)."""


@dataclass
class ExperimentConfig:
    """Complete description of one experiment.

    ``outputs`` optionally restricts which series are exported;
    ``gamma_init`` overrides the neutral 1/2 start of the two-component
    coefficient.  ``source`` keeps the raw setting table of configs
    loaded from files so they can be hashed into export metadata.
    """

    topology: Topology
    signal_params: list
    schedule: TargetSchedule
    components: list
    combiner: CombinerConfig
    horizon: int
    runs: int
    seed: int
    outputs: tuple | None = None
    gamma_init: float | None = None
    source: dict | None = None
    label: str | None = None

    def __post_init__(self):
        if self.runs < 1:
            raise ValueError("runs must be at least 1")
        if self.horizon < 1:
            raise ValueError("horizon must be at least 1")
        n = self.topology.n_agents
        if len(self.signal_params) != n:
            raise ValueError("signal parameters must cover every agent")
        lens = {p.filter_len for p in self.signal_params}
        if len(lens) != 1:
            raise ValueError("agents must share one filter length")
        if (self.schedule.n_agents != n
                or self.schedule.filter_len != lens.pop()):
            raise ValueError("target schedule shape does not match the network")
        if self.schedule.stages[0][0] != 0:
            raise ValueError("the first target stage must start at time 0")
        if len(self.components) < 2:
            raise ValueError("need at least two component strategies")
        for comp in self.components:
            if comp.topology.n_agents != n:
                raise ValueError("component strategies must share the network")
        expected = self.combiner.m if self.combiner.scheme == "multi_sign" else 2
        if len(self.components) != expected:
            raise ValueError(
                f"combiner expects {expected} component strategies, "
                f"got {len(self.components)}")
        if self.gamma_init is not None and self.combiner.scheme == "multi_sign":
            raise ValueError("gamma_init applies to two-component schemes only")
        for name, shape, per in (
                ("nu_gamma", (n,), "agent"),
                ("nu_alpha", (self.combiner.m, n), "component and agent")):
            value = getattr(self.combiner, name)
            try:
                np.broadcast_to(value, shape)
            except ValueError:
                raise ValueError(
                    f"{name} has shape {np.shape(value)}: it must be a "
                    f"scalar or give one value per {per}, shape "
                    f"{shape}") from None

    @property
    def n_agents(self) -> int:
        return self.topology.n_agents

    @property
    def filter_len(self) -> int:
        return self.signal_params[0].filter_len

    @property
    def config_hash(self) -> str | None:
        if self.source is None:
            return None
        canon = json.dumps(self.source, sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(canon.encode()).hexdigest()[:16]


@dataclass
class AggregateResult:
    """Run-averaged series of one Monte Carlo experiment.

    series maps names to (horizon,) arrays in linear units; decibel
    conversion happens only at export.  Error-power rows hold the
    pre-update errors of each instant, deviation and coefficient rows
    the post-update state, mirroring the moment recursions.
    """

    horizon: int
    runs: int
    n_agents: int
    series: dict
    seed: int | None = None
    config_hash: str | None = None

    def metadata(self) -> dict:
        return {
            "kind": "monte_carlo",
            "horizon": self.horizon,
            "runs": self.runs,
            "n_agents": self.n_agents,
            "seed": self.seed,
            "config_hash": self.config_hash,
        }


@dataclass
class TheoryResult:
    """Predicted series plus per-stage stationary reports.

    steady holds one (stage_start, SteadyReport) pair per stage.
    """

    horizon: int
    n_agents: int
    series: dict
    steady: tuple
    config_hash: str | None = None
    runs: int = 0

    def metadata(self) -> dict:
        return {
            "kind": "theory",
            "horizon": self.horizon,
            "runs": self.runs,
            "n_agents": self.n_agents,
            "seed": None,
            "config_hash": self.config_hash,
        }


@dataclass
class SeriesBundle:
    """Series reloaded from an exported file, mapped back to linear units."""

    horizon: int
    series: dict
    metadata_values: dict | None = None

    def metadata(self) -> dict:
        return self.metadata_values or {}


# ---------------------------------------------------------------------------
# configuration loading


def _structural(mapping, key, context):
    try:
        return mapping[key]
    except (KeyError, TypeError):
        raise ConfigError(f"{context} is missing {key!r}") from None


def _check_keys(mapping, allowed, context):
    if not isinstance(mapping, dict):
        raise ConfigError(f"{context} must be a table of settings")
    unknown = sorted(set(mapping) - allowed)
    if unknown:
        raise ConfigError(f"{context} has unknown keys {unknown}")


def _combination_matrix(topology, name, role):
    try:
        base = static_rule(topology, name)
    except ValueError as exc:
        raise ConfigError(str(exc)) from None
    if role == "left":
        return base
    return StochasticMatrix(base.entries.T, "right")


def _topology_from_dict(raw, base_dir):
    _check_keys(raw, {"preset", "edges"}, "topology")
    if "preset" in raw:
        try:
            return build_preset(raw["preset"])
        except ValueError as exc:
            raise ConfigError(str(exc)) from None
    if "edges" in raw:
        path = Path(base_dir) / raw["edges"]
        if not path.exists():
            raise ConfigError(f"edge-list file {path} does not exist")
        return read_edge_list(path)
    raise ConfigError("topology needs a preset name or an edge-list path")


def _signal_from_dict(raw, n_agents):
    _check_keys(raw, {"snr_preset", "agents"}, "signal")
    if "snr_preset" in raw:
        spec = raw["snr_preset"]
        _check_keys(spec, {"level", "kind"}, "signal.snr_preset")
        try:
            params, w_star = load_snr_preset(
                n_agents, _structural(spec, "level", "signal.snr_preset"),
                _structural(spec, "kind", "signal.snr_preset"))
        except ValueError as exc:
            raise ConfigError(str(exc)) from None
        return params, w_star
    if "agents" in raw:
        entries = raw["agents"]
        if isinstance(entries, dict):
            entries = [entries] * n_agents
        if len(entries) != n_agents:
            raise ConfigError(
                f"signal.agents lists {len(entries)} agents, "
                f"topology has {n_agents}")
        params = []
        for entry in entries:
            _check_keys(entry, {"sigma_x2", "sigma_z2", "filter_len",
                                "regressor_kind"}, "signal agent entry")
            params.append(AgentSignalParams(**entry))
        return params, None
    raise ConfigError("signal needs snr_preset or explicit agent parameters")


def _schedule_from_dict(raw, w_star, n_agents):
    if raw is None:
        if w_star is None:
            raise ConfigError(
                "targets are required unless the signal preset supplies them")
        return TargetSchedule.constant(np.tile(w_star, (n_agents, 1)))
    _check_keys(raw, {"constant", "stages", "transition_len"}, "targets")
    if "constant" in raw:
        return TargetSchedule.constant(raw["constant"])
    if "stages" in raw:
        stages = []
        for entry in raw["stages"]:
            _check_keys(entry, {"start", "targets"}, "target stage")
            stages.append((_structural(entry, "start", "target stage"),
                           np.array(_structural(entry, "targets", "target stage"),
                                    dtype=float)))
        return TargetSchedule(stages=tuple(stages),
                              transition_len=raw.get("transition_len", 0))
    raise ConfigError("targets need a constant value or explicit stages")


def _component_from_dict(topology, raw):
    _check_keys(raw, _COMPONENT_KEYS, "component")
    mu = _structural(raw, "mu", "component")
    a2_mode = raw.get("a2_mode", "static")
    kwargs = {}
    if a2_mode == "static":
        kwargs["a2"] = _combination_matrix(topology, raw.get("a2", "identity"),
                                           "left")
    elif "a2" in raw:
        raise ConfigError("adaptive fusion modes do not take a static a2")
    if "tau" in raw:
        kwargs["tau"] = raw["tau"]
    return StrategyConfig(
        topology=topology,
        a1=_combination_matrix(topology, raw.get("a1", "identity"), "left"),
        c=_combination_matrix(topology, raw.get("c", "identity"), "right"),
        mu=mu,
        a2_mode=a2_mode,
        **kwargs,
    )


def config_from_dict(raw: dict, base_dir=".") -> ExperimentConfig:
    """Build an ExperimentConfig from a parsed setting table.

    Structural problems raise ConfigError; invalid values raise the
    underlying ValueError of the component being configured.
    """
    _check_keys(raw, _TOP_LEVEL_KEYS, "experiment config")
    topology = _topology_from_dict(_structural(raw, "topology", "experiment config"),
                                   base_dir)
    params, w_star = _signal_from_dict(
        _structural(raw, "signal", "experiment config"), topology.n_agents)
    schedule = _schedule_from_dict(raw.get("targets"), w_star, topology.n_agents)
    comp_entries = _structural(raw, "components", "experiment config")
    if not isinstance(comp_entries, list):
        raise ConfigError("components must be a list")
    components = [_component_from_dict(topology, entry) for entry in comp_entries]
    comb_raw = _structural(raw, "combiner", "experiment config")
    if not isinstance(comb_raw, dict):
        raise ConfigError("combiner must be a table of settings")
    try:
        combiner = CombinerConfig(**comb_raw)
    except TypeError:
        raise ConfigError("combiner has unknown settings") from None
    outputs = raw.get("outputs")
    return ExperimentConfig(
        topology=topology,
        signal_params=params,
        schedule=schedule,
        components=components,
        combiner=combiner,
        horizon=int(_structural(raw, "horizon", "experiment config")),
        runs=int(_structural(raw, "runs", "experiment config")),
        seed=int(_structural(raw, "seed", "experiment config")),
        outputs=tuple(outputs) if outputs is not None else None,
        gamma_init=raw.get("gamma_init"),
        source=raw,
        label=raw.get("label"),
    )


def load_config(path) -> ExperimentConfig:
    """Read an experiment description from a JSON file."""
    path = Path(path)
    try:
        text = path.read_text()
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from None
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config file {path} is not valid JSON: {exc}") from None
    if not isinstance(raw, dict):
        raise ConfigError("config file must hold a single setting table")
    return config_from_dict(raw, base_dir=path.parent)


def _regressor_covariances(cfg: ExperimentConfig) -> np.ndarray:
    return np.stack([regressor_covariance(p) for p in cfg.signal_params])


def check_step_sizes(cfg: ExperimentConfig) -> None:
    """Refuse step-sizes at or above the mean-stability bound.

    Every agent k of every component needs
    mu_k < 2 / lambda_max(sum_l c_lk R_{x,l}); the bound depends only on
    the data and C, so it covers the adaptive fusion rules as well.
    """
    rx = _regressor_covariances(cfg)
    for i, comp in enumerate(cfg.components, start=1):
        bound = mu_bounds(comp.c.entries, rx)
        bad = np.flatnonzero(comp.mu >= bound)
        if bad.size:
            k = bad[0]
            raise ValueError(
                f"component {i} agent {k + 1}: step-size {comp.mu[k]:g} is "
                f"not below the mean-stability bound {bound[k]:.6g}")


def preset_names() -> tuple:
    """Names of the bundled experiment presets."""
    root = resources.files("diffcomb").joinpath("presets")
    return tuple(sorted(
        entry.name[:-5] for entry in root.iterdir()
        if entry.name.endswith(".json")
    ))


def load_preset_config(name: str) -> ExperimentConfig:
    """Load a bundled experiment preset by name."""
    entry = resources.files("diffcomb").joinpath("presets", f"{name}.json")
    try:
        raw = json.loads(entry.read_text())
    except FileNotFoundError:
        raise ConfigError(
            f"no bundled preset named {name!r}; "
            f"available: {', '.join(preset_names())}") from None
    return config_from_dict(raw)


def resolve_config(spec: str) -> ExperimentConfig:
    """Interpret a CLI config argument as a file path or a preset name."""
    path = Path(spec)
    if path.exists():
        return load_config(path)
    if path.suffix == "" and "/" not in spec:
        return load_preset_config(spec)
    raise ConfigError(f"config file {spec} does not exist")


# ---------------------------------------------------------------------------
# Monte Carlo execution


def series_names(cfg: ExperimentConfig) -> list:
    """Ordered names of the series an experiment produces."""
    m = len(cfg.components)
    pair = cfg.combiner.scheme != "multi_sign"
    names = [f"msd_network_{i + 1}" for i in range(m)]
    names.append("msd_combined")
    if pair:
        names.append("msd_cross")
    names += [f"emse_network_{i + 1}" for i in range(m)]
    names.append("emse_network_combined")
    if pair:
        names.append("emse_network_cross")
        names += [f"gamma_mean_a{k + 1}" for k in range(cfg.n_agents)]
        names += [f"gamma_sq_a{k + 1}" for k in range(cfg.n_agents)]
    else:
        names += [f"gamma_mean_c{i + 1}_a{k + 1}"
                  for i in range(m) for k in range(cfg.n_agents)]
        names += [f"gamma_sq_c{i + 1}_a{k + 1}"
                  for i in range(m) for k in range(cfg.n_agents)]
    return names


def _power_sums(parts, left, right, out) -> None:
    """Write into out the sums of parts[i] * parts[j] over the row pairs
    (i, j) of zip(left, right); the rows stack the components, then
    their combination."""
    flat = parts.reshape(len(parts), -1)
    np.add.reduce(flat.take(left, 0) * flat.take(right, 0), axis=1, out=out)


def _simulate_chunk(cfg: ExperimentConfig, stack: StrategyStack,
                    run_indices) -> np.ndarray:
    """Advance one block of runs of the stacked components and return
    per-step sums over the block, a (horizon, series) table in
    series_names order."""
    n, m = cfg.n_agents, len(cfg.components)
    pair = cfg.combiner.scheme != "multi_sign"
    if pair:
        update = (pn_update if cfg.combiner.scheme == "power_normalized"
                  else sr_update)

        def driver(rep):
            return rep.y[0] - rep.y[1]
    else:
        update = multi_update

        def driver(rep):
            return np.moveaxis(rep.e[:m], 0, -2)

    r = len(run_indices)
    sampler = ChunkedSampler(cfg.signal_params, cfg.schedule, cfg.seed,
                             run_indices, horizon=cfg.horizon)
    st = init_state(stack, cfg.filter_len, batch_shape=(r,))
    comb = init_combiner(cfg.combiner, n, batch_shape=(r,))
    if cfg.gamma_init is not None:
        comb.gamma = np.full_like(comb.gamma, float(cfg.gamma_init))

    # rows 0..M-1 the component estimates, row M their combination
    est = np.empty((m + 1,) + st.w.shape[1:])
    est[:m] = st.w
    combine_weights(comb, est[:m], out=est[m])
    table = np.empty((cfg.horizon, len(series_names(cfg))))
    left = right = np.arange(m + 1)
    if pair:
        left, right = np.append(left, 0), np.append(right, 1)
    k = len(left)  # columns of each power family
    gammas = table[:, 2 * k:].reshape(cfg.horizon, 2, *comb.gamma.shape[1:])
    for t in range(cfg.horizon):
        batch = sampler.step()
        rep = errors_and_outputs(est, batch)
        comb = update(cfg.combiner, comb, rep.e[m], driver(rep))
        st = step(stack, st, batch, rep.e[:m])
        est[:m] = st.w
        combine_weights(comb, est[:m], out=est[m])
        row = table[t]
        _power_sums(est - batch.targets, left, right, row[:k])
        row[:k] /= n
        _power_sums(rep.e_tilde, left, right, row[k:2 * k])
        np.add.reduce(comb.gamma, axis=0, out=gammas[t, 0])
        np.add.reduce(comb.gamma * comb.gamma, axis=0, out=gammas[t, 1])
    return table


def _resolve_workers(workers) -> int:
    if workers is None:
        env = os.environ.get(WORKERS_ENV)
        workers = int(env) if env else 1
    return max(1, int(workers))


def run_monte_carlo(cfg: ExperimentConfig, run_indices=None,
                    workers=None) -> AggregateResult:
    """Average the configured experiment over seeded Monte Carlo runs.

    run_indices defaults to range(cfg.runs); passing an explicit list
    reruns exactly those seeds (repeats are allowed, which makes the
    degenerate equal-seed aggregate testable).  workers defaults to the
    DIFFCOMB_WORKERS environment variable, then to serial execution.
    The result is identical for every worker count.  A series that is
    not finite at some instant raises ValueError naming the first such
    instant and series.
    """
    if run_indices is None:
        run_indices = range(cfg.runs)
    run_indices = [int(i) for i in run_indices]
    if not run_indices:
        raise ValueError("need at least one run index")
    chunks = [run_indices[i:i + CHUNK_RUNS]
              for i in range(0, len(run_indices), CHUNK_RUNS)]
    stack = StrategyStack.of(cfg.components)
    workers = _resolve_workers(workers)
    if workers > 1 and len(chunks) > 1:
        # the fork start method launches every worker at the first submit
        with ProcessPoolExecutor(max_workers=min(workers, len(chunks))) as pool:
            parts = list(pool.map(_simulate_chunk, [cfg] * len(chunks),
                                  [stack] * len(chunks), chunks))
    else:
        parts = [_simulate_chunk(cfg, stack, chunk) for chunk in chunks]

    names = series_names(cfg)
    total = np.zeros((cfg.horizon, len(names)))
    for part in parts:  # chunk order, independent of scheduling
        total += part
    bad = np.argwhere(~np.isfinite(total))
    if bad.size:
        t, j = bad[0]
        raise ValueError(f"the simulation diverged: {names[j]} is not "
                         f"finite at instant {t}")
    return AggregateResult(horizon=cfg.horizon, runs=len(run_indices),
                           n_agents=cfg.n_agents,
                           series=dict(zip(names, total.T / len(run_indices))),
                           seed=cfg.seed, config_hash=cfg.config_hash)


# ---------------------------------------------------------------------------
# theory path


def run_theory(cfg: ExperimentConfig) -> TheoryResult:
    """Predicted series for the configured pair over the full horizon.

    Each stationary stage gets its own moment description and steady
    report; at a stage boundary the moment state is re-expressed against
    the new target and evolution continues.  The predictor holds the
    previous target through a transition ramp, so predicted and
    simulated curves are comparable only inside stationary stretches.
    Raises InstabilityError when a stage has no steady state and
    ValueError for the multi-component scheme.
    """
    n = cfg.n_agents
    rx = _regressor_covariances(cfg)
    sigma_z2 = np.array([p.sigma_z2 for p in cfg.signal_params])
    t_max = cfg.horizon

    table = np.empty((t_max, len(series_names(cfg))))
    state = None
    prev_target = None
    gamma0 = 0.5 if cfg.gamma_init is None else float(cfg.gamma_init)
    g_prev = np.full(n, gamma0)
    g2_prev = np.full(n, gamma0 ** 2)
    steady_entries = []
    stages = cfg.schedule.stages
    for i, (start, target) in enumerate(stages):
        if start >= t_max:
            break
        end = min(stages[i + 1][0] if i + 1 < len(stages) else t_max, t_max)
        pair = PairModel(*(build_component_model(cfg.topology, comp, rx,
                                                 sigma_z2, target)
                           for comp in cfg.components[:2]))
        if state is None:
            state = initial_moments(pair, gamma0=gamma0)
        else:
            state = shift_targets(
                state, prev_target.reshape(-1) - target.reshape(-1))
        traj = evolve(pair, cfg.combiner, end - start, state=state)
        # the combined error at an instant mixes with the coefficient
        # moments produced one update earlier
        gp = np.vstack([g_prev, traj.gbar[:-1]])
        g2p = np.vstack([g2_prev, traj.g2bar[:-1]])
        emse_comb = (g2p * traj.emse1 + (1.0 - 2.0 * gp + g2p) * traj.emse2
                     + 2.0 * (gp - g2p) * traj.emse12)
        emse = (traj.emse1, traj.emse2, emse_comb, traj.emse12)
        table[start:end] = np.column_stack((
            traj.msd1, traj.msd2, traj.combined_msd, traj.cross_msd,
            *(np.sum(e, axis=1) for e in emse), traj.gbar, traj.g2bar))
        g_prev, g2_prev = traj.gbar[-1], traj.g2bar[-1]
        state = traj.state
        prev_target = target
        steady_entries.append(
            (start, steady_state(pair, cfg.combiner)))

    return TheoryResult(horizon=t_max, n_agents=n,
                        series=dict(zip(series_names(cfg), table.T)),
                        steady=tuple(steady_entries),
                        config_hash=cfg.config_hash)


# ---------------------------------------------------------------------------
# comparison


@dataclass(frozen=True)
class SeriesComparison:
    """Deviation summary of one series between two results."""

    name: str
    kind: str
    max_abs_dev: float
    steady_abs_dev: float
    tol: float
    passed: bool


@dataclass(frozen=True)
class ComparisonReport:
    """Per-series deviations plus the windows used for steady readouts."""

    entries: tuple
    windows: tuple

    @property
    def passed(self) -> bool:
        return all(entry.passed for entry in self.entries)


def _to_db(values: np.ndarray) -> np.ndarray:
    values = np.asarray(values, dtype=float)
    out = np.full(values.shape, np.nan)
    positive = values > 0
    out[positive] = 10.0 * np.log10(values[positive])
    return out


def _window_mean(values, windows):
    return [np.nanmean(values[lo:hi]) for lo, hi in windows]


def compare(sim, theory, tol_msd_db=1.0, tol_gamma=0.05,
            window_frac=0.1, windows=None, names=None) -> ComparisonReport:
    """Deviations between two result objects sharing series names.

    Power series (msd/emse prefixes) are compared in decibels, the
    coefficient series linearly.  The pointwise maximum over the whole
    horizon is informational; pass/fail uses the steady readout, the
    window mean of each series, over the final window_frac of the
    horizon (or explicit (lo, hi) windows).
    """
    if sim.horizon != theory.horizon:
        raise ValueError("results cover different horizons")
    t_max = sim.horizon
    if windows is None:
        lo = t_max - max(1, int(round(window_frac * t_max)))
        windows = [(max(lo, 0), t_max)]
    windows = tuple((int(lo), int(hi)) for lo, hi in windows)
    for lo, hi in windows:
        if not 0 <= lo < hi <= t_max:
            raise ValueError(f"window ({lo}, {hi}) does not fit the horizon")

    common = [name for name in sim.series if name in theory.series]
    if names is not None:
        missing = sorted(set(names) - set(common))
        if missing:
            raise ValueError(f"series {missing} absent from both results")
        common = [name for name in common if name in set(names)]

    entries = []
    for name in common:
        a = np.asarray(sim.series[name], dtype=float)
        b = np.asarray(theory.series[name], dtype=float)
        if name.startswith(("msd", "emse")):
            kind, tol = "db", tol_msd_db
            point = np.abs(_to_db(a) - _to_db(b))
            readout_a = _to_db(np.array(_window_mean(a, windows)))
            readout_b = _to_db(np.array(_window_mean(b, windows)))
        elif name.startswith("gamma"):
            kind, tol = "linear", tol_gamma
            point = np.abs(a - b)
            readout_a = np.array(_window_mean(a, windows))
            readout_b = np.array(_window_mean(b, windows))
        else:
            continue
        with np.errstate(invalid="ignore"):
            max_dev = float(np.nanmax(point)) if np.any(np.isfinite(point)) \
                else float("nan")
        steady = float(np.max(np.abs(readout_a - readout_b)))
        passed = bool(np.isfinite(steady) and steady <= tol)
        entries.append(SeriesComparison(name=name, kind=kind,
                                        max_abs_dev=max_dev,
                                        steady_abs_dev=steady,
                                        tol=tol, passed=passed))
    return ComparisonReport(entries=tuple(entries), windows=windows)


# ---------------------------------------------------------------------------
# export and reload


def _export_names(result, columns):
    names = list(result.series)
    if columns is not None:
        missing = sorted(set(columns) - set(names))
        if missing:
            raise ValueError(f"requested series {missing} do not exist")
        names = [name for name in names if name in set(columns)]
    return names


def _export_matrix(result, names):
    t_max = result.horizon
    data = np.empty((t_max, len(names) + 1))
    data[:, 0] = np.arange(t_max)
    for j, name in enumerate(names):
        values = np.asarray(result.series[name], dtype=float)
        data[:, j + 1] = _to_db(values) if name.startswith(("msd", "emse")) \
            else values
    return data


def export_csv(result, path, columns=None) -> None:
    """Write a result as CSV: time index column plus one series per column.

    Power series are stored in decibels (nan for nonpositive values),
    coefficient series linearly.  Identical results produce identical
    bytes.
    """
    names = _export_names(result, columns)
    data = _export_matrix(result, names)
    with open(path, "w", newline="") as fh:
        fh.write("n," + ",".join(names) + "\n")
        np.savetxt(fh, data, delimiter=",",
                   fmt=["%d"] + ["%.17g"] * len(names))


def export_json(result, path, columns=None) -> None:
    """Write a result as JSON mirroring the CSV plus run metadata."""
    names = _export_names(result, columns)
    data = _export_matrix(result, names)
    payload = {
        "metadata": result.metadata(),
        "columns": ["n"] + names,
        "series": {name: data[:, j + 1].tolist()
                   for j, name in enumerate(names)},
    }
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2)
        fh.write("\n")


def export(result, path, fmt=None, columns=None) -> None:
    """Write a result to path; the format follows the extension unless given."""
    if fmt is None:
        fmt = Path(path).suffix.lstrip(".").lower() or "csv"
    if fmt == "csv":
        export_csv(result, path, columns=columns)
    elif fmt == "json":
        export_json(result, path, columns=columns)
    else:
        raise ValueError(f"unknown export format {fmt!r}")


def _series_from_columns(names, matrix):
    series = {}
    for j, name in enumerate(names):
        column = matrix[:, j + 1]
        if name.startswith(("msd", "emse")):
            series[name] = 10.0 ** (column / 10.0)
        else:
            series[name] = column.copy()
    return series


def load_result(path) -> SeriesBundle:
    """Reload an exported file, mapping power series back to linear units.

    Instants whose power was nonpositive were stored as nan and stay nan.
    """
    path = Path(path)
    if path.suffix.lower() == ".json":
        payload = json.loads(path.read_text())
        names = [name for name in payload["columns"] if name != "n"]
        t_max = len(payload["series"][names[0]]) if names else 0
        matrix = np.empty((t_max, len(names) + 1))
        matrix[:, 0] = np.arange(t_max)
        for j, name in enumerate(names):
            matrix[:, j + 1] = np.asarray(payload["series"][name], dtype=float)
        return SeriesBundle(horizon=t_max,
                            series=_series_from_columns(names, matrix),
                            metadata_values=payload.get("metadata"))
    with open(path) as fh:
        header = fh.readline().strip().split(",")
        matrix = np.loadtxt(fh, delimiter=",", ndmin=2)
    names = header[1:]
    return SeriesBundle(horizon=matrix.shape[0],
                        series=_series_from_columns(names, matrix))
