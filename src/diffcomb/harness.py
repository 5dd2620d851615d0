"""Experiment orchestration around the strategies and their moment models.

An experiment couples a network, per-agent data statistics, a target
schedule, at least two component strategies, and a combination layer.
The same description drives three paths: seeded Monte Carlo simulation,
the deterministic moment recursions, and a comparison of the two.

Monte Carlo runs are split into fixed-size chunks of consecutive run
indices, each reduced on its own; chunk partial sums are added in chunk
order, so the aggregate is bit-identical no matter how many worker
processes run them.  A group of consecutive chunks is one batched run.

Within a group the M component estimates and their combination are one
tap-major (M+1, runs, L, N) array, agents on the last axis.  Each
instant reads it once for the outputs and errors, updates the combiner
once, advances all M components with one step (a ``StrategyStack``
built once per experiment) and writes the next stack.  Blocks of up to
2**15 estimate values of one chunk (at least one instant) reduce each
power family with one sum per chunk, straight into its table; the
sampler draws blocks of up to 2**19 values, one random stream per run.
"""

from __future__ import annotations

import hashlib
import json
from collections import namedtuple
from dataclasses import dataclass, fields, replace
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
from .graph import (ConfigError, StochasticMatrix, Topology, build_preset,
                    read_edge_list, static_rule)
from .signal import (
    AgentSignalParams,
    ChunkedSampler,
    TargetSchedule,
    integer_value,
    load_snr_preset,
    per_agent,
    regressor_covariance,
    require_scalar,
)
from .theory import (
    build_component_model,
    evolve,
    initial_moments,
    mix,
    mu_bounds,
    steady_state,
)

CHUNK_RUNS = 25
_BLOCK_VALUES = 2 ** 15  # estimate values per reduction block

_TOP_LEVEL_KEYS = {
    "topology", "signal", "targets", "components", "combiner",
    "horizon", "runs", "seed", "outputs", "gamma_init", "label",
}
_COMPONENT_KEYS = {"a1", "c", "a2", "a2_mode", "mu", "tau"}


class ExportError(Exception):
    """A file that load_result cannot read as an exported result: not a
    table of equal-length numeric series."""


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

    def __post_init__(self):
        for name, least in (("horizon", 1), ("runs", 1), ("seed", 0)):
            setattr(self, name, integer_value(name, getattr(self, name), least))
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
        m, pair = len(self.components), self.combiner.scheme != "multi_sign"
        if m < 2 or (pair and m != 2):
            raise ValueError(f"the {self.combiner.scheme} combiner needs "
                             f"{'exactly' if pair else 'at least'} two "
                             f"component strategies, got {m}")
        for comp in self.components:
            if not np.array_equal(comp.topology.adjacency,
                                  self.topology.adjacency):
                raise ValueError("component strategies must share the network")
        if self.gamma_init is not None:
            if not pair:
                raise ValueError("gamma_init applies to two-component schemes only")
            require_scalar("gamma_init", self.gamma_init)
            self.gamma_init = float(self.gamma_init)
        per_agent("nu_gamma", self.combiner.nu_gamma, (n,))
        per_agent("nu_alpha", self.combiner.nu_alpha, (m, n),
                  "component and agent")
        if self.outputs is not None and not self.outputs:
            raise ValueError("outputs must name at least one series")
        unknown = sorted(set(self.outputs or ()) - set(series_layout(self).names))
        if unknown:
            raise ValueError(f"outputs name unknown series {unknown}")

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
class SeriesResult:
    """Named series over a horizon: simulated, predicted or reloaded.

    series maps names to (horizon,) arrays in linear units; conversion
    to series_units happens only at export.  Error-power rows hold the
    pre-update errors of each instant, deviation and coefficient rows
    the post-update state, in both engines.  metadata is the header of
    the JSON export (kind, horizon, runs, n_agents, seed, config_hash),
    empty after a CSV reload.  steady holds one (stage_start,
    SteadyReport) pair per stage of a prediction and is empty otherwise.
    """

    horizon: int
    series: dict
    metadata: dict
    steady: tuple = ()


def _result(cfg, table, kind, runs, seed, steady=()) -> SeriesResult:
    """The result of a (horizon, series) table in series_layout order; a
    diverged one raises ValueError naming its first non-finite entry."""
    names = series_layout(cfg).names
    bad = np.argwhere(~np.isfinite(table))
    if bad.size:
        t, j = bad[0]
        engine = "simulation" if kind == "monte_carlo" else "prediction"
        raise ValueError(f"the {engine} diverged: {names[j]} is not "
                         f"finite at instant {t}")
    metadata = dict(kind=kind, horizon=cfg.horizon, runs=runs,
                    n_agents=cfg.n_agents, seed=seed, config_hash=cfg.config_hash)
    return SeriesResult(cfg.horizon, dict(zip(names, table.T)), metadata,
                        tuple(steady))


# ---------------------------------------------------------------------------
# configuration loading


def _structural(mapping, key, context):
    try:
        return mapping[key]
    except (KeyError, TypeError):
        raise ConfigError(f"{context} is missing {key!r}") from None


def _name(mapping, key, context):
    """The string setting context.key, refused unless it is one."""
    value = _structural(mapping, key, context)
    if not isinstance(value, str):
        raise ConfigError(f"{context}.{key} must be a string")
    return value


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
            return build_preset(_name(raw, "preset", "topology"))
        except ValueError as exc:
            raise ConfigError(str(exc)) from None
    if "edges" in raw:
        path = Path(base_dir) / _name(raw, "edges", "topology")
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
                n_agents, _name(spec, "level", "signal.snr_preset"),
                _name(spec, "kind", "signal.snr_preset"))
        except ValueError as exc:
            raise ConfigError(str(exc)) from None
        return params, w_star
    if "agents" in raw:
        entries = raw["agents"]
        if isinstance(entries, dict):
            entries = [entries] * n_agents
        if not isinstance(entries, list):
            raise ConfigError("signal.agents must be a list or one agent entry")
        if len(entries) != n_agents:
            raise ConfigError(
                f"signal.agents lists {len(entries)} agents, "
                f"topology has {n_agents}")
        params = []
        for entry in entries:
            _check_keys(entry, {"sigma_x2", "sigma_z2", "filter_len",
                                "regressor_kind"}, "signal agent entry")
            for key in ("sigma_x2", "sigma_z2", "filter_len"):
                _structural(entry, key, "signal agent entry")
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
        if not isinstance(raw["stages"], list):
            raise ConfigError("targets.stages must be a list of stages")
        stages = []
        for entry in raw["stages"]:
            _check_keys(entry, {"start", "targets"}, "target stage")
            stages.append((_structural(entry, "start", "target stage"),
                           _structural(entry, "targets", "target stage")))
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
        if a2_mode != "adaptive_relative_variance":
            raise ConfigError("only adaptive_relative_variance takes tau")
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
    _check_keys(comb_raw, {f.name for f in fields(CombinerConfig)}, "combiner")
    _structural(comb_raw, "scheme", "combiner")
    combiner = CombinerConfig(**comb_raw)
    outputs = raw.get("outputs")
    if outputs is not None and not (isinstance(outputs, list) and all(
            isinstance(name, str) for name in outputs)):
        raise ConfigError("outputs must be a list of series names")
    return ExperimentConfig(
        topology=topology,
        signal_params=params,
        schedule=schedule,
        components=components,
        combiner=combiner,
        horizon=_structural(raw, "horizon", "experiment config"),
        runs=_structural(raw, "runs", "experiment config"),
        seed=_structural(raw, "seed", "experiment config"),
        outputs=tuple(outputs) if outputs is not None else None,
        gamma_init=raw.get("gamma_init"),
        source=raw,
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


SeriesLayout = namedtuple("SeriesLayout", "names msd emse gamma")


def series_layout(cfg: ExperimentConfig) -> SeriesLayout:
    """Ordered series names and the column slice of each family: msd and
    emse each hold the M components, the combination and, for a pair, the
    cross moment; gamma every per-agent mean, then every mean square."""
    m, pair = len(cfg.components), cfg.combiner.scheme != "multi_sign"
    numbered = [str(i + 1) for i in range(m)]
    tail = ["combined", "cross"][:1 + pair]
    agents = [f"a{k + 1}" for k in range(cfg.n_agents)]
    if not pair:
        agents = [f"c{i}_{a}" for i in numbered for a in agents]
    names = ([f"msd_network_{i}" for i in numbered] + [f"msd_{s}" for s in tail]
             + [f"emse_network_{s}" for s in numbered + tail]
             + [f"gamma_{moment}_{a}" for moment in ("mean", "sq") for a in agents])
    k = m + 1 + pair
    return SeriesLayout(names, slice(0, k), slice(k, 2 * k),
                        slice(2 * k, len(names)))


def _power_sums(parts, pair, cross, out) -> None:
    """Write into out (b, rows + pair) the sum of each squared row of parts
    (b, rows, ...), squared in place, and for a pair scheme of row 0 times
    row 1, formed in the heads of the rows of cross."""
    flat = parts.reshape(parts.shape[:2] + (-1,))
    if pair:
        prods = cross[:len(flat), :flat.shape[2]]
        np.multiply(flat[:, 0], flat[:, 1], out=prods)
        np.add.reduce(prods, axis=-1, out=out[:, -1])
    flat *= flat
    np.add.reduce(flat, axis=-1, out=out[:, :flat.shape[1]])


def _simulate_chunk(cfg: ExperimentConfig, stack: StrategyStack,
                    chunks) -> np.ndarray:
    """Advance a group of consecutive chunks of runs of the stacked
    components in one pass of the time loop and return, for each chunk on
    its own, per-step sums over its runs: a (chunks, horizon, series)
    array of tables in series_layout order.  A chunk's table does not
    depend on the group it runs in."""
    n, m = cfg.n_agents, len(cfg.components)
    pair = cfg.combiner.scheme != "multi_sign"
    update = {"power_normalized": pn_update, "sign_regressor": sr_update,
              "multi_sign": multi_update}[cfg.combiner.scheme]
    if pair:
        def driver(rep):
            return rep.y[0] - rep.y[1]
    else:
        def driver(rep):
            return np.moveaxis(rep.e[:m], 0, -2)

    runs = [run for chunk in chunks for run in chunk]
    ends = np.cumsum([len(chunk) for chunk in chunks]).tolist()
    sampler = ChunkedSampler(cfg.signal_params, cfg.schedule, cfg.seed,
                             runs, horizon=cfg.horizon)
    st = init_state(stack, cfg.filter_len, batch_shape=(len(runs),))
    comb = init_combiner(cfg.combiner, m, n, batch_shape=(len(runs),))
    if cfg.gamma_init is not None:
        comb.gamma = np.full_like(comb.gamma, cfg.gamma_init)

    # est[j] is the stack before instant j of a block: rows 0..M-1 the
    # component estimates, row M their combination; a block holds one
    # chunk's worth of values, so the group only widens each instant
    size = len(chunks[0]) * n * cfg.filter_len
    width = max(1, min(cfg.horizon, _BLOCK_VALUES // ((m + 1) * size)))
    est = np.empty((width + 1, m + 1) + st.w.shape[1:])
    est[0, :m] = st.w
    combine_weights(comb, est[0, :m], out=est[0, m])
    e_tilde = np.empty((width, m + 1, len(runs), n))
    gamma = np.empty((width,) + comb.gamma.shape)
    targets = np.empty((width, cfg.filter_len, n))
    cross = np.empty((width, size))
    layout = series_layout(cfg)
    tables = np.empty((len(chunks), cfg.horizon, len(layout.names)))
    gammas = tables[:, :, layout.gamma].reshape(
        len(chunks), cfg.horizon, 2, *comb.gamma.shape[1:])
    for t in range(0, cfg.horizon, width):
        b = min(width, cfg.horizon - t)
        for j in range(b):
            batch = sampler.step()
            rep = errors_and_outputs(est[j], batch)
            comb = update(cfg.combiner, comb, rep.e[m], driver(rep))
            st = step(stack, st, batch, rep.e[:m])
            est[j + 1, :m] = st.w
            combine_weights(comb, st.w, out=est[j + 1, m])
            e_tilde[j] = rep.e_tilde
            gamma[j] = comb.gamma
            targets[j] = batch.targets
            del batch  # so that a refill can free the spent sampler block
        est[0] = est[b]
        dev, err = est[1:b + 1], e_tilde[:b]
        dev -= targets[:b, None, None]
        for table, sums, lo, hi in zip(tables, gammas, [0] + ends, ends):
            rows = table[t:t + b]
            _power_sums(dev[:, :, lo:hi], pair, cross, rows[:, layout.msd])
            _power_sums(err[:, :, lo:hi], pair, cross, rows[:, layout.emse])
            rows[:, layout.msd] /= n
            g = gamma[:b, lo:hi]
            np.add.reduce(g, axis=1, out=sums[t:t + b, 0])
            g *= g
            np.add.reduce(g, axis=1, out=sums[t:t + b, 1])
    return tables


def run_monte_carlo(cfg: ExperimentConfig, workers=1) -> SeriesResult:
    """Average the configured experiment over its cfg.runs seeded Monte
    Carlo runs on workers processes (serial by default; 0 counts as 1).

    The result is identical for every worker count.  Consecutive chunks
    advance in groups: at most ceil(chunks/workers) chunks, and no more
    than fit one reduction block's values.  A series that is not finite
    at some instant raises ValueError naming the first such instant and
    series.
    """
    workers = max(1, integer_value("workers", workers, 0))
    chunks = [range(i, min(i + CHUNK_RUNS, cfg.runs))
              for i in range(0, cfg.runs, CHUNK_RUNS)]
    stack = StrategyStack.of(cfg.components)
    per_chunk = (len(cfg.components) + 1) * CHUNK_RUNS * cfg.n_agents * cfg.filter_len
    group = max(1, min(-(-len(chunks) // workers), _BLOCK_VALUES // per_chunk))
    groups = [chunks[i:i + group] for i in range(0, len(chunks), group)]
    args = [cfg] * len(groups), [stack] * len(groups), groups
    if workers > 1 and len(groups) > 1:
        # imported here, as only pool runs need multiprocessing; the fork
        # start method launches every worker at the first submit
        from concurrent.futures import ProcessPoolExecutor
        with ProcessPoolExecutor(max_workers=min(workers, len(groups))) as pool:
            parts = list(pool.map(_simulate_chunk, *args))
    else:
        parts = list(map(_simulate_chunk, *args))

    total = np.zeros(parts[0].shape[1:])
    for table in (table for part in parts for table in part):  # chunk order
        total += table
    return _result(cfg, total / cfg.runs, "monte_carlo", cfg.runs, cfg.seed)


# ---------------------------------------------------------------------------
# theory path


def theory_covers(cfg: ExperimentConfig) -> bool:
    """Whether the moment theory predicts this experiment: a
    two-component scheme whose components fuse with a static a2."""
    return (cfg.combiner.scheme != "multi_sign"
            and all(comp.a2_mode == "static" for comp in cfg.components))


def run_theory(cfg: ExperimentConfig) -> SeriesResult:
    """Predicted series for the configured pair over the full horizon.

    One moment description serves the whole experiment.  Each stationary
    stage points it at the stage's target with dataclasses.replace, which
    only the drive of the means and the readouts see; the moment state,
    which holds mean estimates, carries over the boundary as it is.  One
    steady_state call, before any instant evolves, gives each stage its
    own steady report.  The predictor holds the previous target through
    a transition ramp, so predicted and simulated curves are comparable
    only inside stationary stretches.
    Raises ValueError, before building any model, for an experiment
    theory_covers rejects, and after evolving, naming the first instant
    and series that is not finite, for recursions that diverged;
    InstabilityError, before evolving, when the pair has no steady state.
    """
    if not theory_covers(cfg):
        raise ValueError("the moment theory covers two-component schemes "
                         "with static a2 fusion only")
    t_max = cfg.horizon
    layout = series_layout(cfg)
    table = np.empty((t_max, len(layout.names)))
    stages = [stage for stage in cfg.schedule.stages if stage[0] < t_max]
    starts = [start for start, _ in stages]
    targets = np.array([np.ravel(target) for _, target in stages])
    pair = build_component_model(
        cfg.topology, cfg.components, _regressor_covariances(cfg),
        np.array([p.sigma_z2 for p in cfg.signal_params]), stages[0][1])
    steady = zip(starts, steady_state(pair, cfg.combiner, targets))
    state = initial_moments(
        pair, gamma0=0.5 if cfg.gamma_init is None else cfg.gamma_init)
    for start, end, target in zip(starts, starts[1:] + [t_max], targets):
        pair = replace(pair, w_star=target)
        traj = evolve(pair, cfg.combiner, end - start, state)
        state = traj.state
        # a power family holds (1, 2, combined, cross): deviations after
        # each update, averaged over agents, excess errors before it, summed
        rows, coef = table[start:end], traj.coefficients
        for cols, at, f, reduce in ((layout.msd, slice(1, None), 0, np.mean),
                                    (layout.emse, slice(-1), 1, np.sum)):
            family, t, c = rows[:, cols], traj.record[at, :, f], coef[at]
            family[:, [0, 1, 3]] = reduce(t, axis=-1)
            family[:, 2] = reduce(mix(t, c[:, 0], c[:, 1]), axis=-1)
        rows[:, layout.gamma] = coef[1:].reshape(end - start, -1)
    return _result(cfg, table, "theory", 0, None, steady)


# ---------------------------------------------------------------------------
# comparison


@dataclass(frozen=True)
class SeriesComparison:
    """Deviation summary of one series between two results."""

    name: str
    kind: str
    max_abs_dev: float
    window_devs: tuple
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


def series_units(name: str) -> str | None:
    """Units of a series by its family, the name's first word: "db" for
    power (msd, emse), "linear" for gamma, None for a foreign column."""
    return {"msd": "db", "emse": "db", "gamma": "linear"}.get(name.split("_")[0])


def _stored(name, values) -> np.ndarray:
    """A series in its stored units: decibels for power series, nan
    where the power is nonpositive; linear otherwise."""
    values = np.asarray(values, dtype=float)
    if series_units(name) != "db":
        return values
    out = np.full(values.shape, np.nan)
    positive = values > 0
    out[positive] = 10.0 * np.log10(values[positive])
    return out


def _linear(name, stored) -> np.ndarray:
    """A stored series back in linear units; nan stays nan."""
    stored = np.array(stored, dtype=float)
    return 10.0 ** (stored / 10.0) if series_units(name) == "db" else stored


def stage_windows(horizon, schedule=None, frac=0.1) -> tuple:
    """The last frac in (0, 1] of each stationary stretch, which runs from
    a stage start to the next ramp start or the horizon, as (lo, hi)
    windows of at least one instant; no schedule means one stretch."""
    if not 0 < frac <= 1:
        raise ValueError(f"steady window fraction {frac:g} is outside (0, 1]")
    starts = [s for s, _ in schedule.stages] if schedule is not None else [0]
    ends = [min(s - schedule.transition_len, horizon) for s in starts[1:]]
    return tuple((hi - max(1, int(round(frac * (hi - lo)))), hi)
                 for lo, hi in zip(starts, ends + [horizon]) if lo < hi)


def compare(sim, theory, tol_msd_db=1.0, tol_gamma=0.05,
            windows=None, names=None) -> ComparisonReport:
    """Deviations between two result objects sharing series names.

    Each series is compared in its series_units, foreign columns not at
    all, and ValueError is raised if no series is compared.  The
    pointwise maximum over the whole horizon is informational; pass/fail
    takes the largest magnitude of window_devs, the second's minus the
    first's mean over each (lo, hi) window (default
    stage_windows(sim.horizon)), in stored units.
    """
    if sim.horizon != theory.horizon:
        raise ValueError("results cover different horizons")
    t_max = sim.horizon
    if windows is None:
        windows = stage_windows(t_max)
    windows = tuple((int(lo), int(hi)) for lo, hi in windows)
    for lo, hi in windows:
        if not 0 <= lo < hi <= t_max:
            raise ValueError(f"window ({lo}, {hi}) does not fit the horizon")

    common = [name for name in sim.series if name in theory.series]
    if names is not None:
        missing = sorted(set(names) - set(common))
        if missing:
            raise ValueError(f"series {missing} absent from either result")
        common = [name for name in common if name in set(names)]

    entries = []
    for name in common:
        kind = series_units(name)
        if kind is None:
            continue
        tol = tol_msd_db if kind == "db" else tol_gamma
        a, b = (np.asarray(r.series[name], dtype=float) for r in (sim, theory))
        point = np.abs(_stored(name, a) - _stored(name, b))
        with np.errstate(invalid="ignore"):
            max_dev = float(np.nanmax(point)) if np.any(np.isfinite(point)) \
                else float("nan")
        first, second = (_stored(name, [np.nanmean(x[lo:hi]) for lo, hi in windows])
                         for x in (a, b))
        devs = second - first
        steady = float(np.max(np.abs(devs)))
        passed = bool(np.isfinite(steady) and steady <= tol)
        entries.append(SeriesComparison(
            name=name, kind=kind, max_abs_dev=max_dev,
            window_devs=tuple(devs.tolist()), steady_abs_dev=steady,
            tol=tol, passed=passed))
    if not entries:
        raise ValueError("the results share no power or coefficient series")
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


def export_csv(result, path, columns=None) -> None:
    """Write a result as CSV: time index column plus one series per column.

    Power series are stored in decibels (nan for nonpositive values),
    coefficient series linearly.  Identical results produce identical
    bytes.
    """
    names = _export_names(result, columns)
    data = np.column_stack([np.arange(result.horizon)]
                           + [_stored(name, result.series[name])
                              for name in names])
    with open(path, "w", newline="") as fh:
        fh.write("n," + ",".join(names) + "\n")
        np.savetxt(fh, data, delimiter=",",
                   fmt=["%d"] + ["%.17g"] * len(names))


def export_json(result, path, columns=None) -> None:
    """Write a result as JSON mirroring the CSV plus run metadata."""
    names = _export_names(result, columns)
    payload = {
        "metadata": result.metadata,
        "columns": ["n"] + names,
        "series": {name: _stored(name, result.series[name]).tolist()
                   for name in names},
    }
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2)
        fh.write("\n")


def _is_json(path) -> bool:
    """The format rule of export and load_result alike: a file named
    *.json, in any case, holds JSON; any other name holds CSV."""
    return Path(path).suffix.lower() == ".json"


def export(result, path, columns=None) -> None:
    """Write a result to path in the format its name picks (_is_json)."""
    if _is_json(path):
        export_json(result, path, columns=columns)
    else:
        export_csv(result, path, columns=columns)


def load_result(path) -> SeriesResult:
    """Reload an exported file, mapping power series back to linear units.

    Instants whose power was nonpositive were stored as nan and stay nan.
    The metadata of a JSON file comes back with it; a CSV file has none.
    A file that holds no table of equal-length numeric series, one per
    named column, raises ExportError naming it.
    """
    path = Path(path)
    try:
        if _is_json(path):
            payload = json.loads(path.read_text())
            names = [name for name in payload["columns"] if name != "n"]
            columns = [payload["series"][name] for name in names]
            horizon = len(columns[0]) if columns else 0
            metadata = payload.get("metadata") or {}
        else:
            with open(path) as fh:
                names = fh.readline().strip().split(",")[1:]
                matrix = np.loadtxt(fh, delimiter=",", ndmin=2)
            if matrix.shape[1] != len(names) + 1:
                raise ValueError(f"its header names {len(names)} series, "
                                 f"its rows hold {matrix.shape[1] - 1}")
            columns, horizon, metadata = matrix.T[1:], matrix.shape[0], {}
        series = {name: _linear(name, column)
                  for name, column in zip(names, columns)}
    except (KeyError, TypeError, ValueError) as exc:  # JSONDecodeError too
        raise ExportError(f"{path} is not a result export: {exc}") from None
    if any(values.shape != (horizon,) for values in series.values()):
        raise ExportError(f"{path} is not a result export: its series "
                          "differ in length")
    return SeriesResult(horizon, series, metadata)
