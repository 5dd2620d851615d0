"""Experiment harness tests.

Oracles: the Monte Carlo aggregator is checked against scheduling
invariants (worker count, chunk merging, repeated seeds), the theory
path against hand-assembled first rows and a stage-splitting identity,
and the export layer against exact round trips.  A small end-to-end
experiment ties simulation and prediction together at loose tolerance.
"""

import concurrent.futures
import dataclasses
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from diffcomb import combine, harness, theory
from diffcomb.combine import CombinerConfig
from diffcomb.diffusion import StrategyConfig, StrategyStack, init_state
from diffcomb.graph import StochasticMatrix, Topology, build_preset, static_rule
from diffcomb.harness import (
    ConfigError,
    ExperimentConfig,
    SeriesResult,
    check_step_sizes,
    compare,
    config_from_dict,
    export,
    export_csv,
    export_json,
    load_config,
    load_preset_config,
    load_result,
    preset_names,
    resolve_config,
    run_monte_carlo,
    run_theory,
    series_layout,
    series_units,
    stage_windows,
    theory_covers,
)
from diffcomb.signal import (
    AgentSignalParams,
    ChunkedSampler,
    SampleBatch,
    TargetSchedule,
    load_snr_preset,
    regressor_covariance,
)
from helpers import (
    PAIRS,
    advance,
    assert_same_series,
    dense_model,
    raw_moment_run,
    stack,
    strategy,
)

CHAIN4 = Topology(
    n_agents=4,
    adjacency=np.array([
        [0, 1, 0, 0],
        [1, 0, 1, 0],
        [0, 1, 0, 1],
        [0, 0, 1, 0],
    ], dtype=bool),
)

TARGETS4 = np.array([
    [0.8, -0.3],
    [0.5, 0.9],
    [-0.2, 0.4],
    [1.1, -0.6],
])


# two stages, the second reached over a ramp of five instants
STAGED4 = TargetSchedule(stages=((0, TARGETS4), (15, TARGETS4 - 0.5)),
                         transition_len=5)


def chain_params(filter_len=2, kind="white"):
    """The four agents' signals; kind is one regressor kind for all of
    them or one per agent."""
    kinds = [kind] * 4 if isinstance(kind, str) else kind
    return [
        AgentSignalParams(sigma_x2=1.0 + 0.1 * k, sigma_z2=0.04 + 0.01 * k,
                          filter_len=filter_len, regressor_kind=kinds[k])
        for k in range(4)
    ]


def small_config(scheme="power_normalized", nu=0.01, mu=0.05, horizon=40,
                 runs=6, seed=11, schedule=None, gamma_init=None,
                 components=None):
    if components is None:
        components = [strategy(CHAIN4, mu),
                      strategy(CHAIN4, mu, a2=static_rule(CHAIN4, "averaging"))]
    return ExperimentConfig(
        topology=CHAIN4,
        signal_params=chain_params(),
        schedule=schedule or TargetSchedule.constant(TARGETS4),
        components=components,
        combiner=CombinerConfig(scheme=scheme, nu_gamma=nu),
        horizon=horizon,
        runs=runs,
        seed=seed,
        gamma_init=gamma_init,
    )


def raw_moment_series(cfg):
    """run_theory's series for a power-normalized pair, recomputed stage by
    stage with the uncentered recursion on raw NL x NL second moments
    (helpers.raw_moment_run over helpers.dense_model), and at a stage
    boundary Om + m d^T + d m^T + d d^T for the target shift d."""
    n = cfg.n_agents
    rx = np.stack([regressor_covariance(p) for p in cfg.signal_params])
    sigma_z2 = np.array([p.sigma_z2 for p in cfg.signal_params])
    coefficients = (np.full(n, 0.5), np.full(n, 0.25), np.zeros(n))
    before, after, rows_before, rows_after = [], [], [], []
    m = om = prev = None
    stages = cfg.schedule.stages
    for i, (start, target) in enumerate(stages):
        end = stages[i + 1][0] if i + 1 < len(stages) else cfg.horizon
        model = dense_model(cfg.components, rx, sigma_z2, target)
        w = model.w_star
        if prev is None:
            m, om = np.stack((-w, -w)), np.stack([np.outer(w, w)] * 3)
        else:
            d = prev - w
            om = np.array([om[k] + np.outer(m[a], d) + np.outer(d, m[c])
                           + np.outer(d, d) for k, (a, c) in enumerate(PAIRS)])
            m = m + d
        prev = w
        record, rows, (m, om, coefficients) = raw_moment_run(
            model, cfg.combiner, end - start, m, om, coefficients)
        # deviations after each update, excess errors before it
        before.append(record[:-1, :, 1])
        after.append(record[1:, :, 0])
        rows_before.append(rows[:-1])
        rows_after.append(rows[1:])
    (j1, j2, j12), (t1, t2, tx) = (np.concatenate(v).transpose(1, 0, 2)
                                   for v in (before, after))
    (g_pre, g2_pre), (gammas, squares) = (
        np.concatenate(v).transpose(1, 0, 2) for v in (rows_before, rows_after))
    series = {"msd_network_1": t1.mean(-1), "msd_network_2": t2.mean(-1),
              "msd_combined": np.mean(
                  squares * t1 + (1 - 2 * gammas + squares) * t2
                  + 2 * (gammas - squares) * tx, axis=-1),
              "msd_cross": tx.mean(-1),
              "emse_network_1": j1.sum(-1), "emse_network_2": j2.sum(-1),
              "emse_network_combined": np.sum(
                  g2_pre * j1 + (1 - 2 * g_pre + g2_pre) * j2
                  + 2 * (g_pre - g2_pre) * j12, axis=-1),
              "emse_network_cross": j12.sum(-1)}
    for k in range(n):
        series[f"gamma_mean_a{k + 1}"] = gammas[:, k]
        series[f"gamma_sq_a{k + 1}"] = squares[:, k]
    return series


def multi_config(horizon=30, runs=4):
    comps = [
        strategy(CHAIN4, mu, a2=static_rule(CHAIN4, rule))
        for rule, mu in (("identity", 0.04), ("averaging", 0.08),
                         ("metropolis", 0.02))
    ]
    combiner = CombinerConfig(scheme="multi_sign", nu_gamma=0.01,
                              nu_alpha=0.1, delta=0.01)
    return ExperimentConfig(
        topology=CHAIN4, signal_params=chain_params(),
        schedule=TargetSchedule.constant(TARGETS4),
        components=comps, combiner=combiner,
        horizon=horizon, runs=runs, seed=3,
    )


def static_and_relative_variance_pair():
    """Static adapt-then-combine beside relative-variance fusion."""
    return [
        strategy(CHAIN4, 0.05, a2=static_rule(CHAIN4, "averaging")),
        StrategyConfig(topology=CHAIN4, a1=static_rule(CHAIN4, "identity"),
                       c=StochasticMatrix(np.eye(4), "right"), mu=0.04,
                       a2_mode="adaptive_relative_variance", tau=0.2),
    ]


def metropolis_pair():
    """Both components share data through a Metropolis C; the first also
    pre-combines through a Metropolis A1, the second does not."""
    metropolis = static_rule(CHAIN4, "metropolis")
    c = StochasticMatrix(metropolis.entries.T, "right")
    return [strategy(CHAIN4, 0.05, a1=metropolis, c=c),
            strategy(CHAIN4, 0.03, a2=static_rule(CHAIN4, "averaging"), c=c)]


def per_run_series(cfg):
    """run_monte_carlo's series recomputed one run at a time, with the
    affine weights of every component spelled out: (gamma, 1 - gamma) for
    a pair, the M mapped coefficients otherwise."""
    n, l = cfg.n_agents, cfg.filter_len
    pair = cfg.combiner.scheme != "multi_sign"
    rows = []
    for run in range(cfg.runs):
        sampler = ChunkedSampler(cfg.signal_params, cfg.schedule, cfg.seed,
                                 [run], cfg.horizon)
        stacks = [stack(comp) for comp in cfg.components]
        states = [init_state(one, l) for one in stacks]
        comb = combine.init_combiner(cfg.combiner, len(cfg.components), n)
        for t in range(cfg.horizon):
            b = sampler.step()
            x, d, w = b.regressors[0], b.references[0], b.targets
            ys = np.array([np.sum(x * s.w[0], axis=0) for s in states])
            weights = np.array([comb.gamma, 1 - comb.gamma]) if pair \
                else comb.gamma
            y_c = np.sum(weights * ys, axis=0)
            if cfg.combiner.scheme == "power_normalized":
                comb = combine.pn_update(cfg.combiner, comb, d - y_c,
                                         ys[0] - ys[1])
            elif cfg.combiner.scheme == "sign_regressor":
                comb = combine.sr_update(cfg.combiner, comb, d - y_c,
                                         ys[0] - ys[1])
            else:
                comb = combine.multi_update(cfg.combiner, comb, d - y_c,
                                            d - ys)
            states = [advance(one, s, SampleBatch(x, d, b.noises[0], w))
                      for one, s in zip(stacks, states)]
            new_weights = np.array([comb.gamma, 1 - comb.gamma]) if pair \
                else comb.gamma
            w_c = np.sum(new_weights[:, None, :] * [s.w[0] for s in states],
                         axis=0)
            devs = [s.w[0] - w for s in states] + [w_c - w]
            errs = [np.sum(x * w, axis=0) - y for y in [*ys, y_c]]
            row = [np.sum(v**2) / n for v in devs]
            if pair:
                row.append(np.sum(devs[0] * devs[1]) / n)
            row += [np.sum(e**2) for e in errs]
            if pair:
                row.append(np.sum(errs[0] * errs[1]))
            rows.append(row + list(np.ravel(comb.gamma))
                        + list(np.ravel(comb.gamma**2)))
    return np.mean(np.reshape(rows, (cfg.runs, cfg.horizon, -1)), axis=0)


@pytest.fixture
def pool_sizes(monkeypatch):
    """The sizes of the process pools run_monte_carlo opens, through a
    stand-in pool that maps in this process."""
    sizes = []

    class RecordingPool:
        def __init__(self, max_workers):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, *iterables):
            return map(fn, *iterables)

    # run_monte_carlo imports the pool class where a pool runs
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor",
                        RecordingPool)
    return sizes


def raw_config(**overrides):
    raw = {
        "topology": {"preset": "net1"},
        "signal": {"snr_preset": {"level": "snr1", "kind": "white"}},
        "components": [
            {"a2": "identity", "mu": 0.05},
            {"a2": "averaging", "mu": 0.05},
        ],
        "combiner": {"scheme": "power_normalized", "nu_gamma": 0.01},
        "horizon": 30,
        "runs": 3,
        "seed": 5,
    }
    raw.update(overrides)
    return raw


class TestExperimentConfig:
    def test_accessors(self):
        cfg = small_config()
        assert cfg.n_agents == 4
        assert cfg.filter_len == 2
        assert cfg.config_hash is None

    @pytest.mark.parametrize("field,value", [
        ("runs", 0), ("horizon", 0),
    ])
    def test_rejects_nonpositive_counts(self, field, value):
        with pytest.raises(ValueError):
            small_config(**{field: value})

    @pytest.mark.parametrize("field,value,message", [
        # each used to pass validate, then fail or truncate at run time
        ("seed", -1, "seed must be an integer >= 0, got -1"),
        ("seed", 1.5, "seed must be an integer"),
        ("horizon", 20.7, "horizon must be an integer >= 1"),
        ("runs", 2.5, "runs must be an integer"),
        ("runs", "3", "runs must be an integer"),
        # a JSON boolean used to be read as 0 or 1
        ("runs", True, "runs must be an integer >= 1, got True"),
        ("horizon", True, "horizon must be an integer >= 1, got True"),
        ("seed", False, "seed must be an integer >= 0, got False"),
        ("gamma_init", True, "gamma_init is not a number: True"),
        ("gamma_init", "x", "gamma_init is not a number: 'x'"),
    ])
    def test_rejects_unrunnable_values(self, field, value, message):
        with pytest.raises(ValueError, match=message) as excinfo:
            config_from_dict(raw_config(**{field: value}))
        assert not isinstance(excinfo.value, ConfigError)

    def test_integral_floats_and_gamma_init_are_normalized(self):
        cfg = config_from_dict(raw_config(horizon=30.0, runs=3.0,
                                          gamma_init=1))
        assert (cfg.horizon, cfg.runs) == (30, 3)
        assert type(cfg.horizon) is int and type(cfg.runs) is int
        assert type(cfg.gamma_init) is float and cfg.gamma_init == 1.0

    def test_rejects_single_component(self):
        cfg = small_config()
        with pytest.raises(ValueError, match="two component"):
            ExperimentConfig(
                topology=cfg.topology, signal_params=cfg.signal_params,
                schedule=cfg.schedule, components=cfg.components[:1],
                combiner=cfg.combiner, horizon=10, runs=1, seed=0)

    def test_rejects_three_components_for_a_pair_scheme(self):
        cfg = multi_config()
        with pytest.raises(ValueError, match="the power_normalized combiner "
                           "needs exactly two component strategies, got 3"):
            ExperimentConfig(
                topology=cfg.topology, signal_params=cfg.signal_params,
                schedule=cfg.schedule, components=cfg.components,
                combiner=small_config().combiner, horizon=10, runs=1, seed=0)

    def test_multi_scheme_takes_its_count_from_the_components(self):
        # the multi_config combiner, as is, mixes two components as well
        cfg = multi_config()
        two = ExperimentConfig(
            topology=cfg.topology, signal_params=cfg.signal_params,
            schedule=cfg.schedule, components=cfg.components[:2],
            combiner=cfg.combiner, horizon=10, runs=1, seed=0)
        assert series_layout(two).names[:3] == [
            "msd_network_1", "msd_network_2", "msd_combined"]
        with pytest.raises(ValueError, match=r"shape \(2, 4\)"):
            dataclasses.replace(two, combiner=dataclasses.replace(
                cfg.combiner, nu_alpha=[0.1] * 3))

    def test_rejects_component_on_another_network_of_the_same_size(self):
        # used to simulate over edges the first network does not have
        full = Topology(n_agents=4, adjacency=np.ones((4, 4), dtype=bool))
        with pytest.raises(ValueError,
                           match="component strategies must share the network"):
            small_config(components=[strategy(full, 0.05),
                                     strategy(CHAIN4, 0.05)])

    def test_rejects_schedule_shape_mismatch(self):
        with pytest.raises(ValueError, match="schedule"):
            small_config(schedule=TargetSchedule.constant(np.zeros((5, 2))))

    def test_rejects_late_first_stage(self):
        late = TargetSchedule(stages=((3, TARGETS4),))
        with pytest.raises(ValueError, match="time 0"):
            small_config(schedule=late)

    def test_rejects_gamma_init_for_multi(self):
        cfg = multi_config()
        with pytest.raises(ValueError, match="gamma_init"):
            ExperimentConfig(
                topology=cfg.topology, signal_params=cfg.signal_params,
                schedule=cfg.schedule, components=cfg.components,
                combiner=cfg.combiner, horizon=10, runs=1, seed=0,
                gamma_init=0.8)

    def test_rejects_nu_gamma_of_wrong_length(self):
        cfg = small_config()
        with pytest.raises(ValueError, match=r"per agent, shape \(4,\)"):
            dataclasses.replace(cfg, combiner=CombinerConfig(
                scheme="power_normalized", nu_gamma=[0.01] * 3))
        per_agent = dataclasses.replace(cfg, combiner=CombinerConfig(
            scheme="power_normalized", nu_gamma=[0.01] * 4))
        assert per_agent.combiner.nu_gamma.shape == (4,)

    def test_rejects_nu_alpha_of_wrong_shape(self):
        cfg = multi_config()
        for nu_alpha in ([0.1] * 4, [[0.1] * 4] * 3, 0.1):
            dataclasses.replace(cfg, combiner=dataclasses.replace(
                cfg.combiner, nu_alpha=nu_alpha))
        with pytest.raises(ValueError, match=r"shape \(3, 4\)"):
            dataclasses.replace(cfg, combiner=dataclasses.replace(
                cfg.combiner, nu_alpha=[0.1] * 3))

    def test_rejects_foreign_component_topology(self):
        other = build_preset("net1")
        comp = strategy(other, 0.05)
        cfg = small_config()
        with pytest.raises(ValueError):
            ExperimentConfig(
                topology=CHAIN4, signal_params=cfg.signal_params,
                schedule=cfg.schedule, components=[comp, comp],
                combiner=cfg.combiner, horizon=10, runs=1, seed=0)


class TestConfigFromDict:
    def test_full_build(self):
        cfg = config_from_dict(raw_config())
        assert cfg.n_agents == 10
        assert cfg.filter_len == 2
        assert cfg.horizon == 30
        assert cfg.combiner.scheme == "power_normalized"
        assert len(cfg.config_hash) == 16

    def test_hash_ignores_key_order(self):
        raw = raw_config()
        flipped = dict(reversed(list(raw.items())))
        assert (config_from_dict(raw).config_hash
                == config_from_dict(flipped).config_hash)

    def test_hash_tracks_content(self):
        a = config_from_dict(raw_config())
        b = config_from_dict(raw_config(seed=6))
        assert a.config_hash != b.config_hash

    def test_snr_preset_supplies_targets(self):
        cfg = config_from_dict(raw_config())
        _, w_star = load_snr_preset(10, "snr1", "white")
        np.testing.assert_array_equal(cfg.schedule.stages[0][1],
                                      np.tile(w_star, (10, 1)))

    def test_explicit_agents_and_stages(self):
        raw = raw_config(
            signal={"agents": {"sigma_x2": 1.0, "sigma_z2": 0.1,
                               "filter_len": 2}},
            targets={"stages": [
                {"start": 0, "targets": np.ones((10, 2)).tolist()},
                {"start": 20, "targets": (2 * np.ones((10, 2))).tolist()},
            ], "transition_len": 5},
        )
        cfg = config_from_dict(raw)
        assert len(cfg.schedule.stages) == 2
        assert cfg.schedule.transition_len == 5
        assert all(p.sigma_x2 == 1.0 for p in cfg.signal_params)

    def test_explicit_targets_required_without_preset(self):
        raw = raw_config(signal={"agents": {"sigma_x2": 1.0, "sigma_z2": 0.1,
                                            "filter_len": 2}})
        with pytest.raises(ConfigError, match="targets"):
            config_from_dict(raw)

    @pytest.mark.parametrize("mutate,message", [
        (lambda r: r.update(extra=1), "unknown keys"),
        (lambda r: r.pop("combiner"), "missing 'combiner'"),
        (lambda r: r.pop("seed"), "missing 'seed'"),
        (lambda r: r["components"][0].pop("mu"), "missing 'mu'"),
        (lambda r: r["components"][0].update(bad=1), "unknown keys"),
        (lambda r: r.update(topology={"preset": "net9"}), "net9"),
        (lambda r: r.update(topology={}), "preset name or an edge-list"),
        (lambda r: r.update(signal={}), "snr_preset or explicit"),
        (lambda r: r["combiner"].update(winding=2), "combiner"),
        (lambda r: r["components"][0].update(a2="spiral"), "spiral"),
        (lambda r: r.update(components="averaging"), "must be a list"),
        (lambda r: r.update(outputs="msd_combined"),
         "outputs must be a list of series names"),
    ])
    def test_structural_errors(self, mutate, message):
        raw = raw_config()
        mutate(raw)
        with pytest.raises(ConfigError, match=message):
            config_from_dict(raw)

    def test_agent_count_mismatch(self):
        raw = raw_config(signal={"agents": [
            {"sigma_x2": 1.0, "sigma_z2": 0.1, "filter_len": 2}] * 7})
        with pytest.raises(ConfigError, match="7 agents"):
            config_from_dict(raw)

    def test_adaptive_mode_rejects_static_a2(self):
        raw = raw_config()
        raw["components"][0] = {"a2_mode": "adaptive_projection",
                                "a2": "averaging", "mu": 0.05}
        with pytest.raises(ConfigError, match="static a2"):
            config_from_dict(raw)

    def test_adaptive_mode_builds(self):
        raw = raw_config()
        raw["components"][0] = {"a2_mode": "adaptive_projection", "mu": 0.05}
        raw["components"][1] = {"a2_mode": "adaptive_relative_variance",
                                "tau": 0.1, "mu": 0.05}
        cfg = config_from_dict(raw)
        assert cfg.components[0].a2 is None
        np.testing.assert_array_equal(cfg.components[1].tau, np.full(10, 0.1))

    def test_semantic_errors_stay_value_errors(self):
        raw = raw_config()
        raw["components"][0]["mu"] = -0.1
        with pytest.raises(ValueError) as excinfo:
            config_from_dict(raw)
        assert not isinstance(excinfo.value, ConfigError)

    def test_config_error_is_not_value_error(self):
        assert not issubclass(ConfigError, ValueError)

    def test_unknown_output_series_refused(self):
        # a misspelled series used to pass the loader and fail only at
        # export, after the whole experiment had run
        raw = raw_config(outputs=["msd_combined", "msd_combinde"])
        with pytest.raises(ValueError, match="msd_combinde") as excinfo:
            config_from_dict(raw)
        assert "msd_combined'" not in str(excinfo.value)
        assert not isinstance(excinfo.value, ConfigError)

    def test_empty_outputs_refused(self):
        # an empty list used to export a CSV of the time index alone
        with pytest.raises(ValueError, match="outputs must name at least "
                           "one series") as excinfo:
            config_from_dict(raw_config(outputs=[]))
        assert not isinstance(excinfo.value, ConfigError)
        with pytest.raises(ValueError, match="at least one series"):
            dataclasses.replace(small_config(), outputs=())

    def test_known_output_series_accepted(self):
        cfg = config_from_dict(raw_config(outputs=["msd_combined",
                                                   "gamma_mean_a3"]))
        assert cfg.outputs == ("msd_combined", "gamma_mean_a3")


class TestConfigFiles:
    def test_load_config_round_trip(self, tmp_path):
        path = tmp_path / "exp.json"
        path.write_text(json.dumps(raw_config()))
        cfg = load_config(path)
        assert cfg.n_agents == 10
        assert cfg.config_hash == config_from_dict(raw_config()).config_hash

    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigError, match="cannot read"):
            load_config(tmp_path / "absent.json")

    def test_malformed_json(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        with pytest.raises(ConfigError, match="not valid JSON"):
            load_config(path)

    def test_non_object_json(self, tmp_path):
        path = tmp_path / "list.json"
        path.write_text("[1, 2]")
        with pytest.raises(ConfigError, match="setting table"):
            load_config(path)

    def test_edge_list_relative_to_config(self, tmp_path):
        (tmp_path / "ring.edges").write_text("1 2\n2 3\n3 4\n4 1\n")
        raw = raw_config(
            topology={"edges": "ring.edges"},
            signal={"agents": {"sigma_x2": 1.0, "sigma_z2": 0.1,
                               "filter_len": 2}},
            targets={"constant": np.zeros((4, 2)).tolist()},
        )
        path = tmp_path / "exp.json"
        path.write_text(json.dumps(raw))
        assert load_config(path).n_agents == 4

    def test_missing_edge_file(self, tmp_path):
        raw = raw_config(topology={"edges": "ghost.edges"})
        path = tmp_path / "exp.json"
        path.write_text(json.dumps(raw))
        with pytest.raises(ConfigError, match="ghost.edges"):
            load_config(path)

    def test_resolve_prefers_files(self, tmp_path):
        path = tmp_path / "exp.json"
        path.write_text(json.dumps(raw_config()))
        assert resolve_config(str(path)).horizon == 30

    def test_resolve_falls_back_to_presets(self):
        cfg = resolve_config("steady_net1_snr1_white_pn")
        assert cfg.n_agents == 10
        assert cfg.horizon == 5000

    def test_resolve_unknown(self):
        with pytest.raises(ConfigError):
            resolve_config("no/such/file.json")
        with pytest.raises(ConfigError, match="no bundled preset"):
            resolve_config("nonexistent_preset")


class TestBundledPresets:
    def test_expected_presets_exist(self):
        names = set(preset_names())
        assert {"tracking_static_pn", "tracking_static_sr",
                "tracking_adaptive_pn", "tracking_adaptive_sr",
                "steady_net1_snr1_white_slow_pn",
                "steady_net1_snr1_white_slow_sr",
                "steady_net3_snr3_ar1_pn",
                "universality_pn", "universality_sr",
                "universality_fast_pn"} <= names

    def test_every_preset_loads(self):
        for name in preset_names():
            cfg = load_preset_config(name)
            assert cfg.runs == 100
            assert cfg.config_hash is not None

    def test_tracking_schedule_structure(self):
        cfg = load_preset_config("tracking_static_pn")
        starts = [s for s, _ in cfg.schedule.stages]
        assert starts == [0, 1500, 3000, 4500]
        assert cfg.schedule.transition_len == 500
        assert cfg.filter_len == 50
        stage2 = cfg.schedule.stages[1][1]
        assert np.ptp(stage2[:5], axis=0).max() == 0.0
        assert np.ptp(stage2[5:], axis=0).max() == 0.0
        assert not np.array_equal(stage2[0], stage2[5])

    def test_slow_preset_matches_fast_pair(self):
        slow = load_preset_config("steady_net1_snr1_white_slow_pn")
        assert np.all(slow.components[0].mu == 0.002)
        assert slow.combiner.nu_gamma == 0.002
        assert slow.horizon == 20000
        fast = load_preset_config("steady_net1_snr1_white_pn")
        assert np.all(fast.components[0].mu == 0.01)
        assert fast.combiner.nu_gamma == 0.01


# pinned: the exported names, in column order, of a 4-agent pair and of
# a 3-component multi_sign experiment
PAIR4_NAMES = [
    "msd_network_1", "msd_network_2", "msd_combined", "msd_cross",
    "emse_network_1", "emse_network_2", "emse_network_combined",
    "emse_network_cross", "gamma_mean_a1", "gamma_mean_a2",
    "gamma_mean_a3", "gamma_mean_a4", "gamma_sq_a1", "gamma_sq_a2",
    "gamma_sq_a3", "gamma_sq_a4",
]
MULTI3_NAMES = [
    "msd_network_1", "msd_network_2", "msd_network_3", "msd_combined",
    "emse_network_1", "emse_network_2", "emse_network_3",
    "emse_network_combined", "gamma_mean_c1_a1", "gamma_mean_c1_a2",
    "gamma_mean_c1_a3", "gamma_mean_c1_a4", "gamma_mean_c2_a1",
    "gamma_mean_c2_a2", "gamma_mean_c2_a3", "gamma_mean_c2_a4",
    "gamma_mean_c3_a1", "gamma_mean_c3_a2", "gamma_mean_c3_a3",
    "gamma_mean_c3_a4", "gamma_sq_c1_a1", "gamma_sq_c1_a2",
    "gamma_sq_c1_a3", "gamma_sq_c1_a4", "gamma_sq_c2_a1", "gamma_sq_c2_a2",
    "gamma_sq_c2_a3", "gamma_sq_c2_a4", "gamma_sq_c3_a1", "gamma_sq_c3_a2",
    "gamma_sq_c3_a3", "gamma_sq_c3_a4",
]


class TestSeriesLayout:
    @pytest.mark.parametrize("cfg, names", [
        (small_config(), PAIR4_NAMES),
        (small_config(scheme="sign_regressor"), PAIR4_NAMES),
        (multi_config(), MULTI3_NAMES),
    ], ids=["pn", "sr", "multi_sign"])
    def test_names_and_family_slices(self, cfg, names):
        layout = series_layout(cfg)
        assert layout.names == names
        columns = np.arange(len(names))
        families = (layout.msd, layout.emse, layout.gamma)
        assert np.concatenate([columns[s] for s in families]).tolist() \
            == columns.tolist()
        pair = cfg.combiner.scheme != "multi_sign"
        for family in families[:2]:
            assert len(columns[family]) == len(cfg.components) + 1 + pair
        for family, units in zip(families, ("db", "db", "linear")):
            assert {series_units(names[j]) for j in columns[family]} \
                == {units}

    @pytest.mark.parametrize("name, units", [
        ("msd_network_2", "db"), ("msd_cross", "db"),
        ("emse_network_combined", "db"), ("gamma_sq_c2_a3", "linear"),
        ("n", None), ("msdx_1", None), ("gammas", None), ("", None),
    ])
    def test_units_follow_the_first_word(self, name, units):
        assert series_units(name) == units


class TestWorkerCount:
    # 60 runs make three chunks, which two workers would split in two
    @pytest.mark.parametrize("workers", [{}, {"workers": 0}])
    def test_serial_by_default_and_at_zero(self, workers, pool_sizes):
        run_monte_carlo(small_config(horizon=3, runs=60), **workers)
        assert pool_sizes == []
        run_monte_carlo(small_config(horizon=3, runs=60), workers=2)
        assert pool_sizes == [2]

    def test_import_leaves_the_pool_out(self):
        # a fresh interpreter: importing the harness, as every serial run
        # and every prediction does, does not load multiprocessing
        src = str(Path(harness.__file__).resolve().parents[1])
        path = os.pathsep.join(filter(None, (src,
                                             os.environ.get("PYTHONPATH"))))
        out = subprocess.run(
            [sys.executable, "-c", "import sys, diffcomb.harness; "
             "print(sorted(m for m in sys.modules if m.startswith("
             "('multiprocessing', 'concurrent.futures.process'))))"],
            capture_output=True, text=True, check=True,
            env=dict(os.environ, PYTHONPATH=path))
        assert out.stdout.strip() == "[]"

    @pytest.mark.parametrize("workers", [-2, 1.5, None])
    def test_refuses_argument_by_name(self, workers):
        with pytest.raises(ValueError, match="workers must be an integer"):
            run_monte_carlo(small_config(horizon=3), workers=workers)


class TestMonteCarlo:
    def test_shapes_and_names(self):
        cfg = small_config()
        result = run_monte_carlo(cfg)
        assert result.metadata["runs"] == cfg.runs
        assert result.metadata["n_agents"] == 4
        assert set(result.series) == set(series_layout(cfg).names)
        for values in result.series.values():
            assert values.shape == (cfg.horizon,)
            assert np.all(np.isfinite(values))
        for name in ("msd_network_1", "msd_network_2", "msd_combined",
                     "emse_network_1", "emse_network_combined"):
            assert np.all(result.series[name] >= 0.0)

    @pytest.mark.parametrize("rows,pair", [(3, True), (4, False)])
    def test_power_sums_match_gathered_row_products(self, rows, pair):
        # a block of b instants against the row-gathering form, one
        # instant at a time, written into columns of a wider table as the
        # simulator does; the error-power rows use only the head of each
        # row of the cross buffer
        rng = np.random.default_rng(3)
        left = right = np.arange(rows)
        if pair:
            left, right = np.append(left, 0), np.append(right, 1)
        b = 3
        cross = np.empty((b + 2, 25 * 10 * 50))
        for shape in ((b, rows, 25, 10, 50), (b, rows, 25, 10)):
            parts = rng.standard_normal(shape)
            expect = [np.add.reduce(flat.take(left, 0) * flat.take(right, 0),
                                    axis=1)
                      for flat in parts.reshape(b, rows, -1)]
            table = np.zeros((b, len(left) + 2))
            harness._power_sums(parts, pair, cross, table[:, 1:-1])
            assert np.array_equal(table[:, 1:-1], expect)
            assert not table[:, [0, -1]].any()

    @pytest.mark.parametrize("cfg", [
        small_config(horizon=30, runs=4, schedule=STAGED4),
        small_config(scheme="sign_regressor", nu=0.02, horizon=30, runs=4,
                     schedule=STAGED4),
        dataclasses.replace(multi_config(horizon=30, runs=4),
                            schedule=STAGED4),
    ], ids=["power_normalized", "sign_regressor", "multi_sign"])
    def test_chunk_table_independent_of_block_width(self, cfg, monkeypatch):
        # widths 1, 7 (four full blocks and one of two instants) and the
        # whole horizon, over targets that ramp inside a block, on a group
        # of two chunks of two runs: the width counts one chunk's values
        chunks = [range(0, 2), range(2, 4)]
        per_instant = (len(cfg.components) + 1) * 2 * 4 * 2
        tables = []
        for width in (1, 7, 10 ** 6):
            monkeypatch.setattr(harness, "_BLOCK_VALUES", width * per_instant)
            tables.append(harness._simulate_chunk(
                cfg, StrategyStack.of(cfg.components), chunks))
        assert tables[0].shape[0] == len(chunks)
        assert np.all(np.isfinite(tables[0]))
        for table in tables[1:]:
            assert np.array_equal(table, tables[0])

    @pytest.mark.parametrize("name", preset_names())
    def test_chunk_tables_independent_of_group_size(self, name):
        # four chunks advanced as one group, and each alone
        cfg = dataclasses.replace(load_preset_config(name), horizon=40,
                                  runs=4 * harness.CHUNK_RUNS)
        stack = StrategyStack.of(cfg.components)
        chunks = [range(i, i + harness.CHUNK_RUNS)
                  for i in range(0, cfg.runs, harness.CHUNK_RUNS)]
        grouped = harness._simulate_chunk(cfg, stack, chunks)
        assert grouped.shape == (4, 40, len(series_layout(cfg).names))
        for table, chunk in zip(grouped, chunks):
            alone, = harness._simulate_chunk(cfg, stack, [chunk])
            assert np.array_equal(table, alone)

    def test_repeat_is_bit_identical(self):
        cfg = small_config()
        a = run_monte_carlo(cfg)
        b = run_monte_carlo(cfg)
        for name in a.series:
            np.testing.assert_array_equal(a.series[name], b.series[name])

    def test_worker_count_does_not_change_results(self):
        cfg = small_config(horizon=25, runs=60)
        serial = run_monte_carlo(cfg, workers=1)
        parallel = run_monte_carlo(cfg, workers=3)
        for name in serial.series:
            np.testing.assert_array_equal(serial.series[name],
                                          parallel.series[name])

    def test_repeated_run_index_degenerates_to_single_run(self):
        # summing two identical runs regroups the floating-point adds,
        # so the doubled table matches the single run's to rounding
        cfg = small_config()
        stack = StrategyStack.of(cfg.components)
        once, = harness._simulate_chunk(cfg, stack, [[4]])
        twice, = harness._simulate_chunk(cfg, stack, [[4, 4]])
        np.testing.assert_allclose(twice, 2 * once, rtol=1e-12, atol=1e-14)

    @pytest.mark.parametrize("name", preset_names())
    def test_every_preset_runs_finite_and_worker_independent(self, name):
        # 30 runs make two chunks, so the pool reduces more than one part
        cfg = dataclasses.replace(load_preset_config(name), horizon=40,
                                  runs=30)
        serial = run_monte_carlo(cfg, workers=1)
        pooled = run_monte_carlo(cfg, workers=2)
        assert list(serial.series) == series_layout(cfg).names
        for key, values in serial.series.items():
            assert np.all(np.isfinite(values)), key
            np.testing.assert_array_equal(values, pooled.series[key])

    @pytest.mark.parametrize("name", ["universality_pn",
                                      "steady_net2_snr1_ar1_pn",
                                      "tracking_adaptive_pn"])
    def test_three_workers_export_the_same_bytes(self, name, tmp_path):
        # 75 runs make three chunks, one per worker
        cfg = dataclasses.replace(load_preset_config(name), horizon=40,
                                  runs=75)
        exported = []
        for workers in (1, 3):
            path = tmp_path / f"workers{workers}.csv"
            export_csv(run_monte_carlo(cfg, workers=workers), path)
            exported.append(path.read_bytes())
        assert exported[0] == exported[1]

    def test_pool_starts_no_more_workers_than_chunks(self, pool_sizes):
        cfg = small_config(horizon=5, runs=2 * harness.CHUNK_RUNS)
        serial = run_monte_carlo(cfg, workers=1)
        pooled = run_monte_carlo(cfg, workers=8)
        assert pool_sizes == [2]
        for name, values in serial.series.items():
            np.testing.assert_array_equal(values, pooled.series[name])

    @pytest.mark.parametrize("name,runs,workers,groups,pools", [
        # two groups of two chunks, one per worker
        ("steady_net2_snr1_ar1_pn", 100, 2, [[25, 25], [25, 25]], [2]),
        # one L = 50 chunk already fills a reduction block
        ("tracking_static_pn", 100, 2, [[25], [25], [25], [25]], [2]),
        # uneven chunks share one group
        ("steady_net2_snr1_ar1_pn", 26, 1, [[25, 1]], []),
    ])
    def test_chunk_groups(self, name, runs, workers, groups, pools,
                          pool_sizes, monkeypatch):
        mapped, runs_seen = [], []
        simulate = harness._simulate_chunk

        def recording(cfg, stack, chunks):
            mapped.append([len(chunk) for chunk in chunks])
            runs_seen.extend(run for chunk in chunks for run in chunk)
            return simulate(cfg, stack, chunks)

        monkeypatch.setattr(harness, "_simulate_chunk", recording)
        cfg = dataclasses.replace(load_preset_config(name), horizon=5,
                                  runs=runs)
        grouped = run_monte_carlo(cfg, workers=workers)
        assert mapped == groups
        assert runs_seen == list(range(runs))
        assert pool_sizes == pools
        # a zero value budget advances each chunk alone
        monkeypatch.setattr(harness, "_BLOCK_VALUES", 0)
        alone = run_monte_carlo(cfg, workers=1)
        assert mapped[len(groups):] == [[size] for group in groups
                                        for size in group]
        for key, values in alone.series.items():
            np.testing.assert_array_equal(values, grouped.series[key])

    def test_divergence_names_first_non_finite_instant(self):
        # mu = 3 on the fast universality preset: component 2 overflows first
        cfg = load_preset_config("universality_fast_pn")
        cfg = dataclasses.replace(cfg, horizon=200, components=[
            dataclasses.replace(comp, mu=3.0) for comp in cfg.components])
        with np.errstate(all="ignore"), pytest.raises(
                ValueError, match="msd_network_2 is not finite at instant 90"):
            run_monte_carlo(cfg)

    def test_combiner_choice_leaves_components_untouched(self):
        pn = run_monte_carlo(small_config(scheme="power_normalized"))
        sr = run_monte_carlo(small_config(scheme="sign_regressor", nu=0.02))
        for name in ("msd_network_1", "msd_network_2",
                     "emse_network_1", "emse_network_2", "msd_cross",
                     "emse_network_cross"):
            np.testing.assert_array_equal(pn.series[name], sr.series[name])
        assert not np.array_equal(pn.series["gamma_mean_a1"],
                                  sr.series["gamma_mean_a1"])

    def test_frozen_coefficient_pins_combined_to_first_component(self):
        cfg = small_config(nu=0.0, gamma_init=1.0)
        result = run_monte_carlo(cfg)
        np.testing.assert_array_equal(result.series["msd_combined"],
                                      result.series["msd_network_1"])
        np.testing.assert_array_equal(result.series["emse_network_combined"],
                                      result.series["emse_network_1"])
        np.testing.assert_array_equal(result.series["gamma_mean_a2"],
                                      np.ones(cfg.horizon))

    @pytest.mark.parametrize("cfg", [
        small_config(horizon=30, runs=3),
        small_config(scheme="sign_regressor", nu=0.02, horizon=30, runs=3),
        multi_config(horizon=30, runs=3),
        small_config(horizon=30, runs=3,
                     components=static_and_relative_variance_pair()),
        small_config(horizon=30, runs=3, components=metropolis_pair()),
    ], ids=["power_normalized", "sign_regressor", "multi_sign",
            "static_relative_variance", "metropolis_a1_c"])
    def test_matches_per_run_reference(self, cfg):
        result = run_monte_carlo(cfg)
        expected = per_run_series(cfg)
        assert list(result.series) == series_layout(cfg).names
        for j, (name, values) in enumerate(result.series.items()):
            np.testing.assert_allclose(values, expected[:, j], rtol=1e-10,
                                       atol=1e-12, err_msg=name)

    def test_multi_scheme_series(self):
        cfg = multi_config()
        result = run_monte_carlo(cfg)
        assert "msd_cross" not in result.series
        assert "gamma_mean_c3_a4" in result.series
        total = sum(result.series[f"gamma_mean_c{i}_a1"] for i in (1, 2, 3))
        np.testing.assert_allclose(total, 1.0, atol=1e-12)

    def test_metadata(self):
        result = run_monte_carlo(small_config())
        meta = result.metadata
        assert meta["kind"] == "monte_carlo"
        assert meta["runs"] == 6
        assert meta["seed"] == 11


class TestStepSizeCheck:
    def test_refuses_step_size_at_mean_stability_bound(self):
        # adaptive fusion and a non-identity C: the bound depends only on
        # the data matrices sum_l c_lk R_{x,l}
        cfg = small_config()
        rx = np.stack([regressor_covariance(p) for p in cfg.signal_params])
        c = StochasticMatrix(static_rule(CHAIN4, "metropolis").entries, "right")
        data = np.einsum("lk,lij->kij", c.entries, rx)
        bound = 2.0 / np.linalg.eigvalsh(data)[:, -1]

        def with_mu(mu):
            adaptive = StrategyConfig(
                topology=CHAIN4, a1=static_rule(CHAIN4, "identity"), c=c,
                mu=mu, a2_mode="adaptive_projection")
            return dataclasses.replace(
                cfg, components=[cfg.components[0], adaptive])

        check_step_sizes(with_mu(0.999 * bound))
        at_bound = 0.5 * bound
        at_bound[2] = bound[2]
        with pytest.raises(ValueError, match="component 2 agent 3"):
            check_step_sizes(with_mu(at_bound))


class TestTheoryPath:
    def test_initial_error_row_matches_cold_start(self):
        cfg = small_config()
        result = run_theory(cfg)
        rx = [regressor_covariance(p) for p in cfg.signal_params]
        expected = sum(TARGETS4[k] @ rx[k] @ TARGETS4[k] for k in range(4))
        np.testing.assert_allclose(result.series["emse_network_1"][0],
                                   expected, rtol=1e-12)
        np.testing.assert_allclose(result.series["emse_network_2"][0],
                                   expected, rtol=1e-12)

    def test_first_combined_row_uses_neutral_coefficients(self):
        result = run_theory(small_config())
        e1 = result.series["emse_network_1"][0]
        e2 = result.series["emse_network_2"][0]
        ex = result.series["emse_network_cross"][0]
        np.testing.assert_allclose(
            result.series["emse_network_combined"][0],
            0.25 * e1 + 0.25 * e2 + 0.5 * ex, rtol=1e-12)

    def test_stage_split_is_invisible(self):
        cfg_one = small_config(horizon=40)
        split = TargetSchedule(stages=((0, TARGETS4), (20, TARGETS4)))
        cfg_two = small_config(horizon=40, schedule=split)
        a = run_theory(cfg_one)
        b = run_theory(cfg_two)
        assert_same_series(b.series, a.series)
        assert len(b.steady) == 2

    def test_gamma_init_seeds_predicted_coefficient(self):
        # the predictor must start from the configured coefficient, as
        # the simulator does; before, it always started at 1/2 and sat
        # about 0.4 below the simulated mean for the whole window
        raw = json.loads(json.dumps(
            load_preset_config("universality_fast_pn").source))
        raw.update(horizon=50, runs=100, gamma_init=0.9)
        cfg = config_from_dict(raw)
        sim = run_monte_carlo(cfg, workers=1)
        theo = run_theory(cfg)
        nu = cfg.combiner.nu_gamma
        names = [f"gamma_mean_a{k + 1}" for k in range(cfg.n_agents)]
        for name in names:
            # row 0 holds the mean after one update from gamma_init
            assert abs(theo.series[name][0] - 0.9) <= nu
            assert sim.series[name][0] == pytest.approx(0.9, abs=nu)
        # mu = 0.01 stresses the independence assumptions, so the
        # prediction carries a bias: 0.11 from 100 runs on the worst
        # agent at this seed (0.12-0.13 at seeds 2 and 3)
        worst = max(np.max(np.abs(sim.series[n] - theo.series[n]))
                    for n in names)
        assert worst < 0.15
        np.testing.assert_allclose(
            theo.series["gamma_sq_a1"][0],
            theo.series["gamma_mean_a1"][0] ** 2, rtol=1e-9)

    def test_target_change_re_excites_deviation(self):
        moved = TargetSchedule(stages=((0, TARGETS4), (60, TARGETS4 + 1.0)))
        result = run_theory(small_config(horizon=120, schedule=moved))
        msd = result.series["msd_combined"]
        assert msd[60] > 2 * msd[59]
        assert msd[119] < msd[60]

    @pytest.mark.parametrize("source,directions", [
        ("universality_pn", 1), ("steady_net2_snr1_ar1_pn", 2),
        ("chain_l12", 1)])
    def test_steady_reports_per_stage(self, monkeypatch, source, directions):
        # the means keep one layout, (2, D, N, c) in direction
        # coordinates, from the initial state through each stage's evolve
        # to each stage's steady report, over white regressors (one
        # direction) and AR(1) ones (two); filter length 12 puts the
        # chain's block dimension (48) above the 40 that once bounded the
        # stationary solves
        if source == "chain_l12":
            cfg, target = small_config(), np.resize(TARGETS4, (4, 12))
            signals = {"signal_params": chain_params(12)}
        else:
            cfg, signals = load_preset_config(source), {}
            target = np.asarray(cfg.schedule.stages[0][1], dtype=float)
        moved = TargetSchedule(stages=((0, target), (20, target + 1.0)))
        cfg = dataclasses.replace(cfg, horizon=40, schedule=moved, **signals)
        means = []
        initial, evolve = harness.initial_moments, harness.evolve

        def recorded_initial(*args, **kwargs):
            state = initial(*args, **kwargs)
            means.append(state.m)
            return state

        def recorded_evolve(*args):
            traj = evolve(*args)
            means.append(traj.state.m)
            return traj

        monkeypatch.setattr(harness, "initial_moments", recorded_initial)
        monkeypatch.setattr(harness, "evolve", recorded_evolve)
        result = run_theory(cfg)
        assert [start for start, _ in result.steady] == [0, 20]
        means += [report.m for _, report in result.steady]
        n, l = target.shape
        assert len(means) == 5
        assert {m.shape for m in means} == {(2, directions, n,
                                            l // directions)}
        for _, report in result.steady:
            assert report.p.shape == (3, directions, n, n)
            assert report.universality.verdict

    def test_one_model_per_experiment(self, monkeypatch):
        # tracking_static_pn cut to 200 instants, its four stages to 50
        # instants each: one model is built, and each stage's evolve
        # starts from the state the one before it ended in, bit for bit,
        # with only the target changed
        base = load_preset_config("tracking_static_pn")
        schedule = TargetSchedule(
            stages=tuple((start // 30, target)
                         for start, target in base.schedule.stages),
            transition_len=base.schedule.transition_len // 30)
        cfg = dataclasses.replace(base, horizon=200, schedule=schedule)
        builds, calls = [], []
        build, evolve = harness.build_component_model, harness.evolve

        def counted_build(*args):
            builds.append(build(*args))
            return builds[-1]

        def recorded_evolve(pair, combiner, n_steps, state):
            traj = evolve(pair, combiner, n_steps, state)
            calls.append((pair, state, traj.state))
            return traj

        monkeypatch.setattr(harness, "build_component_model", counted_build)
        monkeypatch.setattr(harness, "evolve", recorded_evolve)
        run_theory(cfg)
        assert len(builds) == 1 and len(calls) == 4
        for (pair, _, end), (following, start, _), (_, target) in zip(
                calls, calls[1:], schedule.stages[1:]):
            for name in ("m", "p", "gbar", "g2bar", "pbar"):
                np.testing.assert_array_equal(getattr(start, name),
                                              getattr(end, name))
            np.testing.assert_array_equal(following.w_star, target.ravel())
            assert following.b is pair.b and following.drive is pair.drive

    @pytest.mark.parametrize("kind,l,directions", [
        ("white", 12, 1), ("ar1", 2, 2),
        (("ar1", "white", "white", "ar1"), 2, 2)],
        ids=["white", "colored", "mixed"])
    def test_factored_state_matches_raw_moment_oracle(self, monkeypatch, kind,
                                                      l, directions):
        # two stages: the stacked factors must stay one N x N factor for
        # white regressors at L = 12 and split into two N x N factors,
        # one per eigendirection, for AR(1) regressors at L = 2, alone or
        # beside white ones, and reproduce the raw NL x NL recursion
        targets = np.resize(TARGETS4, (4, l))
        moved = TargetSchedule(stages=((0, targets), (25, targets - 0.7)))
        cfg = dataclasses.replace(small_config(horizon=50),
                                  signal_params=chain_params(l, kind),
                                  schedule=moved)
        shapes = []

        def recording_evolve(*args, **kwargs):
            traj = theory.evolve(*args, **kwargs)
            shapes.append(traj.state.p.shape)
            return traj

        monkeypatch.setattr(harness, "evolve", recording_evolve)
        got = run_theory(cfg)
        assert shapes == [(3, directions, 4, 4)] * 2
        for name, want in raw_moment_series(cfg).items():
            np.testing.assert_allclose(got.series[name], want, rtol=1e-10,
                                       atol=1e-10 * np.max(np.abs(want)),
                                       err_msg=name)

    def test_divergence_names_first_non_finite_instant(self):
        # nu_gamma = 5 on universality_pn: the predicted coefficient moments
        # overflow, while the component moments stay finite
        cfg = load_preset_config("universality_pn")
        cfg = dataclasses.replace(cfg, horizon=400, combiner=dataclasses.replace(
            cfg.combiner, nu_gamma=5.0))
        with np.errstate(all="ignore"), pytest.raises(
                ValueError, match="the prediction diverged: msd_combined is "
                                  "not finite at instant 289"):
            run_theory(cfg)

    def test_multi_scheme_rejected(self):
        with pytest.raises(ValueError, match="two-component"):
            run_theory(multi_config())

    def test_adaptive_fusion_rejected(self, monkeypatch):
        # refused up front, before any moment model is built
        monkeypatch.setattr(harness, "build_component_model", None)
        cfg = small_config()
        adaptive = StrategyConfig(
            topology=CHAIN4, a1=static_rule(CHAIN4, "identity"),
            c=cfg.components[0].c, mu=0.05, a2_mode="adaptive_projection")
        bad = ExperimentConfig(
            topology=CHAIN4, signal_params=cfg.signal_params,
            schedule=cfg.schedule, components=[adaptive, cfg.components[1]],
            combiner=cfg.combiner, horizon=10, runs=1, seed=0)
        with pytest.raises(ValueError, match="static a2"):
            run_theory(bad)

    @pytest.mark.parametrize("name", preset_names())
    def test_theory_covers_exactly_the_predicted_presets(self, name):
        cfg = dataclasses.replace(load_preset_config(name), horizon=5, runs=1)
        try:
            run_theory(cfg)
        except ValueError:
            predicted = False
        else:
            predicted = True
        assert theory_covers(cfg) == predicted

    def test_simulation_tracks_prediction(self):
        params, w_star = load_snr_preset(10, "snr1", "white")
        topo = build_preset("net1")
        cfg = ExperimentConfig(
            topology=topo, signal_params=params,
            schedule=TargetSchedule.constant(np.tile(w_star, (10, 1))),
            components=[
                strategy(topo, 0.05),
                strategy(topo, 0.05, a2=static_rule(topo, "averaging")),
            ],
            combiner=CombinerConfig(scheme="power_normalized", nu_gamma=0.01),
            horizon=500, runs=50, seed=29)
        sim = run_monte_carlo(cfg)
        theo = run_theory(cfg)
        power = [n for n in sim.series if series_units(n) == "db"]
        report = compare(sim, theo, tol_msd_db=1.0, windows=[(400, 500)],
                         names=power)
        failed = [e.name for e in report.entries if not e.passed]
        assert report.passed, f"series beyond tolerance: {failed}"


class TestCompare:
    def _result(self, series, horizon=50):
        return SeriesResult(horizon, series, {})

    def test_self_comparison_is_exact(self):
        result = run_theory(small_config())
        report = compare(result, result)
        assert report.passed
        for entry in report.entries:
            assert entry.max_abs_dev == 0.0
            assert entry.steady_abs_dev == 0.0

    def test_decibel_offset_is_recovered(self):
        base = np.linspace(1.0, 2.0, 50)
        a = self._result({"msd_combined": base})
        b = self._result({"msd_combined": base * 10 ** 0.1})
        report = compare(a, b, tol_msd_db=1.5)
        entry = report.entries[0]
        np.testing.assert_allclose(entry.max_abs_dev, 1.0, atol=1e-9)
        np.testing.assert_allclose(entry.steady_abs_dev, 1.0, atol=1e-9)
        assert entry.passed
        assert entry.window_devs == pytest.approx((1.0,), abs=1e-9)
        assert not compare(a, b, tol_msd_db=0.5).passed
        # two windows, the second result 1 dB above, then 2 dB below
        shifted = base * np.where(np.arange(50) < 25, 10 ** 0.1, 10 ** -0.2)
        report = compare(a, self._result({"msd_combined": shifted}),
                         tol_msd_db=1.5, windows=[(10, 20), (40, 50)])
        entry = report.entries[0]
        np.testing.assert_allclose(entry.window_devs, [1.0, -2.0], atol=1e-9)
        assert entry.steady_abs_dev == max(abs(d) for d in entry.window_devs)
        assert not entry.passed

    def test_gamma_uses_linear_units(self):
        base = np.full(50, 0.5)
        a = self._result({"gamma_mean_a1": base})
        b = self._result({"gamma_mean_a1": base + 0.1})
        report = compare(a, b, tol_gamma=0.05)
        entry = report.entries[0]
        assert entry.kind == "linear"
        np.testing.assert_allclose(entry.steady_abs_dev, 0.1, atol=1e-12)
        assert not entry.passed
        assert compare(a, b, tol_gamma=0.2).passed

    def test_default_window_is_final_tenth(self):
        result = run_theory(small_config(horizon=500))
        report = compare(result, result)
        assert report.windows == ((450, 500),) == stage_windows(500)

    def test_explicit_windows_validated(self):
        result = run_theory(small_config())
        with pytest.raises(ValueError, match="window"):
            compare(result, result, windows=[(30, 90)])

    def test_horizon_mismatch(self):
        with pytest.raises(ValueError, match="horizon"):
            compare(run_theory(small_config(horizon=10)),
                    run_theory(small_config(horizon=12)))

    def test_missing_requested_series(self):
        result = run_theory(small_config())
        with pytest.raises(ValueError, match="absent from either result"):
            compare(result, result, names=["msd_imaginary"])

    def test_series_absent_from_one_result(self):
        full = run_theory(small_config())
        part = self._result({"msd_combined": full.series["msd_combined"]},
                            horizon=full.horizon)
        with pytest.raises(ValueError, match="'msd_network_1'.*either"):
            compare(full, part, names=["msd_combined", "msd_network_1"])

    def test_no_shared_series_refused(self):
        # used to return an empty report, which passed
        power = self._result({"msd_combined": np.ones(50)})
        coef = self._result({"gamma_mean_a1": np.ones(50)})
        foreign = self._result({"n": np.ones(50), "label": np.ones(50)})
        for a, b in ((power, coef), (foreign, foreign)):
            with pytest.raises(ValueError, match="the results share no "
                               "power or coefficient series"):
                compare(a, b)

    def test_negative_instants_are_ignored_pointwise(self):
        base = np.linspace(1.0, 2.0, 50)
        dented = base.copy()
        dented[3] = -0.5
        report = compare(self._result({"msd_cross": dented}),
                         self._result({"msd_cross": base}))
        entry = report.entries[0]
        assert np.isfinite(entry.max_abs_dev)
        assert entry.passed


# the tails of the four stationary stretches of the tracking presets,
# which the step-size sweep and the preset suite used to spell out
TRACKING_TAILS = ((800, 1000), (2300, 2500), (3800, 4000), (6500, 7000))


class TestStageWindows:
    @pytest.mark.parametrize("name", preset_names())
    def test_bundled_presets(self, name):
        cfg = load_preset_config(name)
        h = cfg.horizon
        if len(cfg.schedule.stages) > 1:  # the four tracking presets
            assert stage_windows(h, cfg.schedule, 0.2) == TRACKING_TAILS
            assert stage_windows(h, cfg.schedule) == (
                (900, 1000), (2400, 2500), (3900, 4000), (6750, 7000))
        else:
            assert stage_windows(h, cfg.schedule) == ((h - round(h / 10), h),)
            assert stage_windows(h) == stage_windows(h, cfg.schedule)

    def test_horizon_inside_a_ramp_or_a_stage(self):
        schedule = load_preset_config("tracking_static_pn").schedule
        # 1,200 ends inside the ramp [1000, 1500) into the second stage
        assert stage_windows(1200, schedule) == ((900, 1000),)
        # 1,800 ends inside the second stage, before its ramp at 2,500
        assert stage_windows(1800, schedule) == ((900, 1000), (1770, 1800))
        assert stage_windows(1800, schedule, 1.0) == ((0, 1000), (1500, 1800))

    def test_every_window_holds_an_instant(self):
        assert stage_windows(1) == ((0, 1),)
        assert stage_windows(9, frac=0.01) == ((8, 9),)

    def test_back_to_back_ramp_leaves_no_stretch(self):
        schedule = TargetSchedule(stages=((0, TARGETS4), (10, -TARGETS4)),
                                  transition_len=10)
        assert stage_windows(30, schedule, 0.5) == ((20, 30),)

    @pytest.mark.parametrize("frac", [-3.0, 0.0, 1.0000001, 2.5, float("nan")])
    def test_fraction_outside_unit_interval_refused(self, frac):
        with pytest.raises(ValueError, match="fraction .* outside"):
            stage_windows(50, frac=frac)


class TestExport:
    def test_csv_layout(self, tmp_path):
        result = run_monte_carlo(small_config(horizon=5, runs=2))
        path = tmp_path / "out.csv"
        export_csv(result, path)
        lines = path.read_text().strip().split("\n")
        assert lines[0] == "n," + ",".join(result.series)
        assert len(lines) == 6
        assert lines[1].split(",")[0] == "0"
        assert lines[5].split(",")[0] == "4"

    def test_decibel_conversion(self, tmp_path):
        result = SeriesResult(
            1, {"msd_combined": np.array([0.001]),
                "gamma_mean_a1": np.array([0.25])}, {})
        path = tmp_path / "one.csv"
        export_csv(result, path)
        row = path.read_text().strip().split("\n")[1].split(",")
        assert abs(float(row[1]) - (-30.0)) < 1e-9
        assert float(row[2]) == 0.25

    def test_nonpositive_power_becomes_nan(self, tmp_path):
        result = SeriesResult(3, {"msd_cross": np.array([0.5, -0.5, 0.0])},
                              {})
        path = tmp_path / "neg.csv"
        export_csv(result, path)
        reloaded = load_result(path)
        values = reloaded.series["msd_cross"]
        np.testing.assert_allclose(values[0], 0.5, rtol=1e-12)
        assert np.isnan(values[1]) and np.isnan(values[2])

    def test_reexport_is_byte_identical(self, tmp_path):
        result = run_monte_carlo(small_config(horizon=8, runs=3))
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        export_csv(result, a)
        export_csv(result, b)
        assert a.read_bytes() == b.read_bytes()

    def test_column_selection(self, tmp_path):
        result = run_monte_carlo(small_config(horizon=4, runs=2))
        path = tmp_path / "cols.csv"
        export_csv(result, path, columns=["msd_combined", "gamma_mean_a1"])
        header = path.read_text().split("\n")[0]
        assert header == "n,msd_combined,gamma_mean_a1"
        with pytest.raises(ValueError, match="do not exist"):
            export_csv(result, path, columns=["msd_wrong"])

    def test_csv_round_trip(self, tmp_path):
        result = run_monte_carlo(small_config(horizon=10, runs=2))
        path = tmp_path / "round.csv"
        export_csv(result, path)
        loaded = load_result(path)
        assert loaded.horizon == 10
        assert loaded.metadata == {}
        for name, values in result.series.items():
            if series_units(name) == "db":
                np.testing.assert_allclose(loaded.series[name], values,
                                           rtol=1e-12)
            else:
                np.testing.assert_allclose(loaded.series[name], values,
                                           rtol=0, atol=1e-16)

    @pytest.mark.parametrize("produce, kind, runs, seed", [
        (run_monte_carlo, "monte_carlo", 2, 5),
        (run_theory, "theory", 0, None),
    ], ids=["simulated", "predicted"])
    def test_json_round_trip_and_metadata(self, tmp_path, produce, kind,
                                          runs, seed):
        cfg = config_from_dict(raw_config(horizon=6, runs=2))
        result = produce(cfg)
        path = tmp_path / "round.json"
        export_json(result, path)
        payload = json.loads(path.read_text())
        assert payload["metadata"] == {
            "kind": kind, "horizon": 6, "runs": runs, "n_agents": 10,
            "seed": seed, "config_hash": cfg.config_hash}
        assert list(payload["metadata"]) == [
            "kind", "horizon", "runs", "n_agents", "seed", "config_hash"]
        assert payload["columns"][0] == "n"
        loaded = load_result(path)
        assert loaded.metadata == result.metadata
        for name, values in result.series.items():
            np.testing.assert_allclose(loaded.series[name], values,
                                       rtol=1e-12, atol=1e-300)

    @pytest.mark.parametrize("name, is_json", [
        ("auto.json", True), ("AUTO.JSON", True), ("auto.csv", False),
        ("auto.xml", False), ("auto", False), ("auto.json.csv", False)])
    def test_format_follows_the_suffix(self, tmp_path, name, is_json):
        # one rule picks the codec on write and on reload
        result = run_monte_carlo(small_config(horizon=3, runs=1))
        export(result, tmp_path / name)
        text = (tmp_path / name).read_text()
        assert text.startswith("{") == is_json
        loaded = load_result(tmp_path / name)
        assert loaded.metadata == (result.metadata if is_json else {})
        for key, values in result.series.items():
            np.testing.assert_allclose(loaded.series[key], values,
                                       rtol=1e-12, atol=1e-16)

    def test_compare_on_reloaded_files(self, tmp_path):
        cfg = small_config(horizon=30, runs=4)
        sim, theo = run_monte_carlo(cfg), run_theory(cfg)
        sim_path, theo_path = tmp_path / "s.csv", tmp_path / "t.csv"
        export_csv(sim, sim_path)
        export_csv(theo, theo_path)
        report = compare(load_result(sim_path), load_result(theo_path),
                         tol_msd_db=50.0, tol_gamma=1.0)
        assert report.passed
