"""Command line behavior: exit codes and output files.

Exit code contract: 0 success, 1 invalid values or tolerance failure,
2 unreadable or malformed inputs.
"""

import importlib
import json
from importlib import resources

import numpy as np
import pytest

from diffcomb import cli
from diffcomb.cli import main
from diffcomb.harness import export_csv, load_result
import helpers  # noqa: F401  (puts scripts/ on sys.path)


@pytest.fixture
def config_path(tmp_path):
    raw = {
        "topology": {"preset": "net1"},
        "signal": {"snr_preset": {"level": "snr1", "kind": "white"}},
        "components": [
            {"a2": "identity", "mu": 0.05},
            {"a2": "averaging", "mu": 0.05},
        ],
        "combiner": {"scheme": "power_normalized", "nu_gamma": 0.01},
        "horizon": 40,
        "runs": 4,
        "seed": 17,
    }
    path = tmp_path / "exp.json"
    path.write_text(json.dumps(raw))
    return path


def three_component_multi(config_path):
    """The fixture's experiment with a third component, all three mixed
    by the multi scheme; no "m" restates their count."""
    raw = json.loads(config_path.read_text())
    raw["components"].append({"a2": "metropolis", "mu": 0.02})
    raw["combiner"] = {"scheme": "multi_sign", "nu_gamma": 0.01,
                       "nu_alpha": 0.1}
    return raw


class TestValidate:
    def test_valid_config(self, config_path, capsys):
        assert main(["validate", str(config_path)]) == 0
        out = capsys.readouterr().out
        assert "10 agents" in out
        assert "power_normalized" in out

    def test_bundled_preset_name(self, capsys):
        assert main(["validate", "tracking_static_pn"]) == 0
        assert "50" in capsys.readouterr().out

    def test_missing_file(self, tmp_path, capsys):
        assert main(["validate", str(tmp_path / "none.json")]) == 2
        assert "config error" in capsys.readouterr().err

    def test_malformed_file(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text("{oops")
        assert main(["validate", str(path)]) == 2

    def test_step_size_at_stability_bound(self, tmp_path, capsys):
        # mu = 3 diverges in simulation after about 94 steps
        raw = json.loads(
            (resources.files("diffcomb") / "presets"
             / "universality_fast_pn.json").read_text())
        for comp in raw["components"]:
            comp["mu"] = 3.0
        path = tmp_path / "fast.json"
        path.write_text(json.dumps(raw))
        assert main(["validate", str(path)]) == 1
        err = capsys.readouterr().err
        assert "component 1 agent 1" in err
        assert "mean-stability bound" in err

    def test_per_agent_nu_gamma_of_wrong_length(self, tmp_path, capsys):
        # a 3-value list on the 10-agent preset used to pass validation
        # and fail mid-run on a numpy broadcast
        raw = json.loads(
            (resources.files("diffcomb") / "presets"
             / "universality_pn.json").read_text())
        raw["combiner"]["nu_gamma"] = [0.01, 0.01, 0.01]
        path = tmp_path / "nu.json"
        path.write_text(json.dumps(raw))
        assert main(["validate", str(path)]) == 1
        err = capsys.readouterr().err
        assert "nu_gamma" in err and "(10,)" in err

    def test_unknown_output_series(self, tmp_path, capsys):
        raw = json.loads(
            (resources.files("diffcomb") / "presets"
             / "universality_pn.json").read_text())
        raw["outputs"] = ["msd_combinde"]
        path = tmp_path / "outputs.json"
        path.write_text(json.dumps(raw))
        assert main(["validate", str(path)]) == 1
        err = capsys.readouterr().err
        assert "invalid experiment" in err and "msd_combinde" in err

    def test_empty_outputs(self, config_path, tmp_path, capsys):
        raw = json.loads(config_path.read_text())
        raw["outputs"] = []
        config_path.write_text(json.dumps(raw))
        out = tmp_path / "sim.csv"
        for args in (["validate"], ["simulate", "-o", str(out)]):
            assert main(args + [str(config_path)]) == 1
            assert "outputs must name at least one series" in \
                capsys.readouterr().err
        assert not out.exists()

    def test_negative_seed(self, config_path, capsys):
        # validate used to accept it, then simulate failed inside numpy
        raw = json.loads(config_path.read_text())
        raw["seed"] = -1
        config_path.write_text(json.dumps(raw))
        assert main(["validate", str(config_path)]) == 1
        assert "seed must be an integer >= 0" in \
            capsys.readouterr().err

    def test_outputs_as_string(self, config_path, capsys):
        # a bare string used to be split into one-letter series names
        raw = json.loads(config_path.read_text())
        raw["outputs"] = "msd_combined"
        config_path.write_text(json.dumps(raw))
        assert main(["validate", str(config_path)]) == 2
        assert "outputs must be a list" in capsys.readouterr().err

    @pytest.mark.parametrize("preset,edit,code,message", [
        # each used to print "config ok" after truncating the time
        ("tracking_static_pn",
         lambda r: r["targets"]["stages"][1].update(start=1500.7), 1,
         "stage start must be an integer >= 0, got 1500.7"),
        ("tracking_static_pn",
         lambda r: r["targets"].update(transition_len=500.5), 1,
         "transition_len must be an integer >= 0, got 500.5"),
        # each used to end in a TypeError traceback
        ("tracking_static_pn",
         lambda r: r["targets"].update(transition_len="5"), 1,
         "transition_len must be an integer >= 0, got '5'"),
        ("universality_pn",
         lambda r: r["signal"]["agents"][0].update(sigma_x2="16"), 1,
         "sigma_x2 is not a number: '16'"),
        # each used to be reported as an unknown combiner setting
        ("universality_pn", lambda r: r["combiner"].update(nu_gamma="x"), 1,
         "nu_gamma is not a number: 'x'"),
        ("universality_pn", lambda r: r["combiner"].update(eta="x"), 1,
         "eta is not a number: 'x'"),
        ("universality_pn", lambda r: r["combiner"].update(nu=0.1), 2,
         "combiner has unknown keys ['nu']"),
        ("universality_pn", lambda r: r["combiner"].pop("scheme"), 2,
         "combiner is missing 'scheme'"),
        # used to be ignored on a static component
        ("universality_pn", lambda r: r["components"][0].update(tau=0.05), 2,
         "only adaptive_relative_variance takes tau"),
        # each used to print "config ok": a quoted number, and NaN
        ("universality_pn", lambda r: r["components"][0].update(mu="0.002"),
         1, "mu is not a number: '0.002'"),
        ("tracking_adaptive_pn",
         lambda r: r["components"][1].update(tau="0.05"), 1,
         "tau is not a number: '0.05'"),
        ("universality_pn",
         lambda r: r["components"][1].update(mu=float("nan")), 1,
         "mu is not a number: nan"),
        ("tracking_adaptive_pn",
         lambda r: r["components"][1].update(tau=float("nan")), 1,
         "tau is not a number: nan"),
        ("universality_pn",
         lambda r: r["combiner"].update(nu_gamma=float("nan")), 1,
         "nu_gamma is not a number: nan"),
        ("universality_pn",
         lambda r: r["combiner"].update(epsilon=float("nan")), 1,
         "epsilon is not a number: nan"),
        ("universality_pn",
         lambda r: r["components"][0].update(mu=float("inf")), 1,
         "mu is not a number: inf"),
        # each used to print "config ok", reading the boolean as 0 or 1
        ("universality_pn", lambda r: r["components"][0].update(mu=True), 1,
         "mu is not a number: True"),
        ("universality_pn", lambda r: r["combiner"].update(nu_gamma=True), 1,
         "nu_gamma is not a number: True"),
        ("universality_pn",
         lambda r: r["targets"]["constant"][0].__setitem__(0, True), 1,
         "targets is not a number: entry (0, 0) is True"),
        # the first used to be parsed, the second reported as a diverged
        # simulation; both forms of targets
        ("universality_pn",
         lambda r: r["targets"]["constant"][0].__setitem__(0, "0.7"), 1,
         "targets is not a number: entry (0, 0) is '0.7'"),
        ("universality_pn",
         lambda r: r["targets"]["constant"][0].__setitem__(0, float("nan")),
         1, "targets is not a number: entry (0, 0) is nan"),
        ("tracking_static_pn",
         lambda r: r["targets"]["stages"][1]["targets"][0].__setitem__(
             0, "0.7"), 1, "targets is not a number: entry (0, 0) is '0.7'"),
        ("tracking_static_pn",
         lambda r: r["targets"]["stages"][1]["targets"][0].__setitem__(
             0, float("nan")), 1, "targets is not a number: entry (0, 0) is nan"),
    ])
    def test_malformed_value(self, tmp_path, capsys, preset, edit, code,
                             message):
        raw = json.loads(
            (resources.files("diffcomb") / "presets"
             / f"{preset}.json").read_text())
        edit(raw)
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(raw))
        assert main(["validate", str(path)]) == code
        err = capsys.readouterr().err
        assert message in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("edit,message", [
        # each used to end in a TypeError traceback
        (lambda r: r.update(outputs=[["msd_combined"]]),
         "outputs must be a list of series names"),
        (lambda r: r.update(outputs=[1, "bogus"]),
         "outputs must be a list of series names"),
        (lambda r: r["signal"]["agents"][0].pop("filter_len"),
         "signal agent entry is missing 'filter_len'"),
        (lambda r: r["signal"].update(agents=5),
         "signal.agents must be a list or one agent entry"),
        (lambda r: r.update(topology={"edges": 5}),
         "topology.edges must be a string"),
        (lambda r: r.update(signal={"snr_preset": {"level": ["snr1"],
                                                   "kind": "white"}}),
         "signal.snr_preset.level must be a string"),
        (lambda r: r.update(targets={"stages": 5}),
         "targets.stages must be a list of stages"),
        (lambda r: r["topology"].update(preset=["net1"]),
         "topology.preset must be a string"),
    ], ids=["outputs_nested", "outputs_number", "agent_filter_len",
            "agents_number", "edges_number", "snr_level_list",
            "stages_number", "preset_list"])
    def test_ill_typed_entry_refused_in_one_line(self, tmp_path, capsys, edit,
                                                 message):
        raw = json.loads((resources.files("diffcomb") / "presets"
                          / "universality_pn.json").read_text())
        edit(raw)
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(raw))
        assert main(["validate", str(path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"config error: {message}")
        assert err.count("\n") == 1

    def test_gamma_init_list_refused_in_one_line(self, config_path, capsys):
        # used to end in a TypeError traceback from float()
        raw = json.loads(config_path.read_text())
        config_path.write_text(json.dumps(dict(raw, gamma_init=[0.5])))
        assert main(["validate", str(config_path)]) == 1
        assert capsys.readouterr().err == \
            "invalid experiment: gamma_init must be a single number\n"

    def test_bad_target_of_a_long_stage_is_one_line(self, tmp_path, capsys):
        # one quoted value among the 500 targets of an L = 50 stage: the
        # message names that entry, not every target of the stage
        raw = json.loads((resources.files("diffcomb") / "presets"
                          / "tracking_static_pn.json").read_text())
        raw["targets"]["stages"][2]["targets"][3][1] = "0.5"
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(raw))
        assert main(["validate", str(path)]) == 1
        assert capsys.readouterr().err == (
            "invalid experiment: targets is not a number: "
            "entry (3, 1) is '0.5'\n")

    def test_boolean_numbers_refused_in_one_line(self, tmp_path, capsys):
        # validate used to print "config ok: ... 1 runs", and the run then
        # used sigma_x2 = 1 for agent 1
        raw = json.loads((resources.files("diffcomb") / "presets"
                          / "universality_pn.json").read_text())
        agent = raw["signal"]["agents"][0]
        sigma_x2 = agent["sigma_x2"]
        raw["runs"] = agent["sigma_x2"] = True
        path = tmp_path / "bad.json"
        for message in ("sigma_x2 is not a number: True",
                        "runs must be an integer >= 1, got True"):
            path.write_text(json.dumps(raw))
            assert main(["validate", str(path)]) == 1
            assert capsys.readouterr().err == \
                f"invalid experiment: {message}\n"
            agent["sigma_x2"] = sigma_x2

    @pytest.mark.parametrize("bad", ["2 3 4", "2 x", "cluster", "0 3"])
    def test_malformed_edge_list_refused_in_one_line(self, config_path,
                                                     capsys, bad):
        # each used to end in a traceback from the edge-list parser
        edges = config_path.parent / "net.edges"
        edges.write_text(f"1 2\n2 3\n{bad}\n")
        raw = json.loads(config_path.read_text())
        config_path.write_text(json.dumps(dict(raw, topology={"edges": "net.edges"})))
        assert main(["validate", str(config_path)]) == 2
        assert capsys.readouterr().err == (
            f"config error: edge-list file {edges}, line 3: {bad!r} is "
            "neither 'u v' nor 'cluster <id>: <members>'\n")

    def test_component_count_key_refused_by_name(self, config_path, capsys):
        raw = three_component_multi(config_path)
        raw["combiner"]["m"] = 3
        config_path.write_text(json.dumps(raw))
        assert main(["validate", str(config_path)]) == 2
        assert capsys.readouterr().err == (
            "config error: combiner has unknown keys ['m']\n")

    def test_invalid_value(self, config_path, capsys):
        raw = json.loads(config_path.read_text())
        raw["components"][0]["mu"] = -1.0
        config_path.write_text(json.dumps(raw))
        assert main(["validate", str(config_path)]) == 1
        assert "invalid experiment" in capsys.readouterr().err


class TestSimulate:
    def test_writes_csv(self, config_path, tmp_path, capsys):
        out = tmp_path / "sim.csv"
        assert main(["simulate", str(config_path), "-o", str(out)]) == 0
        assert "wrote" in capsys.readouterr().out
        loaded = load_result(out)
        assert loaded.horizon == 40
        assert "msd_combined" in loaded.series

    def test_json_format(self, config_path, tmp_path):
        out = tmp_path / "sim.json"
        assert main(["simulate", str(config_path), "-o", str(out)]) == 0
        payload = json.loads(out.read_text())
        assert payload["metadata"]["runs"] == 4

    def test_other_suffix_writes_csv(self, config_path, tmp_path):
        # used to run the whole simulation, then exit 1 on the suffix
        out = tmp_path / "sim.out"
        assert main(["simulate", str(config_path), "-o", str(out)]) == 0
        assert out.read_text().startswith("n,msd_network_1,")
        loaded = load_result(out)
        assert loaded.horizon == 40 and loaded.metadata == {}

    @pytest.mark.parametrize("command", ["simulate", "theory"])
    def test_format_flag_refused(self, config_path, tmp_path, capsys,
                                 command):
        # the file name alone picks the format, so a .csv name can no
        # longer hold JSON that compare then refuses
        with pytest.raises(SystemExit) as exit_:
            main([command, str(config_path), "-o",
                  str(tmp_path / "sim.csv"), "--format", "json"])
        assert exit_.value.code == 2
        assert "unrecognized arguments: --format json" \
            in capsys.readouterr().err
        assert not (tmp_path / "sim.csv").exists()

    def test_three_component_multi_scheme(self, config_path, tmp_path,
                                          capsys):
        # used to be refused: "combiner expects 2 component strategies"
        config_path.write_text(json.dumps(three_component_multi(config_path)))
        out = tmp_path / "multi.csv"
        assert main(["validate", str(config_path)]) == 0
        assert "3 components" in capsys.readouterr().out
        assert main(["simulate", str(config_path), "-o", str(out)]) == 0
        loaded = load_result(out)
        assert loaded.horizon == 40
        assert {"msd_network_3", "gamma_mean_c3_a1"} <= set(loaded.series)

    def test_worker_flag_keeps_bytes(self, config_path, tmp_path):
        raw = json.loads(config_path.read_text())
        raw["runs"] = 60
        raw["horizon"] = 20
        config_path.write_text(json.dumps(raw))
        one, two = tmp_path / "w1.csv", tmp_path / "w3.csv"
        assert main(["simulate", str(config_path), "-o", str(one),
                     "--workers", "1"]) == 0
        assert main(["simulate", str(config_path), "-o", str(two),
                     "--workers", "3"]) == 0
        assert one.read_bytes() == two.read_bytes()

    def test_divergence_exits_one_without_output(self, tmp_path, capsys):
        raw = json.loads(
            (resources.files("diffcomb") / "presets"
             / "universality_fast_pn.json").read_text())
        for comp in raw["components"]:
            comp["mu"] = 3.0
        raw["horizon"] = 200
        path, out = tmp_path / "fast.json", tmp_path / "sim.csv"
        path.write_text(json.dumps(raw))
        with np.errstate(all="ignore"):
            assert main(["simulate", str(path), "-o", str(out)]) == 1
        assert "not finite at instant 90" in capsys.readouterr().err
        assert not out.exists()

    def test_unwritable_output(self, config_path, tmp_path):
        out = tmp_path / "no" / "dir" / "sim.csv"
        assert main(["simulate", str(config_path), "-o", str(out)]) == 2

    @pytest.mark.parametrize("command", ["simulate", "theory"])
    def test_missing_directory_refused_before_computing(
            self, command, config_path, tmp_path, monkeypatch, capsys):
        def refuse(*args, **kwargs):
            raise AssertionError("computed before checking the output")

        for name in ("run_monte_carlo", "run_theory"):
            monkeypatch.setattr(cli, name, refuse)
        out = tmp_path / "no" / "dir" / "out.csv"
        assert main([command, str(config_path), "-o", str(out)]) == 2
        assert capsys.readouterr().err == (
            f"i/o error: [Errno 2] No such file or directory: '{out}'\n")
        assert not out.parent.exists()


class TestTheory:
    def test_writes_predictions(self, config_path, tmp_path, capsys):
        out = tmp_path / "theo.csv"
        assert main(["theory", str(config_path), "-o", str(out)]) == 0
        text = capsys.readouterr().out
        assert "stage at n=0" in text
        assert load_result(out).horizon == 40

    def test_divergence_exits_one_without_output(self, tmp_path, capsys):
        raw = json.loads(
            (resources.files("diffcomb") / "presets"
             / "universality_pn.json").read_text())
        raw["combiner"]["nu_gamma"] = 5.0
        raw["horizon"] = 400
        path, out = tmp_path / "diverge.json", tmp_path / "theo.csv"
        path.write_text(json.dumps(raw))
        with np.errstate(all="ignore"):
            assert main(["theory", str(path), "-o", str(out)]) == 1
        assert "the prediction diverged: msd_combined is not finite at " \
            "instant 289" in capsys.readouterr().err
        assert not out.exists()

    def test_steady_verdict_outside_coefficient_bounds(self, tmp_path,
                                                       capsys):
        # nu_gamma = 5 diverges at instant 289, so horizon 200 is finite
        raw = json.loads(
            (resources.files("diffcomb") / "presets"
             / "universality_pn.json").read_text())
        raw["combiner"]["nu_gamma"] = 5.0
        raw["horizon"] = 200
        path, out = tmp_path / "fast.json", tmp_path / "theo.csv"
        path.write_text(json.dumps(raw))
        assert main(["theory", str(path), "-o", str(out)]) == 0
        assert "outside coefficient bounds" in capsys.readouterr().out

    def test_adaptive_fusion_rejected(self, tmp_path, capsys):
        out = tmp_path / "theo.csv"
        assert main(["theory", "tracking_adaptive_pn", "-o", str(out)]) == 1
        assert "static a2" in capsys.readouterr().err


class TestCompare:
    def _export_pair(self, config_path, tmp_path):
        sim, theo = tmp_path / "sim.csv", tmp_path / "theo.csv"
        assert main(["simulate", str(config_path), "-o", str(sim)]) == 0
        assert main(["theory", str(config_path), "-o", str(theo)]) == 0
        return sim, theo

    def test_self_comparison_passes(self, config_path, tmp_path, capsys):
        _, theo = self._export_pair(config_path, tmp_path)
        assert main(["compare", str(theo), str(theo)]) == 0
        assert "comparison passed" in capsys.readouterr().out

    def test_loose_tolerances_pass(self, config_path, tmp_path):
        sim, theo = self._export_pair(config_path, tmp_path)
        assert main(["compare", str(sim), str(theo),
                     "--tol-msd-db", "60", "--tol-gamma", "1.0"]) == 0

    def test_json_simulation_against_csv_theory(self, config_path, tmp_path,
                                                capsys):
        # each file is read back in the format its name gave it on export
        sim, theo = self._export_pair(config_path, tmp_path)
        as_json = tmp_path / "sim.json"
        assert main(["simulate", str(config_path), "-o", str(as_json)]) == 0
        capsys.readouterr()
        args = ["--tol-msd-db", "60", "--tol-gamma", "1.0"]
        assert main(["compare", str(as_json), str(theo), *args]) == 0
        from_json = capsys.readouterr().out
        assert main(["compare", str(sim), str(theo), *args]) == 0
        assert "comparison passed" in from_json
        assert from_json == capsys.readouterr().out

    def test_offset_fails(self, config_path, tmp_path, capsys):
        _, theo = self._export_pair(config_path, tmp_path)
        bundle = load_result(theo)
        bundle.series["msd_combined"] = bundle.series["msd_combined"] * 10.0
        shifted = tmp_path / "shifted.csv"
        export_csv(bundle, shifted)
        assert main(["compare", str(shifted), str(theo),
                     "--tol-msd-db", "2.0"]) == 1
        out = capsys.readouterr().out
        assert "comparison failed" in out
        assert "FAIL" in out

    def test_steady_window_flag(self, config_path, tmp_path, capsys):
        _, theo = self._export_pair(config_path, tmp_path)
        assert main(["compare", str(theo), str(theo),
                     "--steady-window", "0.5"]) == 0
        assert "[20, 40)" in capsys.readouterr().out

    @pytest.mark.parametrize("frac", ["-3", "0", "2.5", "nan"])
    def test_steady_window_outside_unit_interval(self, config_path, tmp_path,
                                                 capsys, frac):
        # each used to compare on instant 39 alone, on the whole horizon,
        # or to fail converting nan to an integer
        _, theo = self._export_pair(config_path, tmp_path)
        capsys.readouterr()
        assert main(["compare", str(theo), str(theo),
                     "--steady-window", frac]) == 1
        captured = capsys.readouterr()
        assert f"fraction {float(frac):g} is outside (0, 1]" in captured.err
        assert captured.out == ""

    def test_config_gives_one_window_per_stretch(self, tmp_path, capsys):
        # tracking_static_pn cut to 1,600 instants: the first stretch
        # ends where the ramp into the second stage starts, at 1,000;
        # without the schedule the one window [800, 1600) spans that ramp,
        # where the second file is ten times the first
        raw = json.loads(resources.files("diffcomb").joinpath(
            "presets", "tracking_static_pn.json").read_text())
        cfg = tmp_path / "short.json"
        cfg.write_text(json.dumps(dict(raw, horizon=1600)))
        theo, ramped = tmp_path / "theo.csv", tmp_path / "ramped.csv"
        assert main(["theory", str(cfg), "-o", str(theo)]) == 0
        bundle = load_result(theo)
        for name in bundle.series:
            bundle.series[name][1000:1500] *= 10.0
        export_csv(bundle, ramped)
        capsys.readouterr()
        args = ["compare", str(theo), str(ramped), "--steady-window", "0.5"]
        assert main(args) == 1
        assert "steady window [800, 1600)\n" in capsys.readouterr().out
        assert main(args + ["--config", str(cfg)]) == 0
        out = capsys.readouterr().out
        assert out.startswith(
            "steady window [500, 1000)\nsteady window [1550, 1600)\n")
        assert "comparison passed" in out
        # the preset itself runs 7,000 instants
        assert main(args + ["--config", "tracking_static_pn"]) == 1
        captured = capsys.readouterr()
        assert "horizon 7000 differs from the exports' horizon 1600" \
            in captured.err
        assert captured.out == ""

    def test_no_shared_series(self, config_path, tmp_path, capsys):
        raw = json.loads(config_path.read_text())
        paths = []
        for outputs in (["msd_combined"], ["gamma_mean_a1"]):
            config_path.write_text(json.dumps(dict(raw, outputs=outputs)))
            paths.append(str(tmp_path / f"{outputs[0]}.csv"))
            assert main(["simulate", str(config_path), "-o", paths[-1]]) == 0
        capsys.readouterr()
        assert main(["compare", *paths]) == 1
        captured = capsys.readouterr()
        assert "the results share no power or coefficient series" \
            in captured.err
        assert "comparison passed" not in captured.out

    def test_missing_input(self, tmp_path, capsys):
        assert main(["compare", str(tmp_path / "a.csv"),
                     str(tmp_path / "b.csv")]) == 2

    @pytest.mark.parametrize("name,text,reason", [
        # the first two used to exit 1 as an invalid experiment
        ("cell.csv", "n,msd_combined\n0,-10\n1,abc\n",
         "could not convert string 'abc'"),
        ("ragged.csv", "n,msd_combined\n0,-10\n1,-11,3\n",
         "the number of columns changed"),
        # used to compare the one named series the rows hold
        ("header.csv", "n,msd_combined,msd_cross\n0,-10\n1,-11\n",
         "its header names 2 series, its rows hold 1"),
        # used to end in a TypeError traceback
        ("list.json", "[1, 2]", "list indices must be integers"),
        # used to load, with series that disagree with the horizon
        ("unequal.json", json.dumps({
            "columns": ["n", "msd_combined", "msd_cross"],
            "series": {"msd_combined": [-10, -11], "msd_cross": [-10]}}),
         "its series differ in length"),
    ], ids=["cell", "ragged", "header", "list", "unequal"])
    def test_malformed_export_exits_two_naming_it(self, tmp_path, capsys,
                                                  name, text, reason):
        good, bad = tmp_path / "good.csv", tmp_path / name
        good.write_text("n,msd_combined\n0,-10\n1,-11\n")
        bad.write_text(text)
        assert main(["compare", str(good), str(bad)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"i/o error: {bad} is not a result export: ")
        assert reason in err and err.count("\n") == 1


class TestScripts:
    @pytest.mark.parametrize("script", ["run_preset_suite",
                                        "run_stepsize_sweep"])
    def test_zero_runs_refused_in_one_line(self, script, tmp_path, capsys):
        # the suite used to run each preset's own count, the sweep to
        # end in a traceback
        script_main = importlib.import_module(script).main
        with pytest.raises(SystemExit) as exit_:
            script_main(["--runs", "0", "--out", str(tmp_path / "out")])
        assert exit_.value.code == 2
        err = capsys.readouterr().err
        assert err.endswith("error: runs must be an integer >= 1, got 0\n")
        assert err.count("\n") == 1

    @pytest.mark.parametrize("script", ["run_preset_suite",
                                        "run_stepsize_sweep"])
    def test_negative_workers_refused_in_one_line(self, script, tmp_path,
                                                  capsys):
        # each used to end in a traceback after loading its presets
        script_main = importlib.import_module(script).main
        with pytest.raises(SystemExit) as exit_:
            script_main(["--workers", "-1", "--out", str(tmp_path / "out")])
        assert exit_.value.code == 2
        err = capsys.readouterr().err
        assert err.endswith("error: workers must be an integer >= 0, got -1\n")
        assert err.count("\n") == 1
        assert not (tmp_path / "out").exists()
