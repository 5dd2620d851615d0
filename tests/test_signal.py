import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from diffcomb import signal
from diffcomb.signal import (
    AR1_COEFF,
    AgentSignalParams,
    ChunkedSampler,
    GeneratorState,
    TargetSchedule,
    load_snr_preset,
    regressor_covariance,
    target_at,
)
from helpers import snr


# The scalar sampling path: one datum at a time from one (run, agent)
# stream pair, the oracle the block-drawing sampler is checked against.

class ScalarStream(GeneratorState):
    """A stream pair plus the autoregressive memory x_{n-1} of ar1 inputs."""

    ar_prev = None


def draw_regressor(p, state):
    """Draw the next regressor from the agent's stream."""
    if p.regressor_kind == "white":
        return np.sqrt(p.sigma_x2) * state.regressor_rng.standard_normal(p.filter_len)
    if state.ar_prev is None:
        state.ar_prev = float(
            np.sqrt(p.sigma_x2) * state.regressor_rng.standard_normal()
        )
    innovation = state.regressor_rng.standard_normal()
    x_new = AR1_COEFF * state.ar_prev + np.sqrt(0.75 * p.sigma_x2) * innovation
    out = np.array([x_new, state.ar_prev])
    state.ar_prev = float(x_new)
    return out


def emit_sample(p, w_star, x, state):
    """Complete one datum: draw noise and form the reference d = x'w* + z;
    returns (reference, noise)."""
    z = float(np.sqrt(p.sigma_z2) * state.noise_rng.standard_normal())
    return float(np.dot(x, w_star)) + z, z


def two_stage_schedule(a=0.0, b=5.0, n_agents=1, L=1, t_len=500):
    stage_a = np.full((n_agents, L), a)
    stage_b = np.full((n_agents, L), b)
    return TargetSchedule(stages=((0, stage_a), (2000, stage_b)), transition_len=t_len)


class TestTargetSchedule:
    def test_stage_start_is_exact(self):
        s = two_stage_schedule()
        np.testing.assert_array_equal(target_at(s, 2000), np.full((1, 1), 5.0))
        np.testing.assert_array_equal(target_at(s, 0), np.zeros((1, 1)))

    def test_transition_midpoint(self):
        s = two_stage_schedule(a=1.0, b=3.0)
        # ramp spans [1500, 2000); its midpoint sits at 1750
        np.testing.assert_allclose(target_at(s, 1750), 2.0)

    def test_interpolant_value(self):
        s = two_stage_schedule(a=0.0, b=5.0)
        np.testing.assert_allclose(target_at(s, 1600), 1.0)

    def test_before_first_stage(self):
        s = two_stage_schedule()
        with pytest.raises(ValueError, match="precedes"):
            target_at(s, -1)

    def test_constant_after_last_stage(self):
        s = two_stage_schedule(b=5.0)
        np.testing.assert_array_equal(target_at(s, 10_000), np.full((1, 1), 5.0))

    def test_ramp_is_linear(self):
        s = two_stage_schedule(a=-2.0, b=4.0)
        values = np.array([target_at(s, n)[0, 0] for n in range(1400, 2100)])
        ramp = values[100:600]  # n in [1500, 2000)
        increments = np.diff(ramp)
        np.testing.assert_allclose(increments, increments[0], atol=1e-12)
        assert np.all(values[:100] == -2.0)
        assert np.all(values[600:] == 4.0)

    def test_nonincreasing_starts_rejected(self):
        w = np.zeros((1, 1))
        with pytest.raises(ValueError, match="increasing"):
            TargetSchedule(stages=((5, w), (5, w)))

    def test_overlapping_transition_rejected(self):
        w = np.zeros((1, 1))
        with pytest.raises(ValueError, match="transition"):
            TargetSchedule(stages=((0, w), (100, w)), transition_len=200)

    @pytest.mark.parametrize("bad", ["0.7", float("nan"), float("inf"),
                                     None, [0.7], True])
    def test_non_number_targets_refused_by_name(self, bad):
        # a quoted target used to be parsed, a NaN one to run; [0.7] makes
        # the rows a ragged nesting; a boolean used to be read as 1
        rows = [[bad, -0.5], [0.7, -0.5]]
        with pytest.raises(ValueError, match="targets is not a number"):
            TargetSchedule.constant(rows)
        with pytest.raises(ValueError, match="targets is not a number"):
            TargetSchedule(stages=((0, np.zeros((2, 2))), (5, rows)))

    @pytest.mark.parametrize("bad,shown", [("0.5", "'0.5'"),
                                           (float("nan"), "nan"),
                                           (None, "None"),
                                           (False, "False")])
    def test_bad_target_named_by_its_entry(self, bad, shown):
        # one bad value among the 500 targets of an L = 50 stage: the
        # message names it by index and does not grow with the stage
        rows = np.full((10, 50), 0.5).tolist()
        rows[3][1] = bad
        with pytest.raises(ValueError) as err:
            TargetSchedule(stages=((0, np.zeros((10, 50))), (5, rows)))
        assert str(err.value) == \
            f"targets is not a number: entry (3, 1) is {shown}"

    def test_integral_times_are_stored_as_ints(self):
        w = np.zeros((1, 1))
        s = TargetSchedule(stages=((0.0, w), (5.0, w)), transition_len=2.0)
        assert [type(start) for start, _ in s.stages] == [int, int]
        assert type(s.transition_len) is int

    @settings(deadline=None, max_examples=25)
    @given(
        starts=st.lists(st.integers(0, 50), min_size=2, max_size=4, unique=True),
        t_len=st.integers(0, 5),
        data=st.data(),
    )
    def test_continuity(self, starts, t_len, data):
        starts = sorted(starts)
        gaps = [b - a for a, b in zip(starts, starts[1:])]
        if min(gaps) <= t_len:
            starts = [s + i * (t_len + 1) for i, s in enumerate(starts)]
        levels = [
            data.draw(st.floats(-5, 5, allow_nan=False)) for _ in starts
        ]
        sched = TargetSchedule(
            stages=tuple((s, np.full((1, 1), lv)) for s, lv in zip(starts, levels)),
            transition_len=t_len,
        )
        values = [target_at(sched, n)[0, 0] for n in range(starts[0], starts[-1] + 3)]
        biggest_jump = max(
            (abs(b - a) for a, b in zip(levels, levels[1:])), default=0.0
        )
        allowed = biggest_jump if t_len == 0 else biggest_jump / t_len
        for a, b in zip(values, values[1:]):
            assert abs(b - a) <= allowed + 1e-9


class TestRegressors:
    def test_white_sample_covariance(self):
        p = AgentSignalParams(sigma_x2=2.0, sigma_z2=0.1, filter_len=3)
        schedule = TargetSchedule.constant(np.zeros((1, 3)))
        sampler = ChunkedSampler([p], schedule, seed=7, runs=[0], horizon=100_000)
        draws = np.array([sampler.step().regressors[0, 0] for _ in range(100_000)])
        cov = draws.T @ draws / len(draws)
        np.testing.assert_allclose(cov, 2.0 * np.eye(3), atol=0.1)

    def test_ar1_moments(self):
        p = AgentSignalParams(
            sigma_x2=1.5, sigma_z2=0.1, filter_len=2, regressor_kind="ar1"
        )
        state = ScalarStream(seed=3, run=0, agent=0)
        draws = np.array([draw_regressor(p, state) for _ in range(40_000)])
        assert np.var(draws[:, 0]) == pytest.approx(1.5, rel=0.05)
        corr = np.corrcoef(draws[:, 0], draws[:, 1])[0, 1]
        assert corr == pytest.approx(0.5, rel=0.05)

    def test_ar1_covariance_matrix(self):
        p = AgentSignalParams(
            sigma_x2=2.0, sigma_z2=0.1, filter_len=2, regressor_kind="ar1"
        )
        np.testing.assert_allclose(
            regressor_covariance(p), [[2.0, 1.0], [1.0, 2.0]]
        )

    def test_ar1_needs_two_taps(self):
        with pytest.raises(ValueError, match="filter_len = 2"):
            AgentSignalParams(
                sigma_x2=1.0, sigma_z2=0.1, filter_len=3, regressor_kind="ar1"
            )

    def test_same_seed_same_stream(self):
        p = AgentSignalParams(sigma_x2=1.0, sigma_z2=0.2, filter_len=4)
        a = ScalarStream(seed=11, run=2, agent=5)
        b = ScalarStream(seed=11, run=2, agent=5)
        for _ in range(50):
            np.testing.assert_array_equal(draw_regressor(p, a), draw_regressor(p, b))

    def test_runs_get_independent_streams(self):
        p = AgentSignalParams(sigma_x2=1.0, sigma_z2=0.2, filter_len=4)
        a = ScalarStream(seed=11, run=0, agent=0)
        b = ScalarStream(seed=11, run=1, agent=0)
        assert not np.array_equal(draw_regressor(p, a), draw_regressor(p, b))


class TestEmit:
    def test_noiseless_reference(self):
        p = AgentSignalParams(sigma_x2=1.0, sigma_z2=0.0, filter_len=2)
        state = ScalarStream(0, 0, 0)
        x = np.array([1.0, -2.0])
        w = np.array([0.5, 0.25])
        reference, noise = emit_sample(p, w, x, state)
        assert reference == 1.0 * 0.5 - 2.0 * 0.25
        assert noise == 0.0

    def test_zero_regressor(self):
        p = AgentSignalParams(sigma_x2=1.0, sigma_z2=0.3, filter_len=2)
        state = ScalarStream(0, 0, 0)
        reference, noise = emit_sample(p, np.ones(2), np.zeros(2), state)
        assert reference == noise

    def test_model_identity_holds_exactly(self):
        p = AgentSignalParams(sigma_x2=1.0, sigma_z2=0.5, filter_len=3)
        state = ScalarStream(5, 0, 0)
        w = np.array([0.3, -1.2, 0.7])
        for _ in range(200):
            x = draw_regressor(p, state)
            reference, noise = emit_sample(p, w, x, state)
            assert reference == float(np.dot(x, w)) + noise

    def test_noise_variance(self):
        p = AgentSignalParams(sigma_x2=1.0, sigma_z2=0.4, filter_len=1)
        state = ScalarStream(9, 0, 0)
        w = np.zeros(1)
        noises = [
            emit_sample(p, w, draw_regressor(p, state), state)[1]
            for _ in range(100_000)
        ]
        assert np.var(noises) == pytest.approx(0.4, rel=0.05)


class TestSnr:
    def test_zero_db(self):
        p = AgentSignalParams(sigma_x2=1.0, sigma_z2=3.0, filter_len=1)
        # w*'Rw* = 3 = sigma_z2
        assert snr(p, np.array([np.sqrt(3.0)])) == pytest.approx(0.0, abs=1e-12)

    def test_ten_db(self):
        p = AgentSignalParams(sigma_x2=1.0, sigma_z2=0.5, filter_len=1)
        assert snr(p, np.array([np.sqrt(5.0)])) == pytest.approx(10.0, abs=1e-12)

    def test_zero_noise_rejected(self):
        p = AgentSignalParams(sigma_x2=1.0, sigma_z2=0.0, filter_len=1)
        with pytest.raises(ValueError, match="zero noise"):
            snr(p, np.ones(1))

    @pytest.mark.parametrize(
        "level,stats",
        [
            ("snr1", (3.5724, 1.6673, 2.7946)),
            ("snr2", (-9.4379, -11.343, -10.2157)),
            ("snr3", (-18.9803, -20.8855, -19.7581)),
        ],
    )
    @pytest.mark.parametrize("kind", ["white", "ar1"])
    @pytest.mark.parametrize("n", [10, 20])
    def test_bundled_levels(self, level, stats, kind, n):
        params, w_star = load_snr_preset(n, level, kind)
        values = [snr(p, w_star) for p in params]
        hi, lo, mean = stats
        assert max(values) == pytest.approx(hi, abs=0.05)
        assert min(values) == pytest.approx(lo, abs=0.05)
        assert np.mean(values) == pytest.approx(mean, abs=0.05)

    def test_unknown_preset_keys(self):
        with pytest.raises(ValueError, match="no bundled"):
            load_snr_preset(15, "snr1", "white")
        with pytest.raises(ValueError, match="unknown SNR level"):
            load_snr_preset(10, "snr9", "white")


class TestChunkedSampler:
    def _params(self, kinds):
        return [
            AgentSignalParams(
                sigma_x2=1.0 + 0.2 * k,
                sigma_z2=0.1 + 0.05 * k,
                filter_len=2,
                regressor_kind=kind,
            )
            for k, kind in enumerate(kinds)
        ]

    def _scalar_reference(self, params, schedule, seed, run, horizon):
        states = [ScalarStream(seed, run, k) for k in range(len(params))]
        xs, ds, zs = [], [], []
        for n in range(horizon):
            w = target_at(schedule, n)
            row_x, row_d, row_z = [], [], []
            for k, p in enumerate(params):
                x = draw_regressor(p, states[k])
                reference, noise = emit_sample(p, w[k], x, states[k])
                row_x.append(x)
                row_d.append(reference)
                row_z.append(noise)
            xs.append(row_x)
            ds.append(row_d)
            zs.append(row_z)
        return np.array(xs), np.array(ds), np.array(zs)

    def _blocked(self, monkeypatch, params, schedule, seed, runs, horizon,
                 block):
        """A sampler whose value rule gives blocks of block instants."""
        values = len(runs) * len(params) * schedule.filter_len
        monkeypatch.setattr(signal, "_BLOCK_VALUES", block * values)
        sampler = ChunkedSampler(params, schedule, seed, runs, horizon)
        assert sampler.block_len == block
        return sampler

    @pytest.mark.parametrize("kinds", [("white", "white"), ("ar1", "ar1"), ("white", "ar1")])
    def test_matches_scalar_path(self, kinds, monkeypatch):
        params = self._params(kinds)
        schedule = TargetSchedule.constant(np.tile([0.4, -0.7], (2, 1)))
        horizon = 300
        sampler = self._blocked(monkeypatch, params, schedule, 21, [0, 1],
                                horizon, 64)
        got = [sampler.step() for _ in range(horizon)]
        for run in (0, 1):
            xs, ds, zs = self._scalar_reference(params, schedule, 21, run, horizon)
            np.testing.assert_array_equal(
                np.array([g.regressors[run] for g in got]), xs
            )
            np.testing.assert_array_equal(np.array([g.noises[run] for g in got]), zs)
            np.testing.assert_allclose(
                np.array([g.references[run] for g in got]), ds,
                rtol=1e-13, atol=1e-13,
            )

    def test_block_length_does_not_change_data(self, monkeypatch):
        params = self._params(("ar1", "white"))
        schedule = TargetSchedule.constant(np.zeros((2, 2)))
        a = self._blocked(monkeypatch, params, schedule, 5, [0], 250, 17)
        b = self._blocked(monkeypatch, params, schedule, 5, [0], 250, 100)
        for _ in range(250):
            sa, sb = a.step(), b.step()
            np.testing.assert_array_equal(sa.regressors, sb.regressors)
            np.testing.assert_array_equal(sa.noises, sb.noises)

    def test_run_data_independent_of_grouping(self, monkeypatch):
        params = self._params(("white", "ar1"))
        schedule = TargetSchedule.constant(np.zeros((2, 2)))
        solo = self._blocked(monkeypatch, params, schedule, 8, [3], 120, 50)
        grouped = self._blocked(monkeypatch, params, schedule, 8,
                                [0, 1, 2, 3, 4], 120, 50)
        for _ in range(120):
            ss, gg = solo.step(), grouped.step()
            np.testing.assert_array_equal(ss.regressors[0], gg.regressors[3])
            np.testing.assert_array_equal(ss.noises[0], gg.noises[3])

    def test_default_block_bounds_regressor_values(self, monkeypatch):
        # 25 runs of 10 agents at L = 50: 12,500 values an instant
        params = [AgentSignalParams(sigma_x2=1.0, sigma_z2=0.1, filter_len=50)
                  ] * 10
        schedule = TargetSchedule.constant(np.full((10, 50), 0.2))
        runs = range(25)
        default = ChunkedSampler(params, schedule, seed=3, runs=runs,
                                 horizon=100)
        assert default.block_len == 41
        long = self._blocked(monkeypatch, params, schedule, 3, runs, 100, 512)
        for _ in range(100):  # crosses two default refills
            sd, sl = default.step(), long.step()
            assert default._block[0].size <= 2 ** 19
            np.testing.assert_array_equal(sd.regressors, sl.regressors)
            np.testing.assert_array_equal(sd.references, sl.references)
            np.testing.assert_array_equal(sd.noises, sl.noises)

    @pytest.mark.parametrize("runs,agents,length,expected", [
        (25, 10, 2, 512), (64, 8, 2, 512), (25, 41, 1, 511)])
    def test_default_block_is_512_up_to_1024_values(self, runs, agents,
                                                    length, expected):
        params = [AgentSignalParams(sigma_x2=1.0, sigma_z2=0.1,
                                    filter_len=length)] * agents
        schedule = TargetSchedule.constant(np.zeros((agents, length)))
        sampler = ChunkedSampler(params, schedule, seed=3, runs=range(runs),
                                 horizon=1000)
        assert sampler.block_len == expected

    @pytest.mark.parametrize("block", [512, 64])
    def test_horizon_stops_every_stream_at_the_horizon(self, block,
                                                       monkeypatch):
        params = self._params(("white", "ar1", "white"))
        schedule = TargetSchedule.constant(np.tile([0.4, -0.7], (3, 1)))
        runs = [0, 3]
        capped = self._blocked(monkeypatch, params, schedule, 5, runs, 200,
                               block)
        full = self._blocked(monkeypatch, params, schedule, 5, runs, 1000,
                             512)
        for _ in range(200):
            sc, sf = capped.step(), full.step()
            np.testing.assert_array_equal(sc.regressors, sf.regressors)
            np.testing.assert_array_equal(sc.references, sf.references)
            np.testing.assert_array_equal(sc.noises, sf.noises)
        # a fresh stream that draws exactly 200 instants ends in the same
        # state: 2 normals per white regressor, one more (the start) for
        # an AR(1) stream, one per noise sample
        for i, run in enumerate(runs):
            for k, p in enumerate(params):
                fresh = GeneratorState(5, run, k)
                fresh.regressor_rng.standard_normal(
                    400 if p.regressor_kind == "white" else 201)
                fresh.noise_rng.standard_normal(200)
                used = capped._states[i][k]
                assert (used.regressor_rng.bit_generator.state
                        == fresh.regressor_rng.bit_generator.state)
                assert (used.noise_rng.bit_generator.state
                        == fresh.noise_rng.bit_generator.state)
        with pytest.raises(ValueError, match="exhausted"):
            capped.step()


class TestParamValidation:
    def test_bad_variances(self):
        with pytest.raises(ValueError, match="sigma_x2"):
            AgentSignalParams(sigma_x2=0.0, sigma_z2=0.1, filter_len=2)
        with pytest.raises(ValueError, match="sigma_z2"):
            AgentSignalParams(sigma_x2=1.0, sigma_z2=-0.1, filter_len=2)

    def test_bad_kind(self):
        with pytest.raises(ValueError, match="regressor kind"):
            AgentSignalParams(
                sigma_x2=1.0, sigma_z2=0.1, filter_len=2, regressor_kind="pink"
            )
