import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from diffcomb.combine import (
    CombinerConfig,
    CombinerState,
    combine_weights,
    init_combiner,
    multi_update,
    pn_update,
    sr_update,
)


def pn_cfg(nu=0.01):
    return CombinerConfig(scheme="power_normalized", nu_gamma=nu)


def sr_cfg(nu=0.015):
    return CombinerConfig(scheme="sign_regressor", nu_gamma=nu)


def multi_cfg(nu_alpha=0.1, delta=0.01):
    return CombinerConfig(
        scheme="multi_sign", nu_gamma=0.01, nu_alpha=nu_alpha, delta=delta
    )


class TestCombineWeights:
    def test_gamma_one_selects_first(self):
        state = CombinerState(gamma=np.array([1.0]))
        w1 = np.array([[2.0], [3.0]])
        w2 = np.array([[9.0], [-9.0]])
        np.testing.assert_array_equal(combine_weights(state, [w1, w2]), w1)

    def test_opposite_estimates_cancel(self):
        state = CombinerState(gamma=np.array([0.5]))
        w1 = np.array([[1.0], [-2.0]])
        np.testing.assert_allclose(combine_weights(state, [w1, -w1]), 0.0)

    def test_affine_extrapolation_legal(self):
        state = CombinerState(gamma=np.array([2.0]))
        w1 = np.array([[1.0]])
        w2 = np.array([[0.0]])
        np.testing.assert_allclose(combine_weights(state, [w1, w2]), [[2.0]])

    def test_shape_mismatch(self):
        state = CombinerState(gamma=np.array([0.5]))
        with pytest.raises(ValueError, match="shape"):
            combine_weights(state, [np.zeros((2, 1)), np.zeros((3, 1))])

    @settings(deadline=None, max_examples=50)
    @given(
        gamma=st.floats(-3, 3),
        e1=st.floats(-5, 5),
        e2=st.floats(-5, 5),
        z=st.floats(-1, 1),
    )
    def test_errors_combine_affinely(self, gamma, e1, e2, z):
        # a priori errors mix with the same coefficients as the weights
        x = np.array([[1.0], [2.0]])
        w_star = np.array([[1.0], [-1.0]])
        # choose component estimates whose a priori errors are e1, e2
        w1 = w_star - np.array([[e1 / 5.0], [2 * e1 / 5.0]])
        w2 = w_star - np.array([[e2 / 5.0], [2 * e2 / 5.0]])
        state = CombinerState(gamma=np.array([gamma]))
        w = combine_weights(state, [w1, w2])
        et1 = float(x[:, 0] @ (w_star - w1)[:, 0])
        et2 = float(x[:, 0] @ (w_star - w2)[:, 0])
        et = float(x[:, 0] @ (w_star - w)[:, 0])
        assert et == pytest.approx(gamma * et1 + (1 - gamma) * et2, abs=1e-9)
        d = float(x[:, 0] @ w_star[:, 0]) + z
        e = d - float(x[:, 0] @ w[:, 0])
        assert e == pytest.approx(et + z, abs=1e-9)


class TestPowerNormalized:
    def test_identical_components_freeze_gamma(self):
        cfg = pn_cfg()
        state = init_combiner(cfg, 2, 1)
        state.p[:] = 0.4
        new = pn_update(cfg, state, e=np.array([2.0]), delta_y=np.array([0.0]))
        assert new.gamma[0] == 0.5
        assert new.p[0] == pytest.approx(0.95 * 0.4, abs=1e-15)

    def test_hand_update(self):
        cfg = CombinerConfig(
            scheme="power_normalized", nu_gamma=0.01, epsilon=0.05, eta=0.95
        )
        state = init_combiner(cfg, 2, 1)
        new = pn_update(cfg, state, e=np.array([1.0]), delta_y=np.array([1.0]))
        assert new.p[0] == pytest.approx(0.05, abs=1e-15)
        assert new.gamma[0] == pytest.approx(0.6, abs=1e-15)

    def test_zero_step_size_freezes(self):
        cfg = CombinerConfig(scheme="power_normalized", nu_gamma=0.0)
        state = init_combiner(cfg, 2, 3)
        rng = np.random.default_rng(0)
        for _ in range(10):
            state = pn_update(
                cfg, state, rng.standard_normal(3), rng.standard_normal(3)
            )
        np.testing.assert_array_equal(state.gamma, 0.5)

    def test_power_updates_before_gamma(self):
        # the gamma increment must see the refreshed power estimate
        cfg = CombinerConfig(
            scheme="power_normalized", nu_gamma=0.1, epsilon=0.05, eta=0.5
        )
        state = init_combiner(cfg, 2, 1)
        new = pn_update(cfg, state, e=np.array([1.0]), delta_y=np.array([3.0]))
        # p = 0.5*0 + 0.5*9 = 4.5; with the stale p the step would be
        # 0.1/0.05*3 = 6, with the fresh one 0.1/4.55*3
        assert new.gamma[0] == pytest.approx(0.5 + 0.1 / 4.55 * 3.0, abs=1e-12)


class TestSignRegressor:
    def test_zero_difference_is_fixed_point(self):
        cfg = sr_cfg()
        state = init_combiner(cfg, 2, 1)
        new = sr_update(cfg, state, e=np.array([5.0]), delta_y=np.array([0.0]))
        assert new.gamma[0] == 0.5

    def test_hand_update(self):
        cfg = sr_cfg(nu=0.015)
        state = init_combiner(cfg, 2, 1)
        new = sr_update(cfg, state, e=np.array([-2.0]), delta_y=np.array([0.7]))
        assert new.gamma[0] == pytest.approx(0.47, abs=1e-15)

    def test_sign_antisymmetry(self):
        cfg = sr_cfg()
        state = init_combiner(cfg, 2, 1)
        up = sr_update(cfg, state, np.array([1.0]), np.array([2.0]))
        down = sr_update(cfg, state, np.array([1.0]), np.array([-2.0]))
        assert up.gamma[0] - 0.5 == pytest.approx(-(down.gamma[0] - 0.5), abs=1e-15)

    def test_magnitude_of_difference_ignored(self):
        cfg = sr_cfg()
        state = init_combiner(cfg, 2, 1)
        a = sr_update(cfg, state, np.array([1.0]), np.array([0.1]))
        b = sr_update(cfg, state, np.array([1.0]), np.array([100.0]))
        assert a.gamma[0] == b.gamma[0]


class TestMulti:
    def test_equal_scores_give_uniform_coefficients(self):
        cfg = multi_cfg()
        state = init_combiner(cfg, 4, 3)
        np.testing.assert_allclose(state.gamma, 0.25, atol=1e-15)

    def test_hand_update(self):
        cfg = multi_cfg(nu_alpha=0.1, delta=0.01)
        state = CombinerState(
            gamma=np.full((2, 1), 0.5), alpha=np.ones((2, 1))
        )
        new = multi_update(
            cfg,
            state,
            e=np.array([1.0]),
            component_errors=np.array([[2.0], [0.0]]),
        )
        np.testing.assert_allclose(new.alpha[:, 0], [0.9, 1.1], atol=1e-15)
        np.testing.assert_allclose(
            new.gamma[:, 0], [0.91 / 2.02, 1.11 / 2.02], atol=1e-15
        )
        assert new.degenerate_events == 0

    @settings(deadline=None, max_examples=60)
    @given(
        alpha=arrays(
            float,
            (3, 2),
            elements=st.floats(0.0, 5.0, allow_nan=False),
        )
    )
    def test_mapping_sums_to_one(self, alpha):
        cfg = multi_cfg()
        state = CombinerState(gamma=None, alpha=alpha)
        new = multi_update(
            cfg, state, e=np.zeros(2), component_errors=np.zeros((3, 2))
        )
        np.testing.assert_allclose(new.gamma.sum(axis=0), 1.0, atol=1e-12)

    @settings(deadline=None, max_examples=60)
    @given(
        alpha=arrays(float, (3,), elements=st.floats(0.0, 5.0)),
        bump=st.floats(0.01, 2.0),
        idx=st.integers(0, 2),
    )
    def test_mapping_monotone_in_own_score(self, alpha, bump, idx):
        from diffcomb.combine import _multi_mapping

        cfg = multi_cfg()
        g0, _ = _multi_mapping(cfg, alpha[:, None])
        bumped = alpha.copy()
        bumped[idx] += bump
        g1, _ = _multi_mapping(cfg, bumped[:, None])
        assert g1[idx, 0] > g0[idx, 0]

    def test_nonpositive_denominator_clamped_and_flagged(self):
        cfg = multi_cfg(delta=0.01)
        state = CombinerState(gamma=None, alpha=np.array([[-3.0], [1.0]]))
        new = multi_update(
            cfg, state, e=np.array([0.5]), component_errors=np.zeros((2, 1))
        )
        assert new.degenerate_events > 0
        assert np.all(np.isfinite(new.gamma))

    @pytest.mark.parametrize("m", [2, 3, 5])
    def test_denominator_counts_score_rows(self, m):
        # M is read from the scores, not configured
        from diffcomb.combine import _denominator

        alpha = np.arange(2.0 * m).reshape(m, 2)
        denom, clamped = _denominator(multi_cfg(delta=0.01), alpha)
        np.testing.assert_array_equal(
            denom, alpha.sum(axis=0, keepdims=True) + m * 0.01)
        assert clamped == 0

    def test_wrong_component_count(self):
        cfg = multi_cfg()
        state = init_combiner(cfg, 3, 1)
        with pytest.raises(ValueError, match="component error rows"):
            multi_update(cfg, state, np.zeros(1), np.zeros((2, 1)))


class TestInit:
    def test_two_component_start(self):
        cfg = pn_cfg()
        state = init_combiner(cfg, 2, 5, batch_shape=(3,))
        assert state.gamma.shape == (3, 5)
        np.testing.assert_array_equal(state.gamma, 0.5)
        np.testing.assert_array_equal(state.p, 0.0)

    def test_multi_start(self):
        cfg = multi_cfg()
        state = init_combiner(cfg, 3, 4)
        np.testing.assert_allclose(state.alpha, 1 / 3)
        np.testing.assert_allclose(state.gamma.sum(axis=0), 1.0, atol=1e-12)


class TestValidation:
    def test_unknown_scheme(self):
        with pytest.raises(ValueError, match="scheme"):
            CombinerConfig(scheme="least_squares")

    def test_eta_range(self):
        with pytest.raises(ValueError, match="eta"):
            CombinerConfig(scheme="power_normalized", eta=1.0)

    def test_multi_needs_nu_alpha(self):
        with pytest.raises(ValueError, match="nu_alpha"):
            CombinerConfig(scheme="multi_sign")

    @pytest.mark.parametrize("name", ["nu_gamma", "epsilon", "eta", "delta",
                                      "nu_alpha"])
    def test_non_numbers_refused_by_name(self, name):
        kwargs = {"scheme": "multi_sign", "nu_alpha": 0.1, name: "x"}
        with pytest.raises(ValueError, match=f"{name} is not a number"):
            CombinerConfig(**kwargs)

    def test_non_numeric_entry_refused(self):
        with pytest.raises(ValueError, match="nu_gamma is not a number"):
            CombinerConfig(scheme="power_normalized", nu_gamma=[0.1, "x"])

    def test_component_count_is_not_a_setting(self):
        with pytest.raises(TypeError, match="'m'"):
            CombinerConfig(scheme="multi_sign", nu_alpha=0.1, m=3)

