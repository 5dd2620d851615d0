"""Tests for the deterministic moment evolution of combined diffusion pairs.

The covariance recursions are checked against an independently coded
weighted-norm recursion (the vectorized route), against Monte Carlo
estimates of the gradient-noise moments, and against scalar closed forms.
Coefficient-moment updates are checked on hand-computed values and their
stationary expressions are verified to be fixed points of the iteration.
The blocked evolve is checked against a per-instant loop kept here as
an oracle, alone and inside run_theory on every preset: the covariance
bit for bit, the means and what they drive to 1e-12 of scale.
"""

import dataclasses

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

from diffcomb.combine import CombinerConfig
from diffcomb.diffusion import StrategyConfig
from diffcomb.graph import StochasticMatrix, Topology, build_preset, static_rule
from diffcomb.harness import load_preset_config
from diffcomb.signal import regressor_covariance
from diffcomb.theory import (
    DELTA_J_FLOOR,
    InstabilityError,
    MomentState,
    build_component_model,
    coefficient_steady,
    covariance_step,
    evolve,
    initial_moments,
    mean_step,
    mix,
    mu_bounds,
    shift_targets,
    stability_bounds,
    steady_state,
    universality_report,
)
from diffcomb import harness, theory
from diffcomb.theory import _build_model, _diagonal_blocks, _readouts
from helpers import (
    assert_same_series,
    assert_scaled_close,
    coefficient_step,
    strategy,
)


def pn_cfg(nu=0.01, eta=0.95, epsilon=0.05):
    return CombinerConfig(scheme="power_normalized", nu_gamma=nu,
                          eta=eta, epsilon=epsilon)


def sr_cfg(nu=0.015):
    return CombinerConfig(scheme="sign_regressor", nu_gamma=nu)


def chain_topology(n):
    adj = np.eye(n, dtype=bool)
    for i in range(n - 1):
        adj[i, i + 1] = adj[i + 1, i] = True
    return Topology(n_agents=n, adjacency=adj)


def random_stochastic(topology, role, rng):
    raw = topology.adjacency * rng.uniform(0.2, 1.0, size=(topology.n_agents,) * 2)
    axis = 0 if role == "left" else 1
    return StochasticMatrix(raw / raw.sum(axis=axis, keepdims=True), role)


def random_spd_covariances(rng, n, l):
    rx = np.empty((n, l, l))
    for k in range(n):
        m = 0.3 * rng.normal(size=(l, l))
        rx[k] = 0.5 * (m + m.T) + (1.0 + rng.uniform(0.0, 0.5)) * np.eye(l)
    return rx


def random_setup(seed, n=3, l=1, single_task=False, mu=0.06):
    """Random chain network with stochastic combiners and SPD statistics."""
    rng = np.random.default_rng(seed)
    topology = chain_topology(n)
    a1 = random_stochastic(topology, "left", rng)
    a2 = random_stochastic(topology, "left", rng)
    c = random_stochastic(topology, "right", rng)
    cfg = StrategyConfig(topology=topology, a1=a1, c=c, mu=mu, a2=a2)
    rx = random_spd_covariances(rng, n, l)
    sigma_z2 = rng.uniform(0.05, 0.3, size=n)
    if single_task:
        w = np.tile(rng.normal(size=l), (n, 1))
    else:
        w = rng.normal(size=(n, l))
    return topology, cfg, rx, sigma_z2, w


def random_model(seed, n=3, l=1, single_task=False, mu=0.06):
    """One random strategy paired with itself: b[0] and rbar[0] are its
    transition and drift."""
    topology, cfg, rx, sigma_z2, w = random_setup(
        seed, n=n, l=l, single_task=single_task, mu=mu)
    model = build_component_model(topology, [cfg, cfg], rx, sigma_z2, w)
    rho = np.max(np.abs(np.linalg.eigvals(model.b[0])))
    assert rho < 1.0, f"random model unstable (rho={rho})"
    return model


def random_pair_setup(seed, n=3, l=1, single_task=False, mus=(0.05, 0.09)):
    """Two strategy configs over the same network and data statistics."""
    topology, _, rx, sigma_z2, w = random_setup(
        seed, n=n, l=l, single_task=single_task)
    rng = np.random.default_rng(seed + 1000)
    cfgs = [StrategyConfig(topology=topology,
                           a1=random_stochastic(topology, "left", rng),
                           c=random_stochastic(topology, "right", rng),
                           mu=mu,
                           a2=random_stochastic(topology, "left", rng))
            for mu in mus]
    return topology, cfgs, rx, sigma_z2, w


def random_pair(seed, n=3, l=1, single_task=False, mus=(0.05, 0.09)):
    """Two strategies over the same network observing the same data."""
    topology, cfgs, rx, sigma_z2, w = random_pair_setup(
        seed, n=n, l=l, single_task=single_task, mus=mus)
    pair = build_component_model(topology, cfgs, rx, sigma_z2, w)
    assert np.max(np.abs(np.linalg.eigvals(pair.b))) < 1.0
    return pair


def scalar_model(mu=0.01, sx=1.0, sz=0.1, target=2.0):
    """One agent with identity combiners; mu is one step-size for both
    components or a pair (mu1, mu2)."""
    topology = Topology(n_agents=1, adjacency=np.ones((1, 1), dtype=bool))
    ident = static_rule(topology, "identity")
    cfgs = [StrategyConfig(topology=topology, a1=ident,
                           c=StochasticMatrix(ident.entries, "right"),
                           mu=step, a2=ident)
            for step in np.broadcast_to(mu, (2,))]
    return build_component_model(topology, cfgs, np.array([[[sx]]]),
                                 np.array([sz]), np.array([[target]]))


def raw_moment(m1, m2, p):
    """E{v1 v2^T} = p kron I + m1 m2^T from a centered factor."""
    return np.kron(p, np.eye(m1.shape[0] // p.shape[0])) + np.outer(m1, m2)


def raw_moments(m, p):
    """The three raw NL x NL moments (om11, om22, om12) of a stacked state."""
    return [raw_moment(m[i], m[j], p[k])
            for k, (i, j) in enumerate(((0, 0), (1, 1), (0, 1)))]


def stacked(m1, m2, p11, p22, p12):
    return np.stack((m1, m2)), np.stack((p11, p22, p12))


def readouts(weights, m, p):
    """_readouts of a state given by its full factors p."""
    return _readouts(weights, m, _diagonal_blocks(p, weights.shape[1]))


def state_moments(state):
    """A moment state with its covariances rebuilt as raw NL x NL moments."""
    om1, om2, omx = raw_moments(state.m, state.p)
    return {"m": state.m, "om1": om1, "om2": om2, "omx": omx,
            "gbar": state.gbar, "g2bar": state.g2bar, "pbar": state.pbar}


def excess_errors(om, rx):
    """Per-agent tr(R_{x,k} Om_kk) of a dense second moment."""
    rx = np.asarray(rx, dtype=float)
    n, l = rx.shape[:2]
    return np.einsum("kikj,kji->k", np.asarray(om).reshape(n, l, n, l), rx)


def universality_of(j1, j2, j12):
    """universality_report with the drivers formed as differences."""
    j1, j2, j12 = (np.asarray(v, dtype=float) for v in (j1, j2, j12))
    return universality_report(j1, j2, j12, j1 - j12, j2 - j12)


def vec_col(mat):
    return np.asarray(mat).reshape(-1, order="F")


def unvec_col(flat, nl):
    return np.asarray(flat).reshape(nl, nl, order="F")


def weighted_norm_curve(model, k, sigma_mat, n_steps):
    """E{||v_n||^2_Sigma} through the vectorized recursion, for component
    k of a pair model.

    Maintains the propagated weighting K^n sigma and a drift accumulator
    instead of the full covariance matrix, so it shares no code path
    with covariance_step.
    """
    bbar, rbar = model.b[k], model.rbar[k]
    nl = model.w_star.size
    sigma = vec_col(sigma_mat)
    kk = np.kron(bbar.T, bbar.T)
    eye_k = np.eye(nl * nl)
    v0 = -model.w_star
    m = v0.copy()
    vec_gt = vec_col(model.g[k].T)
    lam = np.zeros(nl * nl)
    kns = sigma.copy()
    xi = np.empty(n_steps + 1)
    xi[0] = v0 @ sigma_mat @ v0
    for n in range(n_steps):
        knext = kk @ kns
        bm = bbar @ m
        drift_row = np.kron(bm, rbar)
        delta = vec_gt @ kns
        delta += rbar @ unvec_col(kns, nl) @ rbar
        delta -= v0 @ unvec_col(kns - knext, nl) @ v0
        delta -= 2.0 * (lam + drift_row) @ sigma
        xi[n + 1] = xi[n] + delta
        lam = lam @ kk + drift_row @ (kk - eye_k)
        m = bbar @ m - rbar
        kns = knext
    return xi


def cross_norm_curve(pair, sigma_mat, n_steps):
    """E{v1_n^T Sigma v2_n} through the vectorized recursion."""
    (b1, b2), (r1, r2) = pair.b, pair.rbar
    nl = pair.w_star.size
    sigma = vec_col(sigma_mat)
    kx = np.kron(b2.T, b1.T)
    eye_k = np.eye(nl * nl)
    vec_gxt = vec_col(pair.g[2])
    v01 = -pair.w_star
    v02 = -pair.w_star
    m1 = v01.copy()
    m2 = v02.copy()
    pi1 = np.zeros(nl * nl)
    pi2 = np.zeros(nl * nl)
    kns = sigma.copy()
    xi = np.empty(n_steps + 1)
    xi[0] = v01 @ sigma_mat @ v02
    for n in range(n_steps):
        knext = kx @ kns
        bm1 = b1 @ m1
        bm2 = b2 @ m2
        row1 = np.kron(r2, bm1)
        row2 = np.kron(bm2, r1)
        delta = vec_gxt @ kns
        delta += (pi1 + pi2) @ sigma
        delta -= (row1 + row2) @ sigma
        delta -= v01 @ unvec_col(kns - knext, nl) @ v02
        delta += r1 @ unvec_col(kns, nl) @ r2
        xi[n + 1] = xi[n] + delta
        pi1 = pi1 @ kx + row1 @ (eye_k - kx)
        pi2 = pi2 @ kx + row2 @ (eye_k - kx)
        m1 = b1 @ m1 - r1
        m2 = b2 @ m2 - r2
        kns = knext
    return xi


class TestModelBuild:
    def test_scalar_transition_and_noise_moment(self):
        model = scalar_model(mu=0.01, sx=1.0, sz=0.1)
        assert model.b.shape == (2, 1, 1)
        assert model.b[0, 0, 0] == 1.0 - 0.01 * 1.0
        np.testing.assert_allclose(model.g[:, 0, 0],
                                   0.01**2 * 0.1 * 1.0, rtol=1e-14)
        assert model.rbar[0, 0] == 0.0

    def test_scalar_drift_for_offset_target(self):
        # one agent, identity combiners: the drift must vanish even
        # though the target is nonzero
        model = scalar_model(mu=0.5, sx=2.0, sz=0.3, target=-1.5)
        assert model.rbar[0, 0] == 0.0
        assert model.b[0, 0, 0] == 1.0 - 0.5 * 2.0

    def test_shared_target_has_no_drift(self):
        topology = build_preset("net1")
        rng = np.random.default_rng(11)
        cfg = StrategyConfig(
            topology=topology,
            a1=random_stochastic(topology, "left", rng),
            c=random_stochastic(topology, "right", rng),
            mu=0.05,
            a2=random_stochastic(topology, "left", rng),
        )
        rx = random_spd_covariances(rng, topology.n_agents, 2)
        w = np.tile(rng.normal(size=2), (topology.n_agents, 1))
        model = build_component_model(topology, [cfg, cfg], rx, 0.1, w)
        assert np.max(np.abs(model.rbar[0])) < 1e-10

    def test_distinct_targets_produce_drift(self):
        model = random_model(3, n=3, l=2)
        assert np.max(np.abs(model.rbar[0])) > 1e-6

    def test_block_shapes_and_data_matrices(self):
        topology, cfg, rx, sigma_z2, w = random_setup(0, n=4, l=2)
        pair = build_component_model(topology, [cfg, cfg], rx, sigma_z2, w)
        nl = 8
        assert pair.w_star.shape == (nl,)
        assert (pair.n_agents, pair.filter_len, pair.kron_len) == (4, 2, 1)
        assert pair.g.shape == pair.left.shape == (3, nl, nl)
        assert pair.b.shape == (2, nl, nl) and pair.rbar.shape == (2, nl)
        assert pair.c.shape == (2, 4, 4) and pair.mu.shape == (2, 4)
        c = np.array(cfg.c.entries)
        data = np.einsum("lk,lij->kij", c, rx)
        expected = [2.0 / np.max(np.linalg.eigvalsh(d)) for d in data]
        np.testing.assert_allclose(mu_bounds(pair.c[0], pair.rx), expected,
                                   rtol=1e-13)

    def test_noise_moment_symmetric_and_psd(self):
        pair = random_pair(4, n=3, l=2)
        for g in pair.g[:2]:
            np.testing.assert_array_equal(g, g.T)
            assert np.min(np.linalg.eigvalsh(g)) >= -1e-12

    def test_rejects_adaptive_fusion(self):
        topology = chain_topology(3)
        ident = static_rule(topology, "identity")
        cfg = StrategyConfig(topology=topology, a1=ident,
                             c=StochasticMatrix(ident.entries, "right"),
                             mu=0.1, a2=None, a2_mode="adaptive_projection")
        rx = np.tile(np.eye(1), (3, 1, 1))
        static = strategy(topology, 0.1)
        for cfgs in ([cfg, static], [static, cfg]):
            with pytest.raises(ValueError, match="static"):
                build_component_model(topology, cfgs, rx, 0.1,
                                      np.zeros((3, 1)))

    def test_rejects_foreign_topology(self):
        topology, cfg, rx, sigma_z2, w = random_setup(1, n=3)
        other = chain_topology(4)
        with pytest.raises(ValueError, match="different topology"):
            build_component_model(other, [cfg, cfg], rx, sigma_z2, w)

    def test_rejects_other_than_two_components(self):
        topology, cfg, rx, sigma_z2, w = random_setup(1, n=3)
        for cfgs in ([cfg], [cfg] * 3):
            with pytest.raises(ValueError, match="two components"):
                build_component_model(topology, cfgs, rx, sigma_z2, w)

    def test_rejects_bad_covariances(self):
        topology, cfg, _, sigma_z2, w = random_setup(2, n=3, l=2)
        cfgs = [cfg, cfg]
        with pytest.raises(ValueError, match="shape"):
            build_component_model(topology, cfgs, np.ones((3, 2)), sigma_z2,
                                  w)
        skew = np.tile(np.eye(2), (3, 1, 1))
        skew[0, 0, 1] = 0.5
        with pytest.raises(ValueError, match="symmetric"):
            build_component_model(topology, cfgs, skew, sigma_z2, w)
        indef = np.tile(np.diag([1.0, -0.2]), (3, 1, 1))
        with pytest.raises(ValueError, match="positive semi-definite"):
            build_component_model(topology, cfgs, indef, sigma_z2, w)
        good = np.tile(np.eye(2), (3, 1, 1))
        with pytest.raises(ValueError, match="nonnegative"):
            build_component_model(topology, cfgs, good, -0.1, w)

    def test_cross_moment_couples_both_fusion_maps(self):
        pair = random_pair(5)
        np.testing.assert_array_equal(
            pair.g[2], pair.f[0].T @ pair.q @ pair.f[1])

    def test_model_arrays_are_frozen(self):
        pair = random_model(7)
        for name in ("b", "rbar", "f", "q", "left", "right", "g", "weights",
                     "c", "mu", "rx", "sigma_z2", "w_star"):
            with pytest.raises(ValueError):
                getattr(pair, name)[0] = 0.0


class TestNoiseMomentSampling:
    def test_matches_empirical_second_moments(self):
        # estimate E{g g^T} and E{g1 g2^T} from raw gradient-noise draws
        n, l = 3, 2
        topology, cfgs, rx, sigma_z2, w = random_pair_setup(8, n=n, l=l)
        pair = build_component_model(topology, cfgs, rx, sigma_z2, w)
        rng = np.random.default_rng(123)
        draws = 120_000
        chol = np.linalg.cholesky(rx)
        x = np.einsum("kij,tkj->tki", chol, rng.standard_normal((draws, n, l)))
        z = rng.standard_normal((draws, n)) * np.sqrt(sigma_z2)
        g_rows = []
        for cfg in cfgs:
            p = np.einsum("lk,tli,tl->tki", cfg.c.entries, x, z).reshape(draws, -1)
            fusion = np.diag(cfg.mu) @ cfg.a2.entries
            g_rows.append(p @ np.kron(fusion, np.eye(l)))
        est11 = g_rows[0].T @ g_rows[0] / draws
        est12 = g_rows[0].T @ g_rows[1] / draws
        scale = np.max(np.abs(pair.g[0]))
        assert np.max(np.abs(est11 - pair.g[0])) < 0.05 * scale
        gx = pair.g[2]
        scale_x = max(np.max(np.abs(gx)), scale)
        assert np.max(np.abs(est12 - gx)) < 0.05 * scale_x

    def test_identical_strategies_give_auto_moment(self):
        g = random_model(9, n=3, l=2).g
        np.testing.assert_allclose(g[2], g[0], rtol=1e-12, atol=1e-15)


class TestMeanRecursion:
    def test_scalar_geometric_decay(self):
        pair = scalar_model(mu=(0.01, 0.005), sx=1.0, sz=0.1, target=2.0)
        m = np.full((2, 1), -2.0)
        for n in range(1, 11):
            m = mean_step(pair, m)
            np.testing.assert_allclose(m[:, 0], [-2.0 * 0.99**n,
                                                 -2.0 * 0.995**n],
                                       rtol=1e-12)

    def test_fixed_point_is_stationary(self):
        pair = random_pair(10, n=3, l=2)
        eye = np.eye(pair.w_star.size)
        m_inf = np.stack([-np.linalg.solve(eye - b, r)
                          for b, r in zip(pair.b, pair.rbar)])
        np.testing.assert_allclose(mean_step(pair, m_inf), m_inf,
                                   rtol=0, atol=1e-12)

    def test_zero_drift_keeps_zero_mean(self):
        pair = random_pair(12, n=4, l=1, single_task=True)
        m = np.zeros((2, pair.w_star.size))
        for _ in range(5):
            m = mean_step(pair, m)
        assert np.max(np.abs(m)) < 1e-12


class TestVecFormEquivalence:
    @pytest.mark.parametrize("seed,n,l", [(20, 3, 1), (21, 2, 2), (22, 3, 2)])
    def test_weighted_norm_matches_covariance_recursion(self, seed, n, l):
        pair = random_model(seed, n=n, l=l)
        rng = np.random.default_rng(seed + 500)
        a = rng.normal(size=(pair.w_star.size,) * 2)
        sigma = a @ a.T + 0.5 * np.eye(pair.w_star.size)
        steps = 120
        xi_vec = weighted_norm_curve(pair, 0, sigma, steps)
        state = initial_moments(pair)
        m, p = state.m, state.p
        xi_mat = np.empty(steps + 1)
        for t in range(steps + 1):
            xi_mat[t] = np.sum(sigma * raw_moment(m[0], m[0], p[0]))
            p = covariance_step(pair, p)
            m = mean_step(pair, m)
        np.testing.assert_allclose(xi_mat, xi_vec, rtol=1e-10,
                                   atol=1e-12 * np.max(np.abs(xi_vec)))

    @pytest.mark.parametrize("seed,n,l", [(30, 3, 1), (31, 2, 2)])
    def test_cross_norm_matches_cross_recursion(self, seed, n, l):
        pair = random_pair(seed, n=n, l=l)
        rng = np.random.default_rng(seed + 500)
        # general (non-symmetric) weighting stresses the index order
        sigma = rng.normal(size=(pair.w_star.size,) * 2)
        steps = 120
        xi_vec = cross_norm_curve(pair, sigma, steps)
        state = initial_moments(pair)
        m, p = state.m, state.p
        xi_mat = np.empty(steps + 1)
        for t in range(steps + 1):
            xi_mat[t] = np.sum(sigma * raw_moment(m[0], m[1], p[2]))
            p = covariance_step(pair, p)
            m = mean_step(pair, m)
        np.testing.assert_allclose(xi_mat, xi_vec, rtol=1e-10,
                                   atol=1e-12 * np.max(np.abs(xi_vec)))


class TestCovarianceRecursion:
    def test_result_is_exactly_symmetric(self):
        pair = random_pair(40, n=3, l=2)
        rng = np.random.default_rng(40)
        a = rng.normal(size=(3,) + (pair.w_star.size,) * 2)
        out = covariance_step(pair, a @ a.transpose(0, 2, 1))
        for block in out[:2]:
            np.testing.assert_array_equal(block, block.T)

    def test_blocks_follow_component_order(self):
        # p11, p22 and p12 advance with (b1, b1), (b2, b2) and (b1, b2);
        # a general (non-symmetric) cross factor pins the side of each
        pair = random_pair(44, n=3, l=2)
        b1, b2 = pair.b
        rng = np.random.default_rng(44)
        p = rng.normal(size=(3,) + b1.shape)
        p[:2] += p[:2].transpose(0, 2, 1)
        out = covariance_step(pair, p)
        for k, (left, right) in enumerate(((b1, b1), (b2, b2), (b1, b2))):
            np.testing.assert_allclose(
                out[k], left @ p[k] @ right.T + pair.g[k], rtol=1e-13,
                atol=1e-15)

    def test_zero_noise_zero_drift_stays_zero(self):
        topology, cfg, rx, _, w = random_setup(41, n=3, l=1, single_task=True)
        pair = build_component_model(topology, [cfg, cfg], rx, 0.0, w)
        p = np.zeros((3,) + (pair.w_star.size,) * 2)
        m = mean_step(pair, np.zeros((2, pair.w_star.size)))
        out = raw_moments(m, covariance_step(pair, p))
        # the shared-target drift cancels only to roundoff (~1e-17) and
        # enters squared, so the result is zero at the 1e-32 scale
        assert np.max(np.abs(out)) < 1e-30

    def test_identical_pair_cross_tracks_auto(self):
        pair = random_model(42, n=3, l=2)
        state = initial_moments(pair)
        m, p = state.m, state.p
        for _ in range(60):
            p = covariance_step(pair, p)
            m = mean_step(pair, m)
        om, _, omx = raw_moments(m, p)
        np.testing.assert_allclose(omx, om, rtol=1e-10,
                                   atol=1e-13 * np.max(np.abs(om)))

    def test_joint_moment_stays_psd(self):
        # [om1 omx; omx^T om2] is a genuine joint second moment, so it
        # must remain PSD along the coupled recursions
        pair = random_pair(43, n=3, l=2)
        nl = pair.w_star.size
        state = initial_moments(pair)
        m, p = state.m, state.p
        joint = np.empty((2 * nl, 2 * nl))
        for _ in range(200):
            p = covariance_step(pair, p)
            m = mean_step(pair, m)
            om1, om2, omx = raw_moments(m, p)
            joint[:nl, :nl] = om1
            joint[nl:, nl:] = om2
            joint[:nl, nl:] = omx
            joint[nl:, :nl] = omx.T
            scale = np.max(np.abs(joint))
            assert np.min(np.linalg.eigvalsh(joint)) >= -1e-9 * scale


class TestExcessErrors:
    def test_scalar_value(self):
        out = excess_errors(np.array([[0.2]]), np.array([[[2.0]]]))
        np.testing.assert_allclose(out, [0.4], rtol=1e-15)

    def test_reads_diagonal_blocks_only(self):
        rng = np.random.default_rng(50)
        n, l = 3, 2
        om = rng.normal(size=(n * l, n * l))
        om = om @ om.T
        rx = random_spd_covariances(rng, n, l)
        expected = [np.trace(rx[k] @ om[k * l:(k + 1) * l, k * l:(k + 1) * l])
                    for k in range(n)]
        np.testing.assert_allclose(excess_errors(om, rx), expected, rtol=1e-13)
        # the same moment split into a centered factor and a mean part
        m1, m2 = rng.normal(size=(2, n * l))
        p = om - np.outer(m1, m2)
        np.testing.assert_allclose(
            readouts(rx[None], *stacked(m1, m2, p, p, p))[2, 0], expected,
            rtol=1e-12)

    def test_drivers_read_without_cancellation(self):
        # |m| ~ 10 and m1 - m2 ~ 1e-7: j1 - j12 would cancel about eight
        # digits, the direct readout of (m1, m1 - m2) none
        rng = np.random.default_rng(52)
        n, l = 3, 2
        rx = random_spd_covariances(rng, n, l)
        m1 = 10.0 * rng.normal(size=n * l) / np.sqrt(l)
        m2 = m1 - 1e-7 * rng.normal(size=n * l)
        delta = m1 - m2  # exact (Sterbenz), unlike the perturbation drawn
        a = rng.normal(size=(n * l, n * l))
        p = a @ a.T
        dj1, dj2 = readouts(rx[None], *stacked(m1, m2, p, p, p))[3:, 0]
        blocks = [slice(k * l, (k + 1) * l) for k in range(n)]
        hand1 = [delta[b] @ rx[k] @ m1[b] for k, b in enumerate(blocks)]
        hand2 = [-delta[b] @ rx[k] @ m2[b] for k, b in enumerate(blocks)]
        np.testing.assert_allclose(dj1, hand1, rtol=1e-12)
        np.testing.assert_allclose(dj2, hand2, rtol=1e-12)

    def test_drivers_are_excess_error_differences(self):
        rng = np.random.default_rng(53)
        n, l = 3, 2
        rx = random_spd_covariances(rng, n, l)
        m1, m2 = rng.normal(size=(2, n * l))
        p1, p2, px = rng.normal(size=(3, n * l, n * l))
        j1, j2, j12, dj1, dj2 = readouts(
            rx[None], *stacked(m1, m2, p1, p2, px))[:, 0]
        np.testing.assert_allclose(j1, excess_errors(
            raw_moment(m1, m1, p1), rx), rtol=1e-12)
        np.testing.assert_allclose(j12, excess_errors(
            raw_moment(m1, m2, px), rx), rtol=1e-12)
        scale = np.max(np.abs([j1, j2, j12]))
        np.testing.assert_allclose(dj1, j1 - j12, rtol=1e-12,
                                   atol=1e-14 * scale)
        np.testing.assert_allclose(dj2, j2 - j12, rtol=1e-12,
                                   atol=1e-14 * scale)

    def test_block_permutation_consistency(self):
        rng = np.random.default_rng(51)
        n, l = 4, 2
        om = rng.normal(size=(n * l, n * l))
        om = om @ om.T
        rx = random_spd_covariances(rng, n, l)
        perm = rng.permutation(n)
        idx = (perm[:, None] * l + np.arange(l)).reshape(-1)
        permuted = excess_errors(om[np.ix_(idx, idx)], rx[perm])
        np.testing.assert_allclose(permuted, excess_errors(om, rx)[perm],
                                   rtol=1e-13)

    @settings(deadline=None, max_examples=40)
    @given(seed=st.integers(0, 2**31 - 1))
    def test_cross_error_within_cauchy_schwarz(self, seed):
        # any joint PSD moment must give |J12| <= sqrt(J1 J2) per agent
        rng = np.random.default_rng(seed)
        n, l = 3, 2
        nl = n * l
        a = rng.normal(size=(2 * nl, 2 * nl))
        joint = a @ a.T
        rx = random_spd_covariances(rng, n, l)
        j1 = excess_errors(joint[:nl, :nl], rx)
        j2 = excess_errors(joint[nl:, nl:], rx)
        j12 = excess_errors(joint[:nl, nl:], rx)
        assert np.all(np.abs(j12) <= np.sqrt(j1 * j2) + 1e-9)


def arrays(*values):
    return tuple(np.atleast_1d(np.asarray(v, dtype=float)) for v in values)


def step(cfg, gbar, g2bar, pbar, dj1, dj2, j2, sz):
    return coefficient_step(cfg, *arrays(gbar, g2bar, pbar, dj1, dj2, j2, sz))


def steady(cfg, dj1, dj2, j2, sz):
    return coefficient_steady(cfg, *arrays(dj1, dj2, j2, sz))


class TestCoefficientSteps:
    def test_power_normalized_hand_values(self):
        cfg = pn_cfg(nu=0.1)
        gbar, g2bar, pbar = step(cfg, 0.5, 0.25, 0.0, 1.0, 3.0, 5.0, 0.5)
        # power refresh first: p = 0.05 * 4 = 0.2, nu/(eps + p) = 0.4
        np.testing.assert_allclose(pbar, [0.2], rtol=1e-12)
        np.testing.assert_allclose(gbar, [0.9], rtol=1e-12)
        np.testing.assert_allclose(g2bar, [3.21], rtol=1e-12)

    def test_sign_regressor_hand_values(self):
        cfg = sr_cfg(nu=0.1)
        gbar, g2bar, pbar = step(cfg, 0.5, 0.25, 0.7, np.pi / 8,
                                 3 * np.pi / 8, 2.0, 0.3)
        np.testing.assert_allclose(gbar, [0.525], rtol=1e-12)
        np.testing.assert_allclose(g2bar, [0.298 - 0.0025 * np.pi],
                                   rtol=1e-12)
        np.testing.assert_array_equal(pbar, [0.7])

    def test_balanced_components_fix_the_mean_at_half(self):
        dj = np.array([0.4, 0.02])
        gbar = np.full(2, 0.5)
        pbar = 2 * dj.copy()  # stationary power for equal differences
        for cfg in (pn_cfg(nu=0.01), sr_cfg(nu=0.01)):
            out = coefficient_step(cfg, gbar, gbar ** 2, pbar, dj, dj, dj,
                                   np.zeros(2))
            np.testing.assert_allclose(out[0], 0.5, rtol=1e-14)

    def test_zero_step_size_freezes_moments(self):
        gbar = np.array([0.3, 0.8])
        g2bar = np.array([0.2, 0.7])
        args = arrays([1.0, 2.0], [3.0, 1.0], [4.0, 3.0], 0.1)
        for cfg in (pn_cfg(nu=0.0), sr_cfg(nu=0.0)):
            g, m, _ = coefficient_step(cfg, gbar, g2bar, np.zeros(2), *args)
            np.testing.assert_allclose(g, gbar, rtol=1e-15)
            np.testing.assert_allclose(m, g2bar, rtol=1e-15)

    def test_multi_scheme_is_rejected(self):
        cfg = CombinerConfig(scheme="multi_sign", nu_alpha=0.1)
        with pytest.raises(ValueError, match="two-component"):
            step(cfg, 0.5, 0.25, 0.0, 1.0, 1.0, 2.0, 0.1)
        with pytest.raises(ValueError, match="two-component"):
            steady(cfg, 1.0, 1.0, 2.0, 0.1)

    @pytest.mark.parametrize("make_cfg", [pn_cfg, sr_cfg])
    def test_scalar_and_per_agent_step_size_agree_bitwise(self, make_cfg):
        rng = np.random.default_rng(7)
        n = 5
        dj1, dj2 = rng.uniform(-0.1, 1.0, size=(2, n))
        j2 = dj2 + rng.uniform(0.0, 0.5, size=n)
        sz = rng.uniform(0.01, 0.5, size=n)
        gbar = rng.uniform(0.0, 1.0, size=n)
        g2bar = gbar ** 2 + rng.uniform(0.0, 0.1, size=n)
        pbar = rng.uniform(0.0, 1.0, size=n)
        scalar = make_cfg(nu=0.013)
        want = (coefficient_step(scalar, gbar, g2bar, pbar, dj1, dj2, j2, sz)
                + coefficient_steady(scalar, dj1, dj2, j2, sz))
        # a JSON config gives a list, stored as an array
        for nu in (np.full(n, 0.013), [0.013] * n):
            per_agent = make_cfg(nu=nu)
            got = (coefficient_step(per_agent, gbar, g2bar, pbar, dj1, dj2,
                                    j2, sz)
                   + coefficient_steady(per_agent, dj1, dj2, j2, sz))
            for a, b in zip(got, want):
                np.testing.assert_array_equal(a, b)


class TestCoefficientSteadyForms:
    @settings(deadline=None, max_examples=120)
    @given(
        dj1=st.floats(1e-3, 5.0),
        dj2=st.floats(1e-3, 5.0),
        extra=st.floats(0.0, 5.0),
        sz=st.floats(0.0, 1.0),
        nu=st.floats(1e-4, 0.016),
    )
    def test_power_normalized_forms_are_fixed_points(self, dj1, dj2, extra,
                                                     sz, nu):
        cfg = pn_cfg(nu=nu)
        j2 = dj2 + extra
        gbar, g2bar, pbar = steady(cfg, dj1, dj2, j2, sz)
        g_next, m_next, p_next = step(cfg, gbar, g2bar, pbar, dj1, dj2, j2,
                                      sz)
        np.testing.assert_allclose(p_next, pbar, rtol=1e-10)
        np.testing.assert_allclose(g_next, gbar, rtol=1e-10)
        np.testing.assert_allclose(m_next, g2bar, rtol=1e-9, atol=1e-12)

    @settings(deadline=None, max_examples=120)
    @given(
        dj1=st.floats(1e-3, 5.0),
        dj2=st.floats(1e-3, 5.0),
        extra=st.floats(0.0, 5.0),
        sz=st.floats(0.0, 1.0),
        nu=st.floats(1e-4, 0.02),
    )
    def test_sign_regressor_forms_are_fixed_points(self, dj1, dj2, extra,
                                                   sz, nu):
        cfg = sr_cfg(nu=nu)
        j2 = dj2 + extra
        gbar, g2bar, pbar = steady(cfg, dj1, dj2, j2, sz)
        np.testing.assert_array_equal(pbar, [0.0])
        g_next, m_next, _ = step(cfg, gbar, g2bar, pbar, dj1, dj2, j2, sz)
        np.testing.assert_allclose(g_next, gbar, rtol=1e-10)
        np.testing.assert_allclose(m_next, g2bar, rtol=1e-9, atol=1e-12)

    @pytest.mark.parametrize("seed", range(6))
    def test_frozen_iteration_converges_to_pn_forms(self, seed):
        rng = np.random.default_rng(seed)
        dj1 = rng.uniform(0.05, 1.0)
        dj2 = rng.uniform(0.05, 1.0)
        j2 = dj2 + rng.uniform(0.0, 0.5)
        sz = rng.uniform(0.01, 0.5)
        cfg = pn_cfg(nu=rng.uniform(0.005, 0.015))
        gbar, g2bar, pbar = arrays(0.5, 0.25, 0.0)
        drivers = arrays(dj1, dj2, j2, sz)
        for _ in range(40_000):
            g_next, m_next, p_next = coefficient_step(cfg, gbar, g2bar, pbar,
                                                      *drivers)
            done = (abs(g_next[0] - gbar[0]) < 1e-16
                    and abs(m_next[0] - g2bar[0]) < 1e-16
                    and abs(p_next[0] - pbar[0]) < 1e-16)
            gbar, g2bar, pbar = g_next, m_next, p_next
            if done:
                break
        ref_g, ref_m, ref_p = steady(cfg, dj1, dj2, j2, sz)
        np.testing.assert_allclose(gbar, ref_g, rtol=1e-6)
        np.testing.assert_allclose(g2bar, ref_m, rtol=1e-6)
        np.testing.assert_allclose(pbar, ref_p, rtol=1e-6)

    @pytest.mark.parametrize("seed", range(6))
    def test_frozen_iteration_converges_to_sr_forms(self, seed):
        rng = np.random.default_rng(100 + seed)
        dj1 = rng.uniform(0.05, 1.0)
        dj2 = rng.uniform(0.05, 1.0)
        j2 = dj2 + rng.uniform(0.0, 0.5)
        sz = rng.uniform(0.01, 0.5)
        cfg = sr_cfg(nu=rng.uniform(0.005, 0.02))
        gbar, g2bar, pbar = arrays(0.5, 0.25, 0.0)
        drivers = arrays(dj1, dj2, j2, sz)
        for _ in range(60_000):
            g_next, m_next, pbar = coefficient_step(cfg, gbar, g2bar, pbar,
                                                    *drivers)
            done = (abs(g_next[0] - gbar[0]) < 1e-16
                    and abs(m_next[0] - g2bar[0]) < 1e-16)
            gbar, g2bar = g_next, m_next
            if done:
                break
        ref_g, ref_m, _ = steady(cfg, dj1, dj2, j2, sz)
        np.testing.assert_allclose(gbar, ref_g, rtol=1e-6)
        np.testing.assert_allclose(g2bar, ref_m, rtol=1e-6)

    @settings(deadline=None, max_examples=100)
    @given(
        j1=st.floats(0.01, 10),
        j2=st.floats(0.01, 10),
        rho=st.floats(-0.99, 0.99),
    )
    @example(j1=0.0, j2=3.0, rho=0.0)  # a perfect first component: 1
    def test_mean_matches_grid_search(self, j1, j2, rho):
        # the stationary mean minimizes the combined quadratic error surface
        j12 = rho * np.sqrt(j1 * j2)
        grid = np.arange(-5.0, 5.0, 1e-3)
        cost = grid**2 * j1 + (1 - grid) ** 2 * j2 + 2 * grid * (1 - grid) * j12
        for cfg in (pn_cfg(), sr_cfg()):
            got = steady(cfg, j1 - j12, j2 - j12, j2, 0.0)[0]
            assert got[0] == pytest.approx(grid[np.argmin(cost)], abs=2e-3)

    def test_degenerate_difference_reports_frozen_start(self):
        for cfg in (pn_cfg(), sr_cfg()):
            g, m, p = steady(cfg, 0.0, 0.0, 1.0, 0.1)
            np.testing.assert_array_equal(g, [0.5])
            np.testing.assert_array_equal(m, [0.25])
            np.testing.assert_array_equal(p, [0.0])

    def test_mixed_agents_handle_degeneracy_elementwise(self):
        g, m, p = steady(pn_cfg(nu=0.01), [0.0, 0.2], [0.0, 0.6],
                         [1.0, 1.0], [0.1, 0.1])
        assert g[0] == 0.5 and m[0] == 0.25 and p[0] == 0.0
        np.testing.assert_allclose(g[1], 0.75, rtol=1e-12)
        assert p[1] == pytest.approx(0.8, rel=1e-12)


def block_traces(om, n):
    """Per-agent traces of the n diagonal blocks of a square moment."""
    om = np.asarray(om, dtype=float)
    l = om.shape[0] // n
    return np.einsum("kiki->k", om.reshape(n, l, n, l))


def combined_deviation(om1, om2, omx, gbar, g2bar):
    """Network deviation of the combined estimates from dense moments."""
    gbar, g2bar = np.asarray(gbar, float), np.asarray(g2bar, float)
    traces = [block_traces(om, gbar.shape[0]) for om in (om1, om2, omx)]
    return float(np.mean(mix(np.array(traces), gbar, g2bar)))


def record_series(traj):
    """Per-instant series of an evolve record, row t for instant t:
    deviations after the update (rows 1..n), excess errors before it
    (rows 0..n-1), as the harness reads them."""
    dev, err = traj.record[1:, :, 0], traj.record[:-1, :, 1]
    gbar, g2bar = traj.coefficients[1:, 0], traj.coefficients[1:, 1]
    msd1, msd2, cross = np.mean(dev, axis=-1).T
    return {"emse1": err[:, 0], "emse2": err[:, 1], "emse12": err[:, 2],
            "gbar": gbar, "g2bar": g2bar, "msd1": msd1, "msd2": msd2,
            "cross_msd": cross,
            "combined_msd": np.mean(mix(dev, gbar, g2bar), axis=-1)}


class TestCombinedDeviation:
    def test_degenerate_coefficient_selects_first_component(self):
        rng = np.random.default_rng(60)
        om1 = rng.normal(size=(4, 4))
        om1 = om1 @ om1.T
        om2 = 2.0 * om1
        omx = 0.5 * om1
        np.testing.assert_allclose(
            combined_deviation(om1, om2, omx, [1.0, 1.0], [1.0, 1.0]),
            np.trace(om1) / 2, rtol=1e-13)

    def test_identical_moments_make_coefficient_irrelevant(self):
        rng = np.random.default_rng(61)
        om = rng.normal(size=(6, 6))
        om = om @ om.T
        for gbar, g2bar in [(0.3, 0.1), (0.7, 0.6), (0.5, 0.25)]:
            np.testing.assert_allclose(
                combined_deviation(om, om, om, [gbar] * 3, [g2bar] * 3),
                np.trace(om) / 3, rtol=1e-13)

    def test_hand_value_single_agent(self):
        expected = 0.25 * 0.3 + 0.25 * 0.7 + 2 * 0.25 * 0.2
        np.testing.assert_allclose(
            combined_deviation([[0.3]], [[0.7]], [[0.2]], [0.5], [0.25]),
            expected, rtol=1e-14)


class TestShiftTargets:
    def test_discrete_distribution_consistency(self):
        # two-point joint distribution: shift every outcome and compare
        # recomputed raw moments against the rank-one corrections
        rng = np.random.default_rng(70)
        a1, b1, a2, b2 = rng.normal(size=(4, 4))
        p = 0.3
        m1 = p * a1 + (1 - p) * b1
        m2 = p * a2 + (1 - p) * b2
        means, factors = stacked(
            m1, m2,
            p * np.outer(a1, a1) + (1 - p) * np.outer(b1, b1)
            - np.outer(m1, m1),
            p * np.outer(a2, a2) + (1 - p) * np.outer(b2, b2)
            - np.outer(m2, m2),
            p * np.outer(a1, a2) + (1 - p) * np.outer(b1, b2)
            - np.outer(m1, m2))
        state = MomentState(
            m=means, p=factors,
            gbar=np.array([0.4, 0.6]), g2bar=np.array([0.2, 0.5]),
            pbar=np.array([0.1, 0.3]))
        delta = rng.normal(size=4)
        shifted = shift_targets(state, delta)
        np.testing.assert_allclose(
            shifted.m, [p * (a1 + delta) + (1 - p) * (b1 + delta),
                        p * (a2 + delta) + (1 - p) * (b2 + delta)],
            rtol=1e-12)
        om1, om2, omx = raw_moments(shifted.m, shifted.p)
        np.testing.assert_allclose(
            om1,
            p * np.outer(a1 + delta, a1 + delta)
            + (1 - p) * np.outer(b1 + delta, b1 + delta),
            rtol=1e-12)
        np.testing.assert_allclose(
            om2,
            p * np.outer(a2 + delta, a2 + delta)
            + (1 - p) * np.outer(b2 + delta, b2 + delta),
            rtol=1e-12)
        np.testing.assert_allclose(
            omx,
            p * np.outer(a1 + delta, a2 + delta)
            + (1 - p) * np.outer(b1 + delta, b2 + delta),
            rtol=1e-12)
        np.testing.assert_array_equal(shifted.gbar, state.gbar)
        np.testing.assert_array_equal(shifted.g2bar, state.g2bar)
        np.testing.assert_array_equal(shifted.pbar, state.pbar)

    def test_zero_shift_is_identity(self):
        pair = random_model(71, n=2, l=2)
        state = initial_moments(pair)
        shifted = shift_targets(state, np.zeros(pair.w_star.size))
        np.testing.assert_array_equal(shifted.p, state.p)
        np.testing.assert_array_equal(shifted.m, state.m)


# A near-equal pair's drivers are differences of means gap apart in
# relative size, so a reordering of the mean steps moves them by about
# 1e-9 of their scale at gap 1e-6, and the coefficient moments they drive
# by up to 8e-8 (measured on near_equal_pair(85)); drivers formed with
# cancellation, j1 - j12, miss by 6e-4 to 500
NEAR_EQUAL_RTOL = 1e-6


def near_equal_pair(seed, n=3, l=2, gap=1e-8):
    """Two strategies gap apart in relative mu with |w*| ~ 10: at the
    default gap their excess errors agree to about eight digits."""
    topology, cfg, rx, sigma_z2, w = random_setup(seed, n=n, l=l)
    return build_component_model(
        topology, [StrategyConfig(topology=topology, a1=cfg.a1, c=cfg.c,
                                  mu=mu, a2=cfg.a2)
                   for mu in (0.06, 0.06 * (1.0 + gap))],
        rx, sigma_z2, 10.0 * w)


def oracle_readouts(weights, m, p):
    """Per-agent readouts of one state from its full factors p, coded
    without a time axis: (5, weights.shape[0], N)."""
    n, k = weights.shape[-3], weights.shape[-1]
    reps = m.shape[1] // p.shape[1]
    blocks = np.einsum("skikj->skij", p.reshape(3, n, k, n, k))
    d = m[0] - m[1]
    left = m[[0, 1, 0, 0, 1]].reshape(5, n, k, reps)
    right = np.stack((m[0], m[1], m[1], d, -d)).reshape(5, n, k, reps)
    om = reps * np.concatenate((blocks, blocks[:2] - blocks[2]))
    om += np.einsum("skjt,skit->skji", left, right)
    return np.einsum("wkij,skji->swk", weights, om)


def oracle_coefficient_step(cfg, gbar, g2bar, pbar, dj1, dj2, j2, sigma_z2):
    """One instant of each coefficient law, written out per scheme."""
    if cfg.scheme == "power_normalized":
        s = dj1 + dj2
        pbar = cfg.eta * pbar + (1.0 - cfg.eta) * s
        nu = cfg.nu_gamma / (cfg.epsilon + pbar)
        nu2 = nu * nu
        quad = g2bar * (1.0 + 3.0 * nu2 * s * s - 2.0 * nu * s)
        drive = nu2 * j2 * s + 2.0 * nu2 * dj2 * dj2
        noise = sigma_z2 * nu2 * s
        cross = gbar * (nu * dj2 - 3.0 * nu2 * s * dj2)
        return (gbar * (1.0 - nu * s) + nu * dj2,
                quad + drive + noise + 2.0 * cross, pbar)
    s = np.maximum(dj1 + dj2, DELTA_J_FLOOR)
    nu = cfg.nu_gamma
    nu2 = nu * nu
    rate = nu * np.sqrt(2.0 * s / np.pi)
    sign_drive = nu * np.sqrt(2.0 / np.pi) * dj2 / np.sqrt(s)
    quad = g2bar * (1.0 + nu2 * s - 2.0 * rate)
    cross = gbar * (sign_drive - nu2 * dj2)
    return (gbar * (1.0 - rate) + sign_drive,
            quad + nu2 * j2 + nu2 * sigma_z2 + 2.0 * cross, pbar)


def oracle_evolve(pair, cfg, n_steps, state=None, drivers=None):
    """evolve as a per-instant loop: one coefficient step, one mean and
    covariance step and one readout per instant; drivers, if a list,
    receives each instant's (dj1, dj2, j2)."""
    if state is None:
        state = initial_moments(pair)
    m, p = state.m, state.p
    gbar, g2bar, pbar = state.gbar, state.g2bar, state.pbar
    record = np.empty((n_steps + 1, 3, 2, pair.n_agents))
    coefficients = np.empty((n_steps + 1, 2, pair.n_agents))
    degenerate = 0
    out = oracle_readouts(pair.weights, m, p)
    record[0] = out[:3]
    coefficients[0] = gbar, g2bar
    for t in range(1, n_steps + 1):
        _, j2, _, dj1, dj2 = out[:, 1]
        if drivers is not None:
            drivers.append((dj1, dj2, j2))
        degenerate += int(np.count_nonzero(dj1 + dj2 <= DELTA_J_FLOOR))
        gbar, g2bar, pbar = oracle_coefficient_step(
            cfg, gbar, g2bar, pbar, dj1, dj2, j2, pair.sigma_z2)
        m = mean_step(pair, m)
        p = covariance_step(pair, p)
        out = oracle_readouts(pair.weights, m, p)
        record[t] = out[:3]
        coefficients[t] = gbar, g2bar
    return theory.TheoryTrajectory(
        record=record, coefficients=coefficients,
        state=MomentState(m, p, gbar, g2bar, pbar),
        degenerate_steps=degenerate)


def assert_same_trajectory(got, want):
    """The covariance factors are bit for bit the oracle's; the means,
    the readouts they drive and the coefficient moments agree to 1e-12
    of scale, as the means' doubling reassociates the mean steps."""
    assert_scaled_close(got.record, want.record)
    assert_scaled_close(got.coefficients, want.coefficients)
    np.testing.assert_array_equal(got.state.p, want.state.p)
    for name in ("m", "gbar", "g2bar", "pbar"):
        assert_scaled_close(getattr(got.state, name),
                            getattr(want.state, name))
    assert got.degenerate_steps == want.degenerate_steps


def assert_same_leaves(got, want):
    """Every array of two (nested) records is bit-for-bit equal."""
    if dataclasses.is_dataclass(want):
        for field in dataclasses.fields(want):
            assert_same_leaves(getattr(got, field.name),
                               getattr(want, field.name))
    elif isinstance(want, tuple):
        assert len(got) == len(want)
        for a, b in zip(got, want):
            assert_same_leaves(a, b)
    elif want is None or isinstance(want, str):
        assert got == want
    else:
        assert np.shape(got) == np.shape(want)
        assert np.array_equal(got, want)


B = theory._BLOCK


def settling_pair():
    """A white pair whose covariance settles bit for bit at instant 170
    and whose means settle at instant 321."""
    pair = build_component_model(*white_pair(87, 4, 3, mus=(0.15, 0.3)))
    assert pair.kron_len == 3
    return pair


def count_covariance_steps(monkeypatch):
    """A one-item list that counts the calls evolve makes to
    covariance_step from now on."""
    calls, step = [0], theory.covariance_step

    def counted(pair, p):
        calls[0] += 1
        return step(pair, p)

    monkeypatch.setattr(theory, "covariance_step", counted)
    return calls


def started(pair, gamma0=0.8):
    """A start state off the defaults: gamma0 = 0.8 and nonzero power."""
    state = initial_moments(pair, gamma0=gamma0)
    return dataclasses.replace(
        state, pbar=np.linspace(0.1, 0.3, pair.n_agents))


def mean_loop(pair, m, n_steps):
    """The means at instants 0..n_steps as a per-instant mean_step loop."""
    out = [m]
    for _ in range(n_steps):
        out.append(mean_step(pair, out[-1]))
    return np.array(out)


def evolved_means(pair, cfg, n_steps, state, monkeypatch):
    """The means evolve reads at instants 0..n_steps, the block width and
    the number of squared mean maps of each call to _mean_maps, and the
    final state."""
    seen, widths = [], []
    readouts, mean_maps = theory._readouts, theory._mean_maps

    def spied_readouts(weights, m, blocks):
        seen.append(m.reshape(-1, *m.shape[-2:]).copy())  # a buffer view
        return readouts(weights, m, blocks)

    def spied_maps(pair, width):
        maps = mean_maps(pair, width)
        widths.append((width, len(maps)))
        return maps

    with monkeypatch.context() as patch:
        patch.setattr(theory, "_readouts", spied_readouts)
        patch.setattr(theory, "_mean_maps", spied_maps)
        traj = evolve(pair, cfg, n_steps, state)
    means = np.concatenate(seen)
    np.testing.assert_array_equal(means[-1], traj.state.m)
    return means, widths, traj.state


def sequential_scan(a, c, x0):
    """x_1..x_T of x_{t+1} = a_t x_t + c_t as a per-instant loop."""
    a, c = np.broadcast_arrays(a, c)
    out = np.empty(np.broadcast_shapes(a.shape, np.shape(x0)))
    x = x0
    for t in range(len(c)):
        x = out[t] = a[t] * x + c[t]
    return out


class TestAffineScan:
    @pytest.mark.parametrize("t_len", [0, 1, 2, 3, B - 1, B, B + 1])
    @pytest.mark.parametrize("case", ["scalar_a", "signed_a", "mixed_shapes"])
    def test_matches_sequential_loop(self, case, t_len):
        rng = np.random.default_rng(t_len)
        n = 4
        c = rng.normal(size=(t_len, n))
        x0 = rng.normal(size=n)
        if case == "scalar_a":  # the smoothed power's forgetting factor
            a = 0.95
        else:
            # entries above one, exactly zero and negative
            a = rng.uniform(-1.1, 1.1, size=(t_len, n))
            a[::7] = 1.05
            a[3::11] = 0.0
            if case == "mixed_shapes":
                a, x0 = a[:, :1], 0.3
        got = theory._affine_scan(a, c, x0)
        want = sequential_scan(a, c, x0)
        assert got.shape == want.shape == (t_len, n)
        if t_len:
            assert_scaled_close(got, want)
        if t_len == 1:
            np.testing.assert_array_equal(got, a * x0 + c)


class TestBlockedEvolve:
    @pytest.mark.parametrize("n_steps", [0, 1, B - 1, B, B + 1, 3 * B + 7])
    @pytest.mark.parametrize("make_cfg", [pn_cfg, sr_cfg])
    @pytest.mark.parametrize("kind", ["white", "colored"])
    def test_matches_per_instant_oracle(self, kind, make_cfg, n_steps):
        if kind == "white":
            pair = build_component_model(*white_pair(87, 4, 3))
            assert pair.kron_len == 3
        else:
            pair = random_pair(87, n=3, l=2)
            assert pair.kron_len == 1
        cfg, start = make_cfg(), started(pair)
        got = evolve(pair, cfg, n_steps, state=start)
        assert_same_trajectory(got, oracle_evolve(pair, cfg, n_steps, start))
        assert got.record.shape == (n_steps + 1, 3, 2, pair.n_agents)

    @pytest.mark.parametrize("make_cfg", [pn_cfg, sr_cfg])
    def test_near_equal_pair_hits_the_floor(self, make_cfg, monkeypatch):
        # the drivers and what they drive are checked twice: against the
        # oracle to NEAR_EQUAL_RTOL, and, to 1e-12, against the
        # per-instant law driven by evolve's own drivers
        pair = near_equal_pair(85, gap=1e-6)
        cfg, start = make_cfg(), started(pair)
        drivers, oracle_drivers, scan = [], [], theory._coefficients

        def spied(cfg, gbar, g2bar, pbar, dj1, dj2, j2, sigma_z2):
            drivers.extend(zip(dj1, dj2, j2))
            return scan(cfg, gbar, g2bar, pbar, dj1, dj2, j2, sigma_z2)

        monkeypatch.setattr(theory, "_coefficients", spied)
        got = evolve(pair, cfg, 3 * B + 7, state=start)
        want = oracle_evolve(pair, cfg, 3 * B + 7, start, oracle_drivers)
        assert 0 < got.degenerate_steps < (3 * B + 7) * pair.n_agents
        assert got.degenerate_steps == want.degenerate_steps
        assert_scaled_close(got.record, want.record)
        assert_scaled_close(got.state.m, want.state.m)
        np.testing.assert_array_equal(got.state.p, want.state.p)
        got_d, want_d = np.array(drivers), np.array(oracle_drivers)
        for i, rtol in enumerate((NEAR_EQUAL_RTOL, NEAR_EQUAL_RTOL, 1e-12)):
            assert_scaled_close(got_d[:, i], want_d[:, i], rtol=rtol)
        assert_scaled_close(got.coefficients, want.coefficients,
                            rtol=NEAR_EQUAL_RTOL)
        law = [(start.gbar, start.g2bar, start.pbar)]
        for dj1, dj2, j2 in drivers:
            law.append(oracle_coefficient_step(cfg, *law[-1], dj1, dj2, j2,
                                               pair.sigma_z2))
        assert_scaled_close(got.coefficients, np.array(law)[:, :2])
        for name, value, oracle in zip(("gbar", "g2bar", "pbar"), law[-1],
                                       (want.state.gbar, want.state.g2bar,
                                        want.state.pbar)):
            assert_scaled_close(getattr(got.state, name), value)
            assert_scaled_close(getattr(got.state, name), oracle,
                                rtol=NEAR_EQUAL_RTOL)

    def test_per_agent_step_size_matches_oracle(self):
        pair = random_pair(88, n=3, l=2)
        cfg = pn_cfg(nu=[0.005, 0.01, 0.015])
        assert_same_trajectory(evolve(pair, cfg, B + 9, started(pair)),
                               oracle_evolve(pair, cfg, B + 9, started(pair)))

    def test_short_blocks_for_large_factors(self, monkeypatch):
        # a value budget of three instants' means and diagonal blocks
        pair = random_pair(89, n=3, l=2)
        monkeypatch.setattr(theory, "_BLOCK_FLOATS", 3 * (12 + 3 * 3 * 4))
        cfg, start = sr_cfg(), started(pair)
        assert_same_trajectory(evolve(pair, cfg, 20, start),
                               oracle_evolve(pair, cfg, 20, start))

    @pytest.mark.parametrize("n_steps", [1, B - 1, B, B + 1, 3 * B + 7])
    @pytest.mark.parametrize("kind", ["white", "colored"])
    def test_block_means_match_mean_step_loop(self, kind, n_steps,
                                              monkeypatch):
        # two stages: the targets spread apart between them, so the
        # second pair's drifts differ and it needs maps of its own
        setup = white_pair(87, 4, 3) if kind == "white" \
            else random_pair_setup(87, n=3, l=2)
        *data, w = setup
        first, second = (build_component_model(*data, target)
                         for target in (w, 1.5 * w))
        assert not np.allclose(first.rbar, second.rbar)
        state = started(first)
        for pair in (first, second):
            assert pair.kron_len == (3 if kind == "white" else 1)
            got, widths, end = evolved_means(pair, pn_cfg(), n_steps, state,
                                             monkeypatch)
            width = min(B, n_steps)
            assert widths == [(width, width.bit_length())]
            np.testing.assert_array_equal(got[0], state.m)
            assert_scaled_close(got, mean_loop(pair, state.m, n_steps))
            state = shift_targets(end, -0.5 * w.ravel())

    def test_slow_means_stay_within_rounding_over_many_blocks(
            self, monkeypatch):
        # spectral radius about 0.999: 20,000 instants are 79 blocks,
        # each filled from the last mean of the one before
        pair = build_component_model(*white_pair(90, 3, 2,
                                                 mus=(0.001, 0.002)))
        rho = np.max(np.abs(np.linalg.eigvals(pair.b)))
        assert 0.998 < rho < 1.0
        state = started(pair)
        got, widths, _ = evolved_means(pair, sr_cfg(), 20000, state,
                                       monkeypatch)
        assert widths == [(B, 9)]
        want = mean_loop(pair, state.m, 20000)
        assert np.max(np.abs(want[-1] - want[0])) > 0.5 * np.max(np.abs(want))
        assert_scaled_close(got, want)

    def test_tiny_budget_shrinks_the_maps_with_the_block(self,
                                                          monkeypatch):
        # three instants' budget: maps of 1 and 2 steps fill each block
        pair = random_pair(89, n=3, l=2)
        monkeypatch.setattr(theory, "_BLOCK_FLOATS", 3 * (12 + 3 * 3 * 4))
        calls, state = count_covariance_steps(monkeypatch), started(pair)
        got, widths, _ = evolved_means(pair, sr_cfg(), 20, state,
                                       monkeypatch)
        assert widths == [(3, 2)] and calls == [20]
        assert_scaled_close(got, mean_loop(pair, state.m, 20))

    @pytest.mark.parametrize("make_cfg", [pn_cfg, sr_cfg])
    def test_coefficient_step_is_a_block_of_one(self, make_cfg):
        rng = np.random.default_rng(9)
        t_len, n = 40, 5
        dj1, dj2 = rng.uniform(-0.1, 1.0, size=(2, t_len, n))
        dj1[3, 1] = dj2[3, 1] = 0.0  # a degenerate (instant, agent)
        j2 = dj2 + rng.uniform(0.0, 0.5, size=(t_len, n))
        sz = rng.uniform(0.01, 0.5, size=n)
        cfg = make_cfg(nu=0.013)
        start = (rng.uniform(0.0, 1.0, size=n), rng.uniform(0.0, 1.0, size=n),
                 rng.uniform(0.0, 1.0, size=n))
        rows, pbar = theory._coefficients(cfg, *start, dj1, dj2, j2, sz)
        one = want = start
        for t in range(t_len):
            one = coefficient_step(cfg, *one, dj1[t], dj2[t], j2[t], sz)
            want = oracle_coefficient_step(cfg, *want, dj1[t], dj2[t], j2[t],
                                           sz)
            for got in (one, rows[t]):
                assert_scaled_close(got[0], want[0])
                assert_scaled_close(got[1], want[1])
        assert_scaled_close(one[2], want[2])
        assert_scaled_close(pbar, want[2])

    @pytest.mark.parametrize("make_cfg", [pn_cfg, sr_cfg])
    def test_coefficient_step_broadcasts_mixed_shapes(self, make_cfg):
        cfg = make_cfg(nu=0.013)
        agents = np.array([0.3, 0.6, 0.9])
        cases = [  # drivers of unequal shapes; states over agents with
            # scalar drivers; scalar states with drivers over agents
            ((0.5, 0.25, 0.1), (agents, agents + 0.2, 0.7)),
            ((agents, agents ** 2, agents), (0.4, 0.2, 0.7)),
            ((0.5, 0.25, 0.0), (agents, 0.2, agents + 0.5)),
        ]
        for start, drivers in cases:
            got = coefficient_step(cfg, *start, *drivers, 0.05)
            want = oracle_coefficient_step(cfg, *start, *drivers, 0.05)
            for g, w in zip(got, want):
                assert_scaled_close(g, np.broadcast_to(w, (3,)))

    @pytest.mark.parametrize("make_cfg", [pn_cfg, sr_cfg])
    def test_settled_covariance_matches_oracle(self, make_cfg, monkeypatch):
        # the covariance reaches its fixed point at instant 170, inside
        # the first block, while the means move on to instant 321: later
        # blocks read the settled factors and step the means alone
        pair = settling_pair()
        cfg, start, n_steps = make_cfg(), started(pair), 3 * B + 7
        calls = count_covariance_steps(monkeypatch)
        got = evolve(pair, cfg, n_steps, state=start)
        assert calls == [B]
        # with the factors settled, only the means move the readouts
        assert not np.array_equal(got.record[B], got.record[-1])
        assert_same_trajectory(got, oracle_evolve(pair, cfg, n_steps, start))

    def test_moving_covariance_steps_every_instant(self, monkeypatch):
        pair = random_pair(87, n=3, l=2, mus=(0.01, 0.02))
        cfg, start, n_steps = pn_cfg(), started(pair), 3 * B + 7
        calls = count_covariance_steps(monkeypatch)
        got = evolve(pair, cfg, n_steps, state=start)
        assert calls == [n_steps]
        p = got.state.p
        assert not np.array_equal(covariance_step(pair, p), p)
        assert_same_trajectory(got, oracle_evolve(pair, cfg, n_steps, start))

    def test_presets_match_per_instant_oracle(self, monkeypatch):
        # several blocks per preset, stage boundaries included; at 1,100
        # instants the covariance of universality_pn/_sr settles and is
        # no longer stepped from instant 768, universality_fast_pn's
        # from instant 256
        for name in harness.preset_names():
            cfg = dataclasses.replace(harness.load_preset_config(name),
                                      horizon=1100)
            if not harness.theory_covers(cfg):
                continue
            got = harness.run_theory(cfg)
            with monkeypatch.context() as patch:
                patch.setattr(harness, "evolve", oracle_evolve)
                want = harness.run_theory(cfg)
            assert_same_series(got.series, want.series, name)
            assert len(got.steady) == len(want.steady)
            assert_same_leaves(got.steady, want.steady)


class TestEvolve:
    @pytest.mark.parametrize("near_equal", [False, True])
    def test_matches_manual_composition(self, near_equal):
        # three steps unrolled by direct calls pin the update order:
        # pre-update errors drive the coefficient, then moments advance;
        # the near-equal pair also pins drivers read without cancellation,
        # to the rounding its means allow (NEAR_EQUAL_RTOL)
        pair = near_equal_pair(85) if near_equal \
            else random_pair(80, n=3, l=1)
        cfg = pn_cfg(nu=0.01)
        traj = evolve(pair, cfg, 3, initial_moments(pair))
        assert traj.record.shape == (4, 3, 2, 3)
        assert traj.coefficients.shape == (4, 2, 3)
        state = initial_moments(pair)
        weights = pair.rx[None]
        np.testing.assert_array_equal(traj.coefficients[0],
                                      [state.gbar, state.g2bar])
        for t in range(3):
            j1, j2, j12, dj1, dj2 = readouts(weights, state.m,
                                             state.p)[:, 0]
            assert_scaled_close(traj.record[t, :, 1], [j1, j2, j12])
            gbar, g2bar, pbar = coefficient_step(
                cfg, state.gbar, state.g2bar, state.pbar, dj1, dj2, j2,
                pair.sigma_z2)
            state = MomentState(m=mean_step(pair, state.m),
                                p=covariance_step(pair, state.p),
                                gbar=gbar, g2bar=g2bar, pbar=pbar)
            assert_scaled_close(traj.coefficients[t + 1],
                                [state.gbar, state.g2bar])
            np.testing.assert_allclose(
                record_series(traj)["combined_msd"][t],
                combined_deviation(*raw_moments(state.m, state.p),
                                   state.gbar, state.g2bar), rtol=1e-13)
        assert_scaled_close(traj.state.m, state.m)
        np.testing.assert_array_equal(traj.state.p, state.p)
        assert_scaled_close(traj.state.pbar, state.pbar,
                            rtol=NEAR_EQUAL_RTOL if near_equal else 1e-12)

    def test_identical_components_freeze_coefficient(self):
        pair = random_model(81, n=3, l=1)
        traj = evolve(pair, pn_cfg(), 50, initial_moments(pair))
        series = record_series(traj)
        np.testing.assert_allclose(series["gbar"], 0.5, rtol=1e-9)
        np.testing.assert_allclose(series["g2bar"], 0.25, rtol=1e-9)
        assert traj.degenerate_steps == 50 * 3
        np.testing.assert_allclose(series["combined_msd"], traj.msd1,
                                   rtol=1e-9)

    def test_initial_row_reflects_starting_state(self):
        pair = random_pair(82, n=3, l=2)
        traj = evolve(pair, sr_cfg(), 2, initial_moments(pair))
        w = pair.w_star.reshape(3, 2)
        rx = pair.rx
        expected = np.array([w[k] @ rx[k] @ w[k] for k in range(3)])
        np.testing.assert_allclose(traj.record[0, 0, 1], expected,
                                   rtol=1e-12)
        np.testing.assert_allclose(traj.record[0, 2, 1], expected,
                                   rtol=1e-12)

    @pytest.mark.parametrize("split", [(12, 18), (B, 30), (2 * B, B),
                                       (2 * B + 7, 2 * B)],
                             ids=["inside", "block", "two_blocks", "settled"])
    @pytest.mark.parametrize("make_cfg", [pn_cfg, sr_cfg])
    def test_split_run_continues_bit_for_bit(self, make_cfg, split):
        # a stage boundary without a target change: the second call
        # starts from the first one's final state, coefficient moments
        # included, and its row 0 is the first call's last row; the
        # split falls inside a block or on a block boundary.  The
        # covariance settles at instant 288: the whole run stops stepping
        # it from instant 512, the split run from 512 in the first call
        # and one block into the second.  Only a split on a block
        # boundary keeps the grouping of the means' doubling and of the
        # coefficient scans, so elsewhere the means and the coefficient
        # moments agree to rounding; the covariance, bit for bit
        pair = random_pair(86, n=3, l=2)
        cfg = make_cfg()
        start = initial_moments(pair, gamma0=0.8)
        whole = evolve(pair, cfg, sum(split), state=start)
        first = evolve(pair, cfg, split[0], state=start)
        second = evolve(pair, cfg, split[1], state=first.state)
        same = np.testing.assert_array_equal if split[0] % B == 0 \
            else assert_scaled_close
        np.testing.assert_array_equal(second.record[0], first.record[-1])
        np.testing.assert_array_equal(second.coefficients[0],
                                      first.coefficients[-1])
        same(whole.record, np.concatenate((first.record, second.record[1:])))
        same(whole.coefficients,
             np.concatenate((first.coefficients, second.coefficients[1:])))
        np.testing.assert_array_equal(whole.state.p, second.state.p)
        for name in ("m", "gbar", "g2bar", "pbar"):
            same(getattr(whole.state, name), getattr(second.state, name))
        assert whole.degenerate_steps == (first.degenerate_steps
                                          + second.degenerate_steps)

    def test_rejects_multi_component_scheme(self):
        cfg = CombinerConfig(scheme="multi_sign", nu_alpha=0.1)
        with pytest.raises(ValueError, match="two-component"):
            pair = random_model(83)
            evolve(pair, cfg, 1, initial_moments(pair))

    @pytest.mark.parametrize("make_cfg", [lambda: pn_cfg(nu=0.04),
                                          lambda: sr_cfg(nu=0.05)])
    def test_long_run_reaches_steady_report(self, make_cfg):
        # strongly distinguishable pair so the coefficient relaxes fast
        topology = chain_topology(3)
        rng = np.random.default_rng(84)
        rx = np.ones((3, 1, 1))
        w = np.tile(rng.normal(size=1), (3, 1))
        a2 = static_rule(topology, "metropolis")
        pair = build_component_model(
            topology, [strategy(topology, 0.02, a2=a2), strategy(topology, 0.4)],
            rx, 0.25, w)
        cfg = make_cfg()
        report = steady_state(pair, cfg)
        series = record_series(evolve(pair, cfg, 4000, initial_moments(pair)))
        np.testing.assert_allclose(series["gbar"][-1], report.gbar,
                                   rtol=1e-5)
        np.testing.assert_allclose(series["g2bar"][-1], report.g2bar,
                                   rtol=1e-5)
        for k, name in enumerate(("msd1", "msd2", "cross_msd")):
            np.testing.assert_allclose(series[name][-1], report.msd[k],
                                       rtol=1e-8)
        np.testing.assert_allclose(series["combined_msd"][-1],
                                   report.combined_msd, rtol=1e-5)
        np.testing.assert_allclose(series["emse1"][-1], report.emse[0],
                                   rtol=1e-6)

    def test_coefficient_variance_stays_nonnegative(self):
        pair = random_pair(85, n=3, l=2)
        traj = evolve(pair, pn_cfg(nu=0.01), 500, initial_moments(pair))
        series = record_series(traj)
        assert np.all(series["g2bar"] - series["gbar"]**2 >= -1e-9)
        assert np.all(np.isfinite(series["combined_msd"]))


class TestSteadyState:
    @pytest.mark.parametrize("pair", ["colored", "white"])
    def test_matches_long_iteration(self, pair):
        if pair == "colored":
            model = random_pair(90, n=3, l=2)
        else:
            topology, cfgs, rx, sigma_z2, w = white_pair(90, 3, 2)
            model = build_component_model(topology, cfgs, rx, sigma_z2, w)
            assert model.kron_len == 2
        report = steady_state(model, pn_cfg())
        state = initial_moments(model)
        m, p = state.m, state.p
        for _ in range(30_000):
            p = covariance_step(model, p)
            m = mean_step(model, m)
        np.testing.assert_allclose(report.m, m, rtol=1e-8, atol=1e-12)
        want = raw_moments(report.m, report.p)
        scale = np.max(np.abs(want[0]))
        for got, rep_om in zip(raw_moments(m, p), want):
            np.testing.assert_allclose(rep_om, got, rtol=1e-8,
                                       atol=1e-8 * scale)

    def test_fixed_point_at_block_dimension_500(self):
        cfg = load_preset_config("tracking_static_pn")
        rx = np.stack([regressor_covariance(p) for p in cfg.signal_params])
        sigma_z2 = np.array([p.sigma_z2 for p in cfg.signal_params])
        target = cfg.schedule.stages[1][1]
        pair = build_component_model(cfg.topology, cfg.components, rx,
                                     sigma_z2, target)
        assert pair.w_star.size == 500 and pair.b.shape == (2, 10, 10)
        rep = steady_state(pair, cfg.combiner)
        m = mean_step(pair, rep.m)
        for got, want in zip(
                [m] + raw_moments(m, covariance_step(pair, rep.p)),
                [rep.m] + raw_moments(rep.m, rep.p)):
            np.testing.assert_allclose(got, want, rtol=1e-10,
                                       atol=1e-10 * np.max(np.abs(want)))

    def test_scalar_deviation_identity(self):
        mu, sx, sz = 0.01, 1.0, 0.1
        report = steady_state(scalar_model(mu=mu, sx=sx, sz=sz), pn_cfg())
        expected = mu * sz / (2.0 - mu * sx)
        np.testing.assert_allclose(report.msd[:2], expected, rtol=1e-12)
        np.testing.assert_allclose(report.combined_msd, expected, rtol=1e-12)
        np.testing.assert_allclose(report.emse[0], [sx * expected],
                                   rtol=1e-12)

    def test_bias_assembles_component_means(self):
        report = steady_state(random_pair(91, n=3, l=2), pn_cfg())
        gamma_blocks = np.kron(np.diag(report.gbar), np.eye(2))
        expected = gamma_blocks @ report.m[0] \
            + (np.eye(6) - gamma_blocks) @ report.m[1]
        np.testing.assert_allclose(report.bias, expected, rtol=1e-13)

    def test_shared_target_bias_vanishes(self):
        report = steady_state(random_pair(92, n=3, l=2, single_task=True),
                              sr_cfg())
        assert np.max(np.abs(report.bias)) < 1e-10
        assert np.max(np.abs(report.m)) < 1e-10

    def test_unstable_component_raises(self):
        with pytest.raises(InstabilityError, match="component 1"):
            steady_state(scalar_model(mu=(3.0, 0.1), sx=1.0, sz=0.1),
                         pn_cfg())
        with pytest.raises(InstabilityError, match="component 2"):
            steady_state(scalar_model(mu=(0.1, 3.0), sx=1.0, sz=0.1),
                         pn_cfg())

    @pytest.mark.parametrize("make_cfg", [pn_cfg, sr_cfg])
    def test_report_carries_bounds_and_universality(self, make_cfg):
        report = steady_state(random_pair(93, n=3, l=1, single_task=True),
                              make_cfg(nu=0.001))
        bounds = report.bounds
        assert [f.name for f in dataclasses.fields(bounds)] == [
            "mu_bound", "mu_ok", "nu_mean_bound", "nu_ms_bound",
            "nu_mean_ok", "nu_ms_ok"]
        for name in ("nu_mean_bound", "nu_ms_bound", "nu_mean_ok",
                     "nu_ms_ok"):
            assert getattr(bounds, name).shape == (3,)
        assert bounds.nu_mean_ok.all() and bounds.nu_ms_ok.all()
        assert report.universality.verdict in (
            "universal", "components indistinguishable")
        # stationary coefficient view must agree with the assembled value
        per_agent = report.universality.emse_combined
        assert per_agent.shape == (3,)

    @pytest.mark.parametrize("nu", [5.0, 0.02, 0.002])
    def test_verdict_outside_power_normalized_bound(self, nu):
        # universality_pn's mean-square bound is (1 - eta) / 3 = 0.0167;
        # at horizon 200 even nu = 5 predicts a finite transient
        base = load_preset_config("universality_pn")
        combiner = dataclasses.replace(base.combiner, nu_gamma=nu)
        cfg = dataclasses.replace(base, horizon=200, combiner=combiner)
        ((_, report),) = harness.run_theory(cfg).steady
        np.testing.assert_array_equal(report.bounds.nu_ms_bound,
                                      np.full(10, (1.0 - 0.95) / 3.0))
        outside = nu > (1.0 - 0.95) / 3.0
        assert bool(np.all(report.bounds.nu_ms_ok)) is not outside
        assert (report.universality.verdict
                == "outside coefficient bounds") is outside

    def test_verdict_outside_sign_regressor_bound_on_one_agent(self):
        pair = random_pair(93, n=3, l=1)
        bound = steady_state(pair, sr_cfg(nu=0.001)).bounds.nu_ms_bound
        nu = np.append(0.5 * bound[:2], 1.01 * bound[2])
        report = steady_state(pair, sr_cfg(nu=nu))
        assert report.bounds.nu_ms_ok.tolist() == [True, True, False]
        assert report.universality.verdict == "outside coefficient bounds"
        inside = steady_state(pair, sr_cfg(nu=0.5 * bound))
        assert inside.universality.verdict != "outside coefficient bounds"


class TestStabilityBounds:
    def test_coefficient_bound_arithmetic(self):
        # the power-normalized limits do not depend on the difference power
        cfg = pn_cfg(nu=0.04, eta=0.95)
        report = stability_bounds(random_pair(94, n=3, l=1), cfg,
                                  [0.0, 0.3, 7.0])
        np.testing.assert_array_equal(report.nu_mean_bound,
                                      np.full(3, 1.0 - 0.95))
        np.testing.assert_array_equal(report.nu_ms_bound,
                                      np.full(3, (1.0 - 0.95) / 3.0))
        assert bool(np.all(report.nu_mean_ok))
        assert not bool(np.any(report.nu_ms_ok))

    @pytest.mark.parametrize("make_cfg", [pn_cfg, sr_cfg])
    def test_zero_coefficient_step_size_fails(self, make_cfg):
        report = stability_bounds(random_pair(94, n=3, l=1),
                                  make_cfg(nu=0.0), np.ones(3))
        assert not report.nu_mean_ok.any() and not report.nu_ms_ok.any()

    def test_step_size_bound_uses_data_spectrum(self):
        # C = I and R = diag(1, 3) gives per-agent bound 2/3
        topology = chain_topology(2)
        ident = static_rule(topology, "identity")
        rx = np.tile(np.diag([1.0, 3.0]), (2, 1, 1))
        model = build_component_model(topology, [strategy(topology, 0.5)] * 2,
                                      rx, 0.1, np.zeros((2, 2)))
        report = stability_bounds(model, pn_cfg(), np.ones(2))
        assert report.mu_bound.shape == report.mu_ok.shape == (2, 2)
        np.testing.assert_allclose(report.mu_bound, 2.0 / 3.0, rtol=1e-14)
        assert bool(np.all(report.mu_ok))
        at_limit = build_component_model(
            topology, [strategy(topology, 2.0 / 3.0), strategy(topology, 0.5)],
            rx, 0.1, np.zeros((2, 2)))
        report = stability_bounds(at_limit, pn_cfg(), np.ones(2))
        assert not bool(np.any(report.mu_ok[0]))  # open interval
        assert bool(np.all(report.mu_ok[1]))

    def test_sign_regressor_bounds_hand_substitution(self):
        # a degenerate difference power is floored at DELTA_J_FLOOR
        cfg = sr_cfg(nu=0.9)
        report = stability_bounds(random_pair(95, n=2, l=1), cfg,
                                  [np.pi / 2, 0.0])
        np.testing.assert_allclose(
            report.nu_mean_bound, [1.0, np.sqrt(np.pi / (2 * DELTA_J_FLOOR))],
            rtol=1e-14)
        np.testing.assert_allclose(
            report.nu_ms_bound,
            [2.0 / np.pi, np.sqrt(2.0 / (np.pi * DELTA_J_FLOOR))], rtol=1e-14)
        assert report.nu_mean_ok.tolist() == [True, True]
        assert report.nu_ms_ok.tolist() == [False, True]


class TestUniversalityReport:
    def test_interpolating_hand_triple(self):
        report = universality_of([2.0], [3.0], [1.0])
        np.testing.assert_allclose(report.emse_combined, [5.0 / 3.0],
                                   rtol=1e-14)
        assert report.agent_regimes == ("interpolating",)
        assert report.verdict == "universal"
        np.testing.assert_allclose(report.margin, 1.0 / 3.0, rtol=1e-13)

    def test_boundary_equals_better_component(self):
        # dj1 = 0: the combined error collapses onto component one
        report = universality_of([1.0], [3.0], [1.0])
        np.testing.assert_allclose(report.emse_combined, [1.0], rtol=1e-14)
        assert report.verdict == "universal"

    def test_extrapolation_beats_both_components(self):
        report = universality_of([1.0], [3.0], [1.5])
        np.testing.assert_allclose(report.emse_combined, [0.75], rtol=1e-14)
        assert report.agent_regimes == ("extrapolating_beyond_1",)
        assert report.network_combined < 1.0
        report = universality_of([3.0], [1.0], [1.5])
        assert report.agent_regimes == ("extrapolating_beyond_2",)

    def test_indistinguishable_components(self):
        report = universality_of([2.0, 1.0], [2.0, 1.0], [2.0, 1.0])
        np.testing.assert_allclose(report.emse_combined, [2.0, 1.0])
        assert report.verdict == "components indistinguishable"
        assert report.agent_regimes == ("indistinguishable",) * 2

    def test_rejects_impossible_cross_error(self):
        with pytest.raises(ValueError, match="Cauchy-Schwarz"):
            universality_of([1.0], [1.0], [5.0])

    @settings(deadline=None, max_examples=200)
    @given(
        j1=st.floats(0.01, 10.0),
        j2=st.floats(0.01, 10.0),
        rho=st.floats(-0.99, 0.99),
    )
    def test_stationary_value_matches_quadratic_form(self, j1, j2, rho):
        j12 = rho * float(np.sqrt(j1 * j2))
        s = j1 + j2 - 2 * j12
        assume(s > 1e-6)
        report = universality_of([j1], [j2], [j12])
        gamma = (j2 - j12) / s
        direct = (gamma**2 * j1 + (1 - gamma)**2 * j2
                  + 2 * gamma * (1 - gamma) * j12)
        np.testing.assert_allclose(report.emse_combined[0], direct, rtol=1e-10)
        assert report.emse_combined[0] <= min(j1, j2) + 1e-10


def white_pair(seed, n, l, mus=(0.05, 0.12)):
    """Two strategies over white regressors with heterogeneous targets;
    component i's agents draw step-sizes from [mus[i] / 2, mus[i])."""
    rng = np.random.default_rng(seed)
    topology = chain_topology(n)
    rx = rng.uniform(0.5, 1.5, size=n)[:, None, None] * np.eye(l)
    sigma_z2 = rng.uniform(0.05, 0.3, size=n)
    w = rng.normal(size=(n, l))
    cfgs = [StrategyConfig(topology=topology,
                           a1=random_stochastic(topology, "left", rng),
                           c=random_stochastic(topology, "right", rng),
                           mu=rng.uniform(0.5, 1.0, size=n) * mu,
                           a2=random_stochastic(topology, "left", rng))
            for mu in mus]
    return topology, cfgs, rx, sigma_z2, w


class TestKronFactoredPath:
    """White regressors take the Kronecker-factored path; the same
    builder at factor block size m = L, whose factors are the full
    NL x NL matrices, serves as the oracle."""

    @staticmethod
    def models(seed, n, l):
        topology, cfgs, rx, sigma_z2, w = white_pair(seed, n, l)
        return (build_component_model(topology, cfgs, rx, sigma_z2, w),
                _build_model(cfgs, rx, sigma_z2, w, l))

    @pytest.mark.parametrize("n,l", [(1, 1), (2, 3), (4, 2), (5, 7)])
    def test_white_build_is_kron_factored(self, n, l):
        fast, dense = self.models(n * 10 + l, n, l)
        eye = np.eye(l)
        assert fast.kron_len == l and dense.kron_len == 1
        for name in ("b", "f", "q"):
            got, want = getattr(fast, name), getattr(dense, name)
            assert got.shape[-2:] == (n, n)
            for a, b in zip(np.reshape(got, (-1, n, n)),
                            np.reshape(want, (-1, n * l, n * l))):
                np.testing.assert_allclose(np.kron(a, eye), b, rtol=1e-12,
                                           atol=1e-15, err_msg=name)
        for name in ("c", "mu", "rx", "sigma_z2", "w_star"):
            np.testing.assert_allclose(getattr(fast, name),
                                       getattr(dense, name),
                                       rtol=1e-12, atol=1e-15)
        np.testing.assert_allclose(fast.rbar, dense.rbar, rtol=1e-10,
                                   atol=1e-14)
        assert fast.g.shape == (3, n, n)
        for got, want in zip(fast.g, dense.g):
            np.testing.assert_allclose(np.kron(got, eye), want,
                                       rtol=1e-12, atol=1e-16)

    @settings(deadline=None, max_examples=30)
    @given(seed=st.integers(0, 2**31 - 1), n=st.integers(1, 5),
           l=st.sampled_from([1, 2, 3, 7]),
           scheme=st.sampled_from(["power_normalized", "sign_regressor"]))
    def test_evolve_matches_dense_oracle(self, seed, n, l, scheme):
        fast, dense = self.models(seed, n, l)
        for b in fast.b:
            assume(np.max(np.abs(np.linalg.eigvals(b))) < 1.0)
        cfg = pn_cfg(nu=0.02) if scheme == "power_normalized" \
            else sr_cfg(nu=0.02)
        got = evolve(fast, cfg, 60, initial_moments(fast))
        want = evolve(dense, cfg, 60, initial_moments(dense))
        # pbar is not recorded per step; the final states compare it
        got_series, want_series = record_series(got), record_series(want)
        for name, b in want_series.items():
            a = got_series[name]
            np.testing.assert_allclose(
                a, b, rtol=1e-10, atol=1e-13 * np.max(np.abs(b)),
                err_msg=name)

        oracle = state_moments(want.state)
        for name, a in state_moments(got.state).items():
            b = oracle[name]
            np.testing.assert_allclose(
                a, b, rtol=1e-10, atol=1e-13 * np.max(np.abs(b)),
                err_msg=name)
        assert got.state.p.shape == (3, n, n)
        for p in got.state.p[:2]:
            np.testing.assert_array_equal(p, p.T)
        assert got.degenerate_steps == want.degenerate_steps

    def test_direct_steps_match_dense_steps(self):
        fast, dense = self.models(7, 4, 3)
        rng = np.random.default_rng(7)
        n, nl = 4, 12
        eye = np.eye(3)
        a = rng.normal(size=(2, n, n))
        p = np.concatenate((a @ a.transpose(0, 2, 1),
                            rng.normal(size=(1, n, n))))
        m = rng.normal(size=(2, nl))
        np.testing.assert_allclose(mean_step(fast, m), mean_step(dense, m),
                                   rtol=1e-12)
        want = covariance_step(dense, np.stack([np.kron(b, eye) for b in p]))
        for got, block in zip(covariance_step(fast, p), want):
            np.testing.assert_allclose(np.kron(got, eye), block,
                                       rtol=1e-12, atol=1e-14)

    def test_colored_regressors_stay_dense(self):
        topology, cfgs, _, sigma_z2, w = white_pair(3, 3, 2)
        ar1 = np.tile(np.array([[1.0, 0.6], [0.6, 1.0]]), (3, 1, 1))
        spd = random_spd_covariances(np.random.default_rng(3), 3, 2)
        # white except for one agent's variance along one tap
        uneven = np.tile(np.eye(2), (3, 1, 1))
        uneven[1, 1, 1] = 1.5
        for rx in (ar1, spd, uneven):
            model = build_component_model(topology, cfgs, rx, sigma_z2, w)
            assert model.kron_len == 1
            assert model.b.shape == (2, 6, 6)
