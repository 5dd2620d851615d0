from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from diffcomb import diffusion
from diffcomb.diffusion import (
    DISTANCE_FLOOR,
    StrategyConfig,
    StrategyStack,
    adapt_matrix_projection,
    adapt_matrix_relative_variance,
    errors_and_outputs,
    init_state,
    step,
)
from diffcomb.graph import StochasticMatrix, Topology, build_preset, static_rule, validate_stochastic
from diffcomb.signal import (
    AgentSignalParams,
    ChunkedSampler,
    SampleBatch,
    TargetSchedule,
)
from helpers import advance, stack, strategy, topologies


def single_agent():
    return Topology(n_agents=1, adjacency=np.ones((1, 1), dtype=bool))


def triangle():
    return Topology(n_agents=3, adjacency=np.ones((3, 3), dtype=bool))


def batch_of(x, d, w_star, z=None):
    x = np.asarray(x, dtype=float)
    d = np.asarray(d, dtype=float)
    w_star = np.asarray(w_star, dtype=float)
    if z is None:
        z = d - np.einsum("...lk,lk->...k", x, w_star)
    return SampleBatch(regressors=x, references=d, noises=np.asarray(z), targets=w_star)


class TestStep:
    def test_degenerate_network_is_plain_lms(self):
        t = single_agent()
        cfg = stack(strategy(t, 0.3))
        st = init_state(cfg, filter_len=2)
        st.w[0, :, 0] = [0.5, -0.5]
        x = np.array([[1.0], [2.0]])
        d = np.array([1.2])
        new = advance(cfg, st, batch_of(x, d, np.zeros((2, 1))))
        expect = st.w[0, :, 0] + 0.3 * x[:, 0] * (1.2 - x[:, 0] @ st.w[0, :, 0])
        np.testing.assert_allclose(new.w[0, :, 0], expect, rtol=1e-15)

    def test_zero_step_size_freezes_state(self):
        t = single_agent()
        cfg = stack(strategy(t, 0.0))
        st = init_state(cfg, filter_len=2)
        st.w[0, :, 0] = [1.0, 2.0]
        new = advance(cfg, st, batch_of([[0.3], [0.4]], [5.0], np.zeros((2, 1))))
        np.testing.assert_array_equal(new.w, st.w)

    def test_two_hand_iterations(self):
        # noiseless scalar LMS: w* = 1, w0 = 0, mu = 0.5, x = 1
        t = single_agent()
        cfg = stack(strategy(t, 0.5))
        st = init_state(cfg, filter_len=1)
        w_star = np.ones((1, 1))
        b = batch_of([[1.0]], [1.0], w_star)
        st = advance(cfg, st, b)
        assert st.w[0, 0, 0] == pytest.approx(0.5, abs=1e-15)
        st = advance(cfg, st, b)
        assert st.w[0, 0, 0] == pytest.approx(0.75, abs=1e-15)

    def test_dimension_mismatch_rejected(self):
        t = single_agent()
        cfg = stack(strategy(t, 0.1))
        st = init_state(cfg, filter_len=2)
        with pytest.raises(ValueError, match="match"):
            step(cfg, st, batch_of([[1.0], [2.0], [3.0]], [0.0], np.zeros((3, 1))),
                 np.zeros((1, 1)))

    def test_batched_step_matches_per_run(self):
        t = build_preset("net1")
        cfg = stack(strategy(t, 0.05, a2=static_rule(t, "averaging")))
        params = [
            AgentSignalParams(sigma_x2=1.0, sigma_z2=0.1, filter_len=3)
            for _ in range(10)
        ]
        schedule = TargetSchedule.constant(np.ones((10, 3)))
        sampler = ChunkedSampler(params, schedule, seed=2, runs=[0, 1], horizon=20)
        st_batch = init_state(cfg, 3, batch_shape=(2,))
        st_each = [init_state(cfg, 3) for _ in range(2)]
        for _ in range(20):
            b = sampler.step()
            st_batch = advance(cfg, st_batch, b)
            for r in range(2):
                sub = SampleBatch(
                    regressors=b.regressors[r],
                    references=b.references[r],
                    noises=b.noises[r],
                    targets=b.targets,
                )
                st_each[r] = advance(cfg, st_each[r], sub)
        for r in range(2):
            np.testing.assert_allclose(st_batch.w[:, r], st_each[r].w, atol=1e-15)

    def test_stack_matches_each_component_alone(self):
        # identity and Metropolis A1 and C, static and both adaptive
        # fusion rules in one stack, against stacks of one
        t = build_preset("net1")
        identity = static_rule(t, "identity")
        metropolis = static_rule(t, "metropolis")
        eye_c = StochasticMatrix(np.eye(10), "right")
        comps = (
            strategy(t, 0.05, a2=static_rule(t, "averaging")),
            strategy(t, 0.03, a1=metropolis,
                     c=StochasticMatrix(metropolis.entries.T, "right")),
            StrategyConfig(topology=t, a1=identity, c=eye_c, mu=0.04,
                           a2_mode="adaptive_projection"),
            StrategyConfig(topology=t, a1=identity, c=eye_c, mu=0.04,
                           a2_mode="adaptive_relative_variance", tau=0.3),
        )
        joint_cfg = StrategyStack.of(comps)
        assert joint_cfg.a1 is not None and joint_cfg.c is not None
        assert joint_cfg.adaptive == (2, 3)
        params = [AgentSignalParams(sigma_x2=1.0, sigma_z2=0.1, filter_len=2)
                  for _ in range(10)]
        sampler = ChunkedSampler(params, TargetSchedule.constant(np.ones((10, 2))),
                                 seed=3, runs=[0, 1], horizon=20)
        joint = init_state(joint_cfg, 2, batch_shape=(2,))
        alone = [init_state(stack(c), 2, batch_shape=(2,)) for c in comps]
        for _ in range(20):
            b = sampler.step()
            joint = advance(joint_cfg, joint, b)
            alone = [advance(stack(c), s, b) for c, s in zip(comps, alone)]
        for i, s in enumerate(alone):
            np.testing.assert_allclose(joint.w[i], s.w[0], rtol=1e-12,
                                       atol=1e-14)
            np.testing.assert_allclose(np.broadcast_to(joint.a2[i], (2, 10, 10)),
                                       np.broadcast_to(s.a2[0], (2, 10, 10)),
                                       rtol=1e-12, atol=1e-14)

    def test_general_c_shares_neighborhood_data(self):
        # with C = averaging, a single agent's datum influences neighbors
        t = build_preset("net1")
        c = StochasticMatrix(static_rule(t, "averaging").entries.T, "right")
        cfg = stack(strategy(t, 0.1, c=c))
        st = init_state(cfg, 2)
        x = np.zeros((2, 10))
        x[:, 0] = [1.0, 1.0]
        d = np.zeros(10)
        d[0] = 1.0
        new = advance(cfg, st, batch_of(x, d, np.zeros((2, 10))))
        touched = np.flatnonzero(np.abs(new.w[0]).sum(axis=0) > 0)
        np.testing.assert_array_equal(touched, t.neighbors(0))

    def test_determinism(self):
        t = build_preset("net1")
        cfg = stack(StrategyConfig(
            topology=t, a1=static_rule(t, "identity"),
            c=StochasticMatrix(np.eye(10), "right"), mu=0.05,
            a2_mode="adaptive_projection",
        ))
        params = [
            AgentSignalParams(sigma_x2=1.0, sigma_z2=0.05, filter_len=2)
            for _ in range(10)
        ]
        schedule = TargetSchedule.constant(np.ones((10, 2)))

        def trajectory():
            sampler = ChunkedSampler(params, schedule, seed=77, runs=[0],
                                     horizon=40)
            st = init_state(cfg, 2, batch_shape=(1,))
            for _ in range(40):
                st = advance(cfg, st, sampler.step())
            return st.w

        np.testing.assert_array_equal(trajectory(), trajectory())

    def test_noiseless_lms_converges(self):
        # contraction regime mu * sigma_x2 well below 2
        rng = np.random.default_rng(123)
        t = single_agent()
        cfg = stack(strategy(t, 0.1))
        st = init_state(cfg, filter_len=1)
        w_star = np.array([[2.0]])
        devs = []
        for _ in range(10_000):
            x = rng.standard_normal((1, 1))
            d = np.array([x[0, 0] * 2.0])
            st = advance(cfg, st, batch_of(x, d, w_star))
            devs.append(abs(st.w[0, 0, 0] - 2.0))
        assert devs[-1] < 1e-10
        block_means = np.array(devs).reshape(10, 1000).mean(axis=1)
        assert np.all(np.diff(block_means) <= 0)


def random_stochastic(rng, t, role):
    """Positive combination matrix on the support of topology t: columns
    sum to one for role "left", rows for role "right"."""
    m = rng.uniform(0.1, 1.0, (t.n_agents,) * 2) * t.adjacency
    axis = 0 if role == "left" else 1
    return StochasticMatrix(m / m.sum(axis=axis, keepdims=True), role)


def agent_major(a):
    """A tap-major (..., L, N) array viewed as (..., N, L)."""
    return np.swapaxes(a, -1, -2)


def dense_projection(topology, psi, batch, mu):
    """The projection rule over all N^2 agent pairs, non-neighbors
    masked out afterwards."""
    x, d = batch.regressors, batch.references
    eps = d - np.einsum("...lk,...lk->...k", x, psi)
    ref = psi + (mu * eps)[..., None, :] * x
    diff = agent_major(psi)[..., :, None, :] - agent_major(ref)[..., None, :, :]
    dist2 = np.einsum("...lkd,...lkd->...lk", diff, diff)
    inv = np.where(topology.adjacency, 1.0 / np.maximum(dist2, DISTANCE_FLOOR), 0.0)
    return inv / inv.sum(axis=-2, keepdims=True)


def dense_relative_variance(topology, psi, w_prev, zeta2, tau):
    """The relative-variance rule with zeta2 (..., N, N) over all agent
    pairs, non-neighbors masked out afterwards."""
    diff = agent_major(psi)[..., :, None, :] - agent_major(w_prev)[..., None, :, :]
    dist2 = np.einsum("...lkd,...lkd->...lk", diff, diff)
    zeta2_new = (1.0 - tau[None, :]) * zeta2 + tau[None, :] * dist2
    inv = np.where(topology.adjacency,
                   1.0 / np.maximum(zeta2_new, DISTANCE_FLOOR), 0.0)
    return inv / inv.sum(axis=-2, keepdims=True), zeta2_new


def dense_of_edges(topology, on_edges, off_edges):
    """A (..., N, N) array holding an edge vector (..., E) at the edges
    and off_edges elsewhere."""
    n = topology.n_agents
    dense = np.full(on_edges.shape[:-1] + (n, n), off_edges)
    dense[(..., *topology.edges)] = on_edges
    return dense


def paper_step(cfg, w, x, d, a2_of_psi):
    """One instant for one batch entry, agent by agent, from the three
    stages: phi_k = sum_l a1_lk w_l; psi_k = phi_k + mu_k sum_l c_lk x_l
    (d_l - x_l' phi_k); w_k = sum_l a2_lk psi_l.  w, x and the result
    are tap-major (L, N): column k holds agent k's vector."""
    n = cfg.topology.n_agents
    a1, c = cfg.a1.entries, cfg.c.entries
    w, x = w.T, x.T
    phi = [sum(a1[l, k] * w[l] for l in range(n)) for k in range(n)]
    psi = np.array([
        phi[k] + cfg.mu[k] * sum(c[l, k] * x[l] * (d[l] - x[l] @ phi[k])
                                 for l in range(n))
        for k in range(n)]).T
    a2 = a2_of_psi(psi)
    return np.array([sum(a2[l, k] * psi[:, l] for l in range(n))
                     for k in range(n)]).T, a2


class TestStepOracle:
    # A2 entries near 1e-8 inherit the round-off of a column sum set by
    # the dominant entry, so A2 is bounded relative to its largest entry
    # on sparse topologies the adaptive rules meet non-neighbors, which
    # the all-pairs oracles mask out after measuring them
    @example(seed=1297, t=Topology(n_agents=3, adjacency=np.ones((3, 3), dtype=bool)),
             filter_len=3, batch_shape=(3,), a1_random=True, c_random=True,
             a2_mode="adaptive_projection")
    @settings(deadline=None, max_examples=100)
    @given(seed=st.integers(0, 2**31 - 1), t=topologies(max_n=4),
           filter_len=st.integers(1, 3),
           batch_shape=st.sampled_from([(), (3,)]),
           a1_random=st.booleans(), c_random=st.booleans(),
           a2_mode=st.sampled_from(["identity", "random", "adaptive_projection",
                                    "adaptive_relative_variance"]))
    def test_matches_per_agent_stages(self, seed, t, filter_len, batch_shape,
                                      a1_random, c_random, a2_mode):
        rng = np.random.default_rng(seed)
        n = t.n_agents
        identity = static_rule(t, "identity")
        a1 = random_stochastic(rng, t, "left") if a1_random else identity
        c = (random_stochastic(rng, t, "right") if c_random
             else StochasticMatrix(np.eye(n), "right"))
        mu = rng.uniform(0.01, 0.5, n)
        if a2_mode in ("identity", "random"):
            a2 = random_stochastic(rng, t, "left") if a2_mode == "random" \
                else identity
            cfg = StrategyConfig(topology=t, a1=a1, c=c, mu=mu, a2=a2)
        else:
            cfg = StrategyConfig(topology=t, a1=a1, c=c, mu=mu, a2_mode=a2_mode,
                                 tau=rng.uniform(0.05, 0.95, n))
        stk = stack(cfg)
        assert (stk.a1 is None) is not a1_random
        assert (stk.c is None) is not c_random

        state = init_state(stk, filter_len, batch_shape=batch_shape)
        state.w[...] = agent_major(rng.standard_normal(
            state.w.shape[:-2] + (n, filter_len)))
        if state.zeta2 is not None:
            state.zeta2[...] = rng.uniform(0.1, 2.0, state.zeta2.shape)
        x = agent_major(rng.standard_normal(batch_shape + (n, filter_len)))
        d = rng.standard_normal(batch_shape + (n,))
        targets = rng.standard_normal((n, filter_len)).T
        batch = batch_of(x, d, targets)
        # the errors the harness passes, read only when A1 = C = I
        new = advance(stk, state, batch)
        new_a2 = np.broadcast_to(new.a2[0], batch_shape + (n, n))

        for idx in np.ndindex(batch_shape):
            def a2_of_psi(psi):
                if a2_mode == "adaptive_projection":
                    return dense_projection(
                        t, psi, batch_of(x[idx], d[idx], targets), cfg.mu)
                if a2_mode == "adaptive_relative_variance":
                    zeta2 = dense_of_edges(t, state.zeta2[0][idx], 5.0)
                    return dense_relative_variance(
                        t, psi, state.w[0][idx], zeta2, cfg.tau)[0]
                return cfg.a2.entries

            w, a2 = paper_step(cfg, state.w[0][idx], x[idx], d[idx],
                               a2_of_psi)
            np.testing.assert_allclose(new.w[0][idx], w, rtol=1e-12,
                                       atol=1e-12 * np.abs(w).max())
            np.testing.assert_allclose(new_a2[idx], a2, rtol=1e-12,
                                       atol=1e-12 * np.abs(a2).max())


class TestErrors:
    def test_perfect_estimate(self):
        t = single_agent()
        cfg = stack(strategy(t, 0.1))
        st = init_state(cfg, 2)
        st.w[0, :, 0] = [1.0, -1.0]
        b = batch_of([[2.0], [1.0]], [1.0 + 0.3], [[1.0], [-1.0]], z=[0.3])
        rep = errors_and_outputs(st.w, b)
        assert rep.e_tilde[0, 0] == pytest.approx(0.0, abs=1e-15)
        assert rep.e[0, 0] == pytest.approx(0.3, abs=1e-15)

    def test_zero_noise_errors_coincide(self):
        t = single_agent()
        cfg = stack(strategy(t, 0.1))
        st = init_state(cfg, 2)
        st.w[0, :, 0] = [0.2, 0.4]
        b = batch_of([[1.0], [3.0]], [1.0 * 0.6 + 3.0 * -0.1], [[0.6], [-0.1]])
        rep = errors_and_outputs(st.w, b)
        assert rep.e[0, 0] == rep.e_tilde[0, 0]

    def test_hand_example(self):
        t = single_agent()
        cfg = stack(strategy(t, 0.1))
        st = init_state(cfg, 2)  # w = 0
        b = batch_of([[1.0], [1.0]], [1.5], [[1.0], [0.0]], z=[0.5])
        rep = errors_and_outputs(st.w, b)
        assert rep.y[0, 0] == 0.0
        assert rep.e_tilde[0, 0] == 1.0
        assert rep.e[0, 0] == 1.5

    def test_error_identity(self):
        t = build_preset("net1")
        cfg = stack(strategy(t, 0.05, a2=static_rule(t, "averaging")))
        params = [
            AgentSignalParams(sigma_x2=1.0, sigma_z2=0.2, filter_len=2)
            for _ in range(10)
        ]
        schedule = TargetSchedule.constant(np.ones((10, 2)))
        sampler = ChunkedSampler(params, schedule, seed=4, runs=[0], horizon=30)
        st = init_state(cfg, 2, batch_shape=(1,))
        for _ in range(30):
            b = sampler.step()
            rep = errors_and_outputs(st.w, b)
            np.testing.assert_allclose(rep.e, rep.e_tilde + b.noises, atol=1e-12)
            st = advance(cfg, st, b)


class TestAdaptiveProjection:
    def test_equidistant_neighbors_get_uniform_weights(self):
        t = triangle()
        # equilateral arrangement; agent 0 projects onto the centroid,
        # which is equidistant from all three estimates
        psi = np.array([[0.0, 0.0], [1.0, 0.0], [0.5, np.sqrt(3) / 2]]).T
        centroid = psi.mean(axis=1)
        x = np.vstack([centroid, np.zeros((2, 2))]).T
        d = np.array([1.0, 0.0, 0.0])
        b = batch_of(x, d, np.zeros((2, 3)), z=d.copy())
        a2 = adapt_matrix_projection(t, psi, b, mu=np.ones(3))
        np.testing.assert_allclose(a2[:, 0], 1 / 3, atol=1e-12)

    def test_zero_distances_floor_to_self_weight(self):
        t = triangle()
        psi = np.array([[0.0, 0.0], [1.0, 0.0], [0.5, np.sqrt(3) / 2]]).T
        b = batch_of(np.zeros((2, 3)), np.zeros(3), np.zeros((2, 3)))
        # zero step-size: the projection point is psi_k itself, so the
        # floored self-distance collects nearly all the mass
        a2 = adapt_matrix_projection(t, psi, b, mu=np.zeros(3))
        assert a2[0, 0] > 0.999
        np.testing.assert_allclose(a2.sum(axis=0), 1.0, atol=1e-12)

    def test_hand_weights_four_ninths(self):
        t = triangle()
        psi = np.array([[0.0, 0.0], [1.0, 1.0], [1.0, 2.0]]).T
        x = np.array([[1.0, 0.0], [0.0, 0.0], [0.0, 0.0]]).T
        d = np.array([1.0, 0.0, 0.0])
        b = batch_of(x, d, np.zeros((2, 3)), z=d.copy())
        a2 = adapt_matrix_projection(t, psi, b, mu=np.ones(3))
        # agent 0 projects to (1, 0): distances 1, 1, 2 -> (1, 1, 1/4)/2.25
        np.testing.assert_allclose(a2[:, 0], [4 / 9, 4 / 9, 1 / 9], atol=1e-12)

    def test_columns_normalized(self):
        t = build_preset("net1")
        rng = np.random.default_rng(1)
        psi = rng.standard_normal((10, 4)).T
        b = batch_of(
            rng.standard_normal((10, 4)).T, rng.standard_normal(10), np.zeros((4, 10))
        )
        a2 = adapt_matrix_projection(t, psi, b, mu=np.full(10, 0.1))
        np.testing.assert_allclose(a2.sum(axis=0), 1.0, atol=1e-12)
        assert validate_stochastic(StochasticMatrix(a2, "left"), t) is None


class TestAdaptiveRelativeVariance:
    # zeta2 holds one entry per edge of topology.edges; on a complete
    # graph that is the row-major ravel of the (l, k) table
    def test_equal_distances_give_uniform_weights(self):
        t = triangle()
        psi = np.zeros((2, 3))
        w_prev = np.zeros((2, 3))
        zeta2 = np.ones((3, 3)).ravel()
        a2, _ = adapt_matrix_relative_variance(t, psi, w_prev, zeta2, np.full(3, 0.1))
        np.testing.assert_allclose(a2, np.full((3, 3), 1 / 3), atol=1e-12)

    def test_tau_one_keeps_instantaneous_distance(self):
        t = triangle()
        rng = np.random.default_rng(0)
        psi = rng.standard_normal((3, 2)).T
        w_prev = rng.standard_normal((3, 2)).T
        zeta2 = np.full((3, 3), 99.0).ravel()
        _, z_new = adapt_matrix_relative_variance(t, psi, w_prev, zeta2, np.ones(3))
        expect = ((psi.T[:, None, :] - w_prev.T[None, :, :]) ** 2).sum(-1)
        np.testing.assert_allclose(z_new, expect[t.edges], atol=1e-12)

    def test_pair_weights(self):
        t = Topology(n_agents=2, adjacency=np.ones((2, 2), dtype=bool))
        w_prev = np.zeros((2, 2))
        psi = np.array([[1.0, 0.0], [2.0, 0.0]]).T  # distances 1 and 4 from w_0
        zeta2 = np.array([[1.0, 1.0], [4.0, 4.0]]).ravel()
        a2, z_new = adapt_matrix_relative_variance(
            t, psi, w_prev, zeta2, np.full(2, 0.5)
        )
        np.testing.assert_allclose(z_new.reshape(2, 2)[:, 0], [1.0, 4.0])
        np.testing.assert_allclose(a2[:, 0], [0.8, 0.2], atol=1e-12)

    def test_zero_distance_floored(self):
        t = Topology(n_agents=2, adjacency=np.ones((2, 2), dtype=bool))
        zeros = np.zeros((2, 2))
        a2, _ = adapt_matrix_relative_variance(
            t, zeros, zeros, zeros.ravel(), np.full(2, 0.5)
        )
        assert np.all(np.isfinite(a2))
        np.testing.assert_allclose(a2.sum(axis=0), 1.0, atol=1e-12)


U = np.finfo(float).eps / 2


def gamma(n):
    """Higham's gamma_n = n u / (1 - n u), u the unit round-off: the
    relative error bound of n successive roundings, and of any length-n
    dot product against its magnitudes, whatever the summation order."""
    return n * U / (1 - n * U)


def oracle_dist2(t, psi, other):
    """The all-pairs oracles' own squared distances on the edges of t:
    dense_relative_variance at tau = 1 and zeta2 = 0 returns them
    exactly."""
    n = t.n_agents
    zeta2 = dense_relative_variance(t, psi, other, np.zeros((n, n)),
                                    np.ones(n))[1]
    return zeta2[(..., *t.edges)]


def distance_bound(t, psi, other, x, c, beta):
    """Bound (..., E) on |D_rule - D_oracle| over the edges (l, k) of t,
    D the squared distance from psi_l to other_k + c_k x_k; derived in
    TestEdgeRefreshMatchesDenseOracle."""
    src, dst = t.edges
    filter_len = psi.shape[-2]
    a, b, own, xk = (agent_major(v)[..., i, :]
                     for v, i in ((psi, src), (other, dst), (psi, dst), (x, dst)))
    c, beta = c[..., dst], beta[..., dst]
    reach = np.abs(c) + 2 * beta
    m = np.abs(a) + np.abs(b) + reach[..., None] * np.abs(xk)
    xx = (xk ** 2).sum(-1)
    # the projection reads both ends of a self-edge from one diag(G)
    exact = (src == dst) & (other is psi)
    gram = gamma(filter_len + 4) * np.where(exact, reach ** 2 * xx,
                                            (m ** 2).sum(-1))
    diff = np.abs(a - (b + c[..., None] * xk))
    g3 = gamma(3)
    oracle = (g3 * (m * (2 * diff + 3 * g3 * m)).sum(-1)
              + gamma(filter_len) * (diff ** 2).sum(-1))
    gap = np.abs(a - own) / (1 - U)
    shift = 4 * beta * ((np.abs(xk) * gap).sum(-1) + reach * xx)
    return gram + oracle + shift


def a2_bound(t, a2, dist2, bound):
    """Bound (..., N, N) on |A2_rule - A2_oracle| when the rule weighted
    edge distances within bound (..., E) of the oracle's dist2."""
    rho = bound / np.maximum(dist2, DISTANCE_FLOOR)
    assert np.all(rho < 1)
    r = dense_of_edges(t, rho / (1 - rho), 0.0)
    r_max = r.max(axis=-2, keepdims=True)
    g = gamma(t.n_agents + 2)
    return a2 * ((1 + (r + r_max) / (1 - r_max)) * (1 + g) / (1 - g) - 1)


def projection_with_distances(t, psi, batch, mu):
    """The projection rule's A2 and the edge distances it weighted."""
    seen = []
    weigh = diffusion._inverse_weights

    def spy(topology, dist2):
        seen.append(dist2)
        return weigh(topology, dist2)

    with mock.patch.object(diffusion, "_inverse_weights", spy):
        a2 = adapt_matrix_projection(t, psi, batch, mu)
    return a2, seen[0]


def assert_edge_rules_match_dense(t, psi, w_prev, batch, mu, tau, zeta2):
    """Both refresh rules on the edge list against their all-pairs
    oracles, each edge's distance and zeta2 and each A2 entry within the
    bound derived in TestEdgeRefreshMatchesDenseOracle."""
    x, d = batch.regressors, batch.references
    filter_len = psi.shape[-2]
    a2, dist2 = projection_with_distances(t, psi, batch, mu)
    c = mu * (d - np.einsum("...lk,...lk->...k", x, psi))
    beta = gamma(filter_len + 2) * mu * (
        np.abs(d) + np.einsum("...lk,...lk->...k", np.abs(x), np.abs(psi)))
    bound = distance_bound(t, psi, psi, x, c, beta)
    ref = psi + c[..., None, :] * x
    want = oracle_dist2(t, psi, ref)
    assert np.all(np.abs(dist2 - want) <= bound)
    a2_dense = dense_projection(t, psi, batch, mu)
    assert np.all(np.abs(a2 - a2_dense) <= a2_bound(t, a2_dense, want, bound))

    a2, z_new = adapt_matrix_relative_variance(t, psi, w_prev, zeta2, tau)
    a2_dense, z_dense = dense_relative_variance(
        t, psi, w_prev, dense_of_edges(t, zeta2, 3.0), tau)
    z_dense = z_dense[(..., *t.edges)]
    assert z_new.shape == zeta2.shape
    zero = np.zeros(d.shape)
    tau_k = tau[t.edges[1]]
    z_bound = ((1 + U) * tau_k * distance_bound(t, psi, w_prev, x, zero, zero)
               + gamma(3) * (np.abs(z_new) + np.abs(z_dense)))
    assert np.all(np.abs(z_new - z_dense) <= z_bound)
    assert np.all(np.abs(a2 - a2_dense)
                  <= a2_bound(t, a2_dense, z_dense, z_bound))


def random_edge_inputs(t, seed, filter_len, batch_shape, spread=1.0,
                       offset=0.0):
    """Inputs of both refresh rules: estimates psi and w_prev of every
    agent at offset plus spread times a standard normal draw, a batch
    whose references fit offset to spread, step-sizes, forgetting
    factors and smoothed distances."""
    rng = np.random.default_rng(seed)
    n = t.n_agents
    psi, w_prev = offset + spread * agent_major(
        rng.standard_normal((2,) + batch_shape + (n, filter_len)))
    x = agent_major(rng.standard_normal(batch_shape + (n, filter_len)))
    d = (x * offset).sum(-2) + spread * rng.standard_normal(batch_shape + (n,))
    batch = batch_of(x, d, rng.standard_normal((n, filter_len)).T)
    mu, tau = rng.uniform(0.01, 0.5, n), rng.uniform(0.05, 0.95, n)
    zeta2 = spread ** 2 * rng.uniform(0.1, 2.0, batch_shape + t.edges[0].shape)
    return psi, w_prev, batch, mu, tau, zeta2


class TestEdgeRefreshMatchesDenseOracle:
    """The rules read each squared distance D from a_l to b_k + c_k x_k
    out of inner products, ||a_l||^2 + ||b_k + c_k x_k||^2 - 2 a_l'(b_k +
    c_k x_k) (projection: a = b = psi and c_k = mu_k eps_k, expanded
    over G = psi'psi and X = psi'x; relative variance: a = psi,
    b = w_prev and c = 0), while the oracles square differences.
    Neither is exact, so each edge is held to a bound derived from the
    dot-product error bound: a length-n dot product computed in any
    order is off by at most gamma_n |a|'|b| (Higham 2002, section 3.1),
    and (1 + theta_i)(1 + theta_j) = 1 + theta_{i+j}.

    * The Gram form, given c.  With m = |a_l| + |b_k| + |c_k||x_k|
      entrywise and M = ||m||^2, every product it adds (G_ll, G_kk,
      G_lk, c^2 ||x||^2, c X_lk, c X_kk) is bounded by its share of M,
      and each passes through at most L + 4 roundings: D_rule is off by
      at most gamma_{L+4} M.  On a projection self-edge the G and X
      terms are the same numbers and cancel exactly, leaving
      gamma_{L+4} c^2 ||x||^2.
    * The oracle, given c.  It rounds each difference entry at most
      three times (c x, + psi, -), so its computed t_i = v_i + err_i
      with |err_i| <= gamma_3 m_i, and |t_i^2 - v_i^2| <= gamma_3 m_i
      (2 |t_i| + 3 gamma_3 m_i); squaring and summing add
      gamma_L sum t_i^2.
    * c itself.  Both sides compute c_k = mu_k (d_k - x_k'psi_k) by a
      dot product in their own order, each within beta_k = gamma_{L+2}
      mu_k (|d_k| + |x_k|'|psi_k|) of exact.  D(c) = ||v - c x_k||^2
      with v = psi_l - psi_k, so two values of c within 2 beta_k of each
      other move D by at most 4 beta_k (|x_k|'|v| + C_k ||x_k||^2), with
      C_k = |c_k| + 2 beta_k bounding every value of |c_k| involved
      (it also stands for |c_k| in m); |v| <= |fl(v)| / (1 - u).

    |D_rule - D_oracle| is at most the sum of the three.  The
    relative-variance rule has c = 0, beta = 0 and fewer roundings, so
    the same bound holds.  Its zeta2 update
    (1 - tau) zeta2 + tau D is the same arithmetic on both sides, so it
    adds (1 + u) tau |dD| plus one rounding of tau D and of the sum on
    each side: at most gamma_3 (|zeta2_rule| + |zeta2_oracle|).

    A2.  A distance within bound B of the oracle's D moves the floored
    max(D, floor) by at most B too, since the floor is 1-Lipschitz, so
    its inverse weight by a factor within r = rho / (1 - rho), rho =
    B / max(D, floor) < 1.  Column normalisation turns weights off by
    r_l into entries off by (r_l + r_max) / (1 - r_max) relatively,
    r_max the column's largest, and the inverse, the column sum and
    the division round at most N + 2 times on each side.

    The bounds follow from the arithmetic alone, not from observed
    deviations, and tighten relative to D as neighbours separate.
    """

    @pytest.mark.parametrize("name", ["net1", "net2"])
    @pytest.mark.parametrize("batch_shape", [(), (3,)])
    def test_presets(self, name, batch_shape):
        t = build_preset(name)
        assert_edge_rules_match_dense(
            t, *random_edge_inputs(t, 11, 50, batch_shape))

    @pytest.mark.parametrize("filter_len", [2, 50])
    def test_neighbors_agree_closely(self, filter_len):
        # every estimate within about 1e-6 per tap of one point of norm
        # 10: the Gram form subtracts terms near 100 to leave D near
        # 2e-12 L
        t = build_preset("net1")
        offset = np.full((filter_len, 1), 10 / np.sqrt(filter_len))
        psi, *rest = random_edge_inputs(t, 5, filter_len, (3,), spread=1e-6,
                                        offset=offset)
        assert np.allclose(np.linalg.norm(psi, axis=-2), 10, rtol=1e-5)
        assert_edge_rules_match_dense(t, psi, *rest)

    @settings(deadline=None, max_examples=60)
    @given(t=topologies(), seed=st.integers(0, 2**31 - 1),
           filter_len=st.integers(1, 4), batch_shape=st.sampled_from([(), (3,)]))
    def test_sparse_topologies(self, t, seed, filter_len, batch_shape):
        assert_edge_rules_match_dense(
            t, *random_edge_inputs(t, seed, filter_len, batch_shape))

    def test_projection_self_edge_at_zero_step_is_floored(self):
        # at mu = 0 the self-edge is ||psi_k||^2 + ||psi_k||^2 - 2 G_kk
        # from one diag(G): exactly zero however large psi_k, then floored
        t = build_preset("net1")
        psi, _, batch, *_ = random_edge_inputs(t, 3, 50, (3,), offset=1e3)
        a2, dist2 = projection_with_distances(t, psi, batch, np.zeros(10))
        src, dst = t.edges
        assert np.all(dist2[..., src == dst] == 0.0)
        others = dense_of_edges(t, np.where(src == dst, np.inf, dist2), np.inf)
        share = 1.0 / (1.0 + DISTANCE_FLOOR * (1.0 / others).sum(axis=-2))
        np.testing.assert_allclose(np.diagonal(a2, axis1=-2, axis2=-1),
                                   share, rtol=1e-14)


class TestEdgeRefreshBatchIndependence:
    # worker-count identity rests on each run's refresh being computed
    # alone; the L = 50 chunks never group, so only this test sees a
    # batch-dependent kernel there
    @pytest.mark.parametrize("filter_len", [2, 50])
    @pytest.mark.parametrize("runs", [3, 25])
    def test_each_run_alone(self, filter_len, runs):
        t = build_preset("net1")
        psi, w_prev, batch, mu, tau, zeta2 = random_edge_inputs(
            t, 7, filter_len, (runs,))
        a2 = adapt_matrix_projection(t, psi, batch, mu)
        a2_rv, z_rv = adapt_matrix_relative_variance(t, psi, w_prev, zeta2, tau)
        for r in range(runs):
            alone = SampleBatch(*(getattr(batch, f)[r] for f in (
                "regressors", "references", "noises")), targets=batch.targets)
            assert np.array_equal(
                adapt_matrix_projection(t, psi[r], alone, mu), a2[r])
            a2_r, z_r = adapt_matrix_relative_variance(
                t, psi[r], w_prev[r], zeta2[r], tau)
            assert np.array_equal(a2_r, a2_rv[r])
            assert np.array_equal(z_r, z_rv[r])


class TestAdaptiveModesInsideStep:
    @pytest.mark.parametrize(
        "mode,extra",
        [
            ("adaptive_projection", {}),
            ("adaptive_relative_variance", {"tau": 0.1}),
        ],
    )
    def test_effective_a2_stays_stochastic(self, mode, extra):
        t = build_preset("net3")
        cfg = stack(StrategyConfig(
            topology=t, a1=static_rule(t, "identity"),
            c=StochasticMatrix(np.eye(20), "right"), mu=0.05, a2_mode=mode, **extra,
        ))
        params = [
            AgentSignalParams(sigma_x2=1.0, sigma_z2=0.1, filter_len=2)
            for _ in range(20)
        ]
        schedule = TargetSchedule.constant(np.ones((20, 2)))
        sampler = ChunkedSampler(params, schedule, seed=6, runs=[0], horizon=25)
        st = init_state(cfg, 2, batch_shape=(1,))
        for _ in range(25):
            st = advance(cfg, st, sampler.step())
            assert validate_stochastic(StochasticMatrix(st.a2[0, 0], "left"), t) is None

    def test_static_matrices_untouched(self):
        t = build_preset("net1")
        a2 = static_rule(t, "averaging")
        cfg = stack(strategy(t, 0.05, a2=a2))
        before = a2.entries.copy()
        params = [
            AgentSignalParams(sigma_x2=1.0, sigma_z2=0.1, filter_len=2)
            for _ in range(10)
        ]
        sampler = ChunkedSampler(
            params, TargetSchedule.constant(np.ones((10, 2))), seed=1, runs=[0],
            horizon=10)
        st = init_state(cfg, 2, batch_shape=(1,))
        for _ in range(10):
            st = advance(cfg, st, sampler.step())
        np.testing.assert_array_equal(a2.entries, before)


class TestConfigValidation:
    def test_wrong_roles_rejected(self):
        t = build_preset("net1")
        avg = static_rule(t, "averaging")
        with pytest.raises(ValueError, match="role"):
            StrategyConfig(
                topology=t, a1=StochasticMatrix(avg.entries, "right"),
                c=StochasticMatrix(np.eye(10), "right"), mu=0.1, a2=avg,
            )

    def test_negative_mu_rejected(self):
        t = single_agent()
        with pytest.raises(ValueError, match="nonnegative"):
            strategy(t, -0.1)

    def test_tau_range(self):
        t = build_preset("net1")
        with pytest.raises(ValueError, match="forgetting"):
            StrategyConfig(
                topology=t, a1=static_rule(t, "identity"),
                c=StochasticMatrix(np.eye(10), "right"), mu=0.1,
                a2_mode="adaptive_relative_variance", tau=1.0,
            )

    def test_static_requires_a2(self):
        t = build_preset("net1")
        with pytest.raises(ValueError, match="requires an a2"):
            StrategyConfig(
                topology=t, a1=static_rule(t, "identity"),
                c=StochasticMatrix(np.eye(10), "right"), mu=0.1,
            )
