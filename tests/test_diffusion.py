import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

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
        z = d - np.einsum("...kl,kl->...k", x, w_star)
    return SampleBatch(regressors=x, references=d, noises=np.asarray(z), targets=w_star)


class TestStep:
    def test_degenerate_network_is_plain_lms(self):
        t = single_agent()
        cfg = stack(strategy(t, 0.3))
        st = init_state(cfg, filter_len=2)
        st.w[:] = [[0.5, -0.5]]
        x = np.array([[1.0, 2.0]])
        d = np.array([1.2])
        new = advance(cfg, st, batch_of(x, d, np.zeros((1, 2))))
        expect = st.w[0, 0] + 0.3 * x[0] * (1.2 - x[0] @ st.w[0, 0])
        np.testing.assert_allclose(new.w[0, 0], expect, rtol=1e-15)

    def test_zero_step_size_freezes_state(self):
        t = single_agent()
        cfg = stack(strategy(t, 0.0))
        st = init_state(cfg, filter_len=2)
        st.w[:] = [[1.0, 2.0]]
        new = advance(cfg, st, batch_of([[0.3, 0.4]], [5.0], np.zeros((1, 2))))
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
            step(cfg, st, batch_of([[1.0, 2.0, 3.0]], [0.0], np.zeros((1, 3))),
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
        x = np.zeros((10, 2))
        x[0] = [1.0, 1.0]
        d = np.zeros(10)
        d[0] = 1.0
        new = advance(cfg, st, batch_of(x, d, np.zeros((10, 2))))
        touched = np.flatnonzero(np.abs(new.w[0]).sum(axis=1) > 0)
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


def dense_projection(topology, psi, batch, mu):
    """The projection rule over all N^2 agent pairs, non-neighbors
    masked out afterwards."""
    x, d = batch.regressors, batch.references
    eps = d - np.einsum("...kl,...kl->...k", x, psi)
    ref = psi + mu[:, None] * eps[..., None] * x
    diff = psi[..., :, None, :] - ref[..., None, :, :]
    dist2 = np.einsum("...lkd,...lkd->...lk", diff, diff)
    inv = np.where(topology.adjacency, 1.0 / np.maximum(dist2, DISTANCE_FLOOR), 0.0)
    return inv / inv.sum(axis=-2, keepdims=True)


def dense_relative_variance(topology, psi, w_prev, zeta2, tau):
    """The relative-variance rule with zeta2 (..., N, N) over all agent
    pairs, non-neighbors masked out afterwards."""
    diff = psi[..., :, None, :] - w_prev[..., None, :, :]
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
    (d_l - x_l' phi_k); w_k = sum_l a2_lk psi_l."""
    n = cfg.topology.n_agents
    a1, c = cfg.a1.entries, cfg.c.entries
    phi = [sum(a1[l, k] * w[l] for l in range(n)) for k in range(n)]
    psi = np.array([
        phi[k] + cfg.mu[k] * sum(c[l, k] * x[l] * (d[l] - x[l] @ phi[k])
                                 for l in range(n))
        for k in range(n)])
    a2 = a2_of_psi(psi)
    return np.array([sum(a2[l, k] * psi[l] for l in range(n))
                     for k in range(n)]), a2


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
        state.w[...] = rng.standard_normal(state.w.shape)
        if state.zeta2 is not None:
            state.zeta2[...] = rng.uniform(0.1, 2.0, state.zeta2.shape)
        x = rng.standard_normal(batch_shape + (n, filter_len))
        d = rng.standard_normal(batch_shape + (n,))
        targets = rng.standard_normal((n, filter_len))
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
        st.w[:] = [[1.0, -1.0]]
        b = batch_of([[2.0, 1.0]], [1.0 + 0.3], [[1.0, -1.0]], z=[0.3])
        rep = errors_and_outputs(st.w, b)
        assert rep.e_tilde[0, 0] == pytest.approx(0.0, abs=1e-15)
        assert rep.e[0, 0] == pytest.approx(0.3, abs=1e-15)

    def test_zero_noise_errors_coincide(self):
        t = single_agent()
        cfg = stack(strategy(t, 0.1))
        st = init_state(cfg, 2)
        st.w[:] = [[0.2, 0.4]]
        b = batch_of([[1.0, 3.0]], [1.0 * 0.6 + 3.0 * -0.1], [[0.6, -0.1]])
        rep = errors_and_outputs(st.w, b)
        assert rep.e[0, 0] == rep.e_tilde[0, 0]

    def test_hand_example(self):
        t = single_agent()
        cfg = stack(strategy(t, 0.1))
        st = init_state(cfg, 2)  # w = 0
        b = batch_of([[1.0, 1.0]], [1.5], [[1.0, 0.0]], z=[0.5])
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
        psi = np.array([[0.0, 0.0], [1.0, 0.0], [0.5, np.sqrt(3) / 2]])
        centroid = psi.mean(axis=0)
        x = np.vstack([centroid, np.zeros((2, 2))])
        d = np.array([1.0, 0.0, 0.0])
        b = batch_of(x, d, np.zeros((3, 2)), z=d.copy())
        a2 = adapt_matrix_projection(t, psi, b, mu=np.ones(3))
        np.testing.assert_allclose(a2[:, 0], 1 / 3, atol=1e-12)

    def test_zero_distances_floor_to_self_weight(self):
        t = triangle()
        psi = np.array([[0.0, 0.0], [1.0, 0.0], [0.5, np.sqrt(3) / 2]])
        b = batch_of(np.zeros((3, 2)), np.zeros(3), np.zeros((3, 2)))
        # zero step-size: the projection point is psi_k itself, so the
        # floored self-distance collects nearly all the mass
        a2 = adapt_matrix_projection(t, psi, b, mu=np.zeros(3))
        assert a2[0, 0] > 0.999
        np.testing.assert_allclose(a2.sum(axis=0), 1.0, atol=1e-12)

    def test_hand_weights_four_ninths(self):
        t = triangle()
        psi = np.array([[0.0, 0.0], [1.0, 1.0], [1.0, 2.0]])
        x = np.array([[1.0, 0.0], [0.0, 0.0], [0.0, 0.0]])
        d = np.array([1.0, 0.0, 0.0])
        b = batch_of(x, d, np.zeros((3, 2)), z=d.copy())
        a2 = adapt_matrix_projection(t, psi, b, mu=np.ones(3))
        # agent 0 projects to (1, 0): distances 1, 1, 2 -> (1, 1, 1/4)/2.25
        np.testing.assert_allclose(a2[:, 0], [4 / 9, 4 / 9, 1 / 9], atol=1e-12)

    def test_columns_normalized(self):
        t = build_preset("net1")
        rng = np.random.default_rng(1)
        psi = rng.standard_normal((10, 4))
        b = batch_of(
            rng.standard_normal((10, 4)), rng.standard_normal(10), np.zeros((10, 4))
        )
        a2 = adapt_matrix_projection(t, psi, b, mu=np.full(10, 0.1))
        np.testing.assert_allclose(a2.sum(axis=0), 1.0, atol=1e-12)
        assert validate_stochastic(StochasticMatrix(a2, "left"), t) is None


class TestAdaptiveRelativeVariance:
    # zeta2 holds one entry per edge of topology.edges; on a complete
    # graph that is the row-major ravel of the (l, k) table
    def test_equal_distances_give_uniform_weights(self):
        t = triangle()
        psi = np.zeros((3, 2))
        w_prev = np.zeros((3, 2))
        zeta2 = np.ones((3, 3)).ravel()
        a2, _ = adapt_matrix_relative_variance(t, psi, w_prev, zeta2, np.full(3, 0.1))
        np.testing.assert_allclose(a2, np.full((3, 3), 1 / 3), atol=1e-12)

    def test_tau_one_keeps_instantaneous_distance(self):
        t = triangle()
        rng = np.random.default_rng(0)
        psi = rng.standard_normal((3, 2))
        w_prev = rng.standard_normal((3, 2))
        zeta2 = np.full((3, 3), 99.0).ravel()
        _, z_new = adapt_matrix_relative_variance(t, psi, w_prev, zeta2, np.ones(3))
        expect = ((psi[:, None, :] - w_prev[None, :, :]) ** 2).sum(-1)
        np.testing.assert_allclose(z_new, expect[t.edges], atol=1e-12)

    def test_pair_weights(self):
        t = Topology(n_agents=2, adjacency=np.ones((2, 2), dtype=bool))
        w_prev = np.zeros((2, 2))
        psi = np.array([[1.0, 0.0], [2.0, 0.0]])  # distances 1 and 4 from w_0
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


def assert_edge_rules_match_dense(t, seed, filter_len, batch_shape):
    """Both refresh rules on the edge list against their all-pairs
    oracles: the same A2 bits, and the same zeta2 bits on every edge."""
    rng = np.random.default_rng(seed)
    n = t.n_agents
    psi, w_prev, x = rng.standard_normal((3,) + batch_shape + (n, filter_len))
    batch = batch_of(x, rng.standard_normal(batch_shape + (n,)),
                     rng.standard_normal((n, filter_len)))
    mu, tau = rng.uniform(0.01, 0.5, n), rng.uniform(0.05, 0.95, n)
    zeta2 = rng.uniform(0.1, 2.0, batch_shape + t.edges[0].shape)
    assert np.array_equal(adapt_matrix_projection(t, psi, batch, mu),
                          dense_projection(t, psi, batch, mu))
    a2, z_new = adapt_matrix_relative_variance(t, psi, w_prev, zeta2, tau)
    a2_dense, z_dense = dense_relative_variance(
        t, psi, w_prev, dense_of_edges(t, zeta2, 3.0), tau)
    assert z_new.shape == zeta2.shape
    assert np.array_equal(a2, a2_dense)
    assert np.array_equal(z_new, z_dense[(..., *t.edges)])


class TestEdgeRefreshMatchesDenseOracle:
    @pytest.mark.parametrize("name", ["net1", "net2"])
    @pytest.mark.parametrize("batch_shape", [(), (3,)])
    def test_presets(self, name, batch_shape):
        assert_edge_rules_match_dense(build_preset(name), 11, 50, batch_shape)

    @settings(deadline=None, max_examples=60)
    @given(t=topologies(), seed=st.integers(0, 2**31 - 1),
           filter_len=st.integers(1, 4), batch_shape=st.sampled_from([(), (3,)]))
    def test_sparse_topologies(self, t, seed, filter_len, batch_shape):
        assert_edge_rules_match_dense(t, seed, filter_len, batch_shape)


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
