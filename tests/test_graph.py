import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from diffcomb.graph import (
    ConfigError,
    Topology,
    build_preset,
    parse_edge_list,
    static_rule,
    validate_stochastic,
)
from helpers import format_edge_list, stats, topologies


def path_graph(n):
    adj = np.zeros((n, n), dtype=bool)
    for i in range(n - 1):
        adj[i, i + 1] = adj[i + 1, i] = True
    return Topology(n_agents=n, adjacency=adj)


def complete_graph(n):
    return Topology(n_agents=n, adjacency=np.ones((n, n), dtype=bool))


class TestStats:
    def test_two_node_path(self):
        s = stats(path_graph(2))
        assert s.lambda2 == pytest.approx(2.0, abs=1e-12)
        assert s.diameter == 1

    def test_complete_graph_diameter_one(self):
        assert stats(complete_graph(3)).diameter == 1

    def test_net1_matches_published_table(self):
        s = stats(build_preset("net1"))
        assert s.size == 10
        assert s.density == pytest.approx(0.44)
        assert s.lambda2 == pytest.approx(0.7962, abs=1e-3)
        assert s.diameter == 3

    def test_net2_matches_published_table(self):
        s = stats(build_preset("net2"))
        assert s.size == 20
        assert s.density == pytest.approx(0.38)
        assert s.lambda2 == pytest.approx(0.9549, abs=1e-3)
        assert s.diameter == 3

    def test_net3_cluster_chain(self):
        t = build_preset("net3")
        assert t.n_agents == 20
        assert tuple(len(g) for g in t.clusters) == (3, 3, 3, 3, 3, 3, 2)
        s = stats(t)
        assert s.diameter == 13
        assert s.lambda2 == pytest.approx(0.0439, abs=1e-3)

    def test_all_presets_connected(self):
        for name in ("net1", "net2", "net3"):
            assert stats(build_preset(name)).lambda2 > 0

    @settings(deadline=None, max_examples=30)
    @given(data=st.data())
    def test_invariant_under_relabeling(self, data):
        t = data.draw(topologies())
        perm = np.array(data.draw(st.permutations(range(t.n_agents))))
        relabeled = Topology(
            n_agents=t.n_agents, adjacency=t.adjacency[np.ix_(perm, perm)]
        )
        s0, s1 = stats(t), stats(relabeled)
        assert s1.size == s0.size
        assert s1.diameter == s0.diameter
        assert s1.density == pytest.approx(s0.density, abs=1e-12)
        assert s1.lambda2 == pytest.approx(s0.lambda2, abs=1e-9)


class TestTopology:
    def test_disconnected_rejected(self):
        adj = np.zeros((4, 4), dtype=bool)
        adj[0, 1] = adj[1, 0] = True
        adj[2, 3] = adj[3, 2] = True
        with pytest.raises(ValueError, match="connected"):
            Topology(n_agents=4, adjacency=adj)

    def test_asymmetric_rejected(self):
        adj = np.zeros((3, 3), dtype=bool)
        adj[0, 1] = True
        with pytest.raises(ValueError, match="symmetric"):
            Topology(n_agents=3, adjacency=adj)

    def test_bad_partition_rejected(self):
        adj = np.ones((3, 3), dtype=bool)
        with pytest.raises(ValueError, match="partition"):
            Topology(n_agents=3, adjacency=adj, clusters=((0, 1), (1, 2)))

    def test_connectivity_spans_the_diameter(self):
        # a path's far end is N - 1 hops away; cut one link and it is not
        assert path_graph(12).n_agents == 12
        adj = path_graph(12).adjacency.copy()
        adj[10, 11] = adj[11, 10] = False
        with pytest.raises(ValueError, match="connected"):
            Topology(n_agents=12, adjacency=adj)

    def test_edges_are_the_row_major_support(self):
        t = build_preset("net1")
        src, dst = t.edges
        assert len(src) == len(dst) == np.count_nonzero(t.adjacency)
        # row-major: sorted by (src, dst), every one an adjacency entry
        order = src * t.n_agents + dst
        assert np.all(np.diff(order) > 0)
        assert t.adjacency[src, dst].all()
        np.testing.assert_array_equal(np.stack(t.edges), np.argwhere(t.adjacency).T)
        # every self-loop is an edge
        loops = set(zip(src[src == dst].tolist(), dst[src == dst].tolist()))
        assert loops == {(k, k) for k in range(t.n_agents)}
        for e in (src, dst):
            assert not e.flags.writeable
            with pytest.raises(ValueError):
                e[0] = 1

    def test_neighbors_include_self(self):
        t = path_graph(3)
        assert 1 in t.neighbors(1)
        assert set(t.neighbors(1)) == {0, 1, 2}

    def test_unknown_preset(self):
        with pytest.raises(ValueError, match="unknown preset"):
            build_preset("net9")


class TestStaticRules:
    def test_averaging_weights(self):
        # middle node of a 3-path: two neighbors plus itself
        a = static_rule(path_graph(3), "averaging").entries
        np.testing.assert_allclose(a[:, 1], [1 / 3, 1 / 3, 1 / 3])

    def test_identity_on_net1(self):
        a = static_rule(build_preset("net1"), "identity").entries
        np.testing.assert_array_equal(a, np.eye(10))

    def test_averaging_columns_sum_to_one(self):
        a = static_rule(build_preset("net1"), "averaging").entries
        np.testing.assert_allclose(a.sum(axis=0), 1.0, atol=1e-12)

    def test_uniform_in_cluster_requires_clusters(self):
        with pytest.raises(ValueError, match="cluster"):
            static_rule(build_preset("net1"), "uniform_in_cluster")

    def test_uniform_in_cluster_support(self):
        t = build_preset("net3")
        m = static_rule(t, "uniform_in_cluster")
        assert validate_stochastic(m, t) is None
        # bridge neighbors in other clusters get zero weight
        a = m.entries
        for k in range(t.n_agents):
            grp = t.cluster_of(k)
            for l in range(t.n_agents):
                if a[l, k] != 0:
                    assert l in grp

    def test_metropolis_is_doubly_stochastic(self):
        t = build_preset("net2")
        m = static_rule(t, "metropolis")
        assert validate_stochastic(m, t) is None
        for axis in (0, 1):
            np.testing.assert_allclose(m.entries.sum(axis=axis), 1.0,
                                       rtol=0, atol=1e-12)

    def test_averaging_doubly_stochastic_on_regular_graph(self):
        # 4-cycle: every neighborhood has size 3
        adj = np.zeros((4, 4), dtype=bool)
        for i in range(4):
            adj[i, (i + 1) % 4] = adj[(i + 1) % 4, i] = True
        t = Topology(n_agents=4, adjacency=adj)
        m = static_rule(t, "averaging")
        assert validate_stochastic(m, t) is None
        for axis in (0, 1):
            np.testing.assert_allclose(m.entries.sum(axis=axis), 1.0,
                                       rtol=0, atol=1e-12)

    @settings(deadline=None, max_examples=30)
    @given(t=topologies(), rule=st.sampled_from(["identity", "averaging", "metropolis"]))
    def test_rules_always_left_stochastic(self, t, rule):
        assert validate_stochastic(static_rule(t, rule), t) is None


class TestValidate:
    def test_column_sum_violation_reported(self):
        t = path_graph(2)
        m = static_rule(t, "averaging")
        bad = m.entries.copy()
        bad[:, 0] *= 0.9
        from diffcomb.graph import StochasticMatrix

        defect = validate_stochastic(StochasticMatrix(bad, "left"), t)
        assert defect == "column 0 sums to 0.9, not 1"

    def test_support_violation_reported(self):
        t = path_graph(3)
        from diffcomb.graph import StochasticMatrix

        bad = np.eye(3)
        bad[0, 2] = 0.5  # agents 0 and 2 are not neighbors
        bad[2, 2] = 0.5
        defect = validate_stochastic(StochasticMatrix(bad, "left"), t)
        assert defect == "entry (0, 2) lies off the topology's support"

    def test_negative_entry_reported(self):
        t = path_graph(2)
        from diffcomb.graph import StochasticMatrix

        bad = np.array([[1.5, 0.0], [-0.5, 1.0]])
        defect = validate_stochastic(StochasticMatrix(bad, "left"), t)
        assert defect == "entry (1, 0) is negative"

    def test_right_role_checks_rows(self):
        t = path_graph(2)
        from diffcomb.graph import StochasticMatrix

        c = np.array([[0.5, 0.5], [0.0, 1.0]])
        assert validate_stochastic(StochasticMatrix(c, "right"), t) is None
        defect = validate_stochastic(StochasticMatrix(c, "left"), t)
        assert defect == "column 0 sums to 0.5, not 1"


def test_edge_list_roundtrip():
    t = build_preset("net3")
    parsed = parse_edge_list(format_edge_list(t), "net3.edges")
    np.testing.assert_array_equal(parsed.adjacency, t.adjacency)
    assert parsed.clusters == t.clusters


@pytest.mark.parametrize("bad", ["2 3 4", "2 x", "cluster", "cluster 1: 2 x"])
def test_malformed_edge_line_named_by_file_and_line(bad):
    # the first three used to fail with "too many values to unpack", an
    # int() message and an IndexError
    with pytest.raises(ConfigError) as err:
        parse_edge_list(f"# a chain\n1 2\n\n{bad}\n2 3\n", "chain.edges")
    assert str(err.value) == (
        f"edge-list file chain.edges, line 4: {bad!r} is neither 'u v' "
        "nor 'cluster <id>: <members>'")
