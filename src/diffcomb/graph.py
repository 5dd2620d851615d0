"""Network topologies and combination matrices.

A topology is an undirected connected graph over N agents in which every
agent counts as its own neighbor.  Combination matrices built on a topology
are stochastic (left for fusion matrices, right for data-sharing matrices)
and supported on the neighborhoods.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from importlib import resources

import numpy as np

_PRESET_FILES = {"net1": "net1.edges", "net2": "net2.edges"}


class ConfigError(Exception):
    """Structural problem in an experiment description (unreadable file,
    malformed syntax, unknown keys, missing sections)."""


@dataclass(frozen=True)
class Topology:
    """Undirected connected network of agents.

    Parameters
    ----------
    n_agents : int
        Number of agents N.
    adjacency : ndarray of bool, shape (N, N)
        Symmetric neighbor relation.  The diagonal is forced to True:
        every agent belongs to its own neighborhood.
    clusters : tuple of tuples, optional
        Disjoint groups of agent indices (0-based) that together cover
        all agents.  Only needed by cluster-aware combination rules.

    ``edges`` is (src, dst), the row-major nonzero (l, k) entries of the
    adjacency, self-loops included, as read-only index arrays.
    """

    n_agents: int
    adjacency: np.ndarray
    clusters: tuple | None = None
    edges: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        adj = np.array(self.adjacency, dtype=bool)
        if adj.shape != (self.n_agents, self.n_agents):
            raise ValueError(
                f"adjacency must be ({self.n_agents}, {self.n_agents}), got {adj.shape}"
            )
        if not np.array_equal(adj, adj.T):
            raise ValueError("adjacency must be symmetric")
        np.fill_diagonal(adj, True)
        adj.setflags(write=False)
        object.__setattr__(self, "adjacency", adj)
        edges = np.array(np.nonzero(adj))
        edges.setflags(write=False)
        object.__setattr__(self, "edges", tuple(edges))
        if self.clusters is not None:
            groups = tuple(tuple(sorted(int(i) for i in g)) for g in self.clusters)
            members = sorted(i for g in groups for i in g)
            if members != list(range(self.n_agents)):
                raise ValueError("clusters must partition the agent indices exactly")
            object.__setattr__(self, "clusters", groups)
        if not _is_connected(adj):
            raise ValueError("topology must be connected")

    def neighbors(self, k: int) -> np.ndarray:
        """Indices of the neighborhood of agent k, including k itself."""
        return np.flatnonzero(self.adjacency[:, k])

    def cluster_of(self, k: int) -> tuple:
        """The cluster containing agent k, of a clustered topology."""
        return next(g for g in self.clusters if k in g)


@dataclass(frozen=True)
class StochasticMatrix:
    """A combination matrix together with its stochasticity role.

    ``role`` is "left" when columns sum to one (fusion matrices) or
    "right" when rows sum to one (data-sharing matrices).  Entry (l, k)
    is the weight agent k assigns to neighbor l.
    """

    entries: np.ndarray
    role: str

    def __post_init__(self):
        if self.role not in ("left", "right"):
            raise ValueError(f"role must be 'left' or 'right', got {self.role!r}")
        ent = np.array(self.entries, dtype=float)
        if ent.ndim != 2 or ent.shape[0] != ent.shape[1]:
            raise ValueError("entries must be a square matrix")
        ent.setflags(write=False)
        object.__setattr__(self, "entries", ent)


def _is_connected(adj: np.ndarray) -> bool:
    """Whether every agent reaches agent 0; adj has a true diagonal, so
    the reached set only grows, and N - 1 hops reach every agent."""
    reached = adj[0]
    for _ in range(len(adj) - 1):
        reached = adj[reached].any(axis=0)
    return bool(reached.all())


def static_rule(t: Topology, rule: str) -> StochasticMatrix:
    """Build a left-stochastic combination matrix from a named rule.

    Supported rules:

    - ``identity``: no fusion, A = I.
    - ``averaging``: a_{lk} = 1/|N_k| for l in N_k.
    - ``uniform_in_cluster``: uniform over the neighbors of k that share
      k's cluster; requires the topology to carry clusters.
    - ``metropolis``: a_{lk} = 1/max(|N_l|, |N_k|) for neighbors l != k,
      with the remaining mass on the diagonal.
    """
    n = t.n_agents
    a = np.zeros((n, n))
    if rule == "identity":
        a = np.eye(n)
    elif rule == "averaging":
        for k in range(n):
            hood = t.neighbors(k)
            a[hood, k] = 1.0 / hood.size
    elif rule == "uniform_in_cluster":
        if t.clusters is None:
            raise ValueError("uniform_in_cluster requires a clustered topology")
        for k in range(n):
            hood = [l for l in t.neighbors(k) if l in t.cluster_of(k)]
            a[hood, k] = 1.0 / len(hood)
    elif rule == "metropolis":
        deg = t.adjacency.sum(axis=0)
        for k in range(n):
            for l in t.neighbors(k):
                if l != k:
                    a[l, k] = 1.0 / max(deg[l], deg[k])
            a[k, k] = 1.0 - a[:, k].sum()
    else:
        raise ValueError(f"unknown rule {rule!r}")
    return StochasticMatrix(entries=a, role="left")


def validate_stochastic(m: StochasticMatrix, t: Topology) -> str | None:
    """Check a combination matrix against its role and the topology support.

    Returns None for a valid matrix, otherwise a message naming the first
    defect: a negative entry, an entry off the topology's support, or a
    column (left role) or row (right role) whose sum is not within 1e-12
    of one.
    """
    ent = m.entries
    if ent.shape != (t.n_agents, t.n_agents):
        raise ValueError("matrix size does not match topology")
    for bad, what in ((ent < 0, "is negative"),
                      ((ent != 0) & ~t.adjacency,
                       "lies off the topology's support")):
        if bad.any():
            l, k = np.argwhere(bad)[0]
            return f"entry ({l}, {k}) {what}"
    axis, line = (0, "column") if m.role == "left" else (1, "row")
    sums = ent.sum(axis=axis)
    off = np.flatnonzero(~(np.abs(sums - 1.0) <= 1e-12))
    if off.size:
        return f"{line} {off[0]} sums to {float(sums[off[0]])}, not 1"
    return None


def build_preset(name: str) -> Topology:
    """Return one of the three bundled study topologies.

    net1: 10 agents, moderately dense, diameter 3.
    net2: 20 agents, dense, diameter 3.
    net3: 20 agents in seven fully connected clusters of sizes
    (3, 3, 3, 3, 3, 3, 2), chained by single bridge edges; diameter 13.
    """
    if name in _PRESET_FILES:
        text = (
            resources.files("diffcomb").joinpath("data", _PRESET_FILES[name])
        ).read_text()
        return parse_edge_list(text, _PRESET_FILES[name])
    if name == "net3":
        return _build_net3()
    raise ValueError(f"unknown preset {name!r}")


def _build_net3() -> Topology:
    clusters = tuple(tuple(range(s, min(s + 3, 20))) for s in range(0, 20, 3))
    adj = np.zeros((20, 20), dtype=bool)
    for grp in clusters:
        adj[np.ix_(grp, grp)] = True
    for a in range(2, 18, 3):  # one bridge edge between consecutive clusters
        adj[a, a + 1] = adj[a + 1, a] = True
    return Topology(n_agents=20, adjacency=adj, clusters=clusters)


def parse_edge_list(text: str, source) -> Topology:
    """Parse an edge-list document, read from source, into a Topology.

    Plain lines hold one undirected edge as two 1-based indices
    (``u v``).  Lines of the form ``cluster <id>: <members>`` declare a
    cluster with space-separated 1-based members.  Blank lines and lines
    starting with ``#`` are skipped; ConfigError names any other line.
    """
    edges = []
    clusters = {}
    for number, raw in enumerate(text.splitlines(), 1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        try:
            if line.startswith("cluster"):
                head, _, body = line.partition(":")
                _, cid = head.split()
                clusters[cid] = tuple(int(tok) - 1 for tok in body.split())
            else:
                u, v = map(int, line.split())
                edges.append((u - 1, v - 1))
        except ValueError:
            raise ConfigError(
                f"edge-list file {source}, line {number}: {line!r} is "
                "neither 'u v' nor 'cluster <id>: <members>'") from None
    if not edges:
        raise ValueError("edge list is empty")
    n = 1 + max(max(u, v) for u, v in edges)
    if clusters:
        n = max(n, 1 + max(i for g in clusters.values() for i in g))
    adj = np.zeros((n, n), dtype=bool)
    for u, v in edges:
        adj[u, v] = adj[v, u] = True
    grouped = tuple(clusters[k] for k in sorted(clusters)) if clusters else None
    return Topology(n_agents=n, adjacency=adj, clusters=grouped)


def read_edge_list(path) -> Topology:
    """Load a Topology from an edge-list file."""
    with open(path) as fh:
        return parse_edge_list(fh.read(), path)
