"""Network topologies and combination matrices.

A topology is an undirected connected graph over N agents in which every
agent counts as its own neighbor.  Combination matrices built on a topology
are stochastic (left for fusion matrices, right for data-sharing matrices)
and supported on the neighborhoods.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from importlib import resources

import numpy as np

_PRESET_FILES = {"net1": "net1.edges", "net2": "net2.edges"}


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
    """

    n_agents: int
    adjacency: np.ndarray
    clusters: tuple | None = None

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

    def degree(self, k: int) -> int:
        """Size of the neighborhood of agent k (self included)."""
        return int(self.adjacency[:, k].sum())

    def cluster_of(self, k: int) -> tuple:
        """The cluster containing agent k."""
        if self.clusters is None:
            raise ValueError("topology has no clusters")
        for g in self.clusters:
            if k in g:
                return g
        raise ValueError(f"agent {k} not in any cluster")


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


@dataclass(frozen=True)
class StochasticReport:
    """Validation report for a combination matrix on a topology.

    ``sum_deviations`` holds |sum - 1| per column (left role) or per row
    (right role).  ``ok`` means: no negative entries, no support
    violations, and all sums within ``tol`` of one.
    """

    role: str
    sum_deviations: np.ndarray
    max_sum_deviation: float
    negative_entries: tuple
    support_violations: tuple
    doubly_stochastic: bool
    ok: bool


def _is_connected(adj: np.ndarray) -> bool:
    return not np.any(_bfs_distances(adj, 0) < 0)


def _bfs_distances(adj: np.ndarray, source: int) -> np.ndarray:
    """Hop distances from source; -1 marks unreachable nodes."""
    n = adj.shape[0]
    dist = np.full(n, -1, dtype=int)
    dist[source] = 0
    queue = deque([source])
    off_diag = adj.copy()
    np.fill_diagonal(off_diag, False)
    while queue:
        u = queue.popleft()
        for v in np.flatnonzero(off_diag[u]):
            if dist[v] < 0:
                dist[v] = dist[u] + 1
                queue.append(v)
    return dist


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
        deg = np.array([t.degree(k) for k in range(n)])
        for k in range(n):
            for l in t.neighbors(k):
                if l != k:
                    a[l, k] = 1.0 / max(deg[l], deg[k])
            a[k, k] = 1.0 - a[:, k].sum()
    else:
        raise ValueError(f"unknown rule {rule!r}")
    return StochasticMatrix(entries=a, role="left")


def validate_stochastic(
    m: StochasticMatrix, t: Topology, tol: float = 1e-12
) -> StochasticReport:
    """Check a combination matrix against its role and the topology support."""
    ent = m.entries
    if ent.shape != (t.n_agents, t.n_agents):
        raise ValueError("matrix size does not match topology")
    axis = 0 if m.role == "left" else 1
    sums = ent.sum(axis=axis)
    deviations = np.abs(sums - 1.0)
    negatives = tuple(zip(*np.nonzero(ent < 0)))
    off_support = (ent != 0) & ~t.adjacency
    violations = tuple(zip(*np.nonzero(off_support)))
    col_ok = np.all(np.abs(ent.sum(axis=0) - 1.0) <= tol)
    row_ok = np.all(np.abs(ent.sum(axis=1) - 1.0) <= tol)
    ok = (
        not negatives
        and not violations
        and bool(np.all(deviations <= tol))
    )
    return StochasticReport(
        role=m.role,
        sum_deviations=deviations,
        max_sum_deviation=float(deviations.max()),
        negative_entries=negatives,
        support_violations=violations,
        doubly_stochastic=bool(col_ok and row_ok and not negatives),
        ok=ok,
    )


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
        return parse_edge_list(text)
    if name == "net3":
        return _build_net3()
    raise ValueError(f"unknown preset {name!r}")


def _build_net3() -> Topology:
    sizes = [3, 3, 3, 3, 3, 3, 2]
    clusters = []
    start = 0
    for s in sizes:
        clusters.append(tuple(range(start, start + s)))
        start += s
    n = start
    adj = np.zeros((n, n), dtype=bool)
    for grp in clusters:
        for i in grp:
            for j in grp:
                adj[i, j] = True
    for a, b in [(2, 3), (5, 6), (8, 9), (11, 12), (14, 15), (17, 18)]:
        adj[a, b] = adj[b, a] = True
    return Topology(n_agents=n, adjacency=adj, clusters=tuple(clusters))


def parse_edge_list(text: str) -> Topology:
    """Parse an edge-list document into a Topology.

    Plain lines hold one undirected edge as two 1-based indices
    (``u v``).  Lines of the form ``cluster <id>: <members>`` declare a
    cluster with space-separated 1-based members.  Blank lines and lines
    starting with ``#`` are skipped.
    """
    edges = []
    clusters = {}
    for raw in text.splitlines():
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if line.startswith("cluster"):
            head, _, body = line.partition(":")
            cid = head.split()[1]
            clusters[cid] = tuple(int(tok) - 1 for tok in body.split())
            continue
        u, v = line.split()
        edges.append((int(u) - 1, int(v) - 1))
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


def format_edge_list(t: Topology) -> str:
    """Serialize a Topology to the edge-list text format (1-based)."""
    lines = []
    for u in range(t.n_agents):
        for v in range(u + 1, t.n_agents):
            if t.adjacency[u, v]:
                lines.append(f"{u + 1} {v + 1}")
    if t.clusters is not None:
        for i, grp in enumerate(t.clusters, start=1):
            members = " ".join(str(m + 1) for m in grp)
            lines.append(f"cluster {i}: {members}")
    return "\n".join(lines) + "\n"


def read_edge_list(path) -> Topology:
    """Load a Topology from an edge-list file."""
    with open(path) as fh:
        return parse_edge_list(fh.read())
