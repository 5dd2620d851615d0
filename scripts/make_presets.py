"""Regenerate the bundled data files under src/diffcomb/data and the
experiment presets under src/diffcomb/presets.

The two fixed topologies (net1, net2) are found by simulated annealing
over graphs with a pinned node and edge count, targeting the published
summary statistics (algebraic connectivity and diameter).  The achieved
graphs are frozen as edge lists; rerunning this script with the default
seeds reproduces them byte for byte.  Experiment presets freeze the
random draws (targets, variances) the published setups leave open.

Usage: python3 scripts/make_presets.py [--only topologies|signals|experiments]
"""

from __future__ import annotations

import argparse
import json
import math
import pathlib
import sys
from typing import NamedTuple

import numpy as np

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parents[1] / "src"))

from diffcomb import graph  # noqa: E402

DATA_DIR = pathlib.Path(__file__).resolve().parents[1] / "src" / "diffcomb" / "data"

TOPOLOGY_TARGETS = {
    # name: (n, n_edges, lambda2, diameter, seed)
    "net1": (10, 17, 0.7962, 3, 20240501),
    "net2": (20, 66, 0.9549, 3, 20240502),
}


def _lambda2(adj: np.ndarray) -> float:
    deg = adj.sum(axis=1)
    lap = np.diag(deg) - adj
    return float(np.linalg.eigvalsh(lap)[1])


class GraphStats(NamedTuple):
    """Summary statistics of a topology."""

    size: int
    density: float
    lambda2: float
    diameter: int


def stats(t: graph.Topology) -> GraphStats:
    """Size, density (nonzero adjacency entries, diagonal included, over
    N^2), algebraic connectivity (the second-smallest eigenvalue of the
    unnormalized Laplacian, self-loops excluded) and diameter, the fewest
    hops that join every pair of agents.  A Topology is connected, so the
    diameter is always defined."""
    n = t.n_agents
    adj = t.adjacency.astype(float)
    np.fill_diagonal(adj, 0.0)
    hop = adj + np.eye(n)
    reach, diameter = np.eye(n), 0
    while not reach.all():
        reach, diameter = (reach @ hop > 0).astype(float), diameter + 1
    return GraphStats(size=n, density=np.count_nonzero(t.adjacency) / (n * n),
                      lambda2=_lambda2(adj), diameter=diameter)


def _diameter_is_3(adj: np.ndarray) -> bool:
    walk = adj + np.eye(adj.shape[0])
    two_hop = (walk @ walk) > 0
    three_hop = (two_hop @ walk) > 0
    return bool(three_hop.all() and not two_hop.all())


def _cost(adj: np.ndarray, target_lam2: float) -> float:
    lam2 = _lambda2(adj)
    if lam2 < 1e-9:
        return 10.0
    penalty = 0.0 if _diameter_is_3(adj) else 0.25
    return abs(lam2 - target_lam2) + penalty


def _random_connected(n: int, n_edges: int, rng) -> np.ndarray:
    adj = np.zeros((n, n))
    order = rng.permutation(n)
    for i in range(1, n):
        j = order[rng.integers(i)]
        adj[order[i], j] = adj[j, order[i]] = 1.0
    free = [(i, j) for i in range(n) for j in range(i + 1, n) if not adj[i, j]]
    extra = rng.choice(len(free), size=n_edges - (n - 1), replace=False)
    for idx in extra:
        i, j = free[idx]
        adj[i, j] = adj[j, i] = 1.0
    return adj


def search_topology(n, n_edges, target_lam2, seed, iters=400_000):
    """Anneal toward a connected graph with the target lambda2 and diameter 3."""
    rng = np.random.default_rng(seed)
    adj = _random_connected(n, n_edges, rng)
    cost = _cost(adj, target_lam2)
    best, best_cost = adj.copy(), cost
    temp0, temp1 = 0.05, 1e-5
    for it in range(iters):
        temp = temp0 * (temp1 / temp0) ** (it / iters)
        present = np.transpose(np.nonzero(np.triu(adj, 1)))
        absent = np.transpose(np.nonzero(np.triu(1.0 - adj, 1)))
        u, v = present[rng.integers(len(present))]
        p, q = absent[rng.integers(len(absent))]
        adj[u, v] = adj[v, u] = 0.0
        adj[p, q] = adj[q, p] = 1.0
        new_cost = _cost(adj, target_lam2)
        if new_cost <= cost or rng.random() < math.exp((cost - new_cost) / temp):
            cost = new_cost
            if cost < best_cost:
                best, best_cost = adj.copy(), cost
                if best_cost < 2e-4:
                    break
        else:
            adj[p, q] = adj[q, p] = 0.0
            adj[u, v] = adj[v, u] = 1.0
    return best, best_cost


def make_topologies() -> None:
    DATA_DIR.mkdir(parents=True, exist_ok=True)
    for name, (n, n_edges, lam2, diam, seed) in TOPOLOGY_TARGETS.items():
        adj, cost = search_topology(n, n_edges, lam2, seed)
        topo = graph.Topology(n_agents=n, adjacency=adj.astype(bool))
        st = stats(topo)
        assert st.diameter == diam, f"{name}: diameter {st.diameter} != {diam}"
        assert abs(st.lambda2 - lam2) < 1e-3, f"{name}: lambda2 {st.lambda2}"
        path = DATA_DIR / f"{name}.edges"
        header = (
            f"# {name}: {n} agents, {n_edges} edges, "
            f"lambda2 {st.lambda2:.6f}, diameter {st.diameter}\n"
            f"# frozen output of scripts/make_presets.py (seed {seed})\n"
        )
        path.write_text(header + graph.format_edge_list(topo))
        print(
            f"{name}: density {100 * st.density:.2f}%  lambda2 {st.lambda2:.6f}  "
            f"diameter {st.diameter}  -> {path.name}"
        )


# Published network-wide SNR statistics (dB): level -> (max, min, mean).
SNR_LEVELS = {
    "snr1": (3.5724, 1.6673, 2.7946),
    "snr2": (-9.4379, -11.343, -10.2157),
    "snr3": (-18.9803, -20.8855, -19.7581),
}

SIGNAL_SEED = 20240503


def _snr_targets(n, level, rng):
    """Per-agent SNR assignments with exact max, min, and mean."""
    hi, lo, mean = SNR_LEVELS[level]
    interior_mean = (n * mean - hi - lo) / (n - 2)
    draws = rng.uniform(lo, hi, size=n - 2)
    centered = draws - draws.mean()
    # shrink until the recentered draws stay strictly inside (lo, hi)
    room = min(hi - interior_mean, interior_mean - lo)
    spread = np.abs(centered).max()
    alpha = min(1.0, 0.8 * room / spread) if spread > 0 else 0.0
    values = np.concatenate(([hi, lo], interior_mean + alpha * centered))
    return values[rng.permutation(n)]


def make_signal_presets() -> None:
    from diffcomb import signal

    rng = np.random.default_rng(SIGNAL_SEED)
    out = {}
    for n in (10, 20):
        w_star = rng.standard_normal(2)
        sigma_x2 = rng.uniform(0.5, 1.5, size=n)
        block = {
            "w_star": w_star.tolist(),
            "sigma_x2": sigma_x2.tolist(),
            "sigma_z2": {},
        }
        for kind in ("white", "ar1"):
            block["sigma_z2"][kind] = {}
            for level in SNR_LEVELS:
                targets = _snr_targets(n, level, rng)
                sigma_z2 = []
                for k in range(n):
                    probe = signal.AgentSignalParams(
                        sigma_x2=sigma_x2[k], sigma_z2=1.0,
                        filter_len=2, regressor_kind=kind,
                    )
                    power = w_star @ signal.regressor_covariance(probe) @ w_star
                    sigma_z2.append(float(power / 10 ** (targets[k] / 10)))
                block["sigma_z2"][kind][level] = sigma_z2
        out[f"n{n}"] = block
    path = DATA_DIR / "snr_presets.json"
    path.write_text(json.dumps(out, indent=1) + "\n")
    for n in (10, 20):
        for kind in ("white", "ar1"):
            for level in SNR_LEVELS:
                params, w = signal.load_snr_preset(n, level, kind)
                vals = [signal.snr(p, w) for p in params]
                print(
                    f"n{n} {kind:5s} {level}: max {max(vals):9.4f}  "
                    f"min {min(vals):9.4f}  mean {np.mean(vals):9.4f}"
                )


PRESETS_DIR = (
    pathlib.Path(__file__).resolve().parents[1] / "src" / "diffcomb" / "presets"
)
TRACKING_SEED = 20240604

# agent index ranges sharing one target in the two multi-target stages
TRACKING_GROUPS = {
    2: ((0, 5), (5, 10)),
    3: ((0, 4), (4, 7), (7, 10)),
}


def _tracking_stages(rng, n, filter_len):
    """Four stationary stages: one shared target, two groups, three
    groups, then one shared target again."""
    starts = (0, 1500, 3000, 4500)
    group_counts = (1, 2, 3, 1)
    stages = []
    for start, count in zip(starts, group_counts):
        targets = np.empty((n, filter_len))
        groups = TRACKING_GROUPS.get(count, ((0, n),))
        for lo, hi in groups:
            targets[lo:hi] = rng.standard_normal(filter_len)
        stages.append({"start": start,
                       "targets": np.round(targets, 6).tolist()})
    return stages


def _tracking_base():
    rng = np.random.default_rng(TRACKING_SEED)
    sigma_x2 = np.round(rng.uniform(0.5, 1.5, size=10), 6)
    sigma_z2 = np.round(rng.uniform(0.02, 0.1, size=10), 6)
    agents = [
        {"sigma_x2": float(sx), "sigma_z2": float(sz),
         "filter_len": 50, "regressor_kind": "white"}
        for sx, sz in zip(sigma_x2, sigma_z2)
    ]
    return {
        "topology": {"preset": "net1"},
        "signal": {"agents": agents},
        "targets": {"stages": _tracking_stages(rng, 10, 50),
                    "transition_len": 500},
    }


def _combiner(scheme, nu):
    return {"scheme": scheme, "nu_gamma": nu, "epsilon": 0.05, "eta": 0.95}


STATIC_PAIR = [{"a2": "identity", "mu": 0.01}, {"a2": "averaging", "mu": 0.01}]
ADAPTIVE_PAIR = [
    {"a2_mode": "adaptive_projection", "mu": 0.01},
    {"a2_mode": "adaptive_relative_variance", "tau": 0.05, "mu": 0.01},
]


# short-filter setup with strong regressors and mild per-agent spread;
# the mixing weights settle well inside the horizon, so the combined
# network should hug the better component to within a fraction of a dB
BENCH_SIGMA_X2 = [16.8, 13.44, 19.04, 14.72, 17.76,
                  13.92, 16.32, 18.56, 15.2, 17.28]
BENCH_SIGMA_Z2 = [0.91, 1.13, 0.83, 1.07, 0.98,
                  1.18, 0.88, 1.04, 1.14, 0.86]


def _benchmark_preset(mu, scheme, nu, horizon, seed):
    agents = [
        {"sigma_x2": sx, "sigma_z2": sz,
         "filter_len": 2, "regressor_kind": "white"}
        for sx, sz in zip(BENCH_SIGMA_X2, BENCH_SIGMA_Z2)
    ]
    return {
        "label": f"net1 short-filter benchmark, mu={mu}, {scheme} nu={nu}",
        "topology": {"preset": "net1"},
        "signal": {"agents": agents},
        "targets": {"constant": [[0.7, -0.5]] * 10},
        "components": [
            {"a2": "identity", "mu": mu},
            {"a2": "averaging", "mu": mu},
        ],
        "combiner": _combiner(scheme, nu),
        "horizon": horizon,
        "runs": 100,
        "seed": seed,
    }


def _steady_preset(net, level, kind, mu, scheme, nu, horizon, seed):
    return {
        "label": f"{net} {level} {kind} regressors, mu={mu}, "
                 f"{scheme} nu={nu}",
        "topology": {"preset": net},
        "signal": {"snr_preset": {"level": level, "kind": kind}},
        "components": [
            {"a2": "identity", "mu": mu},
            {"a2": "averaging", "mu": mu},
        ],
        "combiner": _combiner(scheme, nu),
        "horizon": horizon,
        "runs": 100,
        "seed": seed,
    }


def make_experiment_presets() -> None:
    from diffcomb import harness

    PRESETS_DIR.mkdir(parents=True, exist_ok=True)
    presets = {}

    # time-varying targets on net1, static vs adaptive fusion pairs
    base = _tracking_base()
    tracking = {
        "tracking_static_pn": (STATIC_PAIR, _combiner("power_normalized", 0.01)),
        "tracking_static_sr": (STATIC_PAIR, _combiner("sign_regressor", 0.015)),
        "tracking_adaptive_pn": (ADAPTIVE_PAIR,
                                 _combiner("power_normalized", 0.04)),
        "tracking_adaptive_sr": (ADAPTIVE_PAIR,
                                 _combiner("sign_regressor", 0.03)),
    }
    for i, (name, (pair, comb)) in enumerate(tracking.items()):
        presets[name] = {
            "label": name.replace("_", " "),
            **base,
            "components": pair,
            "combiner": comb,
            "horizon": 7000,
            "runs": 100,
            "seed": 20240611 + i,
        }

    # stationary targets: network x noise level x regressor kind grid
    seed = 20240620
    for net in ("net1", "net2", "net3"):
        for level in ("snr1", "snr2", "snr3"):
            for kind in ("white", "ar1"):
                name = f"steady_{net}_{level}_{kind}_pn"
                presets[name] = _steady_preset(
                    net, level, kind, 0.01, "power_normalized", 0.01,
                    5000, seed)
                seed += 1
    presets["steady_net1_snr1_white_sr"] = _steady_preset(
        "net1", "snr1", "white", 0.01, "sign_regressor", 0.015, 5000, seed)
    presets["steady_net1_snr1_white_slow_pn"] = _steady_preset(
        "net1", "snr1", "white", 0.002, "power_normalized", 0.002,
        20000, seed + 1)
    presets["steady_net1_snr1_white_slow_sr"] = _steady_preset(
        "net1", "snr1", "white", 0.002, "sign_regressor", 0.001,
        20000, seed + 2)

    presets["universality_pn"] = _benchmark_preset(
        0.002, "power_normalized", 0.002, 20000, 20240630)
    presets["universality_sr"] = _benchmark_preset(
        0.002, "sign_regressor", 0.001, 20000, 20240631)
    presets["universality_fast_pn"] = _benchmark_preset(
        0.01, "power_normalized", 0.002, 5000, 20240632)

    for name, raw in presets.items():
        cfg = harness.config_from_dict(raw)
        path = PRESETS_DIR / f"{name}.json"
        path.write_text(json.dumps(raw, indent=1) + "\n")
        print(f"{name}: {cfg.n_agents} agents, horizon {cfg.horizon}, "
              f"{cfg.combiner.scheme} -> {path.name}")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--only", choices=["topologies", "signals", "experiments"], default=None,
        help="regenerate just one family of data files",
    )
    args = parser.parse_args(argv)
    if args.only in (None, "topologies"):
        make_topologies()
    if args.only in (None, "signals"):
        make_signal_presets()
    if args.only in (None, "experiments"):
        make_experiment_presets()


if __name__ == "__main__":
    main()
