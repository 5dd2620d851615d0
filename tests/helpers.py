"""Shared test helpers."""

import sys
from pathlib import Path

import numpy as np
from hypothesis import strategies as st

from diffcomb import theory
from diffcomb.diffusion import StrategyConfig, StrategyStack, errors_and_outputs, step
from diffcomb.graph import StochasticMatrix, Topology, static_rule

# the statistics of a topology, its edge-list writer and the SNR of an
# agent's signal live with the script that writes the bundled data files,
# their only user outside the tests
sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "scripts"))
from make_presets import format_edge_list, snr, stats  # noqa: E402,F401


def coefficient_step(cfg, gbar, g2bar, pbar, dj1, dj2, j2, sigma_z2):
    """Advance the per-agent coefficient moments (gbar, g2bar, pbar) by
    one instant, driven by dj1 = j1 - j12, dj2 = j2 - j12 and j2: the
    coefficient pass of theory.evolve on a block of one instant.

    Arguments (scalars or arrays over agents) broadcast together, as does
    cfg.nu_gamma.  The sign-regressor scheme returns pbar unchanged.
    """
    args = np.broadcast_arrays(gbar, g2bar, pbar, dj1, dj2, j2)
    rows, pbar = theory._coefficients(cfg, *args[:3], *np.asarray(
        args[3:], dtype=float)[:, None], sigma_z2)
    return rows[0, 0], rows[0, 1], pbar


def error_drift(components, rx, w):
    """The drift r of both components' mean errors, m' = b m - r, shape
    (2, NL): the error form of the mean recursion, written out over the
    dense NL x NL matrices as a reference independent of the model's
    drive.  Data sharing pulls each agent toward its neighbors' targets,
    while combining leaks weight mass across heterogeneous targets.

    rx holds the (N, L, L) regressor covariances and w the (N, L)
    targets.
    """
    rx, w = np.asarray(rx, dtype=float), np.asarray(w, dtype=float)
    n, l = w.shape
    eye_l, eye = np.eye(l), np.eye(n * l)
    drifts = []
    for cfg in components:
        c = np.array(cfg.c.entries, dtype=float)
        a1x = np.kron(np.array(cfg.a1.entries, dtype=float), eye_l)
        a2x = np.kron(np.array(cfg.a2.entries, dtype=float), eye_l)
        u = np.kron(np.diag(np.array(cfg.mu, dtype=float)), eye_l)
        hbar = np.zeros((n * l, n * l))
        for k, block in enumerate(np.einsum("lk,lij->kij", c, rx)):
            hbar[k * l:(k + 1) * l, k * l:(k + 1) * l] = block
        damp = eye - u @ hbar
        diff = w[None, :, :] - w[:, None, :]
        hu = np.einsum("lk,lij,lkj->ki", c, rx, diff).reshape(-1)
        leak = a2x.T @ damp @ (a1x.T - eye) + (a2x.T - eye)
        drifts.append(a2x.T @ u @ hu - leak @ w.reshape(-1))
    return np.array(drifts)


def advance(stack, state, batch):
    """diffusion.step with the output errors the harness passes it."""
    return step(stack, state, batch, errors_and_outputs(state.w, batch).e)


def assert_scaled_close(got, want, label=None, rtol=1e-12):
    """|got - want| <= rtol max|want| entrywise, shapes equal: the
    means' doubling and the coefficient law's affine scans reassociate the
    per-instant loop's arithmetic, so what they drive agrees to rounding
    only."""
    got, want = np.asarray(got), np.asarray(want)
    assert got.shape == want.shape, label
    assert np.all(np.abs(got - want) <= rtol * np.max(np.abs(want))), label


def assert_same_series(got, want, label=None):
    """Two predictions' series agree to 1e-12 of scale: the means' doubling
    and the coefficient scans may be grouped differently."""
    assert got.keys() == want.keys()
    for key, series in want.items():
        assert_scaled_close(got[key], series, (label, key))


def strategy(topology, mu, a1=None, a2=None, c=None):
    """Static-fusion strategy config; every matrix left out is the identity
    (a2 alone gives adapt-then-combine, a1 alone combine-then-adapt)."""
    eye = static_rule(topology, "identity")
    return StrategyConfig(
        topology=topology,
        a1=eye if a1 is None else a1,
        c=StochasticMatrix(eye.entries, "right") if c is None else c,
        mu=mu,
        a2=eye if a2 is None else a2)


def stack(cfg):
    """A single strategy as a stack of one: its state arrays carry a
    leading component axis of length one."""
    return StrategyStack.of([cfg])


@st.composite
def topologies(draw, min_n=2, max_n=8):
    """Connected topologies: a chain through the agents in index order,
    plus any drawn subset of the other pairs."""
    n = draw(st.integers(min_n, max_n))
    n_pairs = n * (n - 1) // 2
    bits = draw(st.lists(st.booleans(), min_size=n_pairs, max_size=n_pairs))
    adj = np.zeros((n, n), dtype=bool)
    adj[np.triu_indices(n, 1)] = bits
    adj |= adj.T
    for i in range(n - 1):
        adj[i, i + 1] = adj[i + 1, i] = True
    return Topology(n_agents=n, adjacency=adj)
