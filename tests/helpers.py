"""Shared test helpers."""

import sys
from dataclasses import dataclass
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


# the block order of the three second moments: (11, 22, 12)
PAIRS = ((0, 0), (1, 1), (0, 1))


def block_diag(blocks):
    """(N, L, L) blocks along the diagonal of an NL x NL matrix."""
    n, l = blocks.shape[:2]
    out = np.zeros((n * l, n * l))
    for k, block in enumerate(blocks):
        out[k * l:(k + 1) * l, k * l:(k + 1) * l] = block
    return out


def kron_terms(cfg, rx):
    """One component's dense NL x NL matrices (C, A1, A2, U, Hbar) kron
    I_L, Hbar = diag_k(sum_l c_lk R_l), over (N, L, L) covariances rx."""
    eye_l = np.eye(rx.shape[-1])
    c = np.array(cfg.c.entries, dtype=float)
    return (np.kron(c, eye_l),
            np.kron(np.array(cfg.a1.entries, dtype=float), eye_l),
            np.kron(np.array(cfg.a2.entries, dtype=float), eye_l),
            np.kron(np.diag(np.array(cfg.mu, dtype=float)), eye_l),
            block_diag(np.einsum("lk,lij->kij", c, rx)))


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
    eye = np.eye(w.size)
    drifts = []
    for cfg in components:
        _, a1x, a2x, u, hbar = kron_terms(cfg, rx)
        c = np.array(cfg.c.entries, dtype=float)
        damp = eye - u @ hbar
        diff = w[None, :, :] - w[:, None, :]
        hu = np.einsum("lk,lij,lkj->ki", c, rx, diff).reshape(-1)
        leak = a2x.T @ damp @ (a1x.T - eye) + (a2x.T - eye)
        drifts.append(a2x.T @ u @ hu - leak @ w.reshape(-1))
    return np.array(drifts)


@dataclass(frozen=True)
class DenseModel:
    """Both components' moment recursions written out over the dense
    NL x NL matrices, independent of diffcomb.theory's direction
    factors: the mean transitions b = A2^T (I - U Hbar) A1^T and drives
    A2^T U H_c, where block (k, l) of H_c is c_lk R_l, each (2, NL, NL);
    the gradient-noise moments g = f_i^T Q f_j, f_i = C U A2 and
    Q = diag_k(sigma_z2_k R_k), (3, NL, NL) in the block order PAIRS;
    the mean errors' drift (error_drift), (2, NL); and the data."""

    b: np.ndarray
    drive: np.ndarray
    g: np.ndarray
    drift: np.ndarray
    rx: np.ndarray
    sigma_z2: np.ndarray
    w_star: np.ndarray


def dense_model(components, rx, sigma_z2, w):
    """The DenseModel of two strategies observing (N, L, L) covariances
    rx, noise variances sigma_z2 and (N, L) targets w."""
    rx, w = np.asarray(rx, dtype=float), np.asarray(w, dtype=float)
    n, l = w.shape
    sigma_z2 = np.broadcast_to(np.asarray(sigma_z2, dtype=float), (n,))
    eye = np.eye(n * l)
    b, drive, f = [], [], []
    for cfg in components:
        cx, a1x, a2x, u, hbar = kron_terms(cfg, rx)
        h_c = np.einsum("lk,lij->kilj", np.array(cfg.c.entries, dtype=float),
                        rx).reshape(n * l, n * l)
        b.append(a2x.T @ (eye - u @ hbar) @ a1x.T)
        drive.append(a2x.T @ u @ h_c)
        f.append(cx @ u @ a2x)
    q = block_diag(sigma_z2[:, None, None] * rx)
    return DenseModel(
        b=np.array(b), drive=np.array(drive),
        g=np.array([f[i].T @ q @ f[j] for i, j in PAIRS]),
        drift=error_drift(components, rx, w), rx=rx, sigma_z2=sigma_z2,
        w_star=w.reshape(-1))


def raw_readouts(model, om):
    """Per-agent readouts of the raw moments om, (3, NL, NL): the traces
    (row 0) and the excess errors tr(R_k Om_kk) (row 1) of each agent's
    diagonal block, (3, 2, N)."""
    n, l = model.rx.shape[:2]
    blocks = np.einsum("skikj->skij", np.reshape(om, (3, n, l, n, l)))
    return np.stack((np.einsum("skii->sk", blocks),
                     np.einsum("skij,kji->sk", blocks, model.rx)), axis=1)


def raw_moment_run(model, combiner, n_steps, m, om, coefficients):
    """The coupled recursions as a per-instant loop over raw NL x NL
    second moments, the oracle of theory.evolve: from mean errors m,
    (2, NL), raw moments om = E{v_i v_j^T}, (3, NL, NL) in the block
    order PAIRS, and coefficient moments (gbar, g2bar, pbar), each
    instant steps the coefficient moments, driven by the pre-update
    excess errors with dj = j - j12, and then
    Om+ = B Om B^T - B m r^T - r m^T B^T + r r^T + G and m+ = B m - r
    with the reference drift r.  Returns the readouts of the states
    0..n_steps, (n+1, 3, 2, N) as evolve's record, the coefficient
    moments (n+1, 2, N), and the final (m, om, (gbar, g2bar, pbar)).
    """
    b, r, g = model.b, model.drift, model.g
    gbar, g2bar, pbar = coefficients
    record = np.empty((n_steps + 1, 3, 2, len(model.sigma_z2)))
    rows = np.empty((n_steps + 1, 2, len(model.sigma_z2)))
    record[0], rows[0] = raw_readouts(model, om), (gbar, g2bar)
    for t in range(1, n_steps + 1):
        j1, j2, j12 = record[t - 1, :, 1]
        gbar, g2bar, pbar = coefficient_step(
            combiner, gbar, g2bar, pbar, j1 - j12, j2 - j12, j2,
            model.sigma_z2)
        bm = np.einsum("sij,sj->si", b, m)
        om = np.array([b[i] @ om[k] @ b[j].T - np.outer(bm[i], r[j])
                       - np.outer(r[i], bm[j]) + np.outer(r[i], r[j]) + g[k]
                       for k, (i, j) in enumerate(PAIRS)])
        m = bm - r
        record[t], rows[t] = raw_readouts(model, om), (gbar, g2bar)
    return record, rows, (m, om, (gbar, g2bar, pbar))


def raw_steady(model):
    """The fixed point of raw_moment_run's moment recursion: the mean
    errors m = B m - r, (2, NL), and the raw moments P + m_i m_j^T,
    (3, NL, NL), whose centered part solves P = B_i P B_j^T + G as one
    linear system, vec(B_i P B_j^T) = (B_j kron B_i) vec(P) over
    columns."""
    b, nl = model.b, model.w_star.size
    m = -np.linalg.solve(np.eye(nl) - b, model.drift[:, :, None])[:, :, 0]
    om = []
    for k, (i, j) in enumerate(PAIRS):
        vec = np.linalg.solve(np.eye(nl * nl) - np.kron(b[j], b[i]),
                              model.g[k].reshape(-1, order="F"))
        om.append(vec.reshape(nl, nl, order="F") + np.outer(m[i], m[j]))
    return m, np.array(om)


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
