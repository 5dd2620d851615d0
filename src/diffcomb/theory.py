"""Deterministic moment evolution for a pair of combined diffusion strategies.

Under the usual independence assumptions for LMS analysis, the mean
estimates and the error covariances of each component strategy obey
linear recursions.  This module builds them from the network
description, couples them to scalar recursions for the per-agent
mixing-coefficient moments, and assembles transient and steady-state
aggregates (per-component MSD, cross-MSD, combined MSD).

Block quantities live in R^{NL}: agent k owns the slice [kL, (k+1)L).
build_component_model looks once for an orthonormal basis Q of R^L
in which every regressor covariance R_k is diagonal, diag_d(lambda_kd).
In Q's coordinates each NL x NL recursion falls apart into one per
direction d of Q, over the N agents with the variances lambda_kd, and
directions with equal variance profiles merge, c columns of Q each.
So every model matrix is stored as D direction factors F_d of size
N x N, acting as F_d kron I_c on their own columns: white covariances
(sigma_k^2 I_L) give one factor with c = L, AR(1) covariances at L = 2
two.  Covariances without a common eigenbasis are refused.

The pair's moments share that structure and are carried stacked.  The
means m, of shape (2, NL), hold the mean estimates E{w1}, E{w2} in the
agents' coordinates and step, in direction coordinates
(_to_directions), as m_i' = b_i m_i + drive_i w_opt: the data enter
through E{x d} = R w_opt alone, so only the drive and the readouts, of
the mean errors m_i - w_opt, read the target.  The errors' centered
(cross-)covariance factors p, of shape (3, D, N, N), in the block
order (p11, p22, p12), step as p' = left p right^T + g with left =
(b1, b2, b1), right = (b1, b2, b2) and g = (f1^T q f1, f2^T q f2,
f1^T q f2), direction by direction: D is one more batch axis of every
factor step, readout and steady solve.  build_component_model builds
one PairModel per experiment; another target is the same model with
another w_star.  So the theory never forms an NL x NL array, and
transient and steady state run one code path for every regressor
kind.  Steady factors solve that Stein equation, all blocks and
directions in one call, by squared Smith doubling at O(D N^3 log t),
once per experiment: of the steady limits only the means read w_star.

The mixing coefficient follows one law per two-component scheme, looked
up by scheme name.  Over a block of instants, the smoothed power, the
per-agent mean and then its second moment are each one log-depth affine
scan over the law's terms, and agree with a per-instant loop to rounding.
coefficient_steady gives the limits, stability_bounds the step-size
bounds.  The drivers dj1 = j1 - j12 and dj2 = j2 - j12 are read from
(m1 - m2, p11 - p12) and (m2 - m1, p22 - p12) directly, so nearly equal
excess errors never cancel.

evolve advances the bare arrays (m, p) and (gbar, g2bar, pbar), block
by block, and records the states 0..n of a stage: per-agent deviation
and excess-error readouts of the three moments, and (gbar, g2bar).  The
series read the deviations after each update (rows 1..n) and the excess
errors before it (rows 0..n-1), the errors that drive it.  mix forms a
combined value from those readouts and coefficient moments, for the
transient series and the steady report alike.  Within a stage the
mean map is constant, so evolve fills a block's means by doubling, and
covariance_step reads p alone, so once one step returns p bit for bit,
every later step would too: from the next block on, evolve stops
stepping p and only the means and the coefficient moments advance.

The predictor covers static fusion matrices only; the data-driven A2
refresh rules have no closed-form moment description here.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .combine import CombinerConfig
from .diffusion import StrategyConfig
from .graph import Topology

DELTA_J_FLOOR = 1e-12

# instants per evolve block, and the most buffered values a block holds
_BLOCK, _BLOCK_FLOATS = 256, 1 << 20

# 2^64 terms of the Stein series: enough for any spectral radius below
# one in double precision
_MAX_DOUBLINGS = 64


class InstabilityError(RuntimeError):
    """A component's mean recursion has spectral radius >= 1."""


@dataclass(frozen=True)
class PairModel:
    """Stacked moment description of two strategies observing the same data.

    b and drive, of shape (2, D, N, N), stack the components' mean
    transitions and the factors of A2^T U H_c, where block (k, l) of
    H_c is c_lk R_l, per direction: component i's mean estimate steps
    as b_i m + drive_i w_star in direction coordinates.  left, right
    and g, of shape (3, D, N, N), are the transitions and
    gradient-noise moments of the centered factors in the block order
    (p11, p22, p12); the two auto moments of g are exactly symmetric.
    weights, of shape (2, D, N), holds the per-agent readout weights
    of each direction: ones (row 0) give deviations, the variances
    (row 1) excess errors, with Q^T rx[k] Q = diag_d(weights[1, d, k]
    I_c).  basis is that orthonormal Q, columns grouped by direction,
    or None where it is the identity.  c and mu stack the components'
    C matrices and step-sizes; rx, sigma_z2 and the flattened w_star
    are the data both components share, in the agents' coordinates.
    Only the drive and the readouts read w_star, so one model serves
    every stage through dataclasses.replace(pair, w_star=...).
    """

    n_agents: int
    filter_len: int
    b: np.ndarray
    drive: np.ndarray
    left: np.ndarray
    right: np.ndarray
    g: np.ndarray
    weights: np.ndarray
    c: np.ndarray
    mu: np.ndarray
    rx: np.ndarray
    sigma_z2: np.ndarray
    w_star: np.ndarray
    basis: np.ndarray | None = None

    def __post_init__(self):
        for name in self.__dataclass_fields__:
            if name not in ("n_agents", "filter_len") \
                    and getattr(self, name) is not None:
                arr = np.asarray(getattr(self, name), dtype=float)
                arr.setflags(write=False)
                object.__setattr__(self, name, arr)


@dataclass
class MomentState:
    """Joint moment state of both components and the combiner at one instant.

    m, of shape (2, NL), stacks the mean estimates E{w1} and E{w2} in
    the agents' coordinates; no target is part of the state, so it
    carries over a stage boundary as it is.  p, of shape
    (3, D, N, N), stacks the centered covariance factors of each
    direction in the block order (p11, p22, p12): against a target
    w_star, E{v_i v_j^T} = (I_N kron Q) diag_d(p_ij,d kron I_c)
    (I_N kron Q)^T + (m_i - w_star)(m_j - w_star)^T, with Q the model's
    basis and each direction's factor laid over its agents and its c
    columns, so p[2] holds the cross factors of E{v1 v2^T}.  gbar/g2bar
    are the per-agent first and second moments of the mixing
    coefficient, pbar the per-agent smoothed difference power.
    """

    m: np.ndarray
    p: np.ndarray
    gbar: np.ndarray
    g2bar: np.ndarray
    pbar: np.ndarray


@dataclass
class TheoryTrajectory:
    """The record of one evolve() call over the states 0..n of a stage.

    Row s of both arrays is the state after s updates, row 0 the starting
    state.  record, of shape (n+1, 3, 2, N), holds per-agent readouts of
    the moments (p11, p22, p12): deviations (axis 2 index 0) and excess
    errors (index 1).  coefficients, of shape (n+1, 2, N), holds gbar and
    g2bar.  The series of instant t read the deviations after its update,
    row t+1, and the excess errors before it, row t, each mixed with the
    coefficient moments of the same row.  state is the final state and
    degenerate_steps counts (step, agent) pairs whose excess-error
    difference power fell below DELTA_J_FLOOR.  msd1 and degenerate_steps
    are what perfbench/tracing.py reads to count evolve steps.
    """

    record: np.ndarray
    coefficients: np.ndarray
    state: MomentState
    degenerate_steps: int = 0

    @property
    def msd1(self) -> np.ndarray:
        """Network deviation of component 1 after each of the n updates."""
        return np.mean(self.record[1:, 0, 0], axis=-1)


@dataclass(frozen=True)
class StabilityReport:
    """Step-size limits and pass/fail flags for a configured pair.

    mu_bound and mu_ok, of shape (2, N), hold each component's per-agent
    step-size limits and flags.  nu_mean_bound and nu_ms_bound, of shape
    (N,), hold the configured scheme's per-agent coefficient limits in
    the mean and the mean square, and nu_mean_ok and nu_ms_ok their flags.
    """

    mu_bound: np.ndarray
    mu_ok: np.ndarray
    nu_mean_bound: np.ndarray
    nu_ms_bound: np.ndarray
    nu_mean_ok: np.ndarray
    nu_ms_ok: np.ndarray


@dataclass(frozen=True)
class UniversalityReport:
    """Steady-state comparison of the combined strategy to its components."""

    emse_combined: np.ndarray
    network_emse1: float
    network_emse2: float
    network_combined: float
    margin: float
    verdict: str
    agent_regimes: tuple[str, ...]


@dataclass(frozen=True)
class SteadyReport:
    """Closed-form steady state of the combined pair.

    m stacks the fixed mean estimates (E{w1}, E{w2}) and p the centered
    covariance factors (p11, p22, p12) per direction, (3, D, N, N),
    in the layout of MomentState; bias, of shape (NL,), is the combined
    mean error at the stationary gbar, in the agents' coordinates.
    emse, of shape (3, N), holds the per-agent excess errors and msd, of
    shape (3,), the network deviations of the same three moments, in
    the same block order.
    """

    m: np.ndarray
    p: np.ndarray
    gbar: np.ndarray
    g2bar: np.ndarray
    pbar: np.ndarray
    bias: np.ndarray
    emse: np.ndarray
    msd: np.ndarray
    combined_msd: float
    universality: UniversalityReport
    bounds: StabilityReport


def _to_directions(pair: PairModel, x: np.ndarray) -> np.ndarray:
    """Vectors of R^{NL}, (..., NL), in direction coordinates: the
    basis coordinates of each agent's slice, (..., D, N, c)."""
    x = x.reshape(*x.shape[:-1], pair.n_agents, pair.filter_len)
    if pair.basis is not None:
        x = x @ pair.basis
    return x.reshape(*x.shape[:-1], pair.b.shape[-3], -1).swapaxes(-3, -2)


def _from_directions(pair: PairModel, y: np.ndarray) -> np.ndarray:
    """The inverse of _to_directions: (..., D, N, c) to (..., NL)."""
    n, l = pair.n_agents, pair.filter_len
    x = y.swapaxes(-3, -2).reshape(*y.shape[:-3], n, l)
    if pair.basis is not None:
        x = x @ pair.basis.T
    return x.reshape(*x.shape[:-2], n * l)


def _readouts(weights: np.ndarray, m: np.ndarray, diagonals: np.ndarray):
    """Per-agent tr(W_k Om_kk) of five moments Om = p kron I + a b^T.

    weights[w, d, k] is the weight W_dk of direction d at agent k, and
    diagonals holds those of the three factors p, (..., 3, D, N); the
    readout sums the directions.  The moments are component 1 (m1, m1,
    p11), component 2 (m2, m2, p22), the cross moment (m1, m2, p12),
    and the drivers j1 - j12 from (m1, m1 - m2, p11 - p12) and
    j2 - j12 from (m2, m2 - m1, p22 - p12): read directly, the drivers
    never cancel two nearly equal excess errors.  m holds mean errors,
    the mean estimates less the target, in direction coordinates
    (_to_directions).  Any leading (time or target) axes of m lead the
    result, (..., 5, len(weights), N); diagonals broadcast against them.
    """
    m1, m2 = m[..., 0, :, :, :], m[..., 1, :, :, :]
    diff = m1 - m2
    left = np.stack((m1, m2, m1, m1, m2), axis=-4)
    right = np.stack((m1, m2, m2, diff, -diff), axis=-4)
    # agent k's trace of Om in direction d, over the direction's c
    # columns: c times p_kk, plus the mean part sum_t a_t b_t
    drivers = diagonals[..., :2, :, :] - diagonals[..., 2:, :, :]
    om = np.einsum("...dkt,...dkt->...dk", left, right)
    om += m.shape[-1] * np.concatenate((diagonals, drivers), axis=-3)
    return np.einsum("wdk,...sdk->...swk", weights, om)


def build_component_model(topology: Topology, components, rx, sigma_z2,
                          w_star) -> PairModel:
    """Assemble the stacked moment description of two diffusion strategies.

    components holds both strategies' configurations.  rx holds the
    per-agent regressor covariances with shape (N, L, L), sigma_z2 the
    per-agent noise variances, w_star the stationary targets with shape
    (N, L); both components observe these data.  The factors are N x N,
    one per direction of the basis in which every rx[k] is diagonal
    (_directions): white covariances give one, AR(1) ones at L = 2 two.
    Raises for adaptive fusion modes, which the predictor does not
    cover, and for covariances with no common eigenbasis, before any
    factor is built.
    """
    if len(components) != 2:
        raise ValueError("the moment predictor covers two components")
    for cfg in components:
        if cfg.a2_mode != "static":
            raise ValueError("moment predictor requires a static a2 matrix")
        if not np.array_equal(cfg.topology.adjacency, topology.adjacency):
            raise ValueError("a component was built for a different topology")
    n = topology.n_agents
    rx = np.asarray(rx, dtype=float)
    if rx.ndim != 3 or rx.shape[0] != n or rx.shape[1] != rx.shape[2]:
        raise ValueError("rx must have shape (n_agents, L, L)")
    if not np.allclose(rx, rx.transpose(0, 2, 1), atol=1e-12):
        raise ValueError("regressor covariances must be symmetric")
    if np.any(np.linalg.eigvalsh(rx)[:, 0] < -1e-12):
        raise ValueError("regressor covariances must be positive semi-definite")
    sigma_z2 = np.broadcast_to(np.asarray(sigma_z2, dtype=float), (n,)).copy()
    if np.any(sigma_z2 < 0):
        raise ValueError("noise variances must be nonnegative")
    w = np.asarray(w_star, dtype=float).reshape(n, rx.shape[-1])
    lam, basis = _directions(rx)

    b, drive, f = (np.stack(x) for x in zip(*(_component(cfg, lam)
                                             for cfg in components)))
    q = (sigma_z2 * lam)[:, :, None] * np.eye(n)
    g = np.stack([f[i].T @ q @ f[j] for i, j in ((0, 0), (1, 1), (0, 1))])
    g[:2] = 0.5 * (g[:2] + g[:2].swapaxes(-1, -2))
    return PairModel(
        n_agents=n, filter_len=w.shape[1], b=b, drive=drive,
        left=b[[0, 1, 0]], right=b[[0, 1, 1]], g=g,
        weights=np.stack([np.ones_like(lam), lam]),
        c=np.array([cfg.c.entries for cfg in components], dtype=float),
        mu=np.array([cfg.mu for cfg in components], dtype=float),
        rx=rx, sigma_z2=sigma_z2, w_star=w.reshape(-1), basis=basis)


def _directions(rx: np.ndarray):
    """The per-agent variances lam of rx along each direction, (D, N),
    and the orthonormal basis Q of the directions (None: the agents' own
    coordinates), with Q^T rx[k] Q = diag_d(lam[d, k] I_c).

    Symmetric matrices that commute share an eigenbasis (Horn and
    Johnson, Matrix Analysis, on commuting families).  Diagonal
    covariances take Q = I exactly; otherwise Q comes from eigh of a
    combination of them with unrelated weights sqrt(k + 2), whose
    eigenvalues are then simple wherever the spectra allow, and is kept
    if it leaves every rx[k] diagonal to 1e-12 of its largest entry;
    covariances it does not diagonalize are refused.  Directions with
    exactly equal variance profiles merge, c columns of Q to a
    direction.
    """
    n, l = rx.shape[:2]
    eye = np.eye(l)
    lam = np.einsum("kii->ki", rx)
    basis = None
    if not np.array_equal(rx, lam[:, :, None] * eye):
        _, basis = np.linalg.eigh(np.einsum(
            "k,kij->ij", np.sqrt(np.arange(2.0, n + 2.0)), rx))
        turned = basis.T @ rx @ basis
        lam = np.einsum("kii->ki", turned)
        scale = np.max(np.abs(rx), axis=(1, 2))[:, None, None]
        if np.any(np.abs(turned - lam[:, :, None] * eye) > 1e-12 * scale):
            raise ValueError("the moment predictor needs regressor "
                             "covariances with a common eigenbasis")
    same = np.all(lam[:, :, None] == lam[:, None, :], axis=0)
    c = int(np.gcd.reduce(same.sum(axis=0)))
    order = np.argsort(same.argmax(axis=0), kind="stable") if c > 1 \
        else np.arange(l)
    if np.any(order != np.arange(l)):
        basis = (eye if basis is None else basis)[:, order]
    return lam[:, order[::c]].T, basis


def _component(cfg: StrategyConfig, lam: np.ndarray):
    """One component's (bbar, drive) per direction, (D, N, N), and its
    gradient-noise fusion f, (N, N), over the variances lam, (D, N)."""
    eye = np.eye(lam.shape[1])
    c = np.array(cfg.c.entries, dtype=float)
    a1 = np.array(cfg.a1.entries, dtype=float)
    a2 = np.array(cfg.a2.entries, dtype=float)
    u = np.diag(np.array(cfg.mu, dtype=float))

    hbar = np.einsum("lk,dl->dk", c, lam)[:, :, None] * eye
    bbar = a2.T @ (eye - u @ hbar) @ a1.T
    # the data enter through E{x_l d_l} = R_l w_l, weighed by c_lk at k
    return bbar, a2.T @ u @ (c.T * lam[:, None, :]), c @ u @ a2


def mean_step(pair: PairModel, m: np.ndarray) -> np.ndarray:
    """One step of both mean estimates: b m + drive w_star, per component."""
    x, w = (_to_directions(pair, v) for v in (m, pair.w_star))
    return _from_directions(pair, pair.b @ x + pair.drive @ w)


def _mean_maps(pair: PairModel, width: int) -> list:
    """The maps x -> b^h x + d_h of h = 1, 2, 4, .. <= width mean steps
    in direction coordinates, d_h = sum_{s<h} b^s drive w_star, by
    squaring mean_step's own map: b^2h = b^h b^h, d_2h = b^h d_h + d_h
    (Kogge and Stone, 1973)."""
    maps = [(pair.b, _to_directions(pair, mean_step(
        pair, np.zeros((2, pair.w_star.size)))))]
    while 2 ** len(maps) <= width:
        power, drift = maps[-1]
        maps.append((power @ power, power @ drift + drift))
    return maps


def covariance_step(pair: PairModel, p: np.ndarray) -> np.ndarray:
    """One step of the three centered factors: left p right^T + g.

    The two auto factors p11 and p22 of the result are exactly symmetric.
    """
    out = pair.left @ p @ pair.right.swapaxes(-1, -2)
    out += pair.g
    out[:2] = 0.5 * (out[:2] + out[:2].swapaxes(-1, -2))
    return out


def _pn_terms(cfg, pbar, dj1, dj2, j2, sigma_z2):
    """Power-normalized terms: the power is refreshed first and divides
    the raw step-size, mirroring the stochastic update; the squared
    normalized step-size is approximated by the square of its mean."""
    s = dj1 + dj2
    powers = _affine_scan(cfg.eta, (1.0 - cfg.eta) * s, pbar)
    nu = cfg.nu_gamma / (cfg.epsilon + powers)
    nu2 = nu * nu
    return powers[-1], (1.0 - nu * s, nu * dj2,
                        1.0 + 3.0 * nu2 * s * s - 2.0 * nu * s,
                        nu2 * j2 * s + 2.0 * nu2 * dj2 * dj2,
                        sigma_z2 * nu2 * s,
                        nu * dj2 - 3.0 * nu2 * s * dj2)


def _sr_terms(cfg, pbar, dj1, dj2, j2, sigma_z2):
    """Sign-regressor terms: the rectified moments of the Gaussian error
    difference give the sqrt(2 S / pi) contraction; S is floored at
    DELTA_J_FLOOR so that indistinguishable components leave the
    coefficient frozen.  The power is not used."""
    s = np.maximum(dj1 + dj2, DELTA_J_FLOOR)
    nu = cfg.nu_gamma
    nu2 = nu * nu
    rate = nu * np.sqrt(2.0 * s / np.pi)
    sign_drive = nu * np.sqrt(2.0 / np.pi) * dj2 / np.sqrt(s)
    return pbar, (1.0 - rate, sign_drive, 1.0 + nu2 * s - 2.0 * rate,
                  nu2 * j2, nu2 * sigma_z2, sign_drive - nu2 * dj2)


def _pn_steady(cfg, s, gbar, dj2, j2, sigma_z2):
    nu = cfg.nu_gamma / (cfg.epsilon + s)
    num = nu * (j2 + sigma_z2) * s + 2.0 * nu * dj2 ** 2 \
        + 2.0 * gbar * (dj2 - 3.0 * nu * dj2 * s)
    return num, 2.0 * s - 3.0 * nu * s * s, s


def _sr_steady(cfg, s, gbar, dj2, j2, sigma_z2):
    nu = cfg.nu_gamma
    num = nu * (j2 + sigma_z2) \
        + 2.0 * gbar * (dj2 * np.sqrt(2.0 / (np.pi * s)) - nu * dj2)
    return num, np.sqrt(8.0 * s / np.pi) - nu * s, 0.0


def _pn_limits(cfg, s):
    return (np.full(np.shape(s), 1.0 - cfg.eta),
            np.full(np.shape(s), (1.0 - cfg.eta) / 3.0))


def _sr_limits(cfg, s):
    s = np.maximum(s, DELTA_J_FLOOR)
    return np.sqrt(np.pi / (2.0 * s)), np.sqrt(2.0 / (np.pi * s))


# per scheme: over a block, the final power and the terms (a, b, c, d1,
# d2, e) of gbar' = gbar a + b, g2bar' = g2bar c + d1 + d2 + 2 gbar e; the
# numerator, denominator and power of the stationary second moment; and
# the coefficient step-size limits (mean, mean square) at power dj1 + dj2
_LAWS = {"power_normalized": (_pn_terms, _pn_steady, _pn_limits),
         "sign_regressor": (_sr_terms, _sr_steady, _sr_limits)}


def _law(cfg: CombinerConfig):
    try:
        return _LAWS[cfg.scheme]
    except KeyError:
        raise ValueError("moment recursions cover the two-component "
                         "schemes only") from None


def _affine_scan(a, c, x0) -> np.ndarray:
    """x_1..x_T of x_{t+1} = a_t x_t + c_t, time on axis 0 of a and c,
    which broadcast together; x0 broadcasts against one instant.  Each
    pass of Hillis-Steele doubling composes every instant's map with the
    one k before it, so ceil(log2 T) whole-array passes replace the loop
    (Kogge and Stone, 1973); this reassociates its arithmetic."""
    a, c = (np.array(v, dtype=float) for v in np.broadcast_arrays(a, c))
    k = 1
    while k < len(c):
        c[k:] += a[k:] * c[:-k]
        a[k:] *= a[:-k]
        k *= 2
    return a * x0 + c


def _coefficients(cfg, gbar, g2bar, pbar, dj1, dj2, j2, sigma_z2):
    """(gbar, g2bar) after each instant of a block, shape (T, 2, N), and
    the final pbar; dj1, dj2 and j2 carry time on axis 0.  gbar is one
    affine scan, g2bar another driven by gbar before each instant."""
    pbar, (a, b, c, d1, d2, e) = _law(cfg)[0](cfg, pbar, dj1, dj2, j2,
                                               sigma_z2)
    means = _affine_scan(a, b, gbar)
    before = np.insert(means[:-1], 0, gbar, axis=0)
    return np.stack((means, _affine_scan(
        c, d1 + d2 + 2.0 * (before * e), g2bar)), axis=1), pbar


def coefficient_steady(cfg: CombinerConfig, dj1, dj2, j2, sigma_z2):
    """Closed-form stationary coefficient moments (gbar, g2bar, pbar).

    The mean is dj2 / (dj1 + dj2) for both schemes.  Where the difference
    power is degenerate the coefficient never moves, so the
    initialization moments (1/2, 1/4) and zero power are reported; the
    sign-regressor power is always zero.
    """
    steady = _law(cfg)[1]
    degenerate = dj1 + dj2 <= DELTA_J_FLOOR
    s = np.maximum(dj1 + dj2, DELTA_J_FLOOR)
    gbar = np.where(degenerate, 0.5, dj2 / s)
    num, den, power = steady(cfg, s, gbar, dj2, j2, sigma_z2)
    return (gbar, np.where(degenerate, 0.25, num / den),
            np.where(degenerate, 0.0, power))


def mix(t, gbar, g2bar):
    """Per-agent value of the combined strategy from its components'.

    t stacks the readouts of (p11, p22, p12) on axis -2; gbar and g2bar
    are the coefficient moments, broadcast over the remaining axes.  With
    the coefficient independent of the errors,
    E|g e1 + (1 - g) e2|^2 = g2bar t1 + (1 - 2 gbar + g2bar) t2
    + 2 (gbar - g2bar) t12.
    """
    t1, t2, tx = np.moveaxis(t, -2, 0)
    return (g2bar * t1 + (1.0 - 2.0 * gbar + g2bar) * t2
            + 2.0 * (gbar - g2bar) * tx)


def initial_moments(pair: PairModel, gamma0: float = 0.5) -> MomentState:
    """Moment state for the deterministic all-zero initial estimates,
    so every centered factor is zero, and gamma = gamma0."""
    n, g = pair.n_agents, float(gamma0)
    return MomentState(m=np.zeros((2, pair.w_star.size)),
                       p=np.zeros(pair.g.shape), gbar=np.full(n, g),
                       g2bar=np.full(n, g ** 2), pbar=np.zeros(n))


def evolve(pair: PairModel, cfg: CombinerConfig, n_steps: int,
           state: MomentState) -> TheoryTrajectory:
    """Run the coupled moment recursions for n_steps instants from state
    (initial_moments(pair) at the start of an experiment, the last
    call's final state at a stage boundary, whatever its target).

    Per instant, the pre-update excess errors drive the coefficient
    update (the stochastic update also acts on pre-update errors), and
    both components' moments advance.  Component moments never depend on
    the coefficient, so the states 0..n-1 go in blocks of _BLOCK instants
    and three passes: the moments pass fills the means by doubling
    (_mean_maps; they agree with a mean_step loop to rounding), steps p
    and keeps the factors' diagonals, one readout covers the block,
    and the coefficient pass forms the law's time-only terms over the
    block, then scans (gbar, g2bar) across it (_coefficients).  The
    means run in direction coordinates (_to_directions), and the final
    state holds them in the agents' coordinates again.

    Within one call covariance_step reads p alone, so once a block's last
    step returns its input bit for bit (a non-finite p never does), later
    blocks read their diagonals from that p without stepping it.
    """
    m, p, pbar = _to_directions(pair, state.m), state.p, state.pbar
    w = _to_directions(pair, pair.w_star)
    n = pair.n_agents
    record = np.empty((n_steps + 1, 3, 2, n))
    coefficients = np.empty((n_steps + 1, 2, n))
    coefficients[0] = state.gbar, state.g2bar
    width = max(1, min(_BLOCK, n_steps,
                       _BLOCK_FLOATS // (m.size + 3 * pair.weights[0].size)))
    maps = _mean_maps(pair, width)
    means = np.empty((width + 1,) + m.shape)
    diagonals = np.empty((width, 3) + pair.weights.shape[1:])
    degenerate, settled = 0, False

    for t0 in range(0, n_steps, width):
        t1 = min(t0 + width, n_steps)
        means[0] = m  # then m_{h+r} = b^h m_r + d_h for r < h
        for j, (power, drift) in enumerate(maps[:(t1 - t0).bit_length()]):
            rows = means[1 << j:min(2 << j, t1 - t0 + 1)]
            np.matmul(power, means[:len(rows)], out=rows)
            rows += drift
        m = means[t1 - t0].copy()
        if settled:
            diagonals[:] = np.diagonal(p, axis1=-2, axis2=-1)
        else:
            for r in range(t1 - t0):
                diagonals[r] = np.diagonal(p, axis1=-2, axis2=-1)
                last, p = p, covariance_step(pair, p)
            settled = np.array_equal(last, p)
        readouts = _readouts(pair.weights, means[:t1 - t0] - w,
                             diagonals[:t1 - t0])
        record[t0:t1] = readouts[:, :3]
        _, j2, _, dj1, dj2 = readouts[:, :, 1].transpose(1, 0, 2)
        degenerate += int(np.count_nonzero(dj1 + dj2 <= DELTA_J_FLOOR))
        coefficients[t0 + 1:t1 + 1], pbar = _coefficients(
            cfg, *coefficients[t0], pbar, dj1, dj2, j2, pair.sigma_z2)
    record[n_steps] = _readouts(pair.weights, m - w,
                                np.diagonal(p, axis1=-2, axis2=-1))[:3]

    return TheoryTrajectory(record, coefficients, MomentState(
        _from_directions(pair, m), p, *coefficients[n_steps].copy(), pbar),
        degenerate)


def _fixed_means(pair: PairModel, targets: np.ndarray) -> np.ndarray:
    """The mean estimates m = b m + drive w per target w of targets,
    (T, NL), and component, (T, 2, NL): mean_step's from zero, solved."""
    w = _to_directions(pair, targets)[:, None]
    rhs = _from_directions(pair, pair.drive @ w)
    return _from_directions(pair, np.linalg.solve(
        np.eye(pair.b.shape[-1]) - pair.b, _to_directions(pair, rhs)))


def _stein(a: np.ndarray, b: np.ndarray, c: np.ndarray) -> np.ndarray:
    """Solve x = a x b^T + c for stacks of blocks by squared Smith
    doubling (Smith, 1968).

    After k doublings each block of x holds the first 2^k terms of the
    series sum_j a^j c (b^T)^j, so once the spectral radii of a and b are
    below one the remainder shrinks quadratically.  Doubling stops once
    every block's increment is below eps times that block's largest
    entry.
    """
    x = np.array(c, dtype=float)
    tol = np.finfo(float).eps
    for _ in range(_MAX_DOUBLINGS):
        step = a @ x @ b.swapaxes(-1, -2)
        x += step
        if np.all(np.max(np.abs(step), axis=(-2, -1))
                  <= tol * np.max(np.abs(x), axis=(-2, -1))):
            return x
        a = a @ a
        b = b @ b
    raise InstabilityError("steady covariance did not converge")


def steady_state(pair: PairModel, cfg: CombinerConfig, targets) -> tuple:
    """Closed-form limits of the coupled recursions, one SteadyReport
    per target w of targets, (T, NL), in order.

    The mean estimates sit at m = b m + drive w, read against w.  The
    rest runs once and the reports share it: the spectral check of b,
    the Stein solve of the centered factors, p = left p right^T + g, all
    three blocks in one call, and the step-size limits mu.  The means,
    readouts, coefficient moments and their limits carry the targets on
    a leading axis.  Coefficient moments come from their stationary
    expressions with moments frozen at the limits; a report's verdict
    reads "outside coefficient bounds" when its bounds.nu_ms_ok fails
    on any agent.
    Raises InstabilityError when a component cannot converge.
    """
    for label, b in enumerate(pair.b, start=1):
        rho = float(np.max(np.abs(np.linalg.eigvals(b))))
        if rho >= 1.0:
            raise InstabilityError(
                f"component {label} mean recursion diverges: "
                f"spectral radius {rho:.6f} >= 1")

    m = _fixed_means(pair, targets)
    errors = m - targets[:, None]
    p = _stein(pair.left, pair.right, pair.g)
    p[:2] = 0.5 * (p[:2] + p[:2].swapaxes(-1, -2))

    readouts = _readouts(pair.weights, _to_directions(pair, errors),
                         np.diagonal(p, axis1=-2, axis2=-1))
    emse, dj1, dj2 = readouts[:, :3, 1], readouts[:, 3, 1], readouts[:, 4, 1]
    gbar, g2bar, pbar = coefficient_steady(cfg, dj1, dj2, emse[:, 1],
                                           pair.sigma_z2)

    gamma = np.repeat(gbar, pair.filter_len, axis=-1)
    bias = gamma * errors[:, 0] + (1.0 - gamma) * errors[:, 1]
    bounds = stability_bounds(pair, cfg, dj1 + dj2)
    nu = zip(bounds.nu_mean_bound, bounds.nu_ms_bound, bounds.nu_mean_ok,
             bounds.nu_ms_ok)
    reports = []
    for t, limits in enumerate(nu):
        own = StabilityReport(bounds.mu_bound, bounds.mu_ok, *limits)
        universality = universality_report(*emse[t], dj1[t], dj2[t])
        if not np.all(own.nu_ms_ok):
            universality = replace(universality,
                                   verdict="outside coefficient bounds")
        deviations = readouts[t, :3, 0]
        reports.append(SteadyReport(
            m=m[t], p=p, gbar=gbar[t], g2bar=g2bar[t], pbar=pbar[t],
            bias=bias[t], emse=emse[t], msd=np.mean(deviations, axis=-1),
            combined_msd=float(np.mean(mix(deviations, gbar[t], g2bar[t]))),
            universality=universality, bounds=own))
    return tuple(reports)


def mu_bounds(c, rx) -> np.ndarray:
    """Per-agent mean-stability limits 2 / lambda_max(sum_l c_lk R_{x,l}).

    The limit depends only on the data and the C matrix, so it holds for
    every fusion rule.
    """
    data = np.einsum("lk,lij->kij", np.asarray(c, dtype=float), rx)
    return 2.0 / np.linalg.eigvalsh(data)[:, -1]


def stability_bounds(pair: PairModel, cfg: CombinerConfig,
                     dj_sum) -> StabilityReport:
    """Step-size stability limits for the configured pair.

    dj_sum, of shape (..., N), is the stationary excess-error difference
    power per agent, from which the configured scheme's law sets the
    coefficient limits of that shape; the step-size limits read no
    target.  All bounds are open intervals, so a step-size equal to its
    bound is flagged as failing.
    """
    mu_bound = np.stack([mu_bounds(c, pair.rx) for c in pair.c])
    nu = cfg.nu_gamma
    mean_bound, ms_bound = _law(cfg)[2](cfg, dj_sum)
    return StabilityReport(mu_bound=mu_bound,
                           mu_ok=(pair.mu > 0) & (pair.mu < mu_bound),
                           nu_mean_bound=mean_bound, nu_ms_bound=ms_bound,
                           nu_mean_ok=(nu > 0) & (nu < mean_bound),
                           nu_ms_ok=(nu > 0) & (nu < ms_bound))


def universality_report(j1, j2, j12, dj1, dj2) -> UniversalityReport:
    """Compare the stationary combined excess error to both components.

    dj1 = j1 - j12 and dj2 = j2 - j12 are the drivers, passed in so that
    they can be read without cancellation.  With the stationary
    coefficient, each agent's combined excess error is
    j12 + dj1 dj2 / (dj1 + dj2); agents whose difference power is
    degenerate contribute their (identical) component value.  The margin
    is the network gap min(component sums) - combined sum.
    """
    j1, j2, j12, dj1, dj2 = (np.asarray(v, dtype=float)
                             for v in (j1, j2, j12, dj1, dj2))
    if np.any(np.abs(j12) > np.sqrt(j1 * j2) + 1e-9):
        raise ValueError("cross excess error violates the Cauchy-Schwarz bound")
    s = dj1 + dj2
    degenerate = s <= DELTA_J_FLOOR
    combined = np.where(degenerate, j12,
                        j12 + dj1 * dj2 / np.where(degenerate, 1.0, s))

    regimes = np.select(
        [degenerate, (dj1 >= 0) & (dj2 >= 0), dj1 < 0],
        ["indistinguishable", "interpolating", "extrapolating_beyond_1"],
        "extrapolating_beyond_2")

    net1, net2, net_combined = (float(np.sum(v)) for v in (j1, j2, combined))
    margin = min(net1, net2) - net_combined
    if bool(np.all(degenerate)):
        verdict = "components indistinguishable"
    elif net_combined <= min(net1, net2) + 1e-12:
        verdict = "universal"
    else:
        verdict = "not universal"

    return UniversalityReport(emse_combined=combined,
                              network_emse1=net1, network_emse2=net2,
                              network_combined=net_combined, margin=margin,
                              verdict=verdict, agent_regimes=tuple(regimes.tolist()))
