"""Deterministic moment evolution for a pair of combined diffusion strategies.

Under the usual independence assumptions for LMS analysis, the weight
errors v = w - w_opt of each component strategy obey linear recursions
in their first and second moments.  This module builds those recursions
from the network description, couples them to scalar recursions for the
per-agent mixing-coefficient moments, and assembles transient and
steady-state aggregates (per-component MSD, cross-MSD, combined MSD).

Block quantities live in R^{NL}: agent k owns the slice [kL, (k+1)L).
Every model matrix M of size NL x NL is stored as a factor F with
M = F kron I_{kron_len}, over factor blocks of size m = L / kron_len.
When every regressor covariance is white (sigma_k^2 I_L), m = 1 and the
factors are N x N agent-level matrices; colored regressors (AR(1),
general SPD covariances) give m = L, NL x NL factors and kron_len = 1.

The moments share that structure, and the pair's moments are carried
stacked.  The means m, of shape (2, NL), hold m1 and m2 and evolve as
m_i' = b_i m_i - r_i.  The three distinct (cross-)covariances
E{v_i v_j^T} = p_ij kron I + m_i m_j^T are carried by their centered
factors p, of shape (3, N m, N m), in the block order (p11, p22, p12):
p' = left p right^T + g with left = (b1, b2, b1), right = (b1, b2, b2)
and g = (f1^T q f1, f2^T q f2, f1^T q f2), because the drift moves the
means and leaves centered moments alone.  build_component_model builds
one PairModel per stage from both components and the data they share,
and the steady report keeps that block order.  So white-regressor
theory never forms an NL x NL array, and transient and steady state run
one code path for both regressor kinds.  Steady factors solve that
Stein equation, all three blocks in one call, by squared Smith doubling
at O(N_f^3 log t) for factors of size N_f.

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

    b, rbar and f stack the components' mean transitions, drifts and
    gradient-noise maps: component i's noise is (f_i kron I)^T p, where
    the raw terms p = x_k z_k have second moment q kron I.  left, right
    and g are the transitions and noise moments of the centered factors
    in the block order (p11, p22, p12) (see the module docstring); the
    two auto moments of g are exactly symmetric.  weights holds the
    per-agent readout blocks: the identity (row 0) gives deviations, rx
    (row 1) excess errors, with rx[k] = rx[k, :m, :m] kron I.  c and mu
    stack the components' C matrices and step-sizes; rx, sigma_z2 and
    the flattened w_star are the data both components share.
    """

    n_agents: int
    filter_len: int
    kron_len: int
    b: np.ndarray
    rbar: np.ndarray
    f: np.ndarray
    q: np.ndarray
    left: np.ndarray
    right: np.ndarray
    g: np.ndarray
    weights: np.ndarray
    c: np.ndarray
    mu: np.ndarray
    rx: np.ndarray
    sigma_z2: np.ndarray
    w_star: np.ndarray

    def __post_init__(self):
        for name in self.__dataclass_fields__:
            if name not in ("n_agents", "filter_len", "kron_len"):
                arr = np.asarray(getattr(self, name), dtype=float)
                arr.setflags(write=False)
                object.__setattr__(self, name, arr)


@dataclass
class MomentState:
    """Joint moment state of both components and the combiner at one instant.

    m, of shape (2, NL), stacks the mean error vectors m1 and m2.  p, of
    shape (3, N m, N m), stacks the centered covariance factors over the
    models' kron_len identity in the block order (p11, p22, p12):
    E{v_i v_j^T} = p_ij kron I + m_i m_j^T, so p[2] is the cross factor
    of E{v1 v2^T}.  gbar/g2bar are the per-agent first and second moments
    of the mixing coefficient, pbar the per-agent smoothed difference
    power.
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

    m stacks the fixed mean errors (m1, m2) and p the centered covariance
    factors (p11, p22, p12), in the layout of MomentState.  emse, of
    shape (3, N), holds the per-agent excess errors and msd, of shape
    (3,), the network deviations of the same three moments, in the
    same block order.
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


def _block_diag(blocks: np.ndarray) -> np.ndarray:
    n, l, _ = blocks.shape
    out = np.zeros((n, l, n, l))
    out[np.arange(n), :, np.arange(n)] = blocks
    return out.reshape(n * l, n * l)


def _kron_apply(factor: np.ndarray, v: np.ndarray) -> np.ndarray:
    """(factor kron I) v for a block vector v."""
    return (factor @ v.reshape(factor.shape[0], -1)).reshape(-1)


def _diagonal_blocks(p: np.ndarray, n: int) -> np.ndarray:
    """A view of each agent's diagonal block of p: (..., 3, N, m, m)."""
    k = p.shape[-1] // n
    return np.einsum("...skikj->...skij", p.reshape(*p.shape[:-2], n, k, n, k))


def _readouts(weights: np.ndarray, m: np.ndarray, blocks: np.ndarray):
    """Per-agent tr((W_k kron I) Om_kk) of five moments Om = p kron I + a b^T.

    weights[w, k] is an m x m block W_k acting as W_k kron I on agent k's
    diagonal block of p, held in blocks (_diagonal_blocks).  The moments
    are component 1 (m1, m1, p11), component 2 (m2, m2, p22), the cross
    moment (m1, m2, p12), and the drivers j1 - j12 from (m1, m1 - m2,
    p11 - p12) and j2 - j12 from (m2, m2 - m1, p22 - p12): read directly,
    the drivers never cancel two nearly equal excess errors.  Any leading
    (time) axes of m and blocks lead the result, (..., 5, len(weights), N).
    """
    n, k = blocks.shape[-3], blocks.shape[-1]
    shape = (*m.shape[:-2], 5, n, k, m.shape[-1] // (n * k))
    m1, m2 = m[..., 0, :], m[..., 1, :]
    d = m1 - m2
    left = np.stack((m1, m2, m1, m1, m2), axis=-2).reshape(shape)
    right = np.stack((m1, m2, m2, d, -d), axis=-2).reshape(shape)
    # agent k's diagonal block of Om, folded over the kron_len identity:
    # kron_len p_kk plus the mean part sum_t a_t b_t^T
    drivers = blocks[..., :2, :, :, :] - blocks[..., 2:, :, :, :]
    om = shape[-1] * np.concatenate((blocks, drivers), axis=-4)
    om += np.einsum("...skjt,...skit->...skji", left, right)
    return np.einsum("wkij,...skji->...swk", weights, om)


def build_component_model(topology: Topology, components, rx, sigma_z2,
                          w_star) -> PairModel:
    """Assemble the stacked moment description of two diffusion strategies.

    components holds both strategies' configurations.  rx holds the
    per-agent regressor covariances with shape (N, L, L), sigma_z2 the
    per-agent noise variances, w_star the stationary targets with shape
    (N, L); both components observe these data.  White covariances
    (rx[k] = sigma_k^2 I_L for every agent) give N x N factors with
    kron_len = L, anything else NL x NL factors with kron_len = 1.  Raises
    for adaptive fusion modes, which the predictor does not cover.
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
    l = rx.shape[-1]
    w = np.asarray(w_star, dtype=float).reshape(n, l)
    white = np.array_equal(rx, rx[:, :1, :1] * np.eye(l))
    return _build_model(components, rx, sigma_z2, w, 1 if white else l)


def _build_model(components, rx: np.ndarray, sigma_z2: np.ndarray,
                 w: np.ndarray, m: int) -> PairModel:
    """Pair model over factor blocks of size m, so kron_len = L / m.

    Needs rx[k] = rx[k, :m, :m] kron I_kron_len for every agent: m = L
    always qualifies, m = 1 when every covariance is sigma_k^2 I_L.
    """
    n, l = w.shape
    rx_m = rx[:, :m, :m]
    b, rbar, f = (np.stack(x) for x in zip(*(_component(cfg, rx, w, m)
                                            for cfg in components)))
    q = _block_diag(sigma_z2[:, None, None] * rx_m)
    g = np.stack([f[i].T @ q @ f[j] for i, j in ((0, 0), (1, 1), (0, 1))])
    g[:2] = 0.5 * (g[:2] + g[:2].transpose(0, 2, 1))
    weights = np.stack([np.broadcast_to(np.eye(m), (n, m, m)), rx_m])
    return PairModel(
        n_agents=n, filter_len=l, kron_len=l // m, b=b, rbar=rbar, f=f, q=q,
        left=b[[0, 1, 0]], right=b[[0, 1, 1]], g=g, weights=weights,
        c=np.array([cfg.c.entries for cfg in components], dtype=float),
        mu=np.array([cfg.mu for cfg in components], dtype=float),
        rx=rx, sigma_z2=sigma_z2, w_star=w.reshape(-1))


def _component(cfg: StrategyConfig, rx: np.ndarray, w: np.ndarray, m: int):
    """One component's (bbar, rbar, f) over factor blocks of size m."""
    eye_m, eye = np.eye(m), np.eye(w.shape[0] * m)
    c = np.array(cfg.c.entries, dtype=float)
    a1x = np.kron(np.array(cfg.a1.entries, dtype=float), eye_m)
    a2x = np.kron(np.array(cfg.a2.entries, dtype=float), eye_m)
    u = np.kron(np.diag(np.array(cfg.mu, dtype=float)), eye_m)

    hbar = _block_diag(np.einsum("lk,lij->kij", c, rx[:, :m, :m]))
    damp = eye - u @ hbar
    bbar = a2x.T @ damp @ a1x.T

    # drift: data sharing pulls each agent toward its neighbors' targets,
    # while combining leaks weight mass across heterogeneous targets
    diff = w[None, :, :] - w[:, None, :]
    hu = np.einsum("lk,lij,lkj->ki", c, rx, diff).reshape(-1)
    leak = a2x.T @ damp @ (a1x.T - eye) + (a2x.T - eye)
    rbar = _kron_apply(a2x.T @ u, hu) - _kron_apply(leak, w.reshape(-1))
    return bbar, rbar, np.kron(c, eye_m) @ u @ a2x


def mean_step(pair: PairModel, m: np.ndarray) -> np.ndarray:
    """One step of both mean error recursions: b m - rbar, per component."""
    return (pair.b @ m.reshape(2, pair.b.shape[1], -1)).reshape(2, -1) \
        - pair.rbar


def _mean_maps(pair: PairModel, width: int) -> list:
    """The maps m -> b^h m - d_h of h = 1, 2, 4, .. <= width mean steps,
    d_h = sum_{s<h} b^s rbar, by squaring mean_step's own map: b^2h =
    b^h b^h, d_2h = b^h d_h + d_h (Kogge and Stone, 1973)."""
    maps = [(pair.b, -mean_step(pair, 0.0 * pair.rbar).reshape(
        pair.b.shape[:2] + (-1,)))]
    while 2 ** len(maps) <= width:
        power, drift = maps[-1]
        maps.append((power @ power, power @ drift + drift))
    return maps


def covariance_step(pair: PairModel, p: np.ndarray) -> np.ndarray:
    """One step of the three centered factors: left p right^T + g.

    The two auto factors p11 and p22 of the result are exactly symmetric.
    """
    out = pair.left @ p @ pair.right.transpose(0, 2, 1)
    out += pair.g
    out[:2] = 0.5 * (out[:2] + out[:2].transpose(0, 2, 1))
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
    """Moment state for all-zero initial estimates and gamma = gamma0.

    The errors start at the deterministic -w_star, so every centered
    factor is zero.
    """
    n, k, g = pair.n_agents, pair.b.shape[1], float(gamma0)
    return MomentState(m=np.tile(-pair.w_star, (2, 1)),
                       p=np.zeros((3, k, k)), gbar=np.full(n, g),
                       g2bar=np.full(n, g ** 2), pbar=np.zeros(n))


def shift_targets(state: MomentState, delta: np.ndarray) -> MomentState:
    """Re-express a moment state against a new stationary target.

    delta is old target minus new target, flattened.  Error vectors all
    shift deterministically by delta, so both means translate while the
    centered factors and the coefficient moments are unaffected.
    """
    return replace(state, m=state.m + np.asarray(delta, dtype=float))


def evolve(pair: PairModel, cfg: CombinerConfig, n_steps: int,
           state: MomentState) -> TheoryTrajectory:
    """Run the coupled moment recursions for n_steps instants from state
    (initial_moments(pair) at the start of an experiment).

    Per instant, the pre-update excess errors drive the coefficient
    update (the stochastic update also acts on pre-update errors), and
    both components' moments advance.  Component moments never depend on
    the coefficient, so the states 0..n-1 go in blocks of _BLOCK instants
    and three passes: the moments pass fills the means by doubling
    (_mean_maps; they agree with a mean_step loop to rounding), steps p
    and keeps each agent's diagonal blocks, one readout covers the block,
    and the coefficient pass forms the law's time-only terms over the
    block, then scans (gbar, g2bar) across it (_coefficients).

    Within one call covariance_step reads p alone, so once a block's last
    step returns its input bit for bit (a non-finite p never does), later
    blocks read their diagonal blocks from that p without stepping it.
    """
    m, p, pbar = state.m, state.p, state.pbar
    n, k = pair.n_agents, pair.weights.shape[-1]
    record = np.empty((n_steps + 1, 3, 2, n))
    coefficients = np.empty((n_steps + 1, 2, n))
    coefficients[0] = state.gbar, state.g2bar
    width = max(1, min(_BLOCK, n_steps,
                       _BLOCK_FLOATS // (m.size + 3 * n * k * k)))
    maps = _mean_maps(pair, width)
    means = np.empty((width + 1,) + m.shape)
    grid = means.reshape((width + 1,) + maps[0][1].shape)
    blocks = np.empty((width, 3, n, k, k))
    degenerate, settled = 0, False

    for t0 in range(0, n_steps, width):
        t1 = min(t0 + width, n_steps)
        means[0] = m  # then m_{h+r} = b^h m_r - d_h for r < h
        for j, (power, drift) in enumerate(maps[:(t1 - t0).bit_length()]):
            rows = grid[1 << j:min(2 << j, t1 - t0 + 1)]
            np.matmul(power, grid[:len(rows)], out=rows)
            rows -= drift
        m = means[t1 - t0].copy()
        if settled:
            blocks[:] = _diagonal_blocks(p, n)
        else:
            for r in range(t1 - t0):
                blocks[r] = _diagonal_blocks(p, n)
                last, p = p, covariance_step(pair, p)
            settled = np.array_equal(last, p)
        readouts = _readouts(pair.weights, means[:t1 - t0], blocks[:t1 - t0])
        record[t0:t1] = readouts[:, :3]
        _, j2, _, dj1, dj2 = readouts[:, :, 1].transpose(1, 0, 2)
        degenerate += int(np.count_nonzero(dj1 + dj2 <= DELTA_J_FLOOR))
        coefficients[t0 + 1:t1 + 1], pbar = _coefficients(
            cfg, *coefficients[t0], pbar, dj1, dj2, j2, pair.sigma_z2)
    record[n_steps] = _readouts(pair.weights, m, _diagonal_blocks(p, n))[:3]

    return TheoryTrajectory(record, coefficients, MomentState(
        m, p, *coefficients[n_steps].copy(), pbar), degenerate)


def _fixed_mean(pair: PairModel) -> np.ndarray:
    """The mean errors m with m = b m - rbar, per component."""
    k = pair.b.shape[1]
    rhs = pair.rbar.reshape(2, k, -1)
    return -np.linalg.solve(np.eye(k) - pair.b, rhs).reshape(2, -1)


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
        step = a @ x @ b.transpose(0, 2, 1)
        x += step
        if np.all(np.max(np.abs(step), axis=(1, 2))
                  <= tol * np.max(np.abs(x), axis=(1, 2))):
            return x
        a = a @ a
        b = b @ b
    raise InstabilityError("steady covariance did not converge")


def steady_state(pair: PairModel, cfg: CombinerConfig) -> SteadyReport:
    """Closed-form limits of the coupled recursions.

    The means sit at m = b m - rbar and the centered factors solve
    p = left p right^T + g, all three blocks in one Stein solve.
    Coefficient moments come from their stationary expressions with
    moments frozen at the limits; the verdict reads "outside coefficient
    bounds" when bounds.nu_ms_ok fails on any agent.
    Raises InstabilityError when a component cannot converge.
    """
    for label, b in enumerate(pair.b, start=1):
        rho = float(np.max(np.abs(np.linalg.eigvals(b))))
        if rho >= 1.0:
            raise InstabilityError(
                f"component {label} mean recursion diverges: "
                f"spectral radius {rho:.6f} >= 1")

    m = _fixed_mean(pair)
    p = _stein(pair.left, pair.right, pair.g)
    p[:2] = 0.5 * (p[:2] + p[:2].transpose(0, 2, 1))

    readouts = _readouts(pair.weights, m, _diagonal_blocks(p, pair.n_agents))
    emse, (dj1, dj2) = readouts[:3, 1], readouts[3:, 1]
    gbar, g2bar, pbar = coefficient_steady(cfg, dj1, dj2, emse[1],
                                           pair.sigma_z2)

    gamma = np.repeat(gbar, pair.filter_len)
    bias = gamma * m[0] + (1.0 - gamma) * m[1]
    bounds = stability_bounds(pair, cfg, dj1 + dj2)
    universality = universality_report(*emse, dj1, dj2)
    if not np.all(bounds.nu_ms_ok):
        universality = replace(universality,
                               verdict="outside coefficient bounds")

    return SteadyReport(
        m=m, p=p, gbar=gbar, g2bar=g2bar, pbar=pbar, bias=bias,
        emse=emse, msd=np.mean(readouts[:3, 0], axis=-1),
        combined_msd=float(np.mean(mix(readouts[:3, 0], gbar, g2bar))),
        universality=universality, bounds=bounds)


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

    dj_sum, of shape (N,), is the stationary excess-error difference
    power per agent, from which the configured scheme's law sets the
    coefficient limits.  All bounds are open intervals, so a step-size
    equal to its bound is flagged as failing.
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
