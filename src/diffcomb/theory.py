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

The moments share that structure.  Means evolve as m' = bbar m - rbar.
Every (cross-)covariance is E{v1 v2^T} = P kron I + m1 m2^T, and only
the centered factor P, of size N m, is carried: P' = b1 P b2^T + g12,
because the drift moves the means and leaves centered moments alone.
So white-regressor theory never forms an NL x NL array, and transient
and steady state run one code path for both regressor kinds.  Steady
factors solve that Stein equation by squared Smith doubling, at
O(N_f^3 log t) for factors of size N_f.

The mixing coefficient follows one law per two-component scheme, looked
up once by scheme name: coefficient_step advances its per-agent mean,
second moment and smoothed power together, coefficient_steady gives
their limits.  The drivers dj1 = j1 - j12 and dj2 = j2 - j12 are read
from (m1 - m2, p1 - px) and (m2 - m1, p2 - px) directly, so nearly
equal excess errors never cancel.

The predictor covers static fusion matrices only; the data-driven A2
refresh rules have no closed-form moment description here.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from .combine import CombinerConfig
from .diffusion import StrategyConfig
from .graph import Topology

DELTA_J_FLOOR = 1e-12

_MODEL_ARRAYS = ("bbar", "rbar", "g", "f", "q", "c", "mu", "rx", "sigma_z2",
                 "w_star")
# 2^64 terms of the Stein series: enough for any spectral radius below
# one in double precision
_MAX_DOUBLINGS = 64


class InstabilityError(RuntimeError):
    """A component's mean recursion has spectral radius >= 1."""


def _freeze_arrays(obj, names) -> None:
    for name in names:
        arr = np.asarray(getattr(obj, name), dtype=float)
        arr.setflags(write=False)
        object.__setattr__(obj, name, arr)


@dataclass(frozen=True)
class ComponentModel:
    """Frozen moment description of one component diffusion strategy.

    bbar is the mean error transition matrix, rbar the deterministic
    drift (zero for a shared target under left-stochastic combining),
    g the second moment of the gradient noise.  The gradient noise is
    (f kron I)^T p, where p stacks the raw terms x_k z_k whose second
    moment is q kron I; so g = f^T q f, and two models over the same data
    couple through f1^T q f2.  bbar, g, f and q are factors over an
    identity of size kron_len (see the module docstring).  c, mu, rx,
    sigma_z2 and w_star are kept so that cross moments and derived
    reports can be computed without re-supplying the inputs.
    """

    n_agents: int
    filter_len: int
    kron_len: int
    bbar: np.ndarray
    rbar: np.ndarray
    f: np.ndarray
    q: np.ndarray
    c: np.ndarray
    mu: np.ndarray
    rx: np.ndarray
    sigma_z2: np.ndarray
    w_star: np.ndarray
    g: np.ndarray = field(init=False)

    def __post_init__(self):
        g = self.f.T @ self.q @ self.f
        object.__setattr__(self, "g", 0.5 * (g + g.T))
        _freeze_arrays(self, _MODEL_ARRAYS)

    @property
    def block_dim(self) -> int:
        return self.n_agents * self.filter_len


@dataclass
class MomentState:
    """Joint moment state of both components and the combiner at one instant.

    m1/m2 are the mean error vectors (length NL).  p1/p2/px are the
    centered covariance factors of each component and of the cross term,
    of size N m over the models' kron_len identity:
    E{v1 v1^T} = p1 kron I + m1 m1^T, E{v1 v2^T} = px kron I + m1 m2^T.
    gbar/g2bar are the per-agent first and second moments of the mixing
    coefficient, pbar the per-agent smoothed difference power.
    """

    m1: np.ndarray
    m2: np.ndarray
    p1: np.ndarray
    p2: np.ndarray
    px: np.ndarray
    gbar: np.ndarray
    g2bar: np.ndarray
    pbar: np.ndarray


@dataclass
class TheoryTrajectory:
    """Recorded curves from evolve().

    Row t of the per-step arrays holds the state after t+1 updates.  The
    emse arrays instead hold the pre-update values that drove the
    coefficient update at step t (so row 0 reflects the initial state).
    degenerate_steps counts (step, agent) pairs whose excess-error
    difference power fell below DELTA_J_FLOOR.
    """

    emse1: np.ndarray
    emse2: np.ndarray
    emse12: np.ndarray
    gbar: np.ndarray
    g2bar: np.ndarray
    pbar: np.ndarray
    msd1: np.ndarray
    msd2: np.ndarray
    cross_msd: np.ndarray
    combined_msd: np.ndarray
    state: MomentState
    degenerate_steps: int = 0


@dataclass(frozen=True)
class StabilityReport:
    """Step-size limits and pass/fail flags for a configured pair.

    mu bounds are per agent and per component.  The power-normalized
    coefficient bounds depend only on the smoothing factor; the
    sign-regressor bounds need the worst observed difference power and
    are None when no trajectory was supplied.
    """

    mu_bound1: np.ndarray
    mu_bound2: np.ndarray
    mu_ok1: np.ndarray
    mu_ok2: np.ndarray
    pn_mean_bound: float
    pn_ms_bound: float
    pn_mean_ok: np.ndarray
    pn_ms_ok: np.ndarray
    sr_mean_bound: np.ndarray | None = None
    sr_ms_bound: np.ndarray | None = None
    sr_mean_ok: np.ndarray | None = None
    sr_ms_ok: np.ndarray | None = None


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

    m1/m2 are the fixed mean errors and p1/p2/px the centered covariance
    factors, in the form of MomentState.
    """

    m1: np.ndarray
    m2: np.ndarray
    p1: np.ndarray
    p2: np.ndarray
    px: np.ndarray
    gbar: np.ndarray
    g2bar: np.ndarray
    pbar: np.ndarray
    bias: np.ndarray
    emse1: np.ndarray
    emse2: np.ndarray
    emse12: np.ndarray
    msd1: float
    msd2: float
    cross_msd: float
    combined_msd: float
    universality: UniversalityReport
    bounds: StabilityReport


def _block_diag(blocks: np.ndarray) -> np.ndarray:
    n, l, _ = blocks.shape
    out = np.zeros((n * l, n * l))
    for k in range(n):
        out[k * l:(k + 1) * l, k * l:(k + 1) * l] = blocks[k]
    return out


def _kron_apply(factor: np.ndarray, v: np.ndarray) -> np.ndarray:
    """(factor kron I) v for a block vector v."""
    return (factor @ v.reshape(factor.shape[0], -1)).reshape(-1)


def _readouts(weights: np.ndarray, m1, m2, p1, p2, px) -> np.ndarray:
    """Per-agent tr((W_k kron I) Om_kk) of five moments Om = p kron I + a b^T.

    weights[w, k] is an m x m block W_k, m the factor block size of the
    p's, acting on agent k's diagonal block as W_k kron I.  The moments
    are component 1 (m1, m1, p1), component 2 (m2, m2, p2), the cross
    moment (m1, m2, px), and the drivers j1 - j12 from (m1, m1 - m2,
    p1 - px) and j2 - j12 from (m2, m2 - m1, p2 - px): read directly, the
    drivers never cancel two nearly equal excess errors.  Returns an
    array of shape (5, weights.shape[0], N).
    """
    n, m = weights.shape[-3], weights.shape[-1]
    reps = m1.shape[0] // p1.shape[0]
    blocks = np.einsum("skikj->skij",
                       np.stack((p1, p2, px)).reshape(3, n, m, n, m))
    d = m1 - m2
    left = np.stack((m1, m2, m1, m1, m2)).reshape(5, n, m, reps)
    right = np.stack((m1, m2, m2, d, -d)).reshape(5, n, m, reps)
    # agent k's diagonal block of Om, folded over the kron_len identity:
    # kron_len p_kk plus the mean part sum_t a_t b_t^T
    om = reps * np.concatenate((blocks, blocks[:2] - blocks[2]))
    om += np.einsum("skjt,skit->skji", left, right)
    return np.einsum("wkij,skji->swk", weights, om)


def _readout_weights(model: ComponentModel) -> np.ndarray:
    """m x m readout blocks per agent: the identity (row 0) gives
    deviations, rx (row 1) excess errors; rx[k] is rx[k, :m, :m] kron I."""
    n = model.n_agents
    m = model.bbar.shape[0] // n
    return np.stack([np.broadcast_to(np.eye(m), (n, m, m)),
                     model.rx[:, :m, :m]])


def build_component_model(topology: Topology, cfg: StrategyConfig,
                          rx, sigma_z2, w_star) -> ComponentModel:
    """Assemble the moment description of one diffusion strategy.

    rx holds the per-agent regressor covariances with shape (N, L, L),
    sigma_z2 the per-agent noise variances, w_star the stationary
    targets with shape (N, L).  White covariances (rx[k] = sigma_k^2 I_L
    for every agent) give N x N factors with kron_len = L, anything else
    NL x NL factors with kron_len = 1.  Raises for adaptive fusion modes,
    which the predictor does not cover.
    """
    if cfg.a2_mode != "static":
        raise ValueError("moment predictor requires a static a2 matrix")
    if cfg.topology is not topology and not np.array_equal(
            cfg.topology.adjacency, topology.adjacency):
        raise ValueError("strategy config was built for a different topology")
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
    return _build_model(n, l, 1 if white else l, cfg, rx, sigma_z2, w)


def _build_model(n: int, l: int, m: int, cfg: StrategyConfig, rx: np.ndarray,
                 sigma_z2: np.ndarray, w: np.ndarray) -> ComponentModel:
    """Model over factor blocks of size m, so kron_len = L / m.

    Needs rx[k] = rx[k, :m, :m] kron I_kron_len for every agent: m = L
    always qualifies, m = 1 when every covariance is sigma_k^2 I_L.
    """
    eye_m = np.eye(m)
    eye = np.eye(n * m)
    c = np.array(cfg.c.entries, dtype=float)
    mu = np.array(cfg.mu, dtype=float)
    a1x = np.kron(np.array(cfg.a1.entries, dtype=float), eye_m)
    a2x = np.kron(np.array(cfg.a2.entries, dtype=float), eye_m)
    u = np.kron(np.diag(mu), eye_m)
    rx_m = rx[:, :m, :m]

    hbar = _block_diag(np.einsum("lk,lij->kij", c, rx_m))
    damp = eye - u @ hbar
    bbar = a2x.T @ damp @ a1x.T

    # drift: data sharing pulls each agent toward its neighbors' targets,
    # while combining leaks weight mass across heterogeneous targets
    diff = w[None, :, :] - w[:, None, :]
    hu = np.einsum("lk,lij,lkj->ki", c, rx, diff).reshape(-1)
    leak = a2x.T @ damp @ (a1x.T - eye) + (a2x.T - eye)
    rbar = _kron_apply(a2x.T @ u, hu) - _kron_apply(leak, w.reshape(-1))

    f = np.kron(c, eye_m) @ u @ a2x
    q = _block_diag(sigma_z2[:, None, None] * rx_m)
    return ComponentModel(n_agents=n, filter_len=l, kron_len=l // m,
                          bbar=bbar, rbar=rbar, f=f, q=q, c=c, mu=mu, rx=rx,
                          sigma_z2=sigma_z2, w_star=w.reshape(-1))


def _require_same_data(model1: ComponentModel, model2: ComponentModel) -> None:
    if (model1.n_agents != model2.n_agents
            or model1.filter_len != model2.filter_len
            or model1.kron_len != model2.kron_len):
        raise ValueError("component models have mismatched dimensions")
    if (not np.allclose(model1.rx, model2.rx)
            or not np.allclose(model1.sigma_z2, model2.sigma_z2)
            or not np.allclose(model1.w_star, model2.w_star)):
        raise ValueError("component models must share data statistics")


def cross_noise_moment(model1: ComponentModel, model2: ComponentModel) -> np.ndarray:
    """E{g1 g2^T}: gradient-noise coupling through the shared measurements.

    Returned as a factor over the models' kron_len identity.
    """
    _require_same_data(model1, model2)
    return model1.f.T @ model1.q @ model2.f


def mean_step(model: ComponentModel, m: np.ndarray) -> np.ndarray:
    """One step of the mean error recursion."""
    return _kron_apply(model.bbar, m) - model.rbar


def covariance_step(model: ComponentModel, p: np.ndarray) -> np.ndarray:
    """One step of the centered covariance factor: b p b^T + g.

    The result is exactly symmetric.
    """
    out = model.bbar @ p @ model.bbar.T
    out += model.g
    return 0.5 * (out + out.T)


def cross_covariance_step(model1: ComponentModel, model2: ComponentModel,
                          px: np.ndarray,
                          gx: np.ndarray | None = None) -> np.ndarray:
    """One step of the centered cross-covariance factor: b1 px b2^T + gx.

    Pass a precomputed gx = cross_noise_moment(model1, model2) when
    iterating; it is rebuilt on every call otherwise.
    """
    if px.shape != (model1.bbar.shape[0], model2.bbar.shape[0]):
        raise ValueError("cross covariance has mismatched dimensions")
    if gx is None:
        gx = cross_noise_moment(model1, model2)
    out = model1.bbar @ px @ model2.bbar.T
    out += gx
    return out


def _pn_step(cfg, gbar, g2bar, pbar, dj1, dj2, j2, sigma_z2):
    """Power-normalized step: the power is refreshed first and divides
    the raw step-size, mirroring the stochastic update; the squared
    normalized step-size is approximated by the square of its mean."""
    s = dj1 + dj2
    pbar = cfg.eta * pbar + (1.0 - cfg.eta) * s
    nu = cfg.nu_gamma / (cfg.epsilon + pbar)
    nu2 = nu * nu
    quad = g2bar * (1.0 + 3.0 * nu2 * s * s - 2.0 * nu * s)
    drive = nu2 * j2 * s + 2.0 * nu2 * dj2 * dj2
    noise = sigma_z2 * nu2 * s
    cross = gbar * (nu * dj2 - 3.0 * nu2 * s * dj2)
    return (gbar * (1.0 - nu * s) + nu * dj2,
            quad + drive + noise + 2.0 * cross, pbar)


def _sr_step(cfg, gbar, g2bar, pbar, dj1, dj2, j2, sigma_z2):
    """Sign-regressor step: the rectified moments of the Gaussian error
    difference give the sqrt(2 S / pi) contraction; S is floored at
    DELTA_J_FLOOR so that indistinguishable components leave the
    coefficient frozen.  The power is not used."""
    s = np.maximum(dj1 + dj2, DELTA_J_FLOOR)
    nu = cfg.nu_gamma
    nu2 = nu * nu
    rate = nu * np.sqrt(2.0 * s / np.pi)
    sign_drive = nu * np.sqrt(2.0 / np.pi) * dj2 / np.sqrt(s)
    quad = g2bar * (1.0 + nu2 * s - 2.0 * rate)
    cross = gbar * (sign_drive - nu2 * dj2)
    return (gbar * (1.0 - rate) + sign_drive,
            quad + nu2 * j2 + nu2 * sigma_z2 + 2.0 * cross, pbar)


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


# per scheme: the coefficient step, and the numerator, denominator and
# power of the stationary second moment
_LAWS = {"power_normalized": (_pn_step, _pn_steady),
         "sign_regressor": (_sr_step, _sr_steady)}


def _law(cfg: CombinerConfig):
    try:
        return _LAWS[cfg.scheme]
    except KeyError:
        raise ValueError("moment recursions cover the two-component "
                         "schemes only") from None


def coefficient_step(cfg: CombinerConfig, gbar, g2bar, pbar, dj1, dj2, j2,
                     sigma_z2):
    """Advance the per-agent coefficient moments (gbar, g2bar, pbar) by
    one instant, driven by dj1 = j1 - j12, dj2 = j2 - j12 and j2.

    Arguments are NumPy arrays over agents; cfg.nu_gamma (scalar or per
    agent) broadcasts.  The sign-regressor scheme returns pbar unchanged.
    """
    return _law(cfg)[0](cfg, gbar, g2bar, pbar, dj1, dj2, j2, sigma_z2)


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


def combined_msd(state: MomentState) -> float:
    """Network deviation of the combined estimates at the state's instant.

    Expands E{||Gamma v1 + (I - Gamma) v2||^2} with per-agent coefficient
    moments, averaged over agents.
    """
    n = state.gbar.shape[0]
    m = state.p1.shape[0] // n
    traces = _readouts(np.broadcast_to(np.eye(m), (1, n, m, m)), state.m1,
                       state.m2, state.p1, state.p2, state.px)[:3, 0]
    return _combined_from_traces(*traces, state.gbar, state.g2bar)


def _combined_from_traces(t1, t2, tx, gbar, g2bar) -> float:
    per_agent = (g2bar * t1 + (1.0 - 2.0 * gbar + g2bar) * t2
                 + 2.0 * (gbar - g2bar) * tx)
    return float(np.mean(per_agent))


def initial_moments(model1: ComponentModel, model2: ComponentModel,
                    gamma0: float = 0.5) -> MomentState:
    """Moment state for all-zero initial estimates and gamma = gamma0.

    The errors start at the deterministic -w_star, so every centered
    factor is zero.
    """
    _require_same_data(model1, model2)
    n = model1.n_agents
    k = model1.bbar.shape[0]
    w = model1.w_star
    return MomentState(m1=-w.copy(), m2=-w.copy(), p1=np.zeros((k, k)),
                       p2=np.zeros((k, k)), px=np.zeros((k, k)),
                       gbar=np.full(n, float(gamma0)),
                       g2bar=np.full(n, float(gamma0) ** 2),
                       pbar=np.zeros(n))


def shift_targets(state: MomentState, delta: np.ndarray) -> MomentState:
    """Re-express a moment state against a new stationary target.

    delta is old target minus new target, flattened.  Error vectors all
    shift deterministically by delta, so the means translate while the
    centered factors and the coefficient moments are unaffected.
    """
    delta = np.asarray(delta, dtype=float)
    return replace(state, m1=state.m1 + delta, m2=state.m2 + delta)


def evolve(model1: ComponentModel, model2: ComponentModel, cfg: CombinerConfig,
           n_steps: int, state: MomentState | None = None) -> TheoryTrajectory:
    """Run the coupled moment recursions for n_steps instants.

    Per instant: the pre-update covariances give the excess errors that
    drive the coefficient update (the stochastic update also acts on
    pre-update errors), component moments advance, coefficient moments
    advance, and the combined deviation is assembled from the advanced
    state.  Component moments never depend on the coefficient.
    """
    _require_same_data(model1, model2)
    if state is None:
        state = initial_moments(model1, model2)
    n = model1.n_agents
    gx = cross_noise_moment(model1, model2)
    sigma_z2 = model1.sigma_z2

    emse1 = np.empty((n_steps, n))
    emse2 = np.empty((n_steps, n))
    emse12 = np.empty((n_steps, n))
    gbar = np.empty((n_steps, n))
    g2bar = np.empty((n_steps, n))
    pbar = np.empty((n_steps, n))
    msd1 = np.empty(n_steps)
    msd2 = np.empty(n_steps)
    cross = np.empty(n_steps)
    combined = np.empty(n_steps)
    degenerate = 0

    # one readout per moment gives the deviations after a step (row 0)
    # and the excess errors and drivers of the next step (row 1)
    weights = _readout_weights(model1)
    readouts = _readouts(weights, state.m1, state.m2, state.p1, state.p2,
                         state.px)
    for t in range(n_steps):
        j1, j2, j12, dj1, dj2 = readouts[:, 1]
        degenerate += int(np.count_nonzero(dj1 + dj2 <= DELTA_J_FLOOR))
        gbar_next, g2bar_next, pbar_next = coefficient_step(
            cfg, state.gbar, state.g2bar, state.pbar, dj1, dj2, j2, sigma_z2)
        state = MomentState(
            m1=mean_step(model1, state.m1),
            m2=mean_step(model2, state.m2),
            p1=covariance_step(model1, state.p1),
            p2=covariance_step(model2, state.p2),
            px=cross_covariance_step(model1, model2, state.px, gx=gx),
            gbar=gbar_next, g2bar=g2bar_next, pbar=pbar_next)
        readouts = _readouts(weights, state.m1, state.m2, state.p1, state.p2,
                             state.px)
        traces = readouts[:3, 0]

        emse1[t] = j1
        emse2[t] = j2
        emse12[t] = j12
        gbar[t] = state.gbar
        g2bar[t] = state.g2bar
        pbar[t] = state.pbar
        msd1[t], msd2[t], cross[t] = np.mean(traces, axis=1)
        combined[t] = _combined_from_traces(*traces, state.gbar, state.g2bar)

    return TheoryTrajectory(emse1=emse1, emse2=emse2, emse12=emse12,
                            gbar=gbar, g2bar=g2bar, pbar=pbar,
                            msd1=msd1, msd2=msd2, cross_msd=cross,
                            combined_msd=combined, state=state,
                            degenerate_steps=degenerate)


def _spectral_radius(matrix: np.ndarray) -> float:
    return float(np.max(np.abs(np.linalg.eigvals(matrix))))


def _fixed_mean(model: ComponentModel) -> np.ndarray:
    """The mean error m with m = bbar m - rbar."""
    k = model.bbar.shape[0]
    rhs = model.rbar.reshape(k, -1)
    return -np.linalg.solve(np.eye(k) - model.bbar, rhs).reshape(-1)


def _stein(a: np.ndarray, b: np.ndarray, c: np.ndarray) -> np.ndarray:
    """Solve x = a x b^T + c by squared Smith doubling (Smith, 1968).

    After k doublings x holds the first 2^k terms of the series
    sum_j a^j c (b^T)^j, so once the spectral radii of a and b are below
    one the remainder shrinks quadratically.
    """
    same = b is a
    x = np.array(c, dtype=float)
    tol = np.finfo(float).eps
    for _ in range(_MAX_DOUBLINGS):
        step = a @ x @ b.T
        x += step
        if np.max(np.abs(step)) <= tol * np.max(np.abs(x)):
            return x
        a = a @ a
        b = a if same else b @ b
    raise InstabilityError("steady covariance did not converge")


def steady_state(model1: ComponentModel, model2: ComponentModel,
                 cfg: CombinerConfig) -> SteadyReport:
    """Closed-form limits of the coupled recursions.

    The means sit at m = bbar m - rbar and each centered factor solves
    p = b1 p b2^T + g on the factors.  Coefficient moments come from
    their stationary expressions with moments frozen at the limits.
    Raises InstabilityError when a component cannot converge.
    """
    _require_same_data(model1, model2)
    l = model1.filter_len
    for label, model in (("1", model1), ("2", model2)):
        rho = _spectral_radius(model.bbar)
        if rho >= 1.0:
            raise InstabilityError(
                f"component {label} mean recursion diverges: "
                f"spectral radius {rho:.6f} >= 1")

    b1, b2 = model1.bbar, model2.bbar
    m1 = _fixed_mean(model1)
    m2 = _fixed_mean(model2)
    p1 = _stein(b1, b1, model1.g)
    p2 = _stein(b2, b2, model2.g)
    p1 = 0.5 * (p1 + p1.T)
    p2 = 0.5 * (p2 + p2.T)
    px = _stein(b1, b2, cross_noise_moment(model1, model2))

    (t1, j1), (t2, j2), (tx, j12), (_, dj1), (_, dj2) = _readouts(
        _readout_weights(model1), m1, m2, p1, p2, px)
    gbar, g2bar, pbar = coefficient_steady(cfg, dj1, dj2, j2,
                                           model1.sigma_z2)

    gamma = np.repeat(gbar, l)
    bias = gamma * m1 + (1.0 - gamma) * m2
    bounds = stability_bounds(model1, model2, cfg, dj_sum=dj1 + dj2)

    return SteadyReport(
        m1=m1, m2=m2, p1=p1, p2=p2, px=px,
        gbar=gbar, g2bar=g2bar, pbar=pbar, bias=bias,
        emse1=j1, emse2=j2, emse12=j12,
        msd1=float(np.mean(t1)),
        msd2=float(np.mean(t2)),
        cross_msd=float(np.mean(tx)),
        combined_msd=_combined_from_traces(t1, t2, tx, gbar, g2bar),
        universality=universality_report(j1, j2, j12, dj1, dj2),
        bounds=bounds)


def mu_bounds(c, rx) -> np.ndarray:
    """Per-agent mean-stability limits 2 / lambda_max(sum_l c_lk R_{x,l}).

    The limit depends only on the data and the C matrix, so it holds for
    every fusion rule.
    """
    data = np.einsum("lk,lij->kij", np.asarray(c, dtype=float), rx)
    return 2.0 / np.linalg.eigvalsh(data)[:, -1]


def stability_bounds(model1: ComponentModel, model2: ComponentModel,
                     cfg: CombinerConfig, dj_sum=None) -> StabilityReport:
    """Step-size stability limits for the configured pair.

    dj_sum holds per-agent trajectories of the excess-error difference
    power (time on the leading axis, or a single row); its worst value
    sets the sign-regressor limits.  All bounds are open intervals, so a
    step-size equal to its bound is flagged as failing.
    """
    reports = []
    for model in (model1, model2):
        bound = mu_bounds(model.c, model.rx)
        reports.append((bound, (model.mu > 0) & (model.mu < bound)))
    (mu_bound1, mu_ok1), (mu_bound2, mu_ok2) = reports

    nu = np.broadcast_to(np.asarray(cfg.nu_gamma, dtype=float),
                         (model1.n_agents,))
    pn_mean_bound = 1.0 - cfg.eta
    pn_ms_bound = (1.0 - cfg.eta) / 3.0
    pn_mean_ok = (nu > 0) & (nu < pn_mean_bound)
    pn_ms_ok = (nu > 0) & (nu < pn_ms_bound)

    sr_mean_bound = sr_ms_bound = sr_mean_ok = sr_ms_ok = None
    if dj_sum is not None:
        worst = np.max(np.atleast_2d(np.asarray(dj_sum, dtype=float)), axis=0)
        worst = np.maximum(worst, DELTA_J_FLOOR)
        sr_mean_bound = np.sqrt(np.pi / (2.0 * worst))
        sr_ms_bound = np.sqrt(2.0 / (np.pi * worst))
        sr_mean_ok = (nu > 0) & (nu < sr_mean_bound)
        sr_ms_ok = (nu > 0) & (nu < sr_ms_bound)

    return StabilityReport(mu_bound1=mu_bound1, mu_bound2=mu_bound2,
                           mu_ok1=mu_ok1, mu_ok2=mu_ok2,
                           pn_mean_bound=pn_mean_bound, pn_ms_bound=pn_ms_bound,
                           pn_mean_ok=pn_mean_ok, pn_ms_ok=pn_ms_ok,
                           sr_mean_bound=sr_mean_bound, sr_ms_bound=sr_ms_bound,
                           sr_mean_ok=sr_mean_ok, sr_ms_ok=sr_ms_ok)


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

    regimes = []
    for k in range(j1.shape[0]):
        if degenerate[k]:
            regimes.append("indistinguishable")
        elif dj1[k] >= 0 and dj2[k] >= 0:
            regimes.append("interpolating")
        elif dj1[k] < 0:
            regimes.append("extrapolating_beyond_1")
        else:
            regimes.append("extrapolating_beyond_2")

    net1 = float(np.sum(j1))
    net2 = float(np.sum(j2))
    net_combined = float(np.sum(combined))
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
                              verdict=verdict, agent_regimes=tuple(regimes))
