"""Deterministic moment evolution for a pair of combined diffusion strategies.

Under the usual independence assumptions for LMS analysis, the weight
errors v = w - w_opt of each component strategy obey linear recursions
in their first and second moments.  This module builds those recursions
from the network description, couples them to scalar recursions for the
per-agent mixing-coefficient moments, and assembles transient and
steady-state aggregates (per-component MSD, cross-MSD, combined MSD).

Block quantities live in R^{NL}: agent k owns the slice [kL, (k+1)L).
Means evolve as m' = bbar m - rbar; covariances follow a sandwich
recursion with additive noise and drift terms.

Every model matrix M of size NL x NL is stored as a factor F with
M = F kron I_{kron_len}.  When every regressor covariance is white
(sigma_k^2 I_L) the factors are N x N agent-level matrices and
kron_len = L, so a sandwich costs O(N (NL)^2) instead of O((NL)^3);
colored regressors (AR(1), general SPD covariances) give NL x NL factors
with kron_len = 1.  The step functions and the steady state run one
code path for both.  Steady covariances solve a Stein equation on the
factors by squared Smith doubling, so they cost O(N_f^3 log t) for
factors of size N_f.

The predictor covers static fusion matrices only; the data-driven A2
refresh rules have no closed-form moment description here.
"""

from __future__ import annotations

from dataclasses import dataclass, field

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

    m1/m2 are mean error vectors, om1/om2/omx the (cross-)covariances,
    gbar/g2bar the per-agent first and second moments of the mixing
    coefficient, pbar the per-agent smoothed difference power.
    """

    m1: np.ndarray
    m2: np.ndarray
    om1: np.ndarray
    om2: np.ndarray
    omx: np.ndarray
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
    """Closed-form steady state of the combined pair."""

    m1: np.ndarray
    m2: np.ndarray
    om1: np.ndarray
    om2: np.ndarray
    omx: np.ndarray
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


def _block_readout(weights: np.ndarray, om: np.ndarray) -> np.ndarray:
    """sum_ij weights[..., k, i, j] (Om_kk)_ji over the diagonal blocks.

    Each m x m weight block acts as weights[..., k, :, :] kron I, the
    identity sized to fill the agent's block, so only the entries of Om
    that it weights are read.
    """
    n, m = weights.shape[-3], weights.shape[-1]
    reps = om.shape[0] // (n * m)
    return np.einsum("...kij,kjtkit->...k", weights,
                     om.reshape(n, m, reps, n, m, reps))


def _block_traces(matrix: np.ndarray, n: int) -> np.ndarray:
    return _block_readout(np.ones((n, 1, 1)), matrix)


def _kron_apply(factor: np.ndarray, v: np.ndarray) -> np.ndarray:
    """(factor kron I) v for a block vector v."""
    return (factor @ v.reshape(factor.shape[0], -1)).reshape(-1)


def _kron_sandwich(left: np.ndarray, x: np.ndarray,
                   right: np.ndarray) -> np.ndarray:
    """(left kron I) x (right kron I)^T for a square matrix x."""
    n, nl = left.shape[0], x.shape[0]
    rows = (left @ x.reshape(n, -1)).reshape(nl, n, -1)
    return np.matmul(right, rows).reshape(nl, nl)


def _add_kron_identity(out: np.ndarray, factor: np.ndarray) -> None:
    """out += factor kron I in place, touching only the nonzero entries.

    out must be C-contiguous, so that the reshape below is a view.
    """
    n = factor.shape[0]
    l = out.shape[0] // n
    # einsum returns a writeable view of the diagonals of the L x L blocks
    diagonals = np.einsum("aibi->abi", out.reshape(n, l, n, l))
    diagonals += factor[:, :, None]


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
    build = _kron_model if np.array_equal(rx, rx[:, :1, :1] * np.eye(l)) \
        else _dense_model
    return build(n, l, cfg, rx, sigma_z2, w)


def _dense_model(n: int, l: int, cfg: StrategyConfig, rx: np.ndarray,
                 sigma_z2: np.ndarray, w: np.ndarray) -> ComponentModel:
    """Model with general regressor covariances, built on NL x NL blocks."""
    eye_l = np.eye(l)
    eye_nl = np.eye(n * l)
    c = np.array(cfg.c.entries, dtype=float)
    a1x = np.kron(np.array(cfg.a1.entries), eye_l)
    a2x = np.kron(np.array(cfg.a2.entries), eye_l)
    u = np.kron(np.diag(cfg.mu), eye_l)

    data_blocks = np.einsum("lk,lij->kij", c, rx)
    hbar = _block_diag(data_blocks)
    bbar = a2x.T @ (eye_nl - u @ hbar) @ a1x.T

    # drift: data sharing pulls each agent toward its neighbors' targets,
    # while combining leaks weight mass across heterogeneous targets
    diff = w[None, :, :] - w[:, None, :]
    hu = np.einsum("lk,lij,lkj->ki", c, rx, diff).reshape(-1)
    leak = a2x.T @ (eye_nl - u @ hbar) @ (a1x.T - eye_nl) + (a2x.T - eye_nl)
    rbar = a2x.T @ (u @ hu) - leak @ w.reshape(-1)

    f = np.kron(c, eye_l) @ u @ a2x
    q = _block_diag(sigma_z2[:, None, None] * rx)
    return ComponentModel(n_agents=n, filter_len=l, kron_len=1, bbar=bbar,
                          rbar=rbar, f=f, q=q, c=c, mu=np.array(cfg.mu),
                          rx=rx, sigma_z2=sigma_z2, w_star=w.reshape(-1))


def _kron_model(n: int, l: int, cfg: StrategyConfig, rx: np.ndarray,
                sigma_z2: np.ndarray, w: np.ndarray) -> ComponentModel:
    """Model with white regressors, built from N x N agent-level factors.

    The same formulas as _dense_model with every block matrix replaced by
    its agent-level factor.
    """
    eye_n = np.eye(n)
    c = np.array(cfg.c.entries, dtype=float)
    a1 = np.array(cfg.a1.entries, dtype=float)
    a2 = np.array(cfg.a2.entries, dtype=float)
    mu = np.array(cfg.mu, dtype=float)
    scale = rx[:, 0, 0]

    h = c.T @ scale
    damp = 1.0 - mu * h
    b = a2.T @ (damp[:, None] * a1.T)

    diff = w[None, :, :] - w[:, None, :]
    hu = np.einsum("lk,l,lkj->kj", c, scale, diff)
    leak = a2.T @ (damp[:, None] * (a1.T - eye_n)) + (a2.T - eye_n)
    rbar = (a2.T @ (mu[:, None] * hu) - leak @ w).reshape(-1)

    return ComponentModel(n_agents=n, filter_len=l, kron_len=l, bbar=b,
                          rbar=rbar, f=c @ (mu[:, None] * a2),
                          q=np.diag(sigma_z2 * scale), c=c, mu=mu, rx=rx,
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


def covariance_step(model: ComponentModel, m: np.ndarray, om: np.ndarray) -> np.ndarray:
    """One step of the error covariance recursion (result symmetrized)."""
    b, r = model.bbar, model.rbar
    bm = _kron_apply(b, m)
    # half of the update, drift folded into one rank-one term: adding
    # the transpose gives the symmetrized sandwich plus
    # r r^T - bm r^T - r bm^T; scaling b by 0.5 is exact
    half = _kron_sandwich(0.5 * b, om, b)
    half += (0.5 * r - bm)[:, None] @ r[None, :]
    out = half + half.T
    _add_kron_identity(out, model.g)
    return out


def cross_covariance_step(model1: ComponentModel, model2: ComponentModel,
                          m1: np.ndarray, m2: np.ndarray, omx: np.ndarray,
                          gx: np.ndarray | None = None) -> np.ndarray:
    """One step of the cross-covariance recursion E{v1 v2^T}.

    Pass a precomputed gx = cross_noise_moment(model1, model2) when
    iterating; it is rebuilt on every call otherwise.
    """
    if omx.shape != (model1.block_dim, model2.block_dim):
        raise ValueError("cross covariance has mismatched dimensions")
    if gx is None:
        gx = cross_noise_moment(model1, model2)
    r1, r2 = model1.rbar, model2.rbar
    bm1 = _kron_apply(model1.bbar, m1)
    bm2 = _kron_apply(model2.bbar, m2)
    # the drift goes into the sandwich result in place: with more large
    # temporaries alive at once the allocator returned their memory and
    # refaulted it on every step at NL=500
    out = _kron_sandwich(model1.bbar, omx, model2.bbar)
    # r1 r2^T - bm1 r2^T - r1 bm2^T as one rank-two product
    out += np.array([r1 - bm1, -r1]).T @ np.array([r2, bm2])
    _add_kron_identity(out, gx)
    return out


def emse_from_cov(om: np.ndarray, rx) -> np.ndarray:
    """Per-agent excess errors tr(R_{x,k} Om_kk) from the diagonal blocks."""
    return _block_readout(np.asarray(rx, dtype=float), om)


def _nu_values(cfg: CombinerConfig, n: int) -> np.ndarray:
    return np.broadcast_to(np.asarray(cfg.nu_gamma, dtype=float), (n,))


def _per_agent(*values):
    return tuple(np.asarray(v, dtype=float) for v in values)


def _require_scheme(cfg: CombinerConfig, scheme: str) -> None:
    if cfg.scheme != scheme:
        raise ValueError(f"recursion applies to the {scheme!r} scheme, "
                         f"got {cfg.scheme!r}")


def gamma_mean_step_pn(cfg: CombinerConfig, gbar, pbar_prev, dj1, dj2):
    """Advance the power-normalized coefficient mean by one step.

    Returns (next mean, updated power); the power is refreshed first and
    divides the raw step-size, mirroring the stochastic update.
    """
    _require_scheme(cfg, "power_normalized")
    gbar, pbar_prev, dj1, dj2 = _per_agent(gbar, pbar_prev, dj1, dj2)
    s = dj1 + dj2
    pbar = cfg.eta * pbar_prev + (1.0 - cfg.eta) * s
    nu = _nu_values(cfg, np.shape(gbar)[0]) / (cfg.epsilon + pbar)
    return gbar * (1.0 - nu * s) + nu * dj2, pbar


def gamma_ms_step_pn(cfg: CombinerConfig, gbar, g2bar, pbar, dj1, dj2, j2, sigma_z2):
    """Advance the power-normalized coefficient second moment by one step.

    pbar must be the value already refreshed by gamma_mean_step_pn for
    the same instant.  The squared normalized step-size is approximated
    by the square of its mean.
    """
    _require_scheme(cfg, "power_normalized")
    gbar, g2bar, pbar, dj1, dj2, j2, sigma_z2 = _per_agent(
        gbar, g2bar, pbar, dj1, dj2, j2, sigma_z2
    )
    s = dj1 + dj2
    nu = _nu_values(cfg, np.shape(gbar)[0]) / (cfg.epsilon + pbar)
    nu2 = nu * nu
    quad = g2bar * (1.0 + 3.0 * nu2 * s * s - 2.0 * nu * s)
    drive = nu2 * j2 * s + 2.0 * nu2 * dj2 * dj2
    noise = sigma_z2 * nu2 * s
    cross = gbar * (nu * dj2 - 3.0 * nu2 * s * dj2)
    return quad + drive + noise + 2.0 * cross


def gamma_mean_step_sr(cfg: CombinerConfig, gbar, dj1, dj2):
    """Advance the sign-regressor coefficient mean by one step.

    The rectified moments of the Gaussian error difference give the
    sqrt(2 S / pi) contraction; S is floored at DELTA_J_FLOOR so that
    indistinguishable components leave the coefficient frozen.
    """
    _require_scheme(cfg, "sign_regressor")
    gbar, dj1, dj2 = _per_agent(gbar, dj1, dj2)
    s = np.maximum(dj1 + dj2, DELTA_J_FLOOR)
    nu = _nu_values(cfg, np.shape(gbar)[0])
    rate = nu * np.sqrt(2.0 * s / np.pi)
    return gbar * (1.0 - rate) + nu * np.sqrt(2.0 / np.pi) * dj2 / np.sqrt(s)


def gamma_ms_step_sr(cfg: CombinerConfig, gbar, g2bar, dj1, dj2, j2, sigma_z2):
    """Advance the sign-regressor coefficient second moment by one step."""
    _require_scheme(cfg, "sign_regressor")
    gbar, g2bar, dj1, dj2, j2, sigma_z2 = _per_agent(
        gbar, g2bar, dj1, dj2, j2, sigma_z2
    )
    s = np.maximum(dj1 + dj2, DELTA_J_FLOOR)
    nu = _nu_values(cfg, np.shape(gbar)[0])
    nu2 = nu * nu
    quad = g2bar * (1.0 + nu2 * s - 2.0 * nu * np.sqrt(2.0 * s / np.pi))
    cross = gbar * (np.sqrt(2.0 / np.pi) * nu * dj2 / np.sqrt(s) - nu2 * dj2)
    return quad + nu2 * j2 + nu2 * sigma_z2 + 2.0 * cross


def gamma_steady_pn(cfg: CombinerConfig, dj1, dj2, j2, sigma_z2):
    """Closed-form stationary coefficient moments, power-normalized scheme.

    Returns (mean, second moment, power).  Where the difference power is
    degenerate the coefficient never moves, so the initialization moments
    (1/2, 1/4) are reported.
    """
    _require_scheme(cfg, "power_normalized")
    dj1, dj2, j2, sigma_z2 = _per_agent(dj1, dj2, j2, sigma_z2)
    degenerate = dj1 + dj2 <= DELTA_J_FLOOR
    s = np.maximum(dj1 + dj2, DELTA_J_FLOOR)
    nu = _nu_values(cfg, s.shape[0]) / (cfg.epsilon + s)
    gbar = np.where(degenerate, 0.5, dj2 / s)
    num = nu * (j2 + sigma_z2) * s + 2.0 * nu * dj2 ** 2 \
        + 2.0 * gbar * (dj2 - 3.0 * nu * dj2 * s)
    den = 2.0 * s - 3.0 * nu * s * s
    g2bar = np.where(degenerate, 0.25, num / den)
    return gbar, g2bar, np.where(degenerate, 0.0, s)


def gamma_steady_sr(cfg: CombinerConfig, dj1, dj2, j2, sigma_z2):
    """Closed-form stationary coefficient moments, sign-regressor scheme."""
    _require_scheme(cfg, "sign_regressor")
    dj1, dj2, j2, sigma_z2 = _per_agent(dj1, dj2, j2, sigma_z2)
    degenerate = dj1 + dj2 <= DELTA_J_FLOOR
    s = np.maximum(dj1 + dj2, DELTA_J_FLOOR)
    nu = _nu_values(cfg, s.shape[0])
    gbar = np.where(degenerate, 0.5, dj2 / s)
    num = nu * (j2 + sigma_z2) \
        + 2.0 * gbar * (dj2 * np.sqrt(2.0 / (np.pi * s)) - nu * dj2)
    den = np.sqrt(8.0 * s / np.pi) - nu * s
    g2bar = np.where(degenerate, 0.25, num / den)
    return gbar, g2bar


def combined_msd(state: MomentState, weight=None) -> float:
    """Network deviation of the combined estimates at the state's instant.

    Expands E{||Gamma v1 + (I - Gamma) v2||^2} with per-agent coefficient
    moments; the default weighting averages agents (1/N each).
    """
    n = state.gbar.shape[0]
    traces = [_block_traces(om, n) for om in (state.om1, state.om2, state.omx)]
    return _combined_from_traces(*traces, state.gbar, state.g2bar, weight)


def _combined_from_traces(t1, t2, tx, gbar, g2bar, weight=None) -> float:
    n = gbar.shape[0]
    w = np.full(n, 1.0 / n) if weight is None else \
        np.broadcast_to(np.asarray(weight, dtype=float), (n,))
    per_agent = (g2bar * t1 + (1.0 - 2.0 * gbar + g2bar) * t2
                 + 2.0 * (gbar - g2bar) * tx)
    return float(np.sum(w * per_agent))


def initial_moments(model1: ComponentModel, model2: ComponentModel,
                    gamma0: float = 0.5) -> MomentState:
    """Moment state for all-zero initial estimates and gamma = gamma0."""
    _require_same_data(model1, model2)
    n = model1.n_agents
    w = model1.w_star
    outer = np.outer(w, w)
    return MomentState(m1=-w.copy(), m2=-w.copy(),
                       om1=outer.copy(), om2=outer.copy(), omx=outer.copy(),
                       gbar=np.full(n, float(gamma0)),
                       g2bar=np.full(n, float(gamma0) ** 2),
                       pbar=np.zeros(n))


def shift_targets(state: MomentState, delta: np.ndarray) -> MomentState:
    """Re-express a moment state against a new stationary target.

    delta is old target minus new target, flattened.  Error vectors all
    shift deterministically by delta, so means translate and covariances
    gain the corresponding rank-one corrections.  Coefficient moments
    are unaffected.
    """
    delta = np.asarray(delta, dtype=float)
    dd = np.outer(delta, delta)
    om1 = state.om1 + np.outer(state.m1, delta) + np.outer(delta, state.m1) + dd
    om2 = state.om2 + np.outer(state.m2, delta) + np.outer(delta, state.m2) + dd
    omx = state.omx + np.outer(state.m1, delta) + np.outer(delta, state.m2) + dd
    return MomentState(m1=state.m1 + delta, m2=state.m2 + delta,
                       om1=om1, om2=om2, omx=omx,
                       gbar=state.gbar.copy(), g2bar=state.g2bar.copy(),
                       pbar=state.pbar.copy())


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
    if cfg.scheme not in ("power_normalized", "sign_regressor"):
        raise ValueError("moment recursions cover the two-component schemes only")
    if state is None:
        state = initial_moments(model1, model2)
    n, l = model1.n_agents, model1.filter_len
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

    # one pass over the diagonal blocks gives their traces (row 0, the
    # deviations after a step) and excess errors (row 1, which drive the
    # next step); rx[k] is rx[k, :m, :m] kron I_kron_len
    m = l // model1.kron_len
    weights = np.stack([np.broadcast_to(np.eye(m), (n, m, m)),
                        model1.rx[:, :m, :m]])
    readouts = [_block_readout(weights, om)
                for om in (state.om1, state.om2, state.omx)]
    for t in range(n_steps):
        (_, j1), (_, j2), (_, j12) = readouts
        dj1 = j1 - j12
        dj2 = j2 - j12
        degenerate += int(np.count_nonzero(dj1 + dj2 <= DELTA_J_FLOOR))

        if cfg.scheme == "power_normalized":
            gbar_next, pbar_next = gamma_mean_step_pn(
                cfg, state.gbar, state.pbar, dj1, dj2)
            g2_next = gamma_ms_step_pn(
                cfg, state.gbar, state.g2bar, pbar_next, dj1, dj2, j2, sigma_z2)
        else:
            gbar_next = gamma_mean_step_sr(cfg, state.gbar, dj1, dj2)
            g2_next = gamma_ms_step_sr(
                cfg, state.gbar, state.g2bar, dj1, dj2, j2, sigma_z2)
            pbar_next = state.pbar

        state = MomentState(
            m1=mean_step(model1, state.m1),
            m2=mean_step(model2, state.m2),
            om1=covariance_step(model1, state.m1, state.om1),
            om2=covariance_step(model2, state.m2, state.om2),
            omx=cross_covariance_step(model1, model2, state.m1, state.m2,
                                      state.omx, gx=gx),
            gbar=gbar_next, g2bar=g2_next, pbar=pbar_next)
        readouts = [_block_readout(weights, om)
                    for om in (state.om1, state.om2, state.omx)]
        traces = [readout[0] for readout in readouts]

        emse1[t] = j1
        emse2[t] = j2
        emse12[t] = j12
        gbar[t] = state.gbar
        g2bar[t] = state.g2bar
        pbar[t] = state.pbar
        msd1[t] = np.mean(traces[0])
        msd2[t] = np.mean(traces[1])
        cross[t] = np.mean(traces[2])
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


def _steady_cov(m1: np.ndarray, m2: np.ndarray, p: np.ndarray) -> np.ndarray:
    """E{v1 v2^T} = p kron I + m1 m2^T from the centered factor p."""
    out = np.outer(m1, m2)
    _add_kron_identity(out, p)
    return out


def steady_state(model1: ComponentModel, model2: ComponentModel,
                 cfg: CombinerConfig) -> SteadyReport:
    """Closed-form limits of the coupled recursions.

    At the fixed means m = bbar m - rbar the drift terms of the
    covariance recursions cancel, so each centered covariance
    Om - m1 m2^T is p kron I with p = b1 p b2^T + g solved on the
    factors.  Coefficient moments come from their stationary expressions
    with moments frozen at the limits.  Raises InstabilityError when a
    component cannot converge.
    """
    _require_same_data(model1, model2)
    n, l = model1.n_agents, model1.filter_len
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
    om1 = _steady_cov(m1, m1, 0.5 * (p1 + p1.T))
    om2 = _steady_cov(m2, m2, 0.5 * (p2 + p2.T))
    omx = _steady_cov(m1, m2, _stein(b1, b2, cross_noise_moment(model1, model2)))

    j1 = emse_from_cov(om1, model1.rx)
    j2 = emse_from_cov(om2, model1.rx)
    j12 = emse_from_cov(omx, model1.rx)
    dj1 = j1 - j12
    dj2 = j2 - j12
    sigma_z2 = model1.sigma_z2

    if cfg.scheme == "power_normalized":
        gbar, g2bar, pbar = gamma_steady_pn(cfg, dj1, dj2, j2, sigma_z2)
    elif cfg.scheme == "sign_regressor":
        gbar, g2bar = gamma_steady_sr(cfg, dj1, dj2, j2, sigma_z2)
        pbar = np.zeros(n)
    else:
        raise ValueError("steady state covers the two-component schemes only")

    gamma = np.repeat(gbar, l)
    bias = gamma * m1 + (1.0 - gamma) * m2
    traces = [_block_traces(om, n) for om in (om1, om2, omx)]
    bounds = stability_bounds(model1, model2, cfg, dj_sum=dj1 + dj2)

    return SteadyReport(
        m1=m1, m2=m2, om1=om1, om2=om2, omx=omx,
        gbar=gbar, g2bar=g2bar, pbar=pbar, bias=bias,
        emse1=j1, emse2=j2, emse12=j12,
        msd1=float(np.mean(traces[0])),
        msd2=float(np.mean(traces[1])),
        cross_msd=float(np.mean(traces[2])),
        combined_msd=_combined_from_traces(*traces, gbar, g2bar),
        universality=universality_report(j1, j2, j12), bounds=bounds)


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

    n = model1.n_agents
    nu = _nu_values(cfg, n)
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


def universality_report(j1, j2, j12) -> UniversalityReport:
    """Compare the stationary combined excess error to both components.

    With the stationary coefficient, each agent's combined excess error
    is j12 + dj1 dj2 / (dj1 + dj2); agents whose difference power is
    degenerate contribute their (identical) component value.  The margin
    is the network gap min(component sums) - combined sum.
    """
    j1 = np.asarray(j1, dtype=float)
    j2 = np.asarray(j2, dtype=float)
    j12 = np.asarray(j12, dtype=float)
    if np.any(np.abs(j12) > np.sqrt(j1 * j2) + 1e-9):
        raise ValueError("cross excess error violates the Cauchy-Schwarz bound")
    dj1 = j1 - j12
    dj2 = j2 - j12
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
