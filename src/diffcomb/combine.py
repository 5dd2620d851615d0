"""Affine combination of component strategies.

Each agent mixes the estimates of M running component strategies with
coefficients that sum to one but are otherwise unconstrained.  For M = 2
the single coefficient gamma weights component 1 and is adapted by a
stochastic gradient on the combined error, either normalized by a
low-pass power estimate of the component output difference or driven by
its sign only.  For M >= 2 unconstrained scores alpha are adapted and
mapped to coefficients through a sum-one transform.

The combiner is an observer: it never writes back into the component
strategies.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

SCHEMES = ("power_normalized", "sign_regressor", "multi_sign")


@dataclass(frozen=True)
class CombinerConfig:
    """Parameters of the combination layer.

    nu_gamma is the per-agent coefficient step-size (broadcast from a
    scalar; a sequence is stored as an array).  epsilon and eta belong to
    the power-normalized scheme; delta and nu_alpha to the multi scheme.
    """

    scheme: str
    nu_gamma: np.ndarray | float = 0.01
    epsilon: float = 0.05
    eta: float = 0.95
    delta: float = 0.01
    nu_alpha: np.ndarray | float | None = None
    m: int = 2

    def __post_init__(self):
        if self.scheme not in SCHEMES:
            raise ValueError(f"unknown scheme {self.scheme!r}")
        if self.scheme != "multi_sign" and self.m != 2:
            raise ValueError("two-component schemes require m = 2")
        if self.m < 2:
            raise ValueError("need at least two component strategies")
        if np.ndim(self.nu_gamma):
            object.__setattr__(self, "nu_gamma",
                               np.asarray(self.nu_gamma, dtype=float))
        if np.any(np.asarray(self.nu_gamma) < 0):
            raise ValueError("nu_gamma must be nonnegative")
        if self.scheme == "power_normalized":
            if self.epsilon <= 0:
                raise ValueError("epsilon must be positive")
            if not 0 < self.eta < 1:
                raise ValueError("eta must lie in (0, 1)")
        if self.scheme == "multi_sign":
            if self.delta <= 0:
                raise ValueError("delta must be positive")
            if self.nu_alpha is None or np.any(np.asarray(self.nu_alpha) < 0):
                raise ValueError("multi scheme requires nonnegative nu_alpha")


@dataclass
class CombinerState:
    """Coefficients of the combination layer.

    Two-component schemes use ``gamma`` with shape (..., N) (weight of
    component 1) and, for the power-normalized scheme, the smoothed
    power ``p``.  The multi scheme keeps scores ``alpha`` and mapped
    coefficients ``gamma`` with shape (..., M, N).
    ``degenerate_events`` counts clamped nonpositive denominators in the
    multi mapping.
    """

    gamma: np.ndarray
    p: np.ndarray | None = None
    alpha: np.ndarray | None = None
    degenerate_events: int = 0


def init_combiner(cfg: CombinerConfig, n_agents: int, batch_shape=()) -> CombinerState:
    """Neutral start: equal weight on every component, zero power."""
    shape = tuple(batch_shape) + (n_agents,)
    if cfg.scheme == "multi_sign":
        alpha = np.full(tuple(batch_shape) + (cfg.m, n_agents), 1.0 / cfg.m)
        gamma, _ = _multi_mapping(cfg, alpha)
        return CombinerState(gamma=gamma, alpha=alpha)
    state = CombinerState(gamma=np.full(shape, 0.5))
    if cfg.scheme == "power_normalized":
        state.p = np.zeros(shape)
    return state


def combine_weights(st: CombinerState, estimates, out=None) -> np.ndarray:
    """Mix the component estimates, stacked on axis 0 as (M, ..., N, L):
    gamma w1 + (1 - gamma) w2, or the M-component sum for the multi
    scheme.  The mix is written into out when given (the harness passes
    the combination row of its estimate stack)."""
    if st.alpha is not None:
        return np.einsum("...ik,i...kl->...kl", st.gamma, estimates, out=out)
    g = st.gamma[..., None]
    return np.add(g * estimates[0], (1.0 - g) * estimates[1], out=out)


def pn_update(
    cfg: CombinerConfig, st: CombinerState, e: np.ndarray, delta_y: np.ndarray
) -> CombinerState:
    """Power-normalized coefficient update.

    The power estimate moves first, then the coefficient:
    p <- eta p + (1 - eta) delta_y^2, gamma <- gamma +
    nu/(epsilon + p) e delta_y.
    """
    if cfg.scheme != "power_normalized":
        raise ValueError("combiner is not configured as power_normalized")
    p_new = cfg.eta * st.p + (1.0 - cfg.eta) * delta_y**2
    gamma_new = st.gamma + cfg.nu_gamma / (cfg.epsilon + p_new) * e * delta_y
    return CombinerState(gamma=gamma_new, p=p_new)


def sr_update(
    cfg: CombinerConfig, st: CombinerState, e: np.ndarray, delta_y: np.ndarray
) -> CombinerState:
    """Sign-regressor coefficient update: gamma <- gamma +
    nu e sgn(delta_y), with sgn(0) = 0."""
    if cfg.scheme != "sign_regressor":
        raise ValueError("combiner is not configured as sign_regressor")
    gamma_new = st.gamma + cfg.nu_gamma * e * np.sign(delta_y)
    return CombinerState(gamma=gamma_new)


def _multi_mapping(cfg: CombinerConfig, alpha: np.ndarray):
    """Map scores to sum-one coefficients; clamp nonpositive denominators.

    Returns (gamma, clamped_count).  The denominator sum(alpha) + M delta
    is replaced by delta wherever it is not positive; those entries are
    counted and the affine constraint does not hold there.
    """
    denom = alpha.sum(axis=-2, keepdims=True) + cfg.m * cfg.delta
    bad = denom <= 0
    clamped = int(np.count_nonzero(bad))
    denom = np.where(bad, cfg.delta, denom)
    return (alpha + cfg.delta) / denom, clamped


def multi_update(
    cfg: CombinerConfig,
    st: CombinerState,
    e: np.ndarray,
    component_errors: np.ndarray,
) -> CombinerState:
    """Sign-driven score update for M components.

    component_errors has shape (..., M, N).  Scores move along
    nu_alpha e sgn((e - e_i)/denominator) and are re-mapped to
    coefficients afterwards.
    """
    if cfg.scheme != "multi_sign":
        raise ValueError("combiner is not configured as multi_sign")
    if component_errors.shape[-2] != cfg.m:
        raise ValueError(f"expected {cfg.m} component error rows")
    nu = np.asarray(cfg.nu_alpha)
    denom = st.alpha.sum(axis=-2, keepdims=True) + cfg.m * cfg.delta
    bad = denom <= 0
    clamped = int(np.count_nonzero(bad))
    denom = np.where(bad, cfg.delta, denom)
    arg = (e[..., None, :] - component_errors) / denom
    alpha_new = st.alpha + nu * e[..., None, :] * np.sign(arg)
    gamma_new, clamped_map = _multi_mapping(cfg, alpha_new)
    return CombinerState(
        gamma=gamma_new,
        alpha=alpha_new,
        degenerate_events=st.degenerate_events + clamped + clamped_map,
    )


def optimal_gamma(j1: float, j2: float, j12: float, tol: float = 1e-12) -> float:
    """Minimizer of the combined quadratic error surface.

    For component error powers j1, j2 and cross power j12 the combined
    second moment is gamma^2 j1 + (1-gamma)^2 j2 + 2 gamma (1-gamma) j12,
    minimized at (j2 - j12) / (j1 + j2 - 2 j12).  When the denominator
    falls below tol the components are statistically identical, every
    gamma performs equally, and NaN is returned to mark the degeneracy.
    """
    denom = j1 + j2 - 2.0 * j12
    if denom <= tol:
        return float("nan")
    return (j2 - j12) / denom
