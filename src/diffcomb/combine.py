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

from .signal import integer_value, require_number

SCHEMES = ("power_normalized", "sign_regressor", "multi_sign")


@dataclass(frozen=True)
class CombinerConfig:
    """Parameters of the combination layer.

    nu_gamma is the per-agent coefficient step-size (broadcast from a
    scalar; a sequence is stored as an array).  epsilon and eta belong to
    the power-normalized scheme; delta and nu_alpha to the multi scheme.
    A value that is not a number is refused by name.
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
        for name in ("nu_gamma", "epsilon", "eta", "delta", "nu_alpha"):
            if getattr(self, name) is not None:
                require_number(name, getattr(self, name))
        object.__setattr__(self, "m", integer_value("m", self.m, 2))
        if self.scheme != "multi_sign" and self.m != 2:
            raise ValueError("two-component schemes require m = 2")
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
    """Mix the component estimates, stacked on axis 0 as (M, ..., L, N):
    gamma w1 + (1 - gamma) w2, or the M-component sum for the multi
    scheme.  The mix is written into out when given (the harness passes
    the combination row of its estimate stack)."""
    if st.alpha is not None:
        return np.einsum("...ik,i...lk->...lk", st.gamma, estimates, out=out)
    g = st.gamma[..., None, :]
    mix = np.multiply(g, estimates[0], out=out)
    return np.add(mix, (1.0 - g) * estimates[1], out=mix)


def pn_update(
    cfg: CombinerConfig, st: CombinerState, e: np.ndarray, delta_y: np.ndarray
) -> CombinerState:
    """Power-normalized coefficient update.

    The power estimate moves first, then the coefficient:
    p <- eta p + (1 - eta) delta_y^2, gamma <- gamma +
    nu/(epsilon + p) e delta_y.
    """
    p_new = cfg.eta * st.p + (1.0 - cfg.eta) * delta_y**2
    gamma_new = st.gamma + cfg.nu_gamma / (cfg.epsilon + p_new) * e * delta_y
    return CombinerState(gamma=gamma_new, p=p_new)


def sr_update(
    cfg: CombinerConfig, st: CombinerState, e: np.ndarray, delta_y: np.ndarray
) -> CombinerState:
    """Sign-regressor coefficient update: gamma <- gamma +
    nu e sgn(delta_y), with sgn(0) = 0."""
    gamma_new = st.gamma + cfg.nu_gamma * e * np.sign(delta_y)
    return CombinerState(gamma=gamma_new)


def _denominator(cfg: CombinerConfig, alpha: np.ndarray):
    """sum(alpha) + M delta over the components, replaced by delta where
    it is not positive, and the count of replaced entries."""
    denom = alpha.sum(axis=-2, keepdims=True) + cfg.m * cfg.delta
    bad = denom <= 0
    return np.where(bad, cfg.delta, denom), int(np.count_nonzero(bad))


def _multi_mapping(cfg: CombinerConfig, alpha: np.ndarray):
    """Map scores to sum-one coefficients, (alpha + delta) / denominator;
    returns (gamma, clamped_count).  The affine constraint fails where
    the denominator is clamped."""
    denom, clamped = _denominator(cfg, alpha)
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
    if component_errors.shape[-2] != cfg.m:
        raise ValueError(f"expected {cfg.m} component error rows")
    nu = np.asarray(cfg.nu_alpha)
    denom, clamped = _denominator(cfg, st.alpha)
    arg = (e[..., None, :] - component_errors) / denom
    alpha_new = st.alpha + nu * e[..., None, :] * np.sign(arg)
    gamma_new, clamped_map = _multi_mapping(cfg, alpha_new)
    return CombinerState(
        gamma=gamma_new,
        alpha=alpha_new,
        degenerate_events=st.degenerate_events + clamped + clamped_map,
    )

