"""One-step evolution of diffusion LMS strategies over a network.

Each agent k holds an estimate w_k and repeats three stages per instant:
neighborhood pre-combination (through A1), an LMS adaptation driven by
shared data (through C), and neighborhood post-combination (through A2).
A1 = I gives adapt-then-combine, A2 = I gives combine-then-adapt.  A2
may also be refreshed every step by one of two data-driven rules.
Whether A1 and C are the identity is decided once, when the
configuration is built; a step then skips the pre-combination and uses
each agent's own datum without testing the matrices again.

All state arrays carry an arbitrary leading batch shape (used by the
harness to advance a block of Monte Carlo runs at once); agents occupy
axis -2 and taps axis -1.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .graph import StochasticMatrix, Topology, static_rule, validate_stochastic
from .signal import SampleBatch

DISTANCE_FLOOR = 1e-12

A2_MODES = ("static", "adaptive_projection", "adaptive_relative_variance")


@dataclass(frozen=True)
class StrategyConfig:
    """Configuration of one component diffusion strategy.

    ``a2`` is required in static mode and ignored otherwise; ``tau``
    holds the per-agent forgetting factors of the relative-variance
    rule.  ``mu`` broadcasts a scalar step-size across agents.
    ``a1_identity`` and ``c_identity`` are derived from the matrices.
    """

    topology: Topology
    a1: StochasticMatrix
    c: StochasticMatrix
    mu: np.ndarray
    a2: StochasticMatrix | None = None
    a2_mode: str = "static"
    tau: np.ndarray | None = None
    a1_identity: bool = field(init=False)
    c_identity: bool = field(init=False)

    def __post_init__(self):
        n = self.topology.n_agents
        if self.a2_mode not in A2_MODES:
            raise ValueError(f"unknown a2_mode {self.a2_mode!r}")
        for matrix, role in ((self.a1, "left"), (self.c, "right")):
            if matrix.role != role:
                raise ValueError(f"matrix role must be {role!r}, got {matrix.role!r}")
            if not validate_stochastic(matrix, self.topology).ok:
                raise ValueError(f"{role}-stochastic matrix fails validation")
        if self.a2_mode == "static":
            if self.a2 is None:
                raise ValueError("static a2_mode requires an a2 matrix")
            if self.a2.role != "left" or not validate_stochastic(self.a2, self.topology).ok:
                raise ValueError("a2 must be a valid left-stochastic matrix")
        mu = np.broadcast_to(np.asarray(self.mu, dtype=float), (n,)).copy()
        if np.any(mu < 0):
            raise ValueError("step-sizes must be nonnegative")
        mu.setflags(write=False)
        object.__setattr__(self, "mu", mu)
        if self.a2_mode == "adaptive_relative_variance":
            if self.tau is None:
                raise ValueError("adaptive_relative_variance requires tau")
            tau = np.broadcast_to(np.asarray(self.tau, dtype=float), (n,)).copy()
            if np.any((tau <= 0) | (tau >= 1)):
                raise ValueError("forgetting factors must lie in (0, 1)")
            tau.setflags(write=False)
            object.__setattr__(self, "tau", tau)
        eye = np.eye(n)
        object.__setattr__(self, "a1_identity", np.array_equal(self.a1.entries, eye))
        object.__setattr__(self, "c_identity", np.array_equal(self.c.entries, eye))

    @property
    def n_agents(self) -> int:
        return self.topology.n_agents


@dataclass
class StrategyState:
    """Evolving quantities of one strategy: estimates and the effective
    A2 (per batch entry when adaptive)."""

    w: np.ndarray
    a2: np.ndarray
    zeta2: np.ndarray | None = None


@dataclass(frozen=True)
class ErrorReport:
    """Per-agent filter output y, error e = d - y, and a priori error
    e_tilde = x'(w* - w), read as e - noise since d = x'w* + noise."""

    y: np.ndarray
    e: np.ndarray
    e_tilde: np.ndarray


def init_state(cfg: StrategyConfig, filter_len: int, batch_shape=()) -> StrategyState:
    """Fresh state: zero estimates; adaptive modes start from uniform
    averaging weights and unit distance estimates."""
    n = cfg.n_agents
    shape = tuple(batch_shape) + (n, filter_len)
    if cfg.a2_mode == "static":
        a2 = cfg.a2.entries.copy()
        zeta2 = None
    else:
        averaging = static_rule(cfg.topology, "averaging").entries
        a2 = np.broadcast_to(averaging, tuple(batch_shape) + (n, n)).copy()
        zeta2 = (
            np.ones(tuple(batch_shape) + (n, n))
            if cfg.a2_mode == "adaptive_relative_variance"
            else None
        )
    return StrategyState(w=np.zeros(shape), a2=a2, zeta2=zeta2)


def errors_and_outputs(w: np.ndarray, batch: SampleBatch) -> ErrorReport:
    """Outputs and errors of estimates w (..., N, L) against a batch."""
    x = batch.regressors
    y = np.einsum("...kl,...kl->...k", x, w)
    e = batch.references - y
    return ErrorReport(y=y, e=e, e_tilde=e - batch.noises)


def adapt_matrix_projection(
    topology: Topology,
    psi: np.ndarray,
    batch: SampleBatch,
    mu: np.ndarray,
    floor: float = DISTANCE_FLOOR,
) -> np.ndarray:
    """Projection-based refresh of A2 from the freshly adapted psi.

    Each agent k forms the one-step-ahead point psi_k + mu_k q_k, with
    q_k the instantaneous LMS direction evaluated at psi_k, and weights
    neighbors by inverse squared distance to that point.
    """
    x, d = batch.regressors, batch.references
    eps = d - np.einsum("...kl,...kl->...k", x, psi)
    ref = psi + mu[:, None] * eps[..., None] * x
    diff = psi[..., :, None, :] - ref[..., None, :, :]
    dist2 = np.einsum("...lkd,...lkd->...lk", diff, diff)
    inv = np.where(topology.adjacency, 1.0 / np.maximum(dist2, floor), 0.0)
    return inv / inv.sum(axis=-2, keepdims=True)


def adapt_matrix_relative_variance(
    topology: Topology,
    psi: np.ndarray,
    w_prev: np.ndarray,
    zeta2: np.ndarray,
    tau: np.ndarray,
    floor: float = DISTANCE_FLOOR,
):
    """Relative-variance refresh of A2.

    Tracks smoothed squared distances zeta2[l, k] between neighbor
    estimates psi_l and agent k's previous combined estimate, then
    weights by inverse zeta2.  Returns (a2, new_zeta2).
    """
    diff = psi[..., :, None, :] - w_prev[..., None, :, :]
    dist2 = np.einsum("...lkd,...lkd->...lk", diff, diff)
    zeta2_new = (1.0 - tau[None, :]) * zeta2 + tau[None, :] * dist2
    inv = np.where(topology.adjacency, 1.0 / np.maximum(zeta2_new, floor), 0.0)
    return inv / inv.sum(axis=-2, keepdims=True), zeta2_new


def step(cfg: StrategyConfig, st: StrategyState, batch: SampleBatch) -> StrategyState:
    """Advance one instant: pre-combine, adapt, (refresh A2), combine."""
    x, d = batch.regressors, batch.references
    if x.shape[-2:] != st.w.shape[-2:]:
        raise ValueError(
            f"batch shape {x.shape} does not match state {st.w.shape}"
        )
    phi = st.w if cfg.a1_identity else cfg.a1.entries.T @ st.w

    mu_col = cfg.mu[:, None]
    if cfg.c_identity:
        err = d - np.einsum("...kl,...kl->...k", x, phi)
        psi = phi + mu_col * err[..., None] * x
    else:
        # cross[l, k] = d_l - x_l' phi_k, weighted by c_lk and summed over l
        cross = d[..., :, None] - x @ np.swapaxes(phi, -1, -2)
        psi = phi + mu_col * (np.swapaxes(cfg.c.entries * cross, -1, -2) @ x)

    zeta2 = st.zeta2
    if cfg.a2_mode == "adaptive_projection":
        a2 = adapt_matrix_projection(cfg.topology, psi, batch, cfg.mu)
    elif cfg.a2_mode == "adaptive_relative_variance":
        a2, zeta2 = adapt_matrix_relative_variance(
            cfg.topology, psi, st.w, st.zeta2, cfg.tau
        )
    else:
        a2 = st.a2

    w = np.swapaxes(a2, -1, -2) @ psi
    return StrategyState(w=w, a2=a2, zeta2=zeta2)

