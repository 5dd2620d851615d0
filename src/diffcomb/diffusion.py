"""One-step evolution of diffusion LMS strategies over a network.

Each agent k holds an estimate w_k and repeats three stages per instant:
neighborhood pre-combination (through A1), an LMS adaptation driven by
shared data (through C), and neighborhood post-combination (through A2).
A1 = I gives adapt-then-combine, A2 = I gives combine-then-adapt.  A2
may also be refreshed every step by one of two data-driven rules.

The M component strategies of an experiment advance together: a
``StrategyStack``, built once from their configurations, holds the
step-sizes as (M, N, 1) and the matrices as (M, N, N), and decides once
whether A1 and C are the identity for every component.  A step then
skips the pre-combination, and reuses the output errors the caller
already formed, without testing the matrices again.  A single strategy
is a stack of one.

State arrays are (M, ..., N, L): the component axis first, then an
arbitrary batch shape (used by the harness to advance a block of Monte
Carlo runs at once), agents on axis -2 and taps on axis -1.
"""

from __future__ import annotations

from dataclasses import dataclass

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
    """

    topology: Topology
    a1: StochasticMatrix
    c: StochasticMatrix
    mu: np.ndarray
    a2: StochasticMatrix | None = None
    a2_mode: str = "static"
    tau: np.ndarray | None = None

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

    @property
    def n_agents(self) -> int:
        return self.topology.n_agents


@dataclass(frozen=True)
class StrategyStack:
    """The M component strategies of an experiment, advanced as one.

    ``mu`` is (M, N, 1); ``a1`` and ``c`` are (M, N, N), or None when the
    matrix is the identity for every component; ``a2`` (M, N, N) holds
    each static A2, or the averaging start of an adaptive one, whose
    index is listed in ``adaptive``.
    """

    components: tuple
    mu: np.ndarray
    a1: np.ndarray | None
    c: np.ndarray | None
    a2: np.ndarray
    adaptive: tuple

    @classmethod
    def of(cls, components) -> StrategyStack:
        """Stack the configurations of strategies on one network."""
        comps = tuple(components)
        eye = np.eye(comps[0].n_agents)

        def stacked(role):
            entries = np.stack([getattr(c, role).entries for c in comps])
            return None if (entries == eye).all() else entries

        a2 = [c.a2.entries if c.a2_mode == "static"
              else static_rule(c.topology, "averaging").entries for c in comps]
        return cls(comps, np.stack([c.mu for c in comps])[:, :, None],
                   stacked("a1"), stacked("c"), np.stack(a2),
                   tuple(i for i, c in enumerate(comps) if c.a2_mode != "static"))


@dataclass
class StrategyState:
    """Evolving quantities of a stack: estimates w (M, ..., N, L), the
    effective A2 (M, ..., N, N) (singleton batch axes when every
    component is static) and the relative-variance distances zeta2."""

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


def _lift(stacked: np.ndarray, batch_ndim: int) -> np.ndarray:
    """View a per-component (M, N, .) array with singleton batch axes."""
    return stacked.reshape(stacked.shape[:1] + (1,) * batch_ndim
                           + stacked.shape[1:])


def init_state(stack: StrategyStack, filter_len: int, batch_shape=()) -> StrategyState:
    """Fresh state: zero estimates; adaptive components start from uniform
    averaging weights and unit distance estimates."""
    m, n = stack.a2.shape[:2]
    batch_shape = tuple(batch_shape)
    a2 = _lift(stack.a2, len(batch_shape))
    if stack.adaptive:
        a2 = np.broadcast_to(a2, (m,) + batch_shape + (n, n)).copy()
    relative = any(c.a2_mode == "adaptive_relative_variance"
                   for c in stack.components)
    return StrategyState(w=np.zeros((m,) + batch_shape + (n, filter_len)),
                         a2=a2, zeta2=np.ones_like(a2) if relative else None)


def errors_and_outputs(w: np.ndarray, batch: SampleBatch) -> ErrorReport:
    """Outputs and errors of estimates w (..., N, L) against a batch; any
    leading axes of w beyond the batch's (a stack of estimates) carry
    through to the outputs."""
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


def step(stack: StrategyStack, st: StrategyState, batch: SampleBatch,
         e: np.ndarray | None = None) -> StrategyState:
    """Advance every component one instant: pre-combine, adapt, (refresh
    A2), combine.

    e, when given, holds the components' output errors d - x'w (M, ...,
    N) from errors_and_outputs.  With A1 = C = I for every component they
    are the errors the adaptation needs, so x'w is not formed again;
    otherwise e is not read.
    """
    x, d = batch.regressors, batch.references
    if x.shape[-2:] != st.w.shape[-2:]:
        raise ValueError(
            f"batch shape {x.shape} does not match state {st.w.shape}"
        )
    nb = st.w.ndim - 3
    phi = st.w
    if stack.a1 is not None:
        phi = np.swapaxes(_lift(stack.a1, nb), -1, -2) @ st.w

    mu = _lift(stack.mu, nb)
    if stack.c is None:
        if e is None or stack.a1 is not None:
            e = d - np.einsum("...kl,...kl->...k", x, phi)
        psi = phi + mu * e[..., None] * x
    else:
        # cross[l, k] = d_l - x_l' phi_k, weighted by c_lk and summed over l
        cross = d[..., :, None] - x @ np.swapaxes(phi, -1, -2)
        psi = phi + mu * (np.swapaxes(_lift(stack.c, nb) * cross, -1, -2) @ x)

    a2, zeta2 = st.a2, st.zeta2
    if stack.adaptive:
        a2 = a2.copy()
        zeta2 = None if zeta2 is None else zeta2.copy()
    for i in stack.adaptive:
        comp = stack.components[i]
        if comp.a2_mode == "adaptive_projection":
            a2[i] = adapt_matrix_projection(comp.topology, psi[i], batch,
                                            comp.mu)
        else:
            a2[i], zeta2[i] = adapt_matrix_relative_variance(
                comp.topology, psi[i], st.w[i], zeta2[i], comp.tau)

    w = np.swapaxes(a2, -1, -2) @ psi
    return StrategyState(w=w, a2=a2, zeta2=zeta2)
