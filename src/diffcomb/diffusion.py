"""One-step evolution of diffusion LMS strategies over a network.

Each agent k holds an estimate w_k and repeats three stages per instant:
neighborhood pre-combination (through A1), an LMS adaptation driven by
shared data (through C), and neighborhood post-combination (through A2).
A1 = I gives adapt-then-combine, A2 = I gives combine-then-adapt.  A2
may also be refreshed every step by one of two data-driven rules, which
measure distances on the network's edge list only.  They read each
squared distance from inner products, ||a_l||^2 + ||b_k||^2 - 2 a_l'b_k,
out of one (N x L)(L x N) product per run rather than gathering the
differences.  That form cancels: its rounding error is at most about
(L + 4) u (||a_l|| + ||b_k||)^2 (u the unit round-off; Higham,
"Accuracy and Stability of Numerical Algorithms", 2002, section 3.1),
relative to the norms rather than to the distance, so neighbors that
agree closely lose relative accuracy, and a distance may come out
slightly negative.

The M component strategies of an experiment advance together: a
``StrategyStack``, built once from their configurations, holds the
step-sizes as (M, N, 1) and the matrices as (M, N, N), and decides once
whether A1 and C are the identity for every component.  A step then
skips the pre-combination, and reuses the output errors the caller
already formed, without testing the matrices again.  A single strategy
is a stack of one.

State arrays are tap-major, (M, ..., L, N): the component axis first,
then an arbitrary batch shape (used by the harness to advance a block of
Monte Carlo runs at once), then taps, then agents, so a matrix combines
agents by right-multiplication.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .graph import StochasticMatrix, Topology, static_rule, validate_stochastic
from .signal import SampleBatch, per_agent, require_number

# inverse-distance weights floor each squared distance here: coincident
# estimates, and the negative round-off the inner-product form can leave
# between close neighbors, both weigh 1 / DISTANCE_FLOOR
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
            defect = validate_stochastic(matrix, self.topology)
            if defect:
                raise ValueError(f"{role}-stochastic matrix fails validation: {defect}")
        if self.a2_mode == "static":
            if self.a2 is None:
                raise ValueError("static a2_mode requires an a2 matrix")
            defect = (validate_stochastic(self.a2, self.topology)
                      if self.a2.role == "left" else f"role is {self.a2.role!r}")
            if defect:
                raise ValueError(f"a2 must be a valid left-stochastic matrix: {defect}")
        require_number("mu", self.mu)
        mu = per_agent("mu", self.mu, (n,)).astype(float)
        if np.any(mu < 0):
            raise ValueError("step-sizes must be nonnegative")
        mu.setflags(write=False)
        object.__setattr__(self, "mu", mu)
        if self.a2_mode == "adaptive_relative_variance":
            if self.tau is None:
                raise ValueError("adaptive_relative_variance requires tau")
            require_number("tau", self.tau)
            tau = per_agent("tau", self.tau, (n,)).astype(float)
            if np.any((tau <= 0) | (tau >= 1)):
                raise ValueError("forgetting factors must lie in (0, 1)")
            tau.setflags(write=False)
            object.__setattr__(self, "tau", tau)


@dataclass(frozen=True)
class StrategyStack:
    """The M component strategies of an experiment, advanced as one.

    ``mu`` is (M, 1, N); ``a1`` and ``c`` are (M, N, N), or None when the
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
        eye = np.eye(comps[0].topology.n_agents)

        def stacked(role):
            entries = np.stack([getattr(c, role).entries for c in comps])
            return None if (entries == eye).all() else entries

        a2 = [c.a2.entries if c.a2_mode == "static"
              else static_rule(c.topology, "averaging").entries for c in comps]
        return cls(comps, np.stack([c.mu for c in comps])[:, None],
                   stacked("a1"), stacked("c"), np.stack(a2),
                   tuple(i for i, c in enumerate(comps) if c.a2_mode != "static"))


@dataclass
class StrategyState:
    """Evolving quantities of a stack: estimates w (M, ..., L, N), the
    effective A2 (M, ..., N, N) (the stack's (M, N, N) when every
    component is static) and the edge distances zeta2 (M, ..., E) of the
    relative-variance rule."""

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
    a2 = stack.a2
    if stack.adaptive:
        a2 = np.broadcast_to(_lift(a2, len(batch_shape)),
                             (m,) + batch_shape + (n, n)).copy()
    relative = any(c.a2_mode == "adaptive_relative_variance"
                   for c in stack.components)
    edges = stack.components[0].topology.edges[0].shape
    return StrategyState(w=np.zeros((m,) + batch_shape + (filter_len, n)), a2=a2,
                         zeta2=np.ones(a2.shape[:-2] + edges) if relative else None)


def errors_and_outputs(w: np.ndarray, batch: SampleBatch) -> ErrorReport:
    """Outputs and errors of estimates w (..., L, N) against a batch; any
    leading axes of w beyond the batch's (a stack of estimates) carry
    through to the outputs."""
    y = np.einsum("...lk,...lk->...k", batch.regressors, w)
    e = batch.references - y
    return ErrorReport(y=y, e=e, e_tilde=e - batch.noises)


def _right(x: np.ndarray, mats: np.ndarray) -> np.ndarray:
    """Each component's x (M, ..., L, N) times its matrix (M, N, N): one
    product per component, whatever the batch shape."""
    return (x.reshape(len(x), -1, x.shape[-1]) @ mats).reshape(x.shape)


def _sq_norms(a: np.ndarray) -> np.ndarray:
    """Squared norms (..., N) of the columns of a tap-major (..., L, N)."""
    return np.einsum("...lk,...lk->...k", a, a)


def _gram_dist2(topology: Topology, sq_src, sq_dst, gram) -> np.ndarray:
    """Squared distances (..., E) from a_l to b_k over the edges (l, k),
    read as ||a_l||^2 + ||b_k||^2 - 2 gram[..., l, k] with gram = a'b."""
    src, dst = topology.edges
    dist2 = sq_src[..., src] + sq_dst[..., dst]
    dist2 -= 2.0 * gram[..., src, dst]
    return dist2


def _inverse_weights(topology: Topology, dist2: np.ndarray) -> np.ndarray:
    """A2 (..., N, N) weighting each edge by its floored inverse squared
    distance, columns normalized; non-neighbors weigh zero."""
    inv = np.zeros(dist2.shape[:-1] + (topology.n_agents,) * 2)
    inv[(..., *topology.edges)] = 1.0 / np.maximum(dist2, DISTANCE_FLOOR)
    return inv / inv.sum(axis=-2, keepdims=True)


def adapt_matrix_projection(
    topology: Topology,
    psi: np.ndarray,
    batch: SampleBatch,
    mu: np.ndarray,
) -> np.ndarray:
    """Projection-based refresh of A2 from the freshly adapted psi.

    Each agent k forms the one-step-ahead point psi_k + c_k x_k, with
    c_k = mu_k eps_k and eps_k = d_k - x_k' psi_k, the instantaneous LMS
    step evaluated at psi_k, and weights each neighbor l by inverse
    squared distance from psi_l to that point, measured on the edges
    (l, k) only.

    The point is never formed: with G = psi' psi and X = psi' x, one pair
    of products per run, eps_k = d_k - X_kk and the distance is
    G_ll + G_kk - 2 G_lk + c_k (c_k ||x_k||^2 - 2 (X_lk - X_kk)).  Both
    ends read diag(G), so a self-edge is exactly c_k^2 ||x_k||^2: zero,
    then floored, at mu_k = 0.
    """
    x = batch.regressors
    src, dst = topology.edges
    psi_t = np.swapaxes(psi, -1, -2)
    gram, cross = psi_t @ psi, psi_t @ x
    own = np.diagonal(gram, axis1=-2, axis2=-1)
    fit = np.diagonal(cross, axis1=-2, axis2=-1)
    c = (mu * (batch.references - fit))[..., dst]
    dist2 = _gram_dist2(topology, own, own, gram)
    dist2 += c * (c * _sq_norms(x)[..., dst]
                  - 2.0 * (cross[..., src, dst] - fit[..., dst]))
    return _inverse_weights(topology, dist2)


def adapt_matrix_relative_variance(
    topology: Topology,
    psi: np.ndarray,
    w_prev: np.ndarray,
    zeta2: np.ndarray,
    tau: np.ndarray,
):
    """Relative-variance refresh of A2.

    Tracks smoothed squared distances zeta2 (..., E), one per edge (l, k)
    of topology.edges, between neighbor estimate psi_l and agent k's
    previous combined estimate, then weights by inverse zeta2.  The
    distances are ||psi_l||^2 + ||w_k||^2 - 2 (psi' w_prev)_lk, one
    product per run.  Returns (a2, new_zeta2).
    """
    tau = tau[topology.edges[1]]
    dist2 = _gram_dist2(topology, _sq_norms(psi), _sq_norms(w_prev),
                        np.swapaxes(psi, -1, -2) @ w_prev)
    zeta2_new = (1.0 - tau) * zeta2 + tau * dist2
    return _inverse_weights(topology, zeta2_new), zeta2_new


def step(stack: StrategyStack, st: StrategyState, batch: SampleBatch,
         e: np.ndarray) -> StrategyState:
    """Advance every component one instant: pre-combine, adapt, (refresh
    A2), combine.

    e holds the components' output errors d - x'w (M, ..., N) from
    errors_and_outputs.  With A1 = C = I for every component they are the
    errors the adaptation needs, so x'w is not formed again; with A1 != I
    the errors are taken at the pre-combined phi instead, and with C != I
    e is not read.
    """
    x, d = batch.regressors, batch.references
    if x.shape[-2:] != st.w.shape[-2:]:
        raise ValueError(
            f"batch shape {x.shape} does not match state {st.w.shape}"
        )
    phi = st.w if stack.a1 is None else _right(st.w, stack.a1)

    mu = _lift(stack.mu, st.w.ndim - 3)
    if stack.c is None:
        if stack.a1 is not None:
            e = errors_and_outputs(phi, batch).e
        psi = mu * e[..., None, :] * x
        psi += phi
    else:
        # cross[l, k] = d_l - x_l' phi_k, weighted by c_lk and summed over l
        cross = d[..., :, None] - np.swapaxes(x, -1, -2) @ phi
        psi = phi + mu * (x @ (_lift(stack.c, st.w.ndim - 3) * cross))

    if not stack.adaptive:
        return StrategyState(w=_right(psi, st.a2), a2=st.a2)
    a2, zeta2 = st.a2.copy(), None if st.zeta2 is None else st.zeta2.copy()
    for i in stack.adaptive:
        comp = stack.components[i]
        if comp.a2_mode == "adaptive_projection":
            a2[i] = adapt_matrix_projection(comp.topology, psi[i], batch,
                                            comp.mu)
        else:
            a2[i], zeta2[i] = adapt_matrix_relative_variance(
                comp.topology, psi[i], st.w[i], zeta2[i], comp.tau)
    return StrategyState(w=psi @ a2, a2=a2, zeta2=zeta2)
