"""Regressors, measurement noise, and time-varying targets.

Every agent observes a reference d = x'w* + z, with x a zero-mean
Gaussian regressor (white, or the two-tap shift structure of a
first-order autoregressive stream) and z white Gaussian noise.  Targets
follow a staged schedule with linear interpolation between stages.

Randomness is organized as one stream per run, which draws a fixed
count of normals per instant in an order fixed by the agents' regressor
kinds.  The block-drawing sampler used by the Monte Carlo harness
consumes each stream in the order a one-instant-at-a-time draw would, so
batching never changes the data.  Its arrays put agents on the last axis.
"""

from __future__ import annotations

import json
import numbers
import reprlib
from dataclasses import dataclass
from importlib import resources

import numpy as np

AR1_COEFF = 0.5

_SNR_FILE = "snr_presets.json"
_BLOCK_VALUES = 2 ** 19  # regressor values per default sampler block


def integer_value(name, value, least) -> int:
    """value as an int, refused by name unless integral and >= least; a
    boolean is no integer here, though Python counts it as one."""
    if (not isinstance(value, numbers.Real) or isinstance(value, bool)
            or value % 1 or value < least):
        raise ValueError(f"{name} must be an integer >= {least}, got {value!r}")
    return int(value)


def _is_number(value) -> bool:
    """Whether value is a finite number or array of them.  A boolean is
    none, also among numbers in a list, where numpy would read it as 0 or 1."""
    arr = np.asarray(value)
    return (arr.dtype.kind in "iuf" and bool(np.all(np.isfinite(arr)))
            and {bool, np.bool_}.isdisjoint(
                map(type, np.array(value, dtype=object).flat)))


def require_number(name, value) -> None:
    """Refuse by name a value that is not a finite number or array of
    them; for an array, the message names the first bad entry by index."""
    try:
        if _is_number(value):
            return
        entries = np.array(value, dtype=object)
    except ValueError:  # a ragged nesting is no array of numbers
        raise ValueError(f"{name} is not a number: a ragged nesting") from None
    at = next(i for i, v in np.ndenumerate(entries) if not _is_number(v))
    where = f"entry {tuple(map(int, at))} is " if at else ""
    raise ValueError(f"{name} is not a number: {where}{reprlib.repr(entries[at])}")


def require_scalar(name, value) -> None:
    """Refuse by name a value that is not one finite number."""
    require_number(name, value)
    if np.ndim(value):
        raise ValueError(f"{name} must be a single number")


def per_agent(name, value, shape, per="agent") -> np.ndarray:
    """value broadcast to shape, refused by name unless a scalar or one
    value per `per`."""
    try:
        return np.broadcast_to(value, shape)
    except ValueError:
        raise ValueError(f"{name} has shape {np.shape(value)}: it must be a "
                         f"scalar or give one value per {per}, shape "
                         f"{shape}") from None


@dataclass(frozen=True)
class AgentSignalParams:
    """Per-agent signal statistics.

    Parameters
    ----------
    sigma_x2 : float
        Regressor power (variance of each tap for white inputs; variance
        of the scalar stream for ar1 inputs).
    sigma_z2 : float
        Measurement-noise variance.
    filter_len : int
        Regressor length L.
    regressor_kind : {"white", "ar1"}
        White draws i.i.d. taps; ar1 builds the regressor [x_n, x_{n-1}]
        from a first-order autoregressive stream with coefficient 0.5
        (requires L = 2).
    """

    sigma_x2: float
    sigma_z2: float
    filter_len: int
    regressor_kind: str = "white"

    def __post_init__(self):
        require_scalar("sigma_x2", self.sigma_x2)
        require_scalar("sigma_z2", self.sigma_z2)
        object.__setattr__(self, "filter_len",
                           integer_value("filter_len", self.filter_len, 1))
        if self.sigma_x2 <= 0:
            raise ValueError("sigma_x2 must be positive")
        if self.sigma_z2 < 0:
            raise ValueError("sigma_z2 must be nonnegative")
        if self.regressor_kind not in ("white", "ar1"):
            raise ValueError(f"unknown regressor kind {self.regressor_kind!r}")
        if self.regressor_kind == "ar1" and self.filter_len != 2:
            raise ValueError("ar1 regressors require filter_len = 2")


@dataclass(frozen=True)
class TargetSchedule:
    """Piecewise-stationary target trajectory for all agents.

    ``stages`` is an ordered tuple of (start_time, targets) pairs where
    targets is an (N, L) array.  Each stage's value is reached exactly at
    its start time; the ``transition_len`` instants before a stage start
    interpolate linearly from the previous stage's value.  Start times
    and transition_len must be integral and are stored as ints.
    """

    stages: tuple
    transition_len: int = 0

    def __post_init__(self):
        if not self.stages:
            raise ValueError("schedule needs at least one stage")
        object.__setattr__(self, "transition_len", integer_value(
            "transition_len", self.transition_len, 0))
        norm = []
        for start, w in self.stages:
            require_number("targets", w)
            arr = np.array(w, dtype=float)
            if arr.ndim != 2:
                raise ValueError("stage targets must be (n_agents, L) arrays")
            arr.setflags(write=False)
            norm.append((integer_value("stage start", start, 0), arr))
        shapes = {arr.shape for _, arr in norm}
        if len(shapes) != 1:
            raise ValueError("all stages must share the same target shape")
        starts = [s for s, _ in norm]
        if any(b <= a for a, b in zip(starts, starts[1:])):
            raise ValueError("stage start times must be strictly increasing")
        if any(b - self.transition_len < a for a, b in zip(starts, starts[1:])):
            raise ValueError("transition does not fit between stage starts")
        object.__setattr__(self, "stages", tuple(norm))

    @property
    def n_agents(self) -> int:
        return self.stages[0][1].shape[0]

    @property
    def filter_len(self) -> int:
        return self.stages[0][1].shape[1]

    @staticmethod
    def constant(targets) -> "TargetSchedule":
        """A single-stage schedule holding one target from time 0 on."""
        return TargetSchedule(stages=((0, targets),))


@dataclass(frozen=True)
class SampleBatch:
    """One instant of data for a block of runs, agents on the last axis.

    regressors: (runs, L, N); references and noises: (runs, N);
    targets: (L, N), shared by all runs.
    """

    regressors: np.ndarray
    references: np.ndarray
    noises: np.ndarray
    targets: np.ndarray


def regressor_covariance(p: AgentSignalParams) -> np.ndarray:
    """Stationary covariance R_x of the regressor."""
    if p.regressor_kind == "white":
        return p.sigma_x2 * np.eye(p.filter_len)
    return p.sigma_x2 * np.array([[1.0, AR1_COEFF], [AR1_COEFF, 1.0]])


def target_at(schedule: TargetSchedule, n: int) -> np.ndarray:
    """Evaluate the target trajectory at time n (shape (N, L)).

    Inside a stationary stretch this is the stage value; within the
    transition_len instants before a stage start it is the linear
    interpolant toward that stage.
    """
    stages = schedule.stages
    if n < stages[0][0]:
        raise ValueError(f"time {n} precedes the first stage start {stages[0][0]}")
    idx = 0
    while idx + 1 < len(stages) and stages[idx + 1][0] <= n:
        idx += 1
    current = stages[idx][1]
    if idx + 1 < len(stages) and schedule.transition_len > 0:
        next_start, nxt = stages[idx + 1]
        ramp_start = next_start - schedule.transition_len
        if n >= ramp_start:
            frac = (n - ramp_start) / schedule.transition_len
            return current + (nxt - current) * frac
    return current


class ChunkedSampler:
    """Draws one instant per step for a block of runs of an ExperimentConfig.

    One stream per run, seeded from (seed, run), so the numbers of a given
    run never depend on which block it lands in.  A run draws the start
    value of each AR(1) agent at construction, then per instant the cells
    of an (L + 1, N) grid in row-major order, L tap rows and a noise row,
    less each AR(1) agent's tap 1 (its tap 0 of the instant before; its
    tap 0 draws the innovation): L normals per white agent, one per AR(1)
    agent and one noise per agent.  Blocks of at most 512 instants of at
    most ``_BLOCK_VALUES`` = 2**19 regressor values (41 instants at 25
    runs, 10 agents, L = 50) take one draw per run into its contiguous
    slab; block boundaries do not change the values.  No block reaches
    past the ``horizon``, so the streams are left exactly ``horizon``
    instants in and stepping further raises ValueError.
    """

    def __init__(self, params, schedule, seed, runs, horizon):
        self.schedule, self.horizon = schedule, horizon
        self._rngs = [np.random.default_rng(np.random.SeedSequence((seed, r)))
                      for r in runs]
        n, L = len(params), schedule.filter_len
        values = len(self._rngs) * n * L
        self.block_len = min(512, max(1, _BLOCK_VALUES // max(1, values)))
        sx = np.array([p.sigma_x2 for p in params])
        self._ar = ar = np.array([p.regressor_kind == "ar1" for p in params])
        # per grid cell: taps scale by sqrt(sigma_x2), an AR(1) innovation
        # by sqrt((1 - AR1_COEFF^2) sigma_x2), which keeps the stationary
        # variance sigma_x2, a noise by sqrt(sigma_z2)
        self._scale = np.sqrt(np.vstack([np.broadcast_to(sx, (L, n)),
                                         [p.sigma_z2 for p in params]]))
        self._scale[0, ar] = np.sqrt((1.0 - AR1_COEFF ** 2) * sx[ar])
        self._drawn = np.flatnonzero(np.vstack([np.ones(n, bool), ~np.broadcast_to(
            ar, (L - 1, n)), np.ones(n, bool)]))
        # each AR(1) stream starts from its first normal times sqrt(sigma_x2)
        self._ar_last = np.zeros((len(self._rngs), n))
        self._ar_last[:, ar] = np.sqrt(sx[ar]) * np.array(
            [rng.standard_normal(np.count_nonzero(ar)) for rng in self._rngs])
        self._n = self._cursor = self._end = 0  # the first step refills
        self._block = None  # grids, references and targets

    def _refill(self):
        b = min(self.block_len, self.horizon - self._n)
        if b <= 0:
            raise ValueError(f"the sampler's horizon of {self.horizon} "
                             "instants is exhausted")
        self._block = None  # freed now unless a caller holds a batch of it
        L, ar = self.schedule.filter_len, self._ar
        runs, n = self._ar_last.shape
        # one allocation per block: the references, then the grids, each
        # run's slab of draws contiguous and scaled in place
        block = np.zeros(runs * b * n * (L + 2))
        grids = block[runs * b * n:].reshape(runs, b, L + 1, n)
        for rng, cells in zip(self._rngs, grids.reshape(runs, b, -1)):
            if ar.any():
                cells[:, self._drawn] = rng.standard_normal((b, self._drawn.size))
            else:
                rng.standard_normal(out=cells)
            cells *= self._scale.ravel()
        if ar.any():
            # per instant, tap 0 of every agent after the last values; an
            # AR(1) agent's scaled innovations become its stream's values,
            # and only its columns are written back
            xs = np.empty((b + 1,) + self._ar_last.shape)
            xs[0] = self._ar_last
            xs[1:] = grids[:, :, 0].swapaxes(0, 1)
            for t in range(b):
                xs[t + 1] += AR1_COEFF * xs[t]
            np.copyto(grids[:, :, 0], xs[1:].swapaxes(0, 1), where=ar)
            np.copyto(grids[:, :, 1], xs[:-1].swapaxes(0, 1), where=ar)
            self._ar_last = xs[b].copy()
        w = np.stack([target_at(self.schedule, i).T
                      for i in range(self._n, self._n + b)])
        ref = block[:runs * b * n].reshape(runs, b, n)
        np.einsum("rblk,blk->rbk", grids[:, :, :L], w, out=ref)
        ref += grids[:, :, L]
        self._block, self._cursor, self._end = (grids, ref, w), 0, b

    def step(self) -> SampleBatch:
        """Produce the next instant of data for all runs and agents."""
        if self._cursor == self._end:
            self._refill()
        i = self._cursor
        self._cursor += 1
        self._n += 1
        grids, ref, w = self._block
        return SampleBatch(grids[:, i, :-1], ref[:, i], grids[:, i, -1], w[i])


def load_snr_preset(n_agents: int, level: str, kind: str):
    """Load a bundled calibrated parameter set.

    Returns (params, w_star): a list of AgentSignalParams (filter_len 2)
    and the shared optimum the noise variances were calibrated against.
    """
    raw = json.loads(
        resources.files("diffcomb").joinpath("data", _SNR_FILE).read_text()
    )
    key = f"n{n_agents}"
    if key not in raw:
        raise ValueError(f"no bundled parameters for {n_agents} agents")
    block = raw[key]
    if kind not in block["sigma_z2"]:
        raise ValueError(f"unknown regressor kind {kind!r}")
    if level not in block["sigma_z2"][kind]:
        raise ValueError(f"unknown SNR level {level!r}")
    w_star = np.array(block["w_star"])
    params = [
        AgentSignalParams(
            sigma_x2=sx, sigma_z2=sz, filter_len=2, regressor_kind=kind
        )
        for sx, sz in zip(block["sigma_x2"], block["sigma_z2"][kind][level])
    ]
    return params, w_star
