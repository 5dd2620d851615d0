"""Regressors, measurement noise, and time-varying targets.

Every agent observes a reference d = x'w* + z, with x a zero-mean
Gaussian regressor (white, or the two-tap shift structure of a
first-order autoregressive stream) and z white Gaussian noise.  Targets
follow a staged schedule with linear interpolation between stages.

Randomness is organized as one pair of independent streams per
(run, agent): one for regressors, one for noise.  The block-drawing
sampler used by the Monte Carlo harness consumes each stream in the
order a one-sample-at-a-time draw would, so batching never changes the
data.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from importlib import resources

import numpy as np

AR1_COEFF = 0.5

_SNR_FILE = "snr_presets.json"


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
        if self.sigma_x2 <= 0:
            raise ValueError("sigma_x2 must be positive")
        if self.sigma_z2 < 0:
            raise ValueError("sigma_z2 must be nonnegative")
        if self.filter_len < 1:
            raise ValueError("filter_len must be at least 1")
        if self.regressor_kind not in ("white", "ar1"):
            raise ValueError(f"unknown regressor kind {self.regressor_kind!r}")


@dataclass(frozen=True)
class TargetSchedule:
    """Piecewise-stationary target trajectory for all agents.

    ``stages`` is an ordered tuple of (start_time, targets) pairs where
    targets is an (N, L) array.  Each stage's value is reached exactly at
    its start time; the ``transition_len`` instants before a stage start
    interpolate linearly from the previous stage's value.
    """

    stages: tuple
    transition_len: int = 0

    def __post_init__(self):
        if not self.stages:
            raise ValueError("schedule needs at least one stage")
        if self.transition_len < 0:
            raise ValueError("transition_len must be nonnegative")
        norm = []
        for start, w in self.stages:
            arr = np.array(w, dtype=float)
            if arr.ndim != 2:
                raise ValueError("stage targets must be (n_agents, L) arrays")
            arr.setflags(write=False)
            norm.append((int(start), arr))
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
    def constant(targets, start: int = 0) -> "TargetSchedule":
        """A single-stage schedule holding one target forever."""
        return TargetSchedule(stages=((start, np.array(targets, dtype=float)),))


@dataclass(frozen=True)
class SampleBatch:
    """One instant of data for a block of runs.

    regressors: (runs, N, L); references and noises: (runs, N);
    targets: (N, L), shared by all runs.
    """

    regressors: np.ndarray
    references: np.ndarray
    noises: np.ndarray
    targets: np.ndarray


class GeneratorState:
    """Sampling state of one (run, agent) pair: two independent streams,
    one for regressors and one for noise."""

    def __init__(self, seed: int, run: int, agent: int):
        self.regressor_rng = np.random.default_rng(
            np.random.SeedSequence((seed, run, agent, 0))
        )
        self.noise_rng = np.random.default_rng(
            np.random.SeedSequence((seed, run, agent, 1))
        )


def regressor_covariance(p: AgentSignalParams) -> np.ndarray:
    """Stationary covariance R_x of the regressor."""
    if p.regressor_kind == "white":
        return p.sigma_x2 * np.eye(p.filter_len)
    if p.filter_len != 2:
        raise ValueError("ar1 regressors require filter_len = 2")
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


def snr(p: AgentSignalParams, w_star: np.ndarray) -> float:
    """Signal-to-noise ratio 10 log10(w*' R_x w* / sigma_z2) in dB."""
    if p.sigma_z2 <= 0:
        raise ValueError("snr undefined for zero noise variance")
    power = float(w_star @ regressor_covariance(p) @ w_star)
    return 10.0 * np.log10(power / p.sigma_z2)


class ChunkedSampler:
    """Draws the data of a block of runs, one instant per step.

    One stream pair per (run, agent), seeded from (seed, run, agent), so
    the numbers of a given run never depend on which block it lands in.
    Normals are drawn in blocks of ``block_len`` steps per stream; block
    boundaries do not change the values either, only how many samples
    each stream call returns.  With a ``horizon`` no block reaches past
    it, so the streams are left exactly ``horizon`` instants in and
    stepping further raises ValueError.
    """

    def __init__(self, params, schedule, seed, runs, block_len=512,
                 horizon=None):
        self.params = list(params)
        self.schedule = schedule
        self.runs = list(runs)
        self.block_len = int(block_len)
        self.horizon = horizon
        self.n_agents = len(self.params)
        lens = {p.filter_len for p in self.params}
        if len(lens) != 1:
            raise ValueError("all agents must share one filter length")
        self.filter_len = lens.pop()
        if schedule.n_agents != self.n_agents or schedule.filter_len != self.filter_len:
            raise ValueError("schedule shape does not match agent parameters")
        self._states = [
            [GeneratorState(seed, r, k) for k in range(self.n_agents)]
            for r in self.runs
        ]
        self._sx = np.array([p.sigma_x2 for p in self.params])
        self._sz = np.array([p.sigma_z2 for p in self.params])
        self._ar_mask = np.array(
            [p.regressor_kind == "ar1" for p in self.params]
        )
        if np.any(self._ar_mask) and self.filter_len != 2:
            raise ValueError("ar1 regressors require filter_len = 2")
        self._n = 0
        self._cursor = 0
        self._ar_last = None
        self._reg_block = self._ref_block = self._target_block = None
        self._noise_block = np.empty((0,))  # empty: the first step refills

    def _refill(self):
        b = self.block_len
        if self.horizon is not None:
            b = min(b, self.horizon - self._n)
            if b <= 0:
                raise ValueError(f"the sampler's horizon of {self.horizon} "
                                 "instants is exhausted")
        n_runs, L = len(self.runs), self.filter_len
        reg = np.empty((b, n_runs, self.n_agents, L))
        noise = np.empty((b, n_runs, self.n_agents))
        ar = np.flatnonzero(self._ar_mask)
        # per AR(1) stream: row 0 its last value (on the very first block,
        # the stream's first normal), rows 1..b its innovations, which the
        # recursion below overwrites in place with the new values
        xs = np.empty((b + 1, n_runs, ar.size))
        first = self._ar_last is None
        for i, states in enumerate(self._states):
            for k, state in enumerate(states):
                if not self._ar_mask[k]:
                    reg[:, i, k] = np.sqrt(self._sx[k]) * (
                        state.regressor_rng.standard_normal((b, L))
                    )
                noise[:, i, k] = np.sqrt(self._sz[k]) * (
                    state.noise_rng.standard_normal(b)
                )
            for j, k in enumerate(ar):
                xs[1 - first:, i, j] = states[k].regressor_rng.standard_normal(
                    b + first)
        xs[0] = np.sqrt(self._sx[ar]) * xs[0] if first else self._ar_last
        scale = np.sqrt(0.75 * self._sx[ar])
        for t in range(b):
            xs[t + 1] = AR1_COEFF * xs[t] + scale * xs[t + 1]
        reg[:, :, ar, 0] = xs[1:]
        reg[:, :, ar, 1] = xs[:-1]
        self._ar_last = xs[b].copy()
        # targets and references for the whole block, each instant's the
        # same numbers an instant-by-instant product gives
        w = np.stack([target_at(self.schedule, n)
                      for n in range(self._n, self._n + b)])
        self._reg_block = reg
        self._noise_block = noise
        self._target_block = w
        self._ref_block = np.einsum("brkl,bkl->brk", reg, w)
        self._ref_block += noise
        self._cursor = 0

    def step(self) -> SampleBatch:
        """Produce the next instant of data for all runs and agents."""
        if self._cursor >= len(self._noise_block):
            self._refill()
        i = self._cursor
        self._cursor += 1
        self._n += 1
        return SampleBatch(regressors=self._reg_block[i],
                           references=self._ref_block[i],
                           noises=self._noise_block[i],
                           targets=self._target_block[i])


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
