"""Spans around the public functions the harness calls into.

The tracer replaces module and class attributes of diffcomb with timing
wrappers while it is active and puts the originals back on exit, so an
untraced pass runs the program unchanged.  Spans stay in memory; a
layer's self time is its span's duration minus its child spans.
"""

from __future__ import annotations

import functools
import statistics
import time

from diffcomb import harness
from diffcomb.signal import ChunkedSampler

# (owner, attribute, span name); the harness binds these names at import,
# so patching the harness module reaches every call the simulator and the
# theory path make
_WRAPPED = (
    (harness, "run_monte_carlo", "harness.simulate"),
    (harness, "run_theory", "harness.theory"),
    (harness, "config_from_dict", "harness.config"),
    (harness, "export", "harness.export"),
    (harness, "load_result", "harness.load"),
    (harness, "compare", "harness.compare"),
    (ChunkedSampler, "__init__", "signal.init"),
    (ChunkedSampler, "step", "signal.step"),
    (harness, "step", "diffusion.step"),
    (harness, "pn_update", "combine.update"),
    (harness, "sr_update", "combine.update"),
    (harness, "combine_weights", "combine.weights"),
    (harness, "build_component_model", "theory.build"),
    (harness, "evolve", "theory.evolve"),
    (harness, "steady_state", "theory.steady"),
)

SIM_ROOT = "harness.simulate"
THEORY_ROOT = "harness.theory"


class Tracer:
    """Records one span per wrapped call: name, start, end, parent."""

    def __init__(self):
        self.names = []
        self.starts = []
        self.ends = []
        self.parents = []
        self.evolve_steps = 0
        self.degenerate_steps = 0
        self._stack = []
        self._saved = []

    def _wrap(self, fn, name):
        names, starts, ends, parents = (self.names, self.starts, self.ends,
                                        self.parents)
        stack = self._stack
        clock = time.perf_counter
        counts_steps = name == "theory.evolve"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(names)
            names.append(name)
            parents.append(stack[-1] if stack else -1)
            ends.append(0.0)
            stack.append(idx)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()
            if counts_steps:
                self.evolve_steps += len(result.msd1)
                self.degenerate_steps += result.degenerate_steps
            return result

        return wrapper

    def __enter__(self):
        for owner, attr, name in _WRAPPED:
            fn = getattr(owner, attr)
            self._saved.append((owner, attr, fn))
            setattr(owner, attr, self._wrap(fn, name))
        return self

    def __exit__(self, *exc):
        for owner, attr, fn in reversed(self._saved):
            setattr(owner, attr, fn)
        self._saved.clear()
        return False

    def self_times(self) -> list:
        """Per-span duration minus the durations of its direct children.

        Calls run one at a time, so children never overlap and their
        durations add up to the part of the parent they cover.
        """
        out = [end - start for start, end in zip(self.starts, self.ends)]
        for idx, parent in enumerate(self.parents):
            if parent >= 0:
                out[parent] -= self.ends[idx] - self.starts[idx]
        return out

    def subtree_self(self, root: str) -> tuple:
        """(sum, minimum) of self times over every span under a root name."""
        selfs = self.self_times()
        root_of = []
        for idx, parent in enumerate(self.parents):
            root_of.append(idx if parent < 0 else root_of[parent])
        values = [s for idx, s in enumerate(selfs)
                  if self.names[root_of[idx]] == root]
        return sum(values), min(values, default=0.0)

    def layer_metrics(self) -> dict:
        """Per-layer busy time, call counts and call-time percentiles."""
        selfs = self.self_times()
        busy, calls, durations = {}, {}, {}
        for idx, name in enumerate(self.names):
            busy[name] = busy.get(name, 0.0) + selfs[idx]
            calls[name] = calls.get(name, 0) + 1
            durations.setdefault(name, []).append(
                self.ends[idx] - self.starts[idx])

        def pct(name, q):
            values = durations.get(name)
            if not values:
                return 0.0
            if len(values) == 1:
                return values[0] * 1e6
            return statistics.quantiles(values, n=100,
                                        method="inclusive")[q - 1] * 1e6

        evolve_s = busy.get("theory.evolve", 0.0)
        return {
            "signal.init_s": busy.get("signal.init", 0.0),
            "signal.step_s": busy.get("signal.step", 0.0),
            "signal.step_calls": calls.get("signal.step", 0),
            "signal.step_us_p50": pct("signal.step", 50),
            "signal.step_us_p99": pct("signal.step", 99),
            "diffusion.step_s": busy.get("diffusion.step", 0.0),
            "diffusion.step_calls": calls.get("diffusion.step", 0),
            "diffusion.step_us_p50": pct("diffusion.step", 50),
            "diffusion.step_us_p99": pct("diffusion.step", 99),
            "combine.update_s": busy.get("combine.update", 0.0),
            "combine.weights_s": busy.get("combine.weights", 0.0),
            "combine.calls": (calls.get("combine.update", 0)
                              + calls.get("combine.weights", 0)),
            "harness.simulate_self_s": busy.get(SIM_ROOT, 0.0),
            "harness.theory_self_s": busy.get(THEORY_ROOT, 0.0),
            "harness.chunks": calls.get("signal.init", 0),
            "harness.export_s": busy.get("harness.export", 0.0),
            "harness.load_s": busy.get("harness.load", 0.0),
            "harness.compare_s": busy.get("harness.compare", 0.0),
            "harness.config_s": busy.get("harness.config", 0.0),
            "theory.build_s": busy.get("theory.build", 0.0),
            "theory.build_calls": calls.get("theory.build", 0),
            "theory.evolve_s": evolve_s,
            "theory.evolve_steps": self.evolve_steps,
            "theory.evolve_us_per_step": (evolve_s / self.evolve_steps * 1e6
                                          if self.evolve_steps else 0.0),
            "theory.steady_s": busy.get("theory.steady", 0.0),
            "theory.steady_solves": calls.get("theory.steady", 0),
            "theory.degenerate_steps": self.degenerate_steps,
        }
