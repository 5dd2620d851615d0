"""Shared test helpers."""

import sys
from pathlib import Path

from diffcomb.diffusion import StrategyConfig, StrategyStack
from diffcomb.graph import StochasticMatrix, static_rule

# the statistics of a topology live with the script that searches for the
# bundled networks, their only user outside the tests
sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "scripts"))
from make_presets import stats  # noqa: E402,F401


def strategy(topology, mu, a1=None, a2=None, c=None):
    """Static-fusion strategy config; every matrix left out is the identity
    (a2 alone gives adapt-then-combine, a1 alone combine-then-adapt)."""
    eye = static_rule(topology, "identity")
    return StrategyConfig(
        topology=topology,
        a1=eye if a1 is None else a1,
        c=StochasticMatrix(eye.entries, "right") if c is None else c,
        mu=mu,
        a2=eye if a2 is None else a2)


def stack(cfg):
    """A single strategy as a stack of one: its state arrays carry a
    leading component axis of length one."""
    return StrategyStack.of([cfg])
