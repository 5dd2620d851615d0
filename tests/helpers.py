"""Shared test helpers."""

from diffcomb.diffusion import StrategyConfig
from diffcomb.graph import StochasticMatrix, static_rule


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
