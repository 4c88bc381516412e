"""Bundled experiments runnable from the command line.

Each scenario module is its own registry entry: ``run``, ``defaults`` and a
one-line ``description``.
"""

from . import channel, flocking, gossipmax, scr, sofl
from .base import CheckResult, RunResult, ScenarioConfig

SCENARIOS = {
    "channel": channel,
    "scr": scr,
    "gossip-max": gossipmax,
    "flocking": flocking,
    "sofl": sofl,
}

__all__ = [
    "CheckResult",
    "RunResult",
    "SCENARIOS",
    "ScenarioConfig",
]
