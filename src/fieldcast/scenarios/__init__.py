"""Bundled experiments runnable from the command line."""

from dataclasses import dataclass
from typing import Callable

from . import channel, flocking, gossipmax, scr, sofl
from .base import CheckResult, RunResult, ScenarioConfig


@dataclass(frozen=True)
class ScenarioSpec:
    run: Callable[[ScenarioConfig], RunResult]
    defaults: dict
    description: str


SCENARIOS: dict[str, ScenarioSpec] = {
    "channel": ScenarioSpec(
        channel.run,
        channel.DEFAULTS,
        "devices within a width of the shortest source-target path",
    ),
    "scr": ScenarioSpec(
        scr.run,
        scr.DEFAULTS,
        "coordination regions: leader election, per-region node counts",
    ),
    "gossip-max": ScenarioSpec(
        gossipmax.run,
        gossipmax.DEFAULTS,
        "network-wide maximum via epidemic gossip",
    ),
    "flocking": ScenarioSpec(
        flocking.run,
        flocking.DEFAULTS,
        "heading alignment with constant-speed motion",
    ),
    "sofl": ScenarioSpec(
        sofl.run,
        sofl.DEFAULTS,
        "self-organizing federated learning on an analytic toy model",
    ),
}

__all__ = [
    "CheckResult",
    "RunResult",
    "SCENARIOS",
    "ScenarioConfig",
    "ScenarioSpec",
]
