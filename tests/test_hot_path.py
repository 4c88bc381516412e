"""A ceiling on the Python calls an scr, a channel, a sofl and a flocking node round make.

Host timings on a shared machine drift by 2x, so a slower hot path can hide
in their noise.  The number of calls a deterministic run makes repeats
exactly, so it is counted instead: a short run under `cProfile`, calls
divided by node rounds.  Each ceiling is the count measured when it was set,
plus about 3%; lower it when the hot path gets leaner.

scr runs the deepest program (election, gradient, collection, broadcast);
channel runs two gradients and, with every export encoded, the wire codec;
sofl composes election, gradient, collection and broadcast over the
loss-based metric;
flocking moves every device every round, so each round queries the radius
topology afresh; at ten times its default speed every step is longer than
half the Verlet skin, so every move clears the lists and every query rebuilds
its own.
"""

import cProfile
import sys

import pytest

from fieldcast.scenarios import SCENARIOS, ScenarioConfig
from fieldcast.simulator import Simulator

pytestmark = pytest.mark.skipif(
    sys.version_info[:2] != (3, 11), reason="call counts were measured on CPython 3.11"
)

# Measured on CPython 3.11.7, seed 7, 1 s.  scr's first second is the
# election's transient; the steady state makes fewer calls per round.
SCR_MEASURED, SCR_CEILING = 248.0, 255.4
CHANNEL_WIRE_MEASURED, CHANNEL_WIRE_CEILING = 226.8, 233.6
SOFL_MEASURED, SOFL_CEILING = 270.1, 278.2
FLOCKING_MEASURED, FLOCKING_CEILING = 138.3, 142.4
FLOCKING_LONG_STEPS_MEASURED, FLOCKING_LONG_STEPS_CEILING = 182.7, 188.2


def calls_per_node_round(monkeypatch, scenario: str, node_rounds=4400, **overrides) -> float:
    spec = SCENARIOS[scenario]
    config = ScenarioConfig(scenario=scenario, **spec.defaults).overridden(
        seed=7, duration=1.0, **overrides
    )
    profile = cProfile.Profile()
    simulators = []
    run = Simulator.run

    def profiled_run(simulator, until):
        simulators.append(simulator)
        profile.enable()
        try:
            run(simulator, until)
        finally:
            profile.disable()

    monkeypatch.setattr(Simulator, "run", profiled_run)
    spec.run(config)
    rounds = simulators[0].rounds_executed
    assert rounds == node_rounds  # rounds at t = 0, 0.1, ..., 1.0 on every device
    # Summed per code object: `pstats` merges functions that share a file,
    # line and name (two generator expressions on one line, say).
    return sum(entry.callcount for entry in profile.getstats()) / rounds


def test_an_scr_node_round_stays_under_its_call_ceiling(monkeypatch):
    per_round = calls_per_node_round(monkeypatch, "scr")
    assert per_round <= SCR_CEILING, (
        f"{per_round:.1f} Python calls per scr node round, ceiling {SCR_CEILING}"
        f" (measured {SCR_MEASURED} when it was set)"
    )


def test_a_channel_node_round_with_every_export_encoded_stays_under_its_call_ceiling(
    monkeypatch,
):
    per_round = calls_per_node_round(monkeypatch, "channel", wire_stats=True)
    assert per_round <= CHANNEL_WIRE_CEILING, (
        f"{per_round:.1f} Python calls per channel node round with wire_stats,"
        f" ceiling {CHANNEL_WIRE_CEILING} (measured {CHANNEL_WIRE_MEASURED} when it was set)"
    )


def test_a_sofl_node_round_stays_under_its_call_ceiling(monkeypatch):
    per_round = calls_per_node_round(monkeypatch, "sofl", node_rounds=704)
    assert per_round <= SOFL_CEILING, (
        f"{per_round:.1f} Python calls per sofl node round, ceiling {SOFL_CEILING}"
        f" (measured {SOFL_MEASURED} when it was set)"
    )


def test_a_flocking_node_round_stays_under_its_call_ceiling(monkeypatch):
    per_round = calls_per_node_round(monkeypatch, "flocking", node_rounds=8800, n=800)
    assert per_round <= FLOCKING_CEILING, (
        f"{per_round:.1f} Python calls per flocking node round, ceiling {FLOCKING_CEILING}"
        f" (measured {FLOCKING_MEASURED} when it was set)"
    )


def test_a_flocking_node_round_with_steps_past_the_skin_stays_under_its_call_ceiling(
    monkeypatch,
):
    # speed 0.5 moves a device 0.05 a round, past skin / 2 = 0.0375 at radius 0.3.
    per_round = calls_per_node_round(monkeypatch, "flocking", node_rounds=8800, n=800, speed=0.5)
    assert per_round <= FLOCKING_LONG_STEPS_CEILING, (
        f"{per_round:.1f} Python calls per flocking node round with steps past the skin,"
        f" ceiling {FLOCKING_LONG_STEPS_CEILING} (measured {FLOCKING_LONG_STEPS_MEASURED}"
        " when it was set)"
    )
