"""A ceiling on the Python calls an scr node round makes.

Host timings on a shared machine drift by 2x, so a slower hot path can hide
in their noise.  The number of calls a deterministic run makes repeats
exactly, so it is counted instead: a short scr run under `cProfile`, calls
divided by node rounds.  The ceiling is the count measured when it was set,
plus about 3%; lower it when the hot path gets leaner.
"""

import cProfile
import pstats
import sys

import pytest

from fieldcast.scenarios import SCENARIOS, ScenarioConfig
from fieldcast.simulator import Simulator

# Measured on CPython 3.11.7.  The first second is the election's transient;
# the steady state makes fewer calls per round.
MEASURED_CALLS_PER_ROUND = 292.1
CEILING = 301.0


@pytest.mark.skipif(
    sys.version_info[:2] != (3, 11), reason="call counts were measured on CPython 3.11"
)
def test_an_scr_node_round_stays_under_its_call_ceiling(monkeypatch):
    spec = SCENARIOS["scr"]
    config = ScenarioConfig(scenario="scr", **spec.defaults).overridden(seed=7, duration=1.0)
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
    assert rounds == 4400  # 400 devices, rounds at t = 0, 0.1, ..., 1.0
    per_round = pstats.Stats(profile).total_calls / rounds
    assert per_round <= CEILING, (
        f"{per_round:.1f} Python calls per scr node round, ceiling {CEILING}"
        f" (measured {MEASURED_CALLS_PER_ROUND} when it was set)"
    )
