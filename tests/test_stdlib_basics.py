"""Device access, temporal primitives, and neighbor metrics."""

import math

import pytest

from fieldcast import Engine, NodeContext, activate, aggregate
from fieldcast.errors import DomainError, MissingSensorError, UsageError
from fieldcast.stdlib import (
    context_rng,
    countdown,
    current_time,
    exponential_decay,
    hop_distances,
    local_id,
    local_position,
    neighbors_distances,
    round_counter,
    sense,
    store_actuation,
)
from netharness import SweepNetwork, clique_topology


def test_device_reads():
    sensors = {5: {"source": True, "temp": 21.5}}
    network = SweepNetwork({5: set()}, positions={5: (1.0, 2.0)}, sensors=sensors)

    @aggregate
    def probe():
        return local_id(), local_position(), sense("source"), sense("temp")

    assert network.sweep(probe)[5] == (5, (1.0, 2.0), True, 21.5)


def test_unknown_sensor_raises():
    network = SweepNetwork({0: set()})

    @aggregate
    def bad():
        return sense("missing")

    with pytest.raises(MissingSensorError):
        network.sweep(bad)


DEVICE_ACCESSORS = {
    "local_id": local_id,
    "local_position": local_position,
    "sense": lambda: sense("temp"),
    "context_rng": context_rng,
    "current_time": current_time,
    "store_actuation": lambda: store_actuation("led", True),
}


@pytest.mark.parametrize("accessor", DEVICE_ACCESSORS.values(), ids=DEVICE_ACCESSORS.keys())
def test_device_accessors_outside_a_round_raise_usage_error(accessor):
    engine = Engine()
    with activate(engine):
        with pytest.raises(UsageError, match=r"^no round in progress \(call setup first\)$"):
            accessor()  # before the first round
        engine.setup(NodeContext(0, (0.0, 0.0), 0.0, {"temp": 1.0}), {}, None)
        engine.cooldown()
        with pytest.raises(UsageError, match="^no round in progress"):
            accessor()  # after the round ended
    with pytest.raises(UsageError, match="^no engine active in this context$"):
        accessor()


def test_round_counter_and_time():
    network = SweepNetwork({0: set()}, dt=0.5)

    @aggregate
    def clocked():
        return round_counter(), current_time()

    seen = [network.sweep(clocked)[0] for _ in range(3)]
    assert seen == [(1, 0.0), (2, 0.5), (3, 1.0)]


def test_exponential_decay():
    network = SweepNetwork({0: set()})
    program = aggregate(lambda: exponential_decay(8.0, 0.5))
    assert [network.sweep(program)[0] for _ in range(3)] == [8.0, 4.0, 2.0]


def test_decay_rate_domain():
    network = SweepNetwork({0: set()})
    with pytest.raises(DomainError):
        network.sweep(aggregate(lambda: exponential_decay(1.0, 1.5)))


def test_countdown_reaches_zero_and_stays():
    network = SweepNetwork({0: set()}, dt=1.0)
    program = aggregate(lambda: countdown(2.5))
    values = [network.sweep(program)[0] for _ in range(5)]
    assert values == [2.5, 1.5, 0.5, 0.0, 0.0]


@pytest.mark.parametrize("duration", [-1.0, math.nan])
def test_countdown_duration_domain(duration):
    network = SweepNetwork({0: set()})
    with pytest.raises(DomainError):
        network.sweep(aggregate(lambda: countdown(duration)))


def test_neighbors_distances_euclidean():
    positions = {0: (0.0, 0.0), 1: (3.0, 4.0)}
    network = SweepNetwork(clique_topology(2), positions=positions)
    program = aggregate(lambda: neighbors_distances())
    network.sweep(program)
    results = network.sweep(program)
    assert results[0].items() == [(0, 0.0), (1, 5.0)]
    assert results[1].items() == [(0, 5.0), (1, 0.0)]


def test_neighbors_distances_isolated():
    network = SweepNetwork({0: set()})
    result = network.sweep(aggregate(lambda: neighbors_distances()))[0]
    assert result.items() == [(0, 0.0)]


def test_hop_distances():
    network = SweepNetwork(clique_topology(4))
    program = aggregate(lambda: hop_distances())
    network.sweep(program)
    field = network.sweep(program)[2]
    assert field[2] == 0.0
    assert sorted(field.exclude_self().values()) == [1.0, 1.0, 1.0]
