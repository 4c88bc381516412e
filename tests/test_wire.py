"""The export wire codec end to end: templates under the sender policy, decoded where heard."""

import os
import subprocess
import sys
from collections import defaultdict
from pathlib import Path

import pytest

from fieldcast import Export, TemplateTable, UnknownTemplateError
from fieldcast.scenarios import SCENARIOS, ScenarioConfig, channel, scr
from fieldcast.simulator.monitors import Monitor
from fieldcast.simulator.node import TEMPLATE_REFRESH

DT = 0.1
JOIN_TIME = 1.05  # between the 11th and the 12th round
LATE = 7  # the joiner: an inner node of the 6 x 6 lattice


class WireReplay(Monitor):
    """Encode every published export under the sender policy and decode it at
    each current neighbour's own template table.

    The late joiner's table hears nothing before ``JOIN_TIME``.  A reference
    its table does not know is counted as a missed export, not raised.
    """

    def __init__(self):
        self.tables = defaultdict(TemplateTable)
        self.decoded = 0
        self.inline = 0
        self.unknown: list[tuple[float, int, int]] = []  # (time, receiver, sender)
        self.learned: dict[int, float] = {}  # sender -> first decode at the joiner

    def on_round(self, simulator, node):
        export = node.last_export
        raw, inline = node.encode_export(export)
        self.inline += inline
        now = simulator.time
        for receiver in simulator.environment.neighbor_ids(node):
            if receiver == LATE and now < JOIN_TIME:
                continue
            try:
                decoded = Export.from_bytes(raw, self.tables[receiver])
            except UnknownTemplateError:
                self.unknown.append((now, receiver, node.id))
                continue
            assert decoded == export
            self.decoded += 1
            if receiver == LATE:
                self.learned.setdefault(node.id, now)


@pytest.mark.parametrize("module", [channel, scr], ids=["channel", "scr"])
def test_every_published_export_decodes_where_it_is_heard(module, monkeypatch):
    name = module.__name__.rsplit(".", 1)[1]
    replay = WireReplay()
    build = module.build_simulator

    def build_with_replay(config):
        simulator = build(config)
        simulator.attach_monitor(replay)
        joiner = simulator.environment.nodes[LATE]
        joiner.suppressed = True
        simulator.schedule_event(JOIN_TIME, setattr, joiner, "suppressed", False)
        return simulator

    monkeypatch.setattr(module, "build_simulator", build_with_replay)
    config = ScenarioConfig(scenario=name, **SCENARIOS[name].defaults).overridden(
        rows=6, cols=6, dt=DT, duration=4.0
    )
    result = module.run(config)
    simulator = result.simulator

    assert replay.decoded > 0
    # 35 nodes round at t = 0 .. 3.9 and the joiner from t = 1.1: each sends
    # the run's one template inline in its 1st and 21st export
    assert simulator.rounds_executed == 35 * 40 + 29
    assert replay.inline == 36 * 2
    # only the joiner misses exports, and only until every neighbour has refreshed
    deadline = JOIN_TIME + TEMPLATE_REFRESH * DT
    assert replay.unknown
    assert all(receiver == LATE for _, receiver, _ in replay.unknown)
    assert all(JOIN_TIME <= time < deadline for time, _, _ in replay.unknown)
    joiner = simulator.environment.nodes[LATE]
    neighbours = simulator.environment.neighbor_ids(joiner)
    assert sorted(replay.learned) == list(neighbours)
    assert max(replay.learned.values()) < deadline


ENCODE_FINAL_EXPORTS = """
import hashlib
from fieldcast.scenarios import SCENARIOS, ScenarioConfig, channel

config = ScenarioConfig(scenario="channel", **SCENARIOS["channel"].defaults).overridden(
    rows=6, cols=6, duration=2.0
)
digest = hashlib.sha256()
for node in channel.run(config).simulator.environment.node_list():
    digest.update(node.last_export.to_bytes(inline=True))
    digest.update(node.last_export.to_bytes())
print(digest.hexdigest())
"""


def test_export_bytes_do_not_depend_on_the_hash_seed():
    src = str(Path(__file__).resolve().parents[1] / "src")
    digests = []
    for hash_seed in ("0", "1"):
        env = dict(os.environ, PYTHONHASHSEED=hash_seed, PYTHONPATH=src)
        done = subprocess.run(
            [sys.executable, "-c", ENCODE_FINAL_EXPORTS],
            env=env,
            capture_output=True,
            text=True,
            timeout=120,
            check=True,
        )
        digests.append(done.stdout.strip())
    assert len(digests[0]) == 64
    assert digests[0] == digests[1]


class WireRoundTrip(Monitor):
    """Encode every published export inline and by reference, and decode both
    against one template table, keeping each decode whose entries' ``repr``
    differs from the sent one's (so ``1`` does not pass for ``1.0``, nor a
    list for a tuple)."""

    def __init__(self):
        self.table = TemplateTable()
        self.exports = 0
        self.mismatches: list[tuple[float, int, bool]] = []  # (time, sender, inline)

    def on_round(self, simulator, node):
        export = node.last_export
        sent = repr(export.entries)
        for inline in (True, False):
            decoded = Export.from_bytes(export.to_bytes(inline=inline), self.table)
            if repr(decoded.entries) != sent:
                self.mismatches.append((simulator.time, node.id, inline))
        self.exports += 1


@pytest.mark.parametrize("name", list(SCENARIOS))
def test_every_scenario_export_round_trips_the_wire_exactly(name, monkeypatch):
    module = SCENARIOS[name]
    round_trip = WireRoundTrip()
    build = module.build_simulator

    def build_with_round_trip(config):
        simulator = build(config)
        simulator.attach_monitor(round_trip)
        return simulator

    monkeypatch.setattr(module, "build_simulator", build_with_round_trip)
    config = ScenarioConfig(scenario=name, **module.defaults).overridden(
        rows=5, cols=5, duration=3.0
    )
    module.run(config)
    assert round_trip.exports == 25 * 30  # rounds at t = 0, 0.1, ..., 2.9
    assert round_trip.mismatches == []
