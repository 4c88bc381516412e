"""Synchronous sweeps over a fixed topology, run on the simulator.

A sweep is one simulator instant: every node runs one round through
``aggregate_program_runner`` in ascending id order and, by the runner's
strictly-before rule, hears what its neighbors and itself published earlier.
"""

from __future__ import annotations

from typing import Any, Callable

from fieldcast import aggregate
from fieldcast.simulator import Simulator, StabilityTracker, aggregate_program_runner
from fieldcast.stdlib import local_id


class SweepNetwork:
    def __init__(
        self,
        topology: dict[int, set[int]],
        positions: dict[int, tuple] | None = None,
        sensors: dict[int, dict] | None = None,
        seed: int = 0,
        dt: float = 1.0,
    ):
        self.topology = {n: set(peers) for n, peers in topology.items()}
        self.positions = positions or {n: (float(n), 0.0) for n in topology}
        self.sensors = sensors or {n: {} for n in topology}
        self.dt, self.time = dt, 0.0
        self.simulator = Simulator(seed=seed)
        environment = self.simulator.environment
        # Environment ids count from 0: add, then drop, the ids the topology skips.
        for node_id in range(max(self.topology) + 1):
            position = self.positions.get(node_id, (0.0, 0.0))
            self.simulator.add_node(position, self.sensors.get(node_id))
            if node_id not in self.topology:
                del environment.nodes[node_id]
        environment.set_neighborhood_function(self._neighbors)
        for node in environment.node_list():
            self.simulator.schedule_event(
                0.0, aggregate_program_runner, self.simulator, dt, node, lambda: self.program()
            )

    def _neighbors(self, _, node):
        return self.topology[node.id]

    @property
    def exports(self) -> dict[int, Any]:
        nodes = self.simulator.environment.nodes.values()
        return {node.id: node.last_export for node in nodes if node.last_export is not None}

    def sweep(self, program: Callable, only: set[int] | None = None) -> dict[int, Any]:
        """Run one round on every node (ascending id); returns the results.

        Nodes outside ``only`` are suppressed.  The runner logs and skips a
        round aborted by an `AlignmentError`; the sweep fails on one.  Edits
        to ``topology`` since the last sweep take effect.
        """
        environment = self.simulator.environment
        environment.set_neighborhood_function(self._neighbors)  # drops the memo
        nodes = environment.node_list()
        for node in nodes:
            node.suppressed = only is not None and node.id not in only
        expected = self.simulator.rounds_executed + sum(not node.suppressed for node in nodes)
        self.program = program
        self.simulator.run(self.time)
        self.time += self.dt
        if self.simulator.rounds_executed != expected:
            raise AssertionError(
                f"{expected - self.simulator.rounds_executed} round(s) aborted "
                f"at t={self.simulator.time}; see the logged alignment error"
            )
        # A node has a state once it has completed a round.
        return {node.id: node.result for node in nodes if node.state is not None}

    def run(self, program: Callable, sweeps: int) -> dict[int, Any]:
        for _ in range(sweeps):
            results = self.sweep(program)
        return results

    def run_until_stable(
        self, program: Callable, max_sweeps: int = 500, window: int = 8
    ) -> dict[int, Any]:
        """Sweep until results are unchanged for ``window`` consecutive sweeps.

        A single unchanged sweep is not enough: composed blocks can plateau
        while information is still spreading underneath.
        """
        tracker = StabilityTracker(window=window)
        self.simulator.attach_monitor(tracker)
        for _ in range(max_sweeps):
            results = self.sweep(program)
            if tracker.stabilized(self.simulator.environment):
                self.simulator.monitors.remove(tracker)
                return results
        raise AssertionError(f"no fixpoint within {max_sweeps} sweeps")


def scripted(block: Callable, inputs: dict[int, tuple]) -> Callable:
    """A program in which node ``i`` runs ``block(*inputs[i])``.

    Edit ``inputs`` between sweeps to script each node's arguments round by
    round; the call site, and so every alignment path, stays the same.
    """

    @aggregate
    def main():
        return block(*inputs[local_id()])

    return main


def line_topology(n: int) -> dict[int, set[int]]:
    return {i: {j for j in (i - 1, i + 1) if 0 <= j < n} for i in range(n)}


def clique_topology(n: int) -> dict[int, set[int]]:
    return {i: set(range(n)) - {i} for i in range(n)}


def grid_topology(rows: int, cols: int) -> tuple[dict[int, set[int]], dict[int, tuple]]:
    """4-neighbor grid with unit spacing; returns (topology, positions)."""
    def node(r, c):
        return r * cols + c

    topology: dict[int, set[int]] = {}
    positions: dict[int, tuple] = {}
    for r in range(rows):
        for c in range(cols):
            peers = set()
            for dr, dc in ((1, 0), (-1, 0), (0, 1), (0, -1)):
                rr, cc = r + dr, c + dc
                if 0 <= rr < rows and 0 <= cc < cols:
                    peers.add(node(rr, cc))
            topology[node(r, c)] = peers
            positions[node(r, c)] = (float(r), float(c))
    return topology, positions
