"""Deterministic discrete-event simulation of aggregate networks.

The simulator owns a single time-ordered event queue; events at equal times
fire in scheduling order.  ``aggregate_program_runner`` executes one node
round per event and reschedules itself, pulling each neighbor's most recent
export completed strictly before the current time (a same-instant export has
not "arrived" yet).  All randomness flows from one master seed through
per-node streams, so equal seeds give byte-identical traces.
"""

from __future__ import annotations

import hashlib
import heapq
import logging
import math
import random
from typing import Any, Callable

from ..calculus import engine_var
from ..engine import Engine, NodeContext
from ..errors import AlignmentError, DomainError
from .environment import Environment
from .node import Node

log = logging.getLogger(__name__)


def derive_seed(master: int, key) -> int:
    """Stable 64-bit stream seed for ``key`` under the master seed."""
    digest = hashlib.sha256(f"{master}/{key}".encode()).digest()
    return int.from_bytes(digest[:8], "big")


class Simulator:
    def __init__(self, seed: int = 0):
        self.environment = Environment()
        self.time = 0.0
        self.seed = seed
        self.monitors: list = []
        self.actuators: dict[str, Callable] = {}
        self.deploy_rng = random.Random(derive_seed(seed, "deploy"))
        self.rounds_executed = 0
        self.count_wire_bytes = False  # then count bytes and exports sent, and inline ones
        self.wire_bytes = self.wire_exports = self.inline_exports = 0
        # (time, sequence, fn, args): the unique sequence breaks time ties
        # before fn would ever be compared.
        self._queue: list[tuple] = []
        self._sequence = 0

    # -- population ----------------------------------------------------------

    def add_node(self, position, data: dict | None = None) -> Node:
        node = self.environment.add_node(position, data)
        node.rng = random.Random(derive_seed(self.seed, node.id))
        return node

    # -- scheduling ----------------------------------------------------------

    def schedule_event(self, time: float, fn: Callable, *args: Any) -> None:
        if not time >= self.time:  # also refuses NaN, which would break the heap order
            raise DomainError(f"cannot schedule at t={time} (now t={self.time})")
        heapq.heappush(self._queue, (time, self._sequence, fn, args))
        self._sequence += 1

    def run(self, until: float) -> None:
        """Pop events in (time, sequence) order until none remain at or before ``until``."""
        if math.isnan(until):
            raise DomainError("cannot run until t=nan")
        for monitor in self.monitors:
            monitor.on_start(self)
        queue = self._queue
        while queue and queue[0][0] <= until:
            event = heapq.heappop(queue)
            self.time, _, fn, args = event
            fn(*args)
            for monitor in self.monitors:
                monitor.on_event(self, event)
        if until > self.time:
            self.time = until
        for monitor in self.monitors:
            monitor.on_finish(self)

    # -- instrumentation ----------------------------------------------------

    def attach_monitor(self, monitor) -> None:
        self.monitors.append(monitor)

    def register_actuator(self, name: str, actuator: Callable) -> None:
        """``actuator(environment, node, staged_value)`` runs after each round."""
        self.actuators[name] = actuator


def aggregate_program_runner(simulator: Simulator, dt: float, node: Node, program: Callable) -> None:
    """Execute one full round for ``node`` and reschedule it after ``dt``.

    Gathers inbound messages (each current neighbor's latest export published
    strictly before now, plus the node's own previous export), runs the
    program through a fresh engine, applies staged actuations, then publishes
    the new state and export.  Under ``count_wire_bytes`` it also encodes the
    export under the node's template policy (`Node.encode_export`), before the
    actuations, and counts the bytes, the export and whether it went inline.
    An alignment error is logged and skips this round's updates; the node
    keeps its previous state and export and still reschedules.  Any other
    exception from the round (the program, the wire count or an actuator) is
    logged with the node and time, then propagates and ends the run with the
    round neither committed nor counted.  A ``dt`` that is not finite and
    positive raises `DomainError` before the round runs.
    """
    if not 0.0 < dt < math.inf:
        raise DomainError(f"node {node.id}: round period dt={dt!r} must be finite and > 0")
    env = simulator.environment
    now = simulator.time
    if not node.suppressed:
        nodes = env.nodes
        inbound = []
        for neighbor_id in env.neighbor_ids(node):
            export = nodes[neighbor_id].export_before(now)
            if export is not None:
                inbound.append((neighbor_id, export.entries))
        context = NodeContext(node.id, node.position, now, node.data, node.rng)
        engine = Engine()
        try:
            token = engine_var.set(engine)
            try:
                engine.setup(context, inbound, node.state, node.last_export)
                result = program()
                new_state, export = engine.cooldown()
            finally:
                engine_var.reset(token)
            wire = node.encode_export(export) if simulator.count_wire_bytes else None
            if engine.staged_actuations:
                for name, value in engine.staged_actuations.items():
                    actuator = simulator.actuators.get(name)
                    if actuator is not None:
                        actuator(env, node, value)
        except AlignmentError as error:
            log.warning("node %s round at t=%.6f aborted: %s", node.id, now, error)
            engine.abort()
        except Exception as error:
            log.error("node %s round at t=%.6f crashed: %r", node.id, now, error)
            raise
        else:
            node.state = new_state
            node.result = result
            node.publish_export(export, now)
            if wire is not None:
                simulator.wire_bytes += len(wire[0])
                simulator.wire_exports += 1
                simulator.inline_exports += wire[1]
            simulator.rounds_executed += 1
            for monitor in simulator.monitors:
                monitor.on_round(simulator, node)
    simulator.schedule_event(now + dt, aggregate_program_runner, simulator, dt, node, program)


def motion_actuator(speed: float, dt: float) -> Callable:
    """Actuator moving a node by speed * dt along a staged heading vector.

    The staged value is any finite non-zero (x, y) direction, else DomainError;
    the displacement is computed from its angle, so its length is speed * dt.
    """

    def apply(environment: Environment, node: Node, heading) -> None:
        hx, hy = heading
        if not (-math.inf < hx < math.inf and -math.inf < hy < math.inf) or hx == hy == 0:
            raise DomainError(f"heading {heading!r} must be a finite non-zero vector")
        theta = math.atan2(hy, hx)
        x, y = node.position
        environment.move_node(
            node, (x + speed * dt * math.cos(theta), y + speed * dt * math.sin(theta))
        )

    return apply
