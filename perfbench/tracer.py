"""Per-layer tracing for one benchmark process.

`Tracer.install` replaces the public calls of each fieldcast layer with thin
wrappers that time them.  Wrappers pass straight through while `enabled` is
false, so only the timed `Simulator.run` is traced.  Every wrapped call is a
span; its self time is its duration minus the time its child spans cover.
Fine-grained spans (half a million `Engine.enter` calls in an scr run) are folded
into per-name totals as they close; only the round spans are kept one by one,
in memory, and written out by `write_rounds` when the run ends.

Untraced benchmark runs never import this module.
"""

from __future__ import annotations

import sys
import time

from fieldcast import calculus
from fieldcast.engine import Engine, Export
from fieldcast.fields import NeighborhoodField
from fieldcast.simulator import core, monitors
from fieldcast.simulator.environment import Environment
from fieldcast.simulator.node import Node
from fieldcast.values import UNCHANGED

# Layer of each span: the fieldcast module (or package part) it times.
LAYERS = (
    "simulator.core",
    "simulator.environment",
    "simulator.node",
    "simulator.monitors",
    "engine",
    "calculus",
    "fields",
    "values",
)

# Spans that run outside node rounds; every other span is inside one.
OUTSIDE_ROUNDS = ("simulator.core.run", "simulator.monitors.on_event")

FOLDS = ("items", "min_value", "max_value", "exclude_self", "zip_with", "map_values")
ENGINE_CALLS = ("enter", "exit", "write_slot", "send", "receive", "neighbor_values")
OPERATORS = ("share", "neighbors", "remember", "branch")
MONITOR_CLASSES = (
    monitors.Monitor,
    monitors.TraceRecorder,
    monitors.StabilityTracker,
    monitors.CsvTraceMonitor,
    monitors.FrameMonitor,
)


class Tracer:
    def __init__(self):
        self.enabled = False
        # span name -> [calls, total seconds, self seconds]
        self.stats: dict[str, list] = {}
        # (node id, simulated time, host start, duration, self) per round
        self.rounds: list[tuple] = []
        self.unchanged_entries = 0
        self.export_entries = 0
        self.encoded_bytes = 0
        self._stack: list[list] = []
        self._program_frame = None
        self._program_start = 0.0

    # -- spans ----------------------------------------------------------------

    def _wrap(self, name, fn, on_close=None):
        """Wrapper timing each call of ``fn`` as span ``name``.

        ``on_close(args, start, duration, own)`` runs after the span closes,
        for per-span records.
        """
        stats = self.stats.setdefault(name, [0, 0.0, 0.0])
        stack = self._stack
        clock = time.perf_counter
        tracer = self

        def wrapper(*args, **kwargs):
            if not tracer.enabled:
                return fn(*args, **kwargs)
            frame = [0.0]
            stack.append(frame)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                duration = clock() - start
                stack.pop()
                own = duration - frame[0]
                stats[0] += 1
                stats[1] += duration
                stats[2] += own
                if stack:
                    stack[-1][0] += duration
                if on_close is not None:
                    on_close(args, start, duration, own)

        wrapper.__name__ = getattr(fn, "__name__", name)
        wrapper.__wrapped__ = fn
        return wrapper

    def _untimed(self, started: float) -> None:
        """Hide tracer bookkeeping that began at ``started`` from every self time."""
        if self._stack:
            self._stack[-1][0] += time.perf_counter() - started

    def _open_program(self) -> None:
        """Start the span from `Engine.setup` return to `Engine.cooldown` start."""
        frame = [0.0]
        self._stack.append(frame)
        self._program_frame = frame
        self._program_start = time.perf_counter()

    def _close_program(self) -> None:
        frame = self._program_frame
        if frame is None or not self._stack or self._stack[-1] is not frame:
            return
        duration = time.perf_counter() - self._program_start
        self._stack.pop()
        self._program_frame = None
        stats = self.stats["calculus.program"]
        stats[0] += 1
        stats[1] += duration
        stats[2] += duration - frame[0]
        if self._stack:
            self._stack[-1][0] += duration

    # -- installation -----------------------------------------------------------

    def install(self) -> None:
        """Wrap every traced call.  Call after importing the scenarios."""
        self.stats["calculus.program"] = [0, 0.0, 0.0]
        self._wrap_method(core.Simulator, "run", "simulator.core.run")
        self._wrap_method(core.Simulator, "schedule_event", "simulator.core.schedule_event")
        self._rebind(core.aggregate_program_runner, self._wrap(
            "simulator.core.round", core.aggregate_program_runner, self._record_round
        ))

        self._wrap_method(Environment, "neighbor_ids", "simulator.environment.neighbor_ids")
        self._wrap_method(Environment, "move_node", "simulator.environment.move_node")
        set_neighborhood = Environment.set_neighborhood_function
        tracer = self

        def set_neighborhood_function(environment, fn):
            set_neighborhood(environment, tracer._wrap("simulator.environment.recompute", fn))

        Environment.set_neighborhood_function = set_neighborhood_function

        self._wrap_method(Node, "export_before", "simulator.node.export_before")
        self._wrap_method(Node, "publish_export", "simulator.node.publish_export")
        for cls in MONITOR_CLASSES:
            for hook in ("on_round", "on_event"):
                if hook in vars(cls):
                    self._wrap_method(cls, hook, f"simulator.monitors.{hook}")

        for call in ENGINE_CALLS:
            self._wrap_method(Engine, call, f"engine.{call}")
        setup = self._wrap("engine.setup", Engine.setup)
        cooldown = self._wrap("engine.cooldown", Engine.cooldown)
        abort = self._wrap("engine.abort", Engine.abort)

        def traced_setup(*args, **kwargs):
            setup(*args, **kwargs)
            if tracer.enabled:
                tracer._open_program()

        def traced_cooldown(*args, **kwargs):
            if tracer.enabled:
                tracer._close_program()
            state, export = cooldown(*args, **kwargs)
            if tracer.enabled:
                started = time.perf_counter()
                entries = export.entries.values()
                tracer.export_entries += len(entries)
                tracer.unchanged_entries += sum(1 for value in entries if value is UNCHANGED)
                tracer._untimed(started)
            return state, export

        def traced_abort(*args, **kwargs):
            if tracer.enabled:
                tracer._close_program()
            abort(*args, **kwargs)

        Engine.setup = traced_setup
        Engine.cooldown = traced_cooldown
        Engine.abort = traced_abort

        for operator in OPERATORS:
            original = getattr(calculus, operator)
            self._rebind(original, self._wrap(f"calculus.{operator}", original))

        self._wrap_method(NeighborhoodField, "__init__", "fields.build")
        for fold in FOLDS:
            self._wrap_method(NeighborhoodField, fold, "fields.fold")

        to_bytes = self._wrap("values.to_bytes", Export.to_bytes)

        def traced_to_bytes(*args, **kwargs):
            raw = to_bytes(*args, **kwargs)
            if tracer.enabled:
                tracer.encoded_bytes += len(raw)
            return raw

        Export.to_bytes = traced_to_bytes

    def _wrap_method(self, cls, attribute: str, name: str) -> None:
        setattr(cls, attribute, self._wrap(name, vars(cls)[attribute]))

    @staticmethod
    def _rebind(original, replacement) -> None:
        """Replace ``original`` under every name any fieldcast module binds it to."""
        for module_name, module in list(sys.modules.items()):
            if module is None or not module_name.startswith("fieldcast"):
                continue
            for attribute, value in list(vars(module).items()):
                if value is original:
                    setattr(module, attribute, replacement)

    def _record_round(self, args, start, duration, own) -> None:
        simulator, _, node, _ = args
        self.rounds.append((node.id, simulator.time, start, duration, own))

    # -- results ------------------------------------------------------------------

    def metrics(self, node_rounds: int) -> dict:
        """Per-layer metrics as {name: (value, unit)} for a run of ``node_rounds``."""
        stats = self.stats
        out: dict[str, tuple] = {}

        def calls(name):
            out[f"{name}.calls"] = (stats[name][0], "count")

        def total(name):
            out[f"{name}.total_s"] = (stats[name][1], "s")

        def own(name):
            out[f"{name}.self_s"] = (stats[name][2], "s")

        total("simulator.core.run")
        out["simulator.core.queue.self_s"] = (stats["simulator.core.run"][2], "s")
        for part in (calls, total, own):
            part("simulator.core.round")
        calls("simulator.core.schedule_event")
        own("simulator.core.schedule_event")

        for name in ("neighbor_ids", "move_node"):
            for part in (calls, total, own):
                part(f"simulator.environment.{name}")
        calls("simulator.environment.recompute")
        own("simulator.environment.recompute")
        lookups = stats["simulator.environment.neighbor_ids"][0]
        hits = lookups - stats["simulator.environment.recompute"][0]
        out["simulator.environment.memo_hits"] = (hits, "count")
        out["simulator.environment.memo_hit_ratio"] = (_ratio(hits, lookups), "ratio")

        for name in ("export_before", "publish_export"):
            for part in (calls, total, own):
                part(f"simulator.node.{name}")

        calls("simulator.monitors.on_round")
        own("simulator.monitors.on_round")

        own("engine.setup")
        own("engine.cooldown")
        for call in ENGINE_CALLS:
            calls(f"engine.{call}")
            own(f"engine.{call}")
        enters = stats["engine.enter"][0]
        out["engine.enter_per_round"] = (_ratio(enters, node_rounds), "count")
        out["engine.unchanged_entries"] = (self.unchanged_entries, "count")
        out["engine.export_entries"] = (self.export_entries, "count")
        out["engine.unchanged_ratio"] = (
            _ratio(self.unchanged_entries, self.export_entries),
            "ratio",
        )

        for operator in OPERATORS:
            for part in (calls, total, own):
                part(f"calculus.{operator}")
        own("calculus.program")

        for name in ("fields.build", "fields.fold"):
            for part in (calls, total, own):
                part(name)

        calls("values.to_bytes")
        own("values.to_bytes")
        out["values.to_bytes.bytes"] = (self.encoded_bytes, "B")

        round_time = stats["simulator.core.round"][1]
        for layer in LAYERS:
            inside = sum(
                entry[2]
                for name, entry in stats.items()
                if name.startswith(layer + ".") and name not in OUTSIDE_ROUNDS
            )
            out[f"{layer}.round_share"] = (_ratio(inside, round_time), "ratio")
        return out

    def write_rounds(self, path) -> None:
        """Write the round spans as CSV, times relative to the first round."""
        origin = self.rounds[0][2] if self.rounds else 0.0
        with open(path, "w", encoding="utf-8", newline="\n") as handle:
            handle.write("node_id,sim_time,start_s,duration_s,self_s\n")
            for node_id, sim_time, start, duration, own in self.rounds:
                handle.write(f"{node_id},{sim_time!r},{start - origin:.9f},{duration:.9f},{own:.9f}\n")


def _ratio(numerator, denominator) -> float:
    return numerator / denominator if denominator else 0.0
