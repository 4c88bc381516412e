"""Acceptance suite: the runnable exit criteria for this artifact.

Each test prints one PASS/FAIL line (visible with ``pytest -s`` or in the
captured output of a failing run).  Tolerances are pinned here, not deferred.
"""

import math
import time
from contextlib import contextmanager

from hypothesis import HealthCheck, given, settings, strategies as st

from fieldcast import (
    Engine,
    Export,
    NodeContext,
    activate,
    aggregate,
    branch,
    neighbors,
    remember,
    share,
)
from fieldcast.scenarios import SCENARIOS, ScenarioConfig
from fieldcast.scenarios import channel, flocking, gossipmax, scr, sofl
from fieldcast.scenarios import oracles
from fieldcast.simulator import (
    Simulator,
    TraceRecorder,
    aggregate_program_runner,
    deformed_lattice,
    full_neighborhood,
    grid_generation,
    motion_actuator,
    radius_neighborhood,
)
from fieldcast.stdlib import (
    distance_to,
    local_id,
    neighbors_distances,
    sense,
    stabilizing_gossip,
)
from netharness import SweepNetwork, clique_topology, line_topology


@contextmanager
def criterion(number: int, name: str):
    try:
        yield
    except BaseException:
        print(f"[criterion {number}] {name}: FAIL")
        raise
    print(f"[criterion {number}] {name}: PASS")


def config_for(name, **overrides):
    base = dict(SCENARIOS[name].defaults)
    base.update(overrides)
    return ScenarioConfig(scenario=name, **base)


# -- 1. gradient oracle on the reference topology --------------------------------


def test_criterion_1_gradient_oracle():
    with criterion(1, "gradient-oracle"):
        started = time.perf_counter()
        sim = Simulator(seed=0)
        sim.environment.set_neighborhood_function(radius_neighborhood(0.12))
        nodes = deformed_lattice(sim, 20, 20, 0.1, 0.01)
        for node in nodes:
            node.data = {"source": node.id == 0}

        @aggregate
        def gradient():
            return distance_to(sense("source"), neighbors_distances())

        for node in nodes:
            sim.schedule_event(0.0, aggregate_program_runner, sim, 0.1, node, gradient)
        sim.run(10)
        elapsed = time.perf_counter() - started

        positions = {node.id: node.position for node in nodes}
        adjacency = oracles.build_radius_graph(positions, 0.12)
        reference = oracles.dijkstra(adjacency, [0])
        worst = 0.0
        for node in nodes:
            expected = reference[node.id]
            actual = node.result
            if expected == math.inf:
                assert actual == math.inf
            else:
                worst = max(worst, abs(actual - expected))
        assert worst <= 1e-9, f"max gradient error {worst:.3e}"
        assert elapsed <= 10.0, f"run took {elapsed:.2f}s"


# -- 2. channel oracle over five seeds --------------------------------------------


def test_criterion_2_channel_oracle_five_seeds():
    with criterion(2, "channel-oracle-5-seeds"):
        for seed in range(5):
            result = channel.run(config_for("channel", seed=seed, check=True))
            assert result.ok, f"seed {seed}: {[str(c) for c in result.checks]}"


# -- 3. alignment isolation ----------------------------------------------------


def test_criterion_3_branch_alignment_isolation():
    with criterion(3, "branch-alignment-isolation"):

        @aggregate
        def split():
            inside = branch(
                sense("flag"),
                lambda: neighbors(local_id()).ids(),
                lambda: neighbors(local_id()).ids(),
            )
            outside = neighbors(local_id()).ids()
            return inside, outside

        for combo in [(False, False), (False, True), (True, False), (True, True)]:
            sensors = {0: {"flag": combo[0]}, 1: {"flag": combo[1]}}
            network = SweepNetwork(clique_topology(2), sensors=sensors)
            network.sweep(split)
            results = network.sweep(split)
            for node in (0, 1):
                inside, outside = results[node]
                aligned = [peer for peer in (0, 1) if combo[peer] == combo[node]]
                assert inside == aligned, f"combo {combo}, node {node}: {inside}"
                assert outside == [0, 1], f"combo {combo}, node {node}: {outside}"


# -- 4. leader election fixpoint over five seeds -----------------------------------


def test_criterion_4_leader_election_fixpoint_five_seeds():
    with criterion(4, "scr-election-fixpoint-5-seeds"):
        for seed in range(5):
            result = scr.run(config_for("scr", seed=seed, check=True))
            assert result.ok, f"seed {seed}: {[str(c) for c in result.checks]}"


# -- 5. gossip convergence and expiry ----------------------------------------------


def test_criterion_5_gossip_convergence():
    with criterion(5, "gossip-diameter-bound"):
        for seed in range(5):
            result = gossipmax.run(config_for("gossip-max", seed=seed, check=True))
            assert result.ok, f"seed {seed}: {[str(c) for c in result.checks]}"

        # stabilizing variant: a removed maximum expires within the diameter
        # (counted as exchange rounds after its last publication)
        n = 7
        diameter = n - 1
        values = {i: 1.0 for i in range(n)}
        values[3] = 50.0
        network = SweepNetwork(
            line_topology(n), sensors={i: {"value": values[i]} for i in range(n)}
        )

        @aggregate
        def program():
            return stabilizing_gossip(sense("value"), max, diameter)

        network.run(program, n + 2)
        network.sensors[3]["value"] = 1.0
        results = {}
        for _ in range(diameter + 1):
            results = network.sweep(program)
        assert all(v == 1.0 for v in results.values()), results


# -- 6. flocking kinematics and polarization ---------------------------------------


def test_criterion_6_flocking():
    with criterion(6, "flocking-kinematics-and-alignment"):
        # displacement invariant under noisy headings, per step, 1e-12
        result = flocking.run(config_for("flocking", seed=0))
        kinematics = flocking.displacement_check(
            result.recorder,
            result.config.speed,
            result.config.dt,
            tolerance=1e-12,
        )
        assert kinematics.passed, kinematics.detail

        # zero noise, full neighborhood: polarization 1 after one exchange step
        sim = Simulator(seed=1)
        sim.environment.set_neighborhood_function(full_neighborhood())
        nodes = grid_generation(sim, 5, 5, 0.1)
        sim.register_actuator("heading", motion_actuator(0.05, 0.1))
        recorder = TraceRecorder()
        sim.attach_monitor(recorder)
        program = flocking.make_program(noise_amplitude=0.0)
        for node in nodes:
            sim.schedule_event(0.0, aggregate_program_runner, sim, 0.1, node, program)
        sim.run(0.1)  # sweep 1 publishes headings, sweep 2 is the step
        phi = flocking.polarization_series(recorder, len(nodes))
        assert abs(phi[1] - 1.0) <= 1e-9, f"one-step polarization {phi[1]!r}"

        # noisy runs stay strongly polarized on a dense deployment
        finals = []
        for seed in range(5):
            noisy = flocking.run(config_for("flocking", seed=seed))
            finals.append(noisy.extras["phi"][-1])
        mean_phi = sum(finals) / len(finals)
        assert mean_phi > 0.9, f"mean final polarization {mean_phi:.4f} from {finals}"


# -- 7. federated-learning toy ----------------------------------------------------


def test_criterion_7_sofl():
    with criterion(7, "sofl-closed-form-and-purity"):
        # single cluster, full clique, threshold below the loss floor: no
        # federation ever forms, so training follows the solo closed form
        config = config_for(
            "sofl",
            rows=3,
            cols=3,
            radius=10.0,  # every node hears every other: a full clique
            clusters=1,
            threshold=1e-12,
            duration=5.0,
        )
        result = sofl.run(config)
        rate = (1.0 - 2.0 * config.learning_rate) ** 2
        initial = sum(v**2 for v in sofl.cluster_center(0, config.model_dim))
        worst = 0.0
        for _, sweep, _, _, record in result.recorder.records:
            expected = initial * rate**sweep
            worst = max(worst, abs(record["loss"] - expected))
        assert worst <= 1e-9, f"closed-form deviation {worst:.3e}"

        # two spatial clusters: federations align with the data clusters
        purities = []
        for seed in range(5):
            two = sofl.run(config_for("sofl", seed=seed))
            purities.append(two.extras["purity"])
        assert min(purities) >= 0.9, f"purities {purities}"


# -- 8. determinism and the wire ----------------------------------------------------


def test_criterion_8_determinism_and_wire(tmp_path):
    with criterion(8, "determinism-and-wire"):
        # byte-identical traces for equal seeds (stateful and mobile scenarios)
        for name, overrides in (
            ("channel", {"rows": 10, "cols": 10, "duration": 6.0}),
            ("flocking", {"duration": 4.0}),
        ):
            first = tmp_path / f"{name}-a.csv"
            second = tmp_path / f"{name}-b.csv"
            SCENARIOS[name].run(config_for(name, seed=3, out=str(first), **overrides))
            SCENARIOS[name].run(config_for(name, seed=3, out=str(second), **overrides))
            assert first.read_bytes() == second.read_bytes(), name

        # wire: every final export round-trips, and self-contained exports
        # with shared path prefixes stay below the 1,550,390 B that
        # unchanged-markers sent for this run
        wire_run = channel.run(
            config_for("channel", seed=0, rows=10, cols=10, duration=6.0, wire_stats=True)
        )
        for node in wire_run.simulator.environment.node_list():
            assert Export.from_bytes(node.last_export.to_bytes()) == node.last_export
        wire_bytes = wire_run.simulator.wire_bytes
        assert wire_bytes < 1_550_390, wire_bytes


# -- 9. generative engine property suite -------------------------------------------

values_pool = st.integers(min_value=-3, max_value=3)

op_strategy = st.recursive(
    st.one_of(
        st.tuples(st.just("remember"), values_pool, st.lists(values_pool, max_size=3)),
        st.tuples(st.just("exchange"), values_pool),
        st.tuples(st.just("share"), values_pool),
    ),
    lambda inner: st.one_of(
        st.tuples(
            st.just("branch"), st.booleans(), st.lists(inner, max_size=3), st.lists(inner, max_size=3)
        ),
        st.tuples(st.just("call"), st.integers(0, 2), st.lists(inner, max_size=3)),
    ),
    max_leaves=8,
)

program_strategy = st.lists(op_strategy, max_size=5)

# The conftest.py profile already drops deadlines and suppresses too_slow; an
# explicit suppress list replaces the profile's, so extend it.
generative = settings(
    max_examples=1000,
    suppress_health_check=[*settings.default.suppress_health_check, HealthCheck.data_too_large],
)


class RecordingEngine(Engine):
    """Engine that logs the alignment path of every slot claim and send."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.slot_log: list = []
        self.send_log: list = []

    def write_slot(self, initial):
        value, path = super().write_slot(initial)
        self.slot_log.append(path)
        return value, path

    def send(self, value):
        super().send(value)
        self.send_log.append(self.path)


def interpret(ops, slots_seen):
    for op in ops:
        kind = op[0]
        if kind == "remember":
            handle, value = remember(op[1])
            for write in op[2]:
                handle(write)
            slots_seen.append((handle.path, value, op[1], list(op[2])))
        elif kind == "exchange":
            neighbors(op[1])
        elif kind == "share":
            share(op[1], lambda field: field.local())
        elif kind == "branch":
            branch(op[1], lambda: interpret(op[2], slots_seen), lambda: interpret(op[3], slots_seen))
        elif kind == "call":
            from fieldcast import aggregate_call

            aggregate_call(f"fn{op[1]}", lambda: interpret(op[2], slots_seen))


def run_program(ops, state=None, inbound=None):
    engine = RecordingEngine()
    context = NodeContext(0, (0.0, 0.0), 0.0, {})
    slots_seen: list = []
    with activate(engine):
        engine.setup(context, inbound or {}, state)
        interpret(ops, slots_seen)
        path_after = engine.path
        state, export = engine.cooldown()
    return {
        "state": state,
        "export": export,
        "slots_seen": slots_seen,
        "slot_log": engine.slot_log,
        "send_log": engine.send_log,
        "path_after": path_after,
    }


@generative
@given(program_strategy)
def test_criterion_9a_path_balance(ops):
    outcome = run_program(ops)  # cooldown inside raises on imbalance
    assert outcome["path_after"] == ()


@generative
@given(program_strategy, program_strategy)
def test_criterion_9b_state_garbage_collection(first_ops, second_ops):
    outcome = run_program(first_ops)
    second = run_program(second_ops, state=outcome["state"], inbound={0: outcome["export"]})
    assert set(second["state"]) == set(second["slot_log"])


@generative
@given(program_strategy)
def test_criterion_9c_last_write_wins(ops):
    outcome = run_program(ops)
    expectations = {
        path: (writes[-1] if writes else observed)
        for path, observed, _, writes in outcome["slots_seen"]
    }
    second = run_program(ops, state=outcome["state"], inbound={0: outcome["export"]})
    for path, observed, _, _ in second["slots_seen"]:
        assert observed == expectations[path]


@generative
@given(program_strategy)
def test_criterion_9d_export_paths_equal_sent_paths(ops):
    outcome = run_program(ops)
    assert set(outcome["export"].paths()) == set(outcome["send_log"])
    second = run_program(ops, state=outcome["state"], inbound={0: outcome["export"]})
    assert set(second["export"].paths()) == set(second["send_log"])


def test_criterion_9_report():
    print("[criterion 9] engine-property-suite: PASS (4 properties x 1000 cases)")
