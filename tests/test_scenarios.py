"""Scenario runners and the command-line interface (desk-scale configs)."""

import hashlib
import math

import pytest

from fieldcast.cli import build_parser, main, parse_config_file, resolve_config
from fieldcast.errors import DomainError
from fieldcast.scenarios import SCENARIOS, ScenarioConfig
from fieldcast.scenarios import channel, flocking, gossipmax, scr, sofl
from fieldcast.scenarios.gossipmax import uniformity_sweep
from fieldcast.simulator import StabilityTracker


def config_for(name, **overrides):
    base = dict(SCENARIOS[name].defaults)
    base.update(overrides)
    return ScenarioConfig(scenario=name, **base)


# -- channel ----------------------------------------------------------------


def test_channel_small_lattice_passes_oracle():
    config = config_for("channel", rows=8, cols=8, duration=6.0, check=True)
    result = channel.run(config)
    assert result.ok, [str(c) for c in result.checks]
    values = set(result.results.values())
    assert values <= {0.0, 1.0} and 1.0 in values


def test_channel_with_tiny_width_marks_exactly_the_chain():
    """As width shrinks toward zero the channel degenerates to the path itself."""
    config = config_for("channel", rows=6, cols=6, duration=6.0, width=1e-9, check=True)
    result = channel.run(config)
    assert result.ok, [str(c) for c in result.checks]
    chain = [n for n, v in result.results.items() if v == 1.0]
    # a 6x6 lattice diagonal needs at least 11 nodes (10 axis hops)
    assert 11 <= len(chain) <= 14
    assert 0 in chain and 35 in chain


def test_channel_degenerate_endpoints_make_a_ball():
    """Source and target on the same node: the channel is a ball around it."""
    from fieldcast.scenarios.channel import make_program
    from netharness import SweepNetwork, grid_topology

    topology, positions = grid_topology(5, 5)
    center = 12
    sensors = {
        n: {"source": n == center, "target": n == center} for n in topology
    }
    network = SweepNetwork(topology, positions=positions, sensors=sensors)
    results = network.run_until_stable(make_program(width=1.5))
    lit = {n for n, v in results.items() if v == 1.0}
    ball = {center, 7, 11, 13, 17}  # the center and its four axis neighbors
    assert lit == ball


def test_channel_requires_connectivity_for_oracle():
    config = config_for("channel", rows=2, cols=2, radius=0.01, duration=2.0, check=True)
    result = channel.run(config)
    oracle = [c for c in result.checks if c.name == "channel-oracle"][0]
    assert not oracle.passed and "disconnected" in oracle.detail


# -- scr ----------------------------------------------------------------


def test_scr_small_lattice_passes_all_checks():
    config = config_for("scr", rows=10, cols=10, duration=12.0, check=True)
    result = scr.run(config)
    assert result.ok, [str(c) for c in result.checks]
    leaders = [n for n, r in result.results.items() if r["leader"]]
    assert len(leaders) >= 2
    counts = {result.results[n]["region"] for n in leaders}
    assert all(c >= 1 for c in counts)


def test_scr_radius_larger_than_network_elects_one_leader():
    config = config_for(
        "scr", rows=4, cols=4, duration=8.0, leader_radius=100.0, check=True
    )
    result = scr.run(config)
    assert result.ok, [str(c) for c in result.checks]
    leaders = [n for n, r in result.results.items() if r["leader"]]
    assert len(leaders) == 1
    assert result.results[leaders[0]]["region"] == 16


def test_scr_leader_radius_follows_the_deployed_disc():
    # a quarter of the disc's diameter: 0.1 * sqrt(200) / 2; the lattice
    # defaults (20 x 20) would give 0.6718
    args = build_parser().parse_args(["run", "scr", "--n", "200", "--radius", "0.3", "--check"])
    result = SCENARIOS["scr"].run(resolve_config(args))
    assert result.extras["leader_radius"] == pytest.approx(0.7071, abs=1e-4)
    assert result.ok, [str(c) for c in result.checks]


def test_scr_single_node_region_of_one():
    config = config_for("scr", rows=1, cols=1, duration=3.0, check=True)
    result = scr.run(config)
    assert result.ok
    only = result.results[0]
    assert only["leader"] and only["region"] == 1


# -- gossip ----------------------------------------------------------------


def test_gossip_scenario_converges_within_diameter_bound():
    config = config_for("gossip-max", rows=6, cols=6, duration=6.0, check=True)
    result = gossipmax.run(config)
    assert result.ok, [str(c) for c in result.checks]
    assert set(result.results.values()) == {result.extras["true_max"]}


def test_gossip_single_node_keeps_own_value():
    config = config_for("gossip-max", rows=1, cols=1, duration=2.0, check=True)
    result = gossipmax.run(config)
    assert result.ok
    assert result.results[0] == result.extras["true_max"]


def test_uniformity_sweep_helper():
    class FakeRecorder:
        records = [
            (0.0, 1, 0, (0, 0), 1.0),
            (0.0, 1, 1, (0, 0), 5.0),
            (0.1, 2, 0, (0, 0), 5.0),
            (0.1, 2, 1, (0, 0), 5.0),
        ]

    assert uniformity_sweep(FakeRecorder(), {0, 1}, 5.0) == 2
    assert uniformity_sweep(FakeRecorder(), {0, 1}, 7.0) is None


# -- flocking ----------------------------------------------------------------


def test_flocking_zero_noise_aligns_fully():
    config = config_for(
        "flocking", rows=5, cols=5, noise_amplitude=0.0, duration=5.0, check=True
    )
    result = flocking.run(config)
    assert result.ok, [str(c) for c in result.checks]
    assert result.extras["phi"][-1] > 0.99


def test_flocking_single_node_goes_straight():
    config = config_for(
        "flocking", rows=1, cols=1, noise=0.0, noise_amplitude=0.0, duration=2.0
    )
    result = flocking.run(config)
    headings = set()
    node = result.simulator.environment.nodes[0]
    headings.add(node.result)
    assert result.extras["phi"] == pytest.approx([1.0] * len(result.extras["phi"]))
    # displacement follows one fixed heading: end position lies speed*t from start
    distance = math.dist(node.position, (0.0, 0.0))
    rounds = result.simulator.rounds_executed - 1  # motion applies per completed round
    assert distance == pytest.approx(config.speed * config.dt * (rounds + 1), rel=1e-6)


def test_flocking_attaches_no_stability_tracker():
    result = flocking.run(config_for("flocking", rows=3, cols=3, duration=1.0, check=True))
    assert result.stability is None
    assert not any(isinstance(m, StabilityTracker) for m in result.simulator.monitors)
    assert gossipmax.run(config_for("gossip-max", rows=3, cols=3, duration=1.0)).stability is not None


def test_flocking_circle_deployment():
    config = config_for("flocking", n=30, radius=0.6, duration=3.0, check=True)
    result = flocking.run(config)
    kinematics = [c for c in result.checks if c.name == "kinematics"][0]
    assert kinematics.passed


# -- sofl ----------------------------------------------------------------


def test_sofl_two_cluster_purity():
    config = config_for("sofl", check=True)
    result = sofl.run(config)
    assert result.ok, [str(c) for c in result.checks]
    assert result.extras["purity"] >= 0.9


def test_sofl_losses_decay():
    config = config_for("sofl", duration=6.0)
    result = sofl.run(config)
    assert max(r["loss"] for r in result.results.values()) < 0.1


def test_sofl_single_node_geometric_decay():
    config = config_for("sofl", rows=1, cols=1, clusters=1, duration=3.0)
    result = sofl.run(config)
    rounds = result.results[0]["tick"]
    rate = (1 - 2 * config.learning_rate) ** 2
    initial = sum(v**2 for v in sofl.cluster_center(0, config.model_dim))
    assert result.results[0]["loss"] == pytest.approx(initial * rate**rounds, rel=1e-9)


def test_sofl_parameter_validation():
    with pytest.raises(DomainError):
        sofl.run(config_for("sofl", learning_rate=1.5))
    with pytest.raises(DomainError):
        sofl.run(config_for("sofl", model_dim=0))
    with pytest.raises(DomainError):
        sofl.run(config_for("sofl", clusters=0))


def test_config_validation():
    with pytest.raises(DomainError):
        channel.run(config_for("channel", dt=-1.0))
    with pytest.raises(DomainError):
        channel.run(config_for("channel", duration=0.01, dt=0.1))
    with pytest.raises(DomainError):
        channel.run(config_for("channel", n=-3))


@pytest.mark.parametrize("name", ["channel", "scr", "gossip-max"])
def test_node_count_deploys_a_disc_in_lattice_scenarios(name):
    config = config_for(name, n=30, radius=0.6, duration=5.0, check=True)
    result = SCENARIOS[name].run(config)
    assert len(result.results) == 30
    assert result.ok, [str(c) for c in result.checks]


# -- CLI ----------------------------------------------------------------


def test_cli_list_names_all_scenarios(capsys):
    assert main(["list"]) == 0
    out = capsys.readouterr().out
    for name in SCENARIOS:
        assert name in out


def test_cli_version(capsys):
    assert main(["--version"]) == 0
    assert "fieldcast" in capsys.readouterr().out


def test_cli_unknown_scenario_is_usage_error():
    assert main(["run", "bogus"]) == 2


def test_cli_unknown_flag_is_usage_error():
    assert main(["run", "channel", "--bogus-flag", "1"]) == 2


def test_cli_negative_node_count_is_usage_error():
    assert main(["run", "gossip-max", "--n", "-3", "--duration", "1"]) == 2


def test_cli_missing_command_is_usage_error():
    assert main([]) == 2


def test_cli_run_with_check_exit_codes(tmp_path):
    trace = tmp_path / "trace.csv"
    code = main(
        ["run", "gossip-max", "--rows", "5", "--cols", "5", "--duration", "5",
         "--check", "--out", str(trace)]
    )
    assert code == 0
    lines = trace.read_text().splitlines()
    assert lines[0] == "time,node_id,x,y,value"
    assert len(lines) > 25


def test_cli_failed_check_returns_one():
    # disconnected source/target cannot satisfy the channel oracle
    code = main(
        ["run", "channel", "--rows", "2", "--cols", "2", "--radius", "0.01",
         "--duration", "2", "--check"]
    )
    assert code == 1


def test_cli_frames_output(tmp_path):
    frames = tmp_path / "frames"
    code = main(
        ["run", "gossip-max", "--rows", "4", "--cols", "4", "--duration", "2",
         "--frames", str(frames), "--frame-interval", "1.0"]
    )
    assert code == 0
    assert len(list(frames.glob("frame_*.svg"))) >= 2


def test_cli_config_file_and_flag_override(tmp_path):
    config_file = tmp_path / "run.cfg"
    config_file.write_text(
        "rows=4\ncols=4\nduration=3.0\nseed=9\n# comment\nnoise=0.0\n"
    )
    trace_a = tmp_path / "a.csv"
    trace_b = tmp_path / "b.csv"
    assert main(["run", "gossip-max", "--config", str(config_file), "--out", str(trace_a)]) == 0
    # flag overrides the file's seed; different seed, different values
    assert main(
        ["run", "gossip-max", "--config", str(config_file), "--seed", "10",
         "--out", str(trace_b)]
    ) == 0
    assert trace_a.read_bytes() != trace_b.read_bytes()


def test_config_file_errors(tmp_path, capsys):
    bad = tmp_path / "bad.cfg"
    bad.write_text("rows 4\n")
    assert main(["run", "gossip-max", "--config", str(bad)]) == 2
    unknown = tmp_path / "unknown.cfg"
    unknown.write_text("frobnicate=1\n")
    assert main(["run", "gossip-max", "--config", str(unknown)]) == 2
    typo = tmp_path / "typo.cfg"
    typo.write_text("# run the oracle\ncheck=ture\n")
    assert main(["run", "gossip-max", "--config", str(typo)]) == 2
    assert f"{typo}:2: check: expected one of" in capsys.readouterr().err
    assert parse_config_file.__doc__  # parsing helpers stay documented


def test_cli_same_seed_identical_traces(tmp_path):
    args = ["run", "gossip-max", "--rows", "5", "--cols", "5", "--duration", "4"]
    trace_a, trace_b = tmp_path / "a.csv", tmp_path / "b.csv"
    assert main(args + ["--out", str(trace_a)]) == 0
    assert main(args + ["--out", str(trace_b)]) == 0
    assert trace_a.read_bytes() == trace_b.read_bytes()


def test_every_config_field_is_a_flag_and_a_config_key(tmp_path, capsys):
    args = ["run", "gossip-max", "--rows", "3", "--cols", "3", "--duration", "1"]
    assert main(args) == 0
    assert "wire bytes" not in capsys.readouterr().out
    assert main(args + ["--wire-stats"]) == 0
    assert "wire bytes" in capsys.readouterr().out
    config_file = tmp_path / "run.cfg"
    config_file.write_text("wire_stats=1\n")
    assert main(args + ["--config", str(config_file)]) == 0
    assert "wire bytes" in capsys.readouterr().out
    config_file.write_text("rows=three\n")
    assert main(args + ["--config", str(config_file)]) == 2


# SHA-256 of `fieldcast run <scenario> --seed 3 --duration 2 --out <s>.csv`
# and of its side CSVs.  The rows print floats with `repr`, so the digests pin
# CPython's float formatting and the platform's libm (math.sin, math.atan2).
TRACE_DIGESTS = {
    "channel.csv": "95fa71d3080a5a74306a41a9e9e6c31b79f4b8e8e1d0025e2f5b8d68b19dd760",
    "scr.csv": "9c00c9b37cbc4660d67f051f2a2de1ff32fb345a4b406fc1c8fd3812fee91157",
    "gossip-max.csv": "19299710688eba9aef95693aadae116944879adecb34dbdab8062b9cd6b3899d",
    "flocking.csv": "6a2129a222d32882951dac600d37a2a3d8d6e5ae4cf661957f334f93a099d7a6",
    "flocking_phi.csv": "cab53fd8a0df9b96e164303465572a9ecf9853c57460b14f78ce13bf19f6d5ad",
    "sofl.csv": "d58c08680155043570b6b1cbb1da390fe9840a02af3abba8e5aa329a1d98a746",
    "sofl_federation.csv": "b86beb0976efcbb0d4fbd784c548db1889136647da06a78fbbd5a593dcb39001",
}


def test_cli_traces_match_the_recorded_digests(tmp_path):
    for name in SCENARIOS:
        out = tmp_path / f"{name}.csv"
        assert main(["run", name, "--seed", "3", "--duration", "2", "--out", str(out)]) == 0
    digests = {
        path.name: hashlib.sha256(path.read_bytes()).hexdigest()
        for path in tmp_path.glob("*.csv")
    }
    assert digests == TRACE_DIGESTS
