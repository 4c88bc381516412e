"""Self-test of the benchmark at short horizons.

Run from the repository root:

    python3 -m pytest perfbench -q

Short horizons end before the lattices stabilize, so the stabilization oracle
fails there; these tests check what the benchmark prints and how it gates
digests, not the scenarios.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402

BENCHMARK = json.loads((HERE.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
SHORT_HORIZONS = {"scr-static": 0.5, "channel-wire": 0.5, "flocking-mobile": 0.2}
REPORTED = {
    "scr-static": ("stabilized_sim_s",),
    "channel-wire": ("stabilized_sim_s", "wire_bytes_per_round"),
    "flocking-mobile": ("polarization_final",),
}


def test_workloads_match_benchmark_file():
    assert sorted(w["name"] for w in BENCHMARK["workloads"]) == sorted(run.WORKLOADS)
    assert sorted(SHORT_HORIZONS) == sorted(run.WORKLOADS)


@pytest.mark.parametrize("workload", sorted(SHORT_HORIZONS))
def test_every_metric_prints_with_its_unit(workload):
    horizon = SHORT_HORIZONS[workload]
    for trace, declared in ((False, BENCHMARK["end_to_end"]), (True, BENCHMARK["per_layer"])):
        summary = run.measure(workload, 3, 0.0, trace, horizon=horizon)
        assert summary["attempted"] >= 1
        assert summary["failed"] == 0
        expected = {metric["name"]: metric["unit"] for metric in declared}
        printed = {name: entry["unit"] for name, entry in summary["metrics"].items()}
        assert printed == expected
        for entry in summary["metrics"].values():
            assert isinstance(entry["value"], (int, float))
        for name, unit in expected.items():
            assert any(
                line.startswith(f"  {name} ") and line.endswith(f" {unit}")
                for line in summary["report"]
            ), name
        for name in REPORTED[workload] + ("round_fail_ratio", "checks_failed", "digest"):
            assert any(line.startswith(f"  {name} ") for line in summary["report"]), name

    # The traced repeat's shares match the profiles each workload was chosen for.
    metrics = {name: entry["value"] for name, entry in summary["metrics"].items()}
    assert (metrics["values.to_bytes.calls"] > 0) == (workload == "channel-wire")
    environment_share = metrics["simulator.environment.round_share"]
    assert environment_share > 0.5 if workload == "flocking-mobile" else environment_share < 0.05


def test_digest_mismatch_fails_the_run(monkeypatch):
    horizon = SHORT_HORIZONS["flocking-mobile"]
    assert run.measure("flocking-mobile", 5, 0.0, False, horizon=horizon)["correct"]

    real_child = run.run_child
    calls = []

    def diverging_child(*args, **kwargs):
        result = real_child(*args, **kwargs)
        calls.append(result)
        if len(calls) == 2:
            result["digest"] = "0" * 64
        return result

    monkeypatch.setattr(run, "run_child", diverging_child)
    summary = run.measure("flocking-mobile", 5, 0.0, False, horizon=horizon)
    assert not summary["correct"]
    assert any("same-seed repeats disagree" in line for line in summary["report"])


def test_fails_without_sources(tmp_path):
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    process = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "scr-static", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert process.returncode != 0
    assert '"correct"' not in process.stdout
