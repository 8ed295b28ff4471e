"""Seconds-long runs of every workload at tiny size, both modes."""

import json
import shutil
import subprocess
import sys
from dataclasses import replace

import pytest

import run
from workloads import WORKLOADS

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text())
TINY = {
    "converge-small": dict(P=2, N=2, configs=2),
    "converge-wide": dict(P=3, N=3, tau_horizon=1.0),
    "simulate-artifacts": dict(P=2, N=3, t_end=5.0),
    "sweep-reduced": dict(P=3, N=2, sweep_values=3),
}


def last_json(text):
    return json.loads(text.strip().splitlines()[-1])


@pytest.mark.parametrize("name", sorted(WORKLOADS))
@pytest.mark.parametrize("trace", (0, 1))
def test_tiny_run_is_correct_and_reports_every_metric(name, trace, capsys):
    tiny = replace(WORKLOADS[name], **TINY[name])
    assert run.run(tiny, seed=11, seconds=0.5, trace=trace) == 0
    result = last_json(capsys.readouterr().out)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 2
    declared = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in declared}
    for metric in declared:
        assert result["metrics"][metric["name"]]["unit"] == metric["unit"]
    if not trace:
        assert all(v["value"] > 0 for v in result["metrics"].values())


def test_benchmark_json_workloads_are_defined():
    assert {w["name"] for w in SPEC["workloads"]} <= set(WORKLOADS)


def test_fails_without_the_program(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(run.BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", "tests"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "converge-small",
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
