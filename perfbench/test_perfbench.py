"""Self-tests of the benchmark (run with ``python -m pytest perfbench``).

They use scaled-down copies of the workloads so that they finish in
seconds; the full-size workloads only run through ``run.py``.
"""

from __future__ import annotations

import dataclasses
import json
import re
import shutil
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import workloads  # noqa: E402
from layers import HARNESS, LayerMap, attribute  # noqa: E402
from workloads import (WORKLOADS, BenchError, longest_stall,  # noqa: E402
                       run_iteration)

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")

#: scaled-down copies: same loop kinds, tables still larger than the pool
SMALL = {
    "offline_bulk": dict(rows=1500, buffer_frames=128),
    "sf_point_writes": dict(rows=1200, buffer_frames=128, traffic=dict(
        WORKLOADS["sf_point_writes"].traffic, operations=150)),
    "nsf_hot_writers": dict(rows=1200, buffer_frames=256, traffic=dict(
        WORKLOADS["nsf_hot_writers"].traffic, workers=4, operations=30)),
    "sf_range_contention": dict(rows=1200, buffer_frames=128, traffic=dict(
        WORKLOADS["sf_range_contention"].traffic, operations=200)),
}


def small(name: str, **extra) -> workloads.Workload:
    return dataclasses.replace(WORKLOADS[name], **SMALL[name], **extra)


def benchmark_json() -> dict:
    return json.loads((HERE.parent / "BENCHMARK.json").read_text())


@pytest.mark.parametrize("name", ["sf_range_contention", "nsf_hot_writers"])
def test_same_seed_gives_identical_sim_metrics(name):
    workload = small(name)
    first = run_iteration(workload, 7)
    second = run_iteration(workload, 7)
    assert first.sim_fingerprint() == second.sim_fingerprint()
    assert first.attempted > 0 and first.latencies


@pytest.mark.parametrize("name", ["sf_range_contention", "nsf_hot_writers"])
def test_other_seed_changes_sim_metrics(name):
    workload = small(name)
    first = run_iteration(workload, 7)
    other = run_iteration(workload, 8)
    assert first.sim_fingerprint() != other.sim_fingerprint()
    assert first.counters != other.counters


def test_benchmark_json_names_and_limits():
    doc = benchmark_json()
    assert set(doc) == {"command", "paths", "run_seconds", "workloads",
                        "end_to_end", "per_layer"}
    names = [m["name"] for m in doc["end_to_end"] + doc["per_layer"]] \
        + [w["name"] for w in doc["workloads"]]
    assert len(names) == len(set(names))
    assert all(NAME.match(name) for name in names)
    assert len(doc["end_to_end"]) <= 16
    assert len(doc["per_layer"]) <= 128
    assert 2 <= len(doc["workloads"]) <= 8
    for metric in doc["end_to_end"] + doc["per_layer"]:
        assert UNIT.match(metric["unit"])
        assert metric["better"] in ("higher", "lower")
    bounds = {m["name"]: m["bound"] for m in doc["end_to_end"]}
    assert all(0 < bound <= 0.25 for bound in bounds.values())
    assert bounds["setup_s"] == max(bounds.values())
    for workload in doc["workloads"]:
        assert len(workload["why"]) <= 200 and "\n" not in workload["why"]


def test_benchmark_json_matches_code():
    doc = benchmark_json()
    assert [w["name"] for w in doc["workloads"]] == list(WORKLOADS)
    assert [(m["name"], m["unit"]) for m in doc["end_to_end"]] \
        == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in doc["per_layer"]] \
        == run.per_layer_names()


@pytest.mark.parametrize("trace", [False, True])
def test_run_reports_every_declared_metric(monkeypatch, trace):
    doc = benchmark_json()
    section = "per_layer" if trace else "end_to_end"
    monkeypatch.setitem(WORKLOADS, "tiny",
                        small("sf_range_contention", seeds_per_run=2))
    result = run.run("tiny", seed=3, seconds=0, trace=trace)
    assert list(result["metrics"]) == [m["name"] for m in doc[section]]
    if not trace:
        assert all(value > 0 for value, _unit in result["metrics"].values())
        assert result["info"]["iterations"] == 2
    else:
        assert result["metrics"]["txn.self_s"][0] > 0
        assert result["metrics"]["trace_overhead"][0] > 1


def test_offline_run_without_traffic_reports_build_window():
    runs = [run_iteration(small("offline_bulk"), seed) for seed in (1, 2)]
    metrics, info = run.end_to_end(small("offline_bulk"), runs)
    assert info["op_samples"] == 0
    assert metrics["op_ok_share"][0] == 1.0
    window = metrics["sim_build_time"][0]
    assert metrics["op_p99_sim"][0] == metrics["stall_max_sim"][0] == window


def test_op_accounting_mismatch_fails_the_run(monkeypatch):
    from repro.workloads.generator import WorkloadDriver
    original = WorkloadDriver._record

    def drop_rollbacks(self, op, worker_id, outcome, issued=-1.0):
        if outcome != "rolledback":
            original(self, op, worker_id, outcome, issued)

    monkeypatch.setattr(WorkloadDriver, "_record", drop_rollbacks)
    with pytest.raises(BenchError, match="op accounting"):
        run_iteration(small("nsf_hot_writers"), 7)


def test_longest_stall_ignores_idle_time():
    def op(issued, done, outcome="committed"):
        return SimpleNamespace(issued=issued, time=done, outcome=outcome)

    records = [op(0, 2), op(10, 12), op(11, 30, "aborted"), op(12, 31)]
    # 0-2 busy, 2-10 idle, then ops wait from 12 until the commit at 31
    assert longest_stall(records, 0, 100) == 19
    # the build window clips the stall
    assert longest_stall(records, 0, 20) == 8


def test_foreign_time_is_charged_to_calling_layers(tmp_path):
    src = tmp_path / "src"
    for package in ("txn", "sort"):
        (src / "repro" / package).mkdir(parents=True)
    layer_of = LayerMap(str(src), str(tmp_path / "bench"))
    txn = (str(src / "repro/txn/locks.py"), 1, "detect")
    sort = (str(src / "repro/sort/merge.py"), 1, "merge")
    cycle = ("/usr/lib/networkx/cycles.py", 1, "find_cycle")
    length = ("~", 0, "<built-in method builtins.len>")
    stats = {
        txn: (1, 1, 1.0, 5.0, {}),
        sort: (1, 1, 2.0, 2.5, {}),
        cycle: (4, 4, 3.0, 4.0, {txn: (4, 4, 3.0, 4.0)}),
        # len: 0.5 s under find_cycle (all txn), 0.5 s called by sort
        length: (9, 9, 1.0, 1.0, {cycle: (5, 5, 0.5, 0.5),
                                  sort: (4, 4, 0.5, 0.5)}),
    }
    found = attribute(stats, layer_of)
    assert found["self_s"] == pytest.approx({"txn": 4.5, "sort": 2.5})
    assert sum(found["self_s"].values()) == pytest.approx(7.0)
    assert HARNESS not in found["self_s"]


def test_bare_directory_fails_without_a_result(tmp_path):
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "offline_bulk",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert done.returncode != 0
    assert '"correct"' not in done.stdout


def test_declared_shapes_match_the_workloads():
    whys = {w["name"]: w["why"] for w in benchmark_json()["workloads"]}
    for name, workload in WORKLOADS.items():
        residency = "(in cache)" if workload.table_pages \
            <= workload.buffer_frames else "(out of cache)"
        assert f"{workload.table_pages} pages vs {workload.buffer_frames} " \
            f"frames {residency}" in whys[name]
