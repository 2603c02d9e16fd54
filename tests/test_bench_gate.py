"""Tests for the shared bench gate (repro.bench.gate) across the suites.

Every test edits committed payloads or builds tiny synthetic ones; none
runs a simulation, so the whole file stays well under a second.
"""

import copy
import importlib
import json
import pathlib

import pytest

from repro.bench import perf
from repro.cluster import bench as cluster_bench
from repro.multibuild import bench as multibuild_bench
from repro.slo import tradeoff

REPO_ROOT = pathlib.Path(__file__).resolve().parents[1]
BENCH_FILES = sorted(path.name for path in REPO_ROOT.glob("BENCH_PR*.json"))
SUITES = (perf, tradeoff, multibuild_bench, cluster_bench)


def _load(name: str) -> dict:
    return json.loads((REPO_ROOT / name).read_text())


def _row(payload: dict, name: str) -> dict:
    row = next((s for s in payload["scenarios"] if s["name"] == name), None)
    assert row is not None, name
    return row


# -- committed references ----------------------------------------------------


def test_committed_references_are_found():
    assert {"BENCH_PR2.json", "BENCH_PR3.json", "BENCH_PR6.json",
            "BENCH_PR7.json", "BENCH_PR8.json",
            "BENCH_PR10.json"} <= set(BENCH_FILES)


@pytest.mark.parametrize("name", BENCH_FILES)
def test_committed_reference_passes_its_own_suite(name):
    payload = _load(name)
    suite = importlib.import_module(payload["suite"])
    assert suite.validate_payload(payload) == []
    assert suite.check_payload(payload, payload) == []


# -- suite-specific self-gates (tampered committed payloads) ------------------


def _multibuild_problems(edit) -> list[str]:
    payload = _load("BENCH_PR7.json")
    edit(payload)
    return multibuild_bench.check_payload(payload)


def test_multibuild_gate_trips_when_shared_scan_is_not_faster():
    def edit(payload):
        _row(payload, "multibuild/k2")["build_time"] = \
            _row(payload, "sequential/k2")["build_time"]

    problems = _multibuild_problems(edit)
    assert any(p.startswith("k=2: multibuild build_time")
               and "not paying for itself" in p for p in problems), problems


def test_multibuild_gate_trips_on_k1_page_count_mismatch():
    def edit(payload):
        _row(payload, "multibuild/k1")["counters"]["build.pages_scanned"] += 1

    problems = _multibuild_problems(edit)
    assert any(p.startswith("k=1: multibuild scanned") for p in problems), \
        problems


def test_multibuild_gate_trips_on_advisor_over_budget():
    budget = multibuild_bench.PARAMS["advisor_budget_pages"]

    def edit(payload):
        _row(payload, "advisor")["advisor"]["storage_used"] = budget + 1

    problems = _multibuild_problems(edit)
    assert problems == [f"advisor: storage {budget + 1} exceeds budget "
                        f"{budget}"]


def test_cluster_gate_trips_on_a_second_failover():
    payload = _load("BENCH_PR8.json")
    _row(payload, "cluster/failover")["counters"]["cluster.failovers"] = 2
    assert cluster_bench.check_payload(payload) == [
        "failover: expected exactly 1 failover, got 2"]


def test_cluster_gate_trips_when_replicas_do_not_diverge():
    payload = _load("BENCH_PR8.json")
    for node in _row(payload, "cluster/divergent")["advisor"].values():
        node["picks"] = [["k"]]
    problems = cluster_bench.check_payload(payload)
    assert any("replicas did not diverge" in p for p in problems), problems


# -- malformed payloads are problems, not exceptions -------------------------


@pytest.mark.parametrize("suite", SUITES, ids=lambda s: s.SUITE_NAME)
@pytest.mark.parametrize("scenarios",
                         [None, ["x"], [{"name": "a", "ok": True}, 7]])
def test_malformed_scenarios_are_reported_not_raised(suite, scenarios):
    malformed = {"schema_version": suite.SCHEMA_VERSION,
                 "suite": suite.SUITE_NAME, "mode": "full",
                 "scenarios": scenarios}
    problems = suite.check_payload(malformed)
    assert problems
    assert suite.validate_payload(malformed)
    if scenarios is None:
        assert "scenarios must be a non-empty list" in problems
    else:
        assert any("is not an object" in p for p in problems)


@pytest.mark.parametrize("name", BENCH_FILES)
@pytest.mark.parametrize("scenarios", [None, ["x"]])
def test_malformed_reference_is_reported_not_raised(name, scenarios):
    payload = _load(name)
    suite = importlib.import_module(payload["suite"])
    reference = dict(payload, scenarios=scenarios)
    problems = suite.check_payload(payload, reference)
    assert problems and all(p.startswith("reference: ") for p in problems)
    assert suite.check_payload(payload, ["not", "a", "payload"]) == [
        "reference: payload must be a JSON object"]


def test_tradeoff_row_without_build_time_is_reported_not_raised():
    payload = _load("BENCH_PR6.json")
    del _row(payload, "tradeoff/offline/rate_0.1")["build_time"]
    assert "tradeoff/offline/rate_0.1: missing build_time" \
        in tradeoff.check_payload(payload)


@pytest.mark.parametrize("name", BENCH_FILES)
def test_rows_failing_their_schema_never_reach_the_self_gates(name):
    """Strip each ok row down to its identity in turn: wherever the
    suite's row schema notices, the gate reports the row instead of a
    self-gate indexing the missing fields."""
    payload = _load(name)
    suite = importlib.import_module(payload["suite"])
    stripped_rows = 0
    for row in payload["scenarios"]:
        stripped = {key: row[key] for key in ("name", "ok", "kind")
                    if key in row}
        schema = suite.SUITE.check_row(row["name"], stripped)
        if not row["ok"] or not schema:
            continue
        broken = dict(payload, scenarios=[
            stripped if other is row else other
            for other in payload["scenarios"]])
        problems = suite.check_payload(broken, payload)
        assert set(schema) <= set(problems), problems
        stripped_rows += 1
    assert stripped_rows


# -- the drift check only trusts a reference from the same suite -------------


def _slow_tradeoff() -> dict:
    payload = _load("BENCH_PR6.json")
    for row in payload["scenarios"]:
        if "build_time" in row:
            row["build_time"] *= 5
    return payload


def test_drift_against_own_reference_is_reported():
    problems = tradeoff.check_payload(_slow_tradeoff(),
                                      _load("BENCH_PR6.json"))
    assert any("build_time" in p and "drifted 400%" in p for p in problems)


def test_reference_from_another_suite_is_reported():
    problems = tradeoff.check_payload(_slow_tradeoff(),
                                      _load("BENCH_PR7.json"))
    assert "reference: suite name mismatch" in problems


def test_reference_with_another_schema_version_is_reported():
    payload = _load("BENCH_PR8.json")
    reference = copy.deepcopy(payload)
    reference["schema_version"] += 1
    problems = cluster_bench.check_payload(payload, reference)
    assert problems == [f"reference: schema_version != "
                        f"{cluster_bench.SCHEMA_VERSION}"]


# -- shared CLI ---------------------------------------------------------------


@pytest.mark.parametrize("suite", SUITES, ids=lambda s: s.SUITE_NAME)
def test_only_filter_that_matches_nothing_fails(suite, tmp_path, capsys):
    out = tmp_path / "out.json"
    assert suite.main(["--out", str(out), "--only", "no-such-scenario"]) == 1
    payload = json.loads(out.read_text())
    assert payload["only"] == "no-such-scenario"
    assert payload["scenarios"] == []
    assert "FAIL: --only no-such-scenario matched no scenarios" \
        in capsys.readouterr().out


def test_perf_cli_has_no_min_speedup_option(tmp_path):
    with pytest.raises(SystemExit):
        perf.main(["--out", str(tmp_path / "out.json"),
                   "--min-speedup", "2.0"])
