"""Replication-cluster bench (``python -m repro.cluster.bench``).

The end-to-end demo of the PR: under one fixed open-loop traffic mix,

* ``baseline/no_replicas`` -- a bare primary, no replicas, no indexes:
  every range read is a primary table scan (the mix's worst case);
* ``cluster/divergent`` -- two replicas apply the shipped WAL while the
  advisor (:func:`repro.cluster.cluster.plan_divergent_indexes`) gives
  each a *different* slice of the range-column mix to specialize for;
  each replica builds its picks online without quiescing apply, and the
  router starts sending each range query to the replica whose index
  serves it.  The headline number: routed range p99 *after* every
  replica's indexes flip AVAILABLE, vs the baseline's range p99;
* ``cluster/failover`` -- the same fleet with a scripted mid-run
  primary failure: the most-caught-up replica is promoted, traffic
  rebinds, and commits keep flowing after the failover instant.

Every scenario must also pass the cross-replica consistency oracle --
the bench publishes no number the oracle has not stood behind.

All numbers are on the simulated clock, so reruns are byte-identical;
CI gates drift against the committed ``BENCH_PR8.json`` with
``--check-against`` (see :mod:`repro.bench.gate`).

Usage::

    python -m repro.cluster.bench --out BENCH_PR8.json
    python -m repro.cluster.bench --smoke --out /tmp/now.json \\
        --check-against BENCH_PR8.json --max-regression 0.30
"""

from __future__ import annotations

import dataclasses
import sys
from typing import Any, Optional

from repro.bench.gate import Entry, Suite, find_scenario
from repro.cluster.cluster import plan_divergent_indexes
from repro.cluster.oracle import check_cluster
from repro.cluster.scenario import (
    BUILD_OPTIONS,
    TABLE,
    build_scenario,
    run_scenario,
    scenario_spec,
)
from repro.sim.kernel import Delay
from repro.slo.analyzer import latency_report

SCHEMA_VERSION = 1
SUITE_NAME = "repro.cluster.bench"

#: one fixed traffic/cluster shape for every scenario.  The table is
#: deliberately larger than the buffer pool and each node's disk serves
#: one I/O at a time, so an unindexed range read is a genuinely
#: expensive scan -- the regime the paper's indexes exist for.
PARAMS = {
    "seed": 11,
    "records": 400,
    "operations": 240,
    "rate": 0.05,
    "replicas": 2,
    "failover_at": 300.0,
    "buffer_frames": 24,
    "disk_channels": 1,
    "advisor_budget_pages": 300,
    "min_post_flip_ranges": 5,
}

#: per-replica slices of the range mix the advisor specializes for
SLICES = {
    "node1": (("k", 2.0),),
    "node2": (("a", 1.5), ("b", 1.0)),
}

COUNTERS = (
    "cluster.batches_shipped",
    "cluster.router.to_primary",
    "cluster.router.to_replica",
    "cluster.range_via_index",
    "cluster.range_via_scan",
    "cluster.failovers",
    "cluster.node_recoveries",
    "cluster.driver_rebinds",
    "cluster.builds_started",
)

#: smoke runs the IDENTICAL traffic -- the whole suite takes seconds on
#: the simulated clock, and identical params are what make CI's drift
#: gate against the committed full baseline compare like with like
SMOKE_PARAMS: dict = {}


def _params(mode: str) -> dict:
    params = dict(PARAMS)
    if mode == "smoke":
        params.update(SMOKE_PARAMS)
    return params


def _scenario_kwargs(params: dict) -> dict:
    import dataclasses as _dc

    from repro.cluster.scenario import SCENARIO_CONFIG
    config = _dc.replace(SCENARIO_CONFIG,
                         buffer_frames=params["buffer_frames"],
                         disk_channels=params["disk_channels"])
    return dict(records=params["records"],
                operations=params["operations"],
                rate=params["rate"], seed=params["seed"],
                config=config)


def _counters(cluster) -> dict:
    return {key: cluster.metrics.get(key) for key in COUNTERS
            if cluster.metrics.get(key)}


def _base_row(cluster, driver, summary, params: dict) -> dict:
    return {
        "params": dict(params),
        "latency": latency_report(cluster.tracer.events),
        "counters": _counters(cluster),
        "oracle": summary,
        "end_time": cluster.sim.now,
    }


def _run_baseline(params: dict) -> dict:
    cluster, driver, summary, _ = run_scenario(
        replicas=0, builds=False, **_scenario_kwargs(params))
    row = _base_row(cluster, driver, summary, params)
    row["params"]["shape"] = "baseline"
    return row


def _run_divergent(params: dict) -> dict:
    cluster, driver = build_scenario(
        replicas=params["replicas"], **_scenario_kwargs(params))
    base_spec = scenario_spec(params["operations"], params["rate"])
    slices = {name: dataclasses.replace(base_spec, range_columns=cols)
              for name, cols in SLICES.items()}
    plans = plan_divergent_indexes(cluster, TABLE, slices,
                                   params["advisor_budget_pages"])
    advisor_row: dict[str, Any] = {}
    for name, (report, specs) in sorted(plans.items()):
        if not specs:
            raise AssertionError(f"advisor picked nothing for {name}")
        mode = "multi" if len(specs) > 1 else "sf"
        cluster.start_build(cluster.nodes[name], mode, specs,
                            options=BUILD_OPTIONS, table_name=TABLE)
        advisor_row[name] = {
            "picks": [list(pick.key_columns) for pick in report.picks],
            "initial_cost": report.initial_cost,
            "final_cost": report.final_cost,
            "storage_used": report.storage_used,
        }
    driver.spawn()

    available_at: dict[str, float] = {}

    def flip_monitor():
        waiting = set(SLICES)
        while waiting:
            for name in sorted(waiting):
                if cluster.nodes[name].builds_done():
                    available_at[name] = cluster.sim.now
            waiting -= set(available_at)
            yield Delay(2.0)

    cluster.spawn(flip_monitor(), name="flip-monitor")
    cluster.settle(driver)
    cluster.run(until=20_000.0)
    assert cluster.settled, "divergent scenario did not settle"
    cluster.run()
    summary = check_cluster(cluster, driver)

    row = _base_row(cluster, driver, summary, params)
    row["params"]["shape"] = "divergent"
    row["advisor"] = advisor_row
    row["available_at"] = dict(sorted(available_at.items()))
    flip_done = max(available_at.values())
    post = latency_report(cluster.tracer.events,
                          window=(flip_done, cluster.sim.now))
    ranges = post["by_op"].get("range", {})
    row["post_flip"] = {
        "window": [flip_done, cluster.sim.now],
        "range_ops": ranges.get("ops", 0),
        "range_p99": ranges.get("p99"),
        "p99": post["p99"],
    }
    return row


def _run_failover(params: dict) -> dict:
    cluster, driver, summary, _ = run_scenario(
        replicas=params["replicas"], failover_at=params["failover_at"],
        **_scenario_kwargs(params))
    row = _base_row(cluster, driver, summary, params)
    row["params"]["shape"] = "failover"
    cut = params["failover_at"]
    row["failover"] = {
        "at": cut,
        "new_primary": cluster.primary.name,
        "committed_after": sum(
            1 for record in driver.op_timeline
            if record.outcome == "committed" and record.time > cut),
        "ops_node_down": cluster.metrics.get("cluster.ops_node_down"),
    }
    return row


def _scenarios(mode: str) -> list[Entry]:
    params = _params(mode)
    return [
        ("baseline/no_replicas", None, lambda: _run_baseline(params)),
        ("cluster/divergent", None, lambda: _run_divergent(params)),
        ("cluster/failover", None, lambda: _run_failover(params)),
    ]


def _check_row(name: str, scenario: dict) -> list[str]:
    if (scenario.get("oracle") or {}).get("ok"):
        return []
    return [f"{name}: oracle summary missing or not ok"]


def _bench_gates(payload: dict, _reference: Optional[dict],
                 _max_regression: float) -> list[str]:
    """The suite's own acceptance gates (no reference needed)."""
    problems: list[str] = []
    baseline = find_scenario(payload, "baseline/no_replicas")
    divergent = find_scenario(payload, "cluster/divergent")
    failover = find_scenario(payload, "cluster/failover")
    if baseline is not None and baseline.get("ok"):
        counters = baseline.get("counters", {})
        if counters.get("cluster.router.to_replica"):
            problems.append("baseline: routed reads to a replica with "
                            "zero replicas attached")
    if divergent is not None and divergent.get("ok"):
        counters = divergent.get("counters", {})
        post = divergent.get("post_flip", {})
        if not counters.get("cluster.router.to_replica"):
            problems.append("divergent: no reads were routed to replicas")
        if not counters.get("cluster.range_via_index"):
            problems.append("divergent: no range read went via a "
                            "replica index")
        picks = {name: row.get("picks", [])
                 for name, row in (divergent.get("advisor") or {}).items()}
        for name, node_picks in sorted(picks.items()):
            if not node_picks:
                problems.append(f"divergent: advisor picked nothing "
                                f"for {name}")
        leading = {tuple(p[:1]) for node_picks in picks.values()
                   for p in node_picks}
        if len(leading) < 2:
            problems.append(
                f"divergent: replicas did not diverge -- leading "
                f"columns {sorted(leading)}")
        min_ranges = (divergent.get("params") or {}).get(
            "min_post_flip_ranges", 0)
        if post.get("range_ops", 0) < min_ranges:
            problems.append(
                f"divergent: only {post.get('range_ops')} committed "
                f"range reads after the last flip (need {min_ranges})")
        if baseline is not None and baseline.get("ok") \
                and post.get("range_p99") is not None:
            base_p99 = baseline["latency"]["by_op"]["range"]["p99"]
            if not post["range_p99"] < base_p99:
                problems.append(
                    f"divergent: post-flip routed range p99 "
                    f"{post['range_p99']:.1f} not below the scan-only "
                    f"baseline's {base_p99:.1f}")
    if failover is not None and failover.get("ok"):
        counters = failover.get("counters", {})
        info = failover.get("failover", {})
        if counters.get("cluster.failovers") != 1:
            problems.append(
                f"failover: expected exactly 1 failover, got "
                f"{counters.get('cluster.failovers')}")
        if counters.get("cluster.driver_rebinds") != 1:
            problems.append("failover: traffic driver did not rebind")
        if not info.get("committed_after"):
            problems.append("failover: no operation committed after "
                            "the primary died")
    return problems


def _ok_line(name: str, scenario: dict) -> str:
    return (f"{name:22s} p99={scenario['latency']['p99']:7.1f}  "
            f"range_p99={scenario['latency']['by_op']['range']['p99']:7.1f}")


SUITE = Suite(
    name=SUITE_NAME,
    title="cluster bench suite",
    description="replication cluster end-to-end demo: divergent "
                "per-replica online builds, routed reads, failover",
    scenarios=_scenarios,
    gates=_bench_gates,
    ok_line=_ok_line,
    check_row=_check_row,
    drift_fields=("latency.p99", "post_flip.range_p99"),
    schema_version=SCHEMA_VERSION,
)

run_suite = SUITE.run_suite
validate_payload = SUITE.validate_payload
check_payload = SUITE.check_payload
main = SUITE.main


if __name__ == "__main__":  # pragma: no cover - CLI entry
    sys.exit(main())
