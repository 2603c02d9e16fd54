"""Multi-index build bench (``python -m repro.multibuild.bench``).

Measures what section 6.2's shared scan buys: for K in a small sweep,
the suite builds the same K indexes twice under identical open-loop
traffic --

* ``multibuild/k{K}`` -- one :class:`~repro.multibuild.MultiIndexBuilder`
  run: ONE table scan feeding K sort pipelines, then the per-index
  load/drain/flip pipeline;
* ``sequential/k{K}`` -- K separate SF builds run back to back, each
  with its own full table scan;

plus an ``advisor`` scenario that derives the index set from the traffic
spec itself (:func:`repro.advisor.templates_from_spec` ->
:func:`repro.advisor.recommend`) and builds the picks as one multibuild.

Self-gates (no reference needed):

* for K >= 2 the multibuild must finish strictly faster than the
  sequential baseline AND scan strictly fewer pages (the whole point);
* for K = 1 the two must scan the same number of pages (the shared-scan
  machinery adds no I/O when there is nothing to share);
* the advisor's picks must be non-empty, within budget, improve the
  estimated workload cost, and every pick must reach AVAILABLE.

All headline numbers are on the simulated clock; CI gates drift against
the committed ``BENCH_PR7.json`` (``--check-against``, see
:mod:`repro.bench.gate`), comparing rows by name, so the smoke subset
checks against the full baseline.

Usage::

    python -m repro.multibuild.bench --out BENCH_PR7.json
    python -m repro.multibuild.bench --smoke --out /tmp/now.json \\
        --check-against BENCH_PR7.json --max-regression 0.30
"""

from __future__ import annotations

import sys
from typing import Any, Optional

from repro.advisor import AdvisorConfig, recommend, templates_from_spec
from repro.advisor.model import TableStats
from repro.bench.gate import Entry, Suite, find_scenario
from repro.core import BuildOptions, IndexSpec
from repro.core.sf import SFIndexBuilder
from repro.multibuild.builder import MultiIndexBuilder
from repro.obs import enable_tracing
from repro.slo.analyzer import latency_report
from repro.system import System, SystemConfig
from repro.workloads import OpenLoopDriver, OpenLoopSpec

SCHEMA_VERSION = 1
SUITE_NAME = "repro.multibuild.bench"

#: index counts swept (smoke keeps the endpoints)
FULL_KS: tuple[int, ...] = (1, 2, 3)
SMOKE_KS: tuple[int, ...] = (1, 3)

#: one fixed traffic/system shape for every scenario
PARAMS = {
    "seed": 11,
    "rows": 320,
    "operations": 100,
    "arrival_rate": 0.05,
    "key_space": 2000,
    "buffer_frames": 32,
    "disk_channels": 1,
    "advisor_budget_pages": 400,
}

#: the K-sweep's index specs, widest sweep first K are used
SWEEP_SPECS = (
    IndexSpec.of("idx_k", ["k"]),
    IndexSpec.of("idx_a", ["a"]),
    IndexSpec.of("idx_b", ["b"]),
)

#: range-read mix for the advisor scenario: three candidate columns
#: with distinct weights, so the advisor has a real choice to make
RANGE_COLUMNS = (("k", 2.0), ("a", 1.0), ("b", 1.0))

COUNTERS = (
    "build.pages_scanned",
    "build.sidefile_drained",
    "multibuild.indexes_flipped",
    "sidefile.appends",
)


def _row_factory(key: int, tag: str) -> tuple:
    """Four-column rows; extra columns are deterministic in the key so
    serial-equivalence replays stay exact."""
    return (key, tag, (key * 7) % PARAMS["key_space"],
            (key * 13) % PARAMS["key_space"])


def _make_system(rate: Optional[float] = None):
    config = SystemConfig(
        page_capacity=8, leaf_capacity=8, branch_capacity=8,
        buffer_frames=PARAMS["buffer_frames"],
        sort_workspace=32, merge_fanin=4,
        disk_channels=PARAMS["disk_channels"],
        build_rate_limit=rate)
    system = System(config, seed=PARAMS["seed"])
    recorder = enable_tracing(system)
    table = system.create_table("t", ["k", "p", "a", "b"])
    return system, table, recorder


def _make_traffic(system, table,
                  range_columns: tuple = ()) -> OpenLoopDriver:
    spec = OpenLoopSpec(operations=PARAMS["operations"],
                        rate=PARAMS["arrival_rate"],
                        range_weight=1.0 if range_columns else 0.0,
                        range_span=100,
                        range_columns=range_columns,
                        key_space=PARAMS["key_space"])
    driver = OpenLoopDriver(system, table, spec, seed=PARAMS["seed"])
    driver.row_factory = _row_factory
    system.spawn(driver.preload(PARAMS["rows"]), name="preload")
    system.run()
    return driver


def _options() -> BuildOptions:
    return BuildOptions(checkpoint_every_keys=200, commit_every_keys=128,
                        prefetch_pages=2)


def _timed_build(system, driver, recorder, specs, steps) -> dict:
    """Run ``steps()`` as the builder process under the traffic; the row's
    ``build_time`` and ``window`` are on the simulated clock."""
    done: dict[str, float] = {}

    def timed():
        done["start"] = system.sim.now
        yield from steps()
        done["build_time"] = system.sim.now - done["start"]

    system.spawn(timed(), name="builder")
    dispatcher = driver.spawn()
    system.run()
    if dispatcher.error is not None:
        raise dispatcher.error
    if "build_time" not in done:
        raise AssertionError("build did not finish")
    window = (done["start"], done["start"] + done["build_time"])
    from repro.core.descriptor import IndexState
    for spec in specs:
        state = system.indexes[spec.name].state
        if state is not IndexState.AVAILABLE:
            raise AssertionError(f"{spec.name} ended {state!r}")
    scenario: dict[str, Any] = {
        "build_time": done["build_time"],
        "window": list(window),
        "latency": latency_report(recorder.events, window=window),
        "counters": {key: system.metrics.get(key) for key in COUNTERS
                     if system.metrics.get(key)},
    }
    return scenario


def _run_multibuild(k: int) -> dict:
    specs = list(SWEEP_SPECS[:k])
    system, table, recorder = _make_system()
    driver = _make_traffic(system, table)
    build = MultiIndexBuilder(system, table, specs, _options())
    scenario = _timed_build(system, driver, recorder, specs, build.run)
    scenario["params"] = dict(PARAMS, k=k, shape="multibuild")
    scenario["flips"] = {
        name.split(":", 1)[1]: at - scenario["window"][0]
        for name, at in build.timings.items()
        if name.startswith("drain_done:")}
    return scenario


def _run_sequential(k: int) -> dict:
    specs = list(SWEEP_SPECS[:k])
    system, table, recorder = _make_system()
    driver = _make_traffic(system, table)
    flipped_at: dict[str, float] = {}

    def one_at_a_time():
        for spec in specs:
            yield from SFIndexBuilder(system, table, spec, _options()).run()
            flipped_at[spec.name] = system.sim.now

    scenario = _timed_build(system, driver, recorder, specs, one_at_a_time)
    scenario["params"] = dict(PARAMS, k=k, shape="sequential")
    scenario["flips"] = {name: at - scenario["window"][0]
                         for name, at in flipped_at.items()}
    return scenario


def _run_advisor() -> dict:
    system, table, recorder = _make_system()
    driver = _make_traffic(system, table, range_columns=RANGE_COLUMNS)
    templates = templates_from_spec(driver.olspec)
    stats = TableStats.from_table(system, table)
    report = recommend(templates, stats, AdvisorConfig(
        storage_budget_pages=PARAMS["advisor_budget_pages"],
        max_index_width=2))
    specs = report.specs()
    if not specs:
        raise AssertionError("advisor picked nothing")
    build = MultiIndexBuilder(system, table, specs, _options())
    scenario = _timed_build(system, driver, recorder, specs, build.run)
    scenario["params"] = dict(PARAMS, shape="advisor")
    scenario["advisor"] = {
        "picks": [list(pick.key_columns) for pick in report.picks],
        "initial_cost": report.initial_cost,
        "final_cost": report.final_cost,
        "storage_used": report.storage_used,
    }
    scenario["counters"]["openloop.range_via_index"] = \
        system.metrics.get("openloop.range_via_index")
    return scenario


def _scenarios(mode: str) -> list[Entry]:
    ks = SMOKE_KS if mode == "smoke" else FULL_KS
    entries: list[Entry] = []
    for k in ks:
        entries.append((f"multibuild/k{k}", None,
                        lambda kk=k: _run_multibuild(kk)))
        entries.append((f"sequential/k{k}", None,
                        lambda kk=k: _run_sequential(kk)))
    entries.append(("advisor", None, _run_advisor))
    return entries


def _check_row(name: str, scenario: dict) -> list[str]:
    if isinstance(scenario.get("build_time"), (int, float)):
        return []
    return [f"{name}: missing build_time"]


def _bench_gates(payload: dict, _reference: Optional[dict],
                 _max_regression: float) -> list[str]:
    """The suite's own acceptance gates (no reference needed)."""
    problems: list[str] = []
    ks = SMOKE_KS if payload.get("mode") == "smoke" else FULL_KS
    for k in ks:
        multi = find_scenario(payload, f"multibuild/k{k}")
        seq = find_scenario(payload, f"sequential/k{k}")
        if multi is None or seq is None \
                or not multi.get("ok") or not seq.get("ok"):
            continue
        m_pages = multi["counters"].get("build.pages_scanned", 0)
        s_pages = seq["counters"].get("build.pages_scanned", 0)
        if k == 1 and m_pages != s_pages:
            problems.append(
                f"k=1: multibuild scanned {m_pages} pages, sequential "
                f"{s_pages} -- the shared scan should cost nothing extra")
        if k >= 2:
            if not multi["build_time"] < seq["build_time"]:
                problems.append(
                    f"k={k}: multibuild build_time "
                    f"{multi['build_time']:.1f} not below sequential "
                    f"{seq['build_time']:.1f} -- the shared scan is "
                    f"not paying for itself")
            if not m_pages < s_pages:
                problems.append(
                    f"k={k}: multibuild scanned {m_pages} pages, "
                    f"sequential {s_pages} -- expected one scan vs {k}")
    advisor = find_scenario(payload, "advisor")
    if advisor is not None and advisor.get("ok"):
        adv = advisor.get("advisor", {})
        if not adv.get("picks"):
            problems.append("advisor: no picks recorded")
        if not adv.get("final_cost", 0) < adv.get("initial_cost", 0):
            problems.append(
                f"advisor: estimated cost did not improve "
                f"({adv.get('initial_cost')} -> {adv.get('final_cost')})")
        budget = PARAMS["advisor_budget_pages"]
        if adv.get("storage_used", 0) > budget:
            problems.append(
                f"advisor: storage {adv.get('storage_used')} exceeds "
                f"budget {budget}")
    return problems


def _ok_line(name: str, scenario: dict) -> str:
    return (f"{name:18s} build={scenario['build_time']:9.1f}  "
            f"pages={scenario['counters'].get('build.pages_scanned', 0)}")


SUITE = Suite(
    name=SUITE_NAME,
    title="multibuild bench suite",
    description="shared-scan multi-index build vs K sequential builds, "
                "plus the advisor pipeline",
    scenarios=_scenarios,
    gates=_bench_gates,
    ok_line=_ok_line,
    check_row=_check_row,
    drift_fields=("build_time", "latency.p99"),
    schema_version=SCHEMA_VERSION,
)

run_suite = SUITE.run_suite
validate_payload = SUITE.validate_payload
check_payload = SUITE.check_payload
main = SUITE.main


if __name__ == "__main__":  # pragma: no cover - CLI entry
    sys.exit(main())
