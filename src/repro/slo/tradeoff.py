"""Build-time-vs-latency tradeoff suite (``python -m repro.slo.tradeoff``).

The paper removes the *correctness* reason to quiesce updates; this
suite measures the remaining *performance* reason.  Every scenario runs
the same deterministic open-loop traffic (:class:`repro.workloads.
OpenLoopDriver`) against a shared single-channel disk
(``disk_channels=1``) while one builder constructs the index, sweeping
the IB admission-control throttle
(:attr:`repro.system.SystemConfig.build_rate_limit`) from unthrottled
down to the tightest setting.  For each run it records the simulated
build time and the foreground latency report *windowed to operations
issued while the build was running* -- the whole-run p99 would invert
the curve (a slower, throttled build disturbs more of the run), while
the windowed p99 shows what the throttle actually buys: the latency of
the traffic that coexists with the build.

Every headline number is on the simulated clock, so the payload is
machine-independent and CI can gate byte-for-byte against the committed
``BENCH_PR6.json`` (``--check-against``).  The suite also self-gates:

* **monotone build time** -- each online builder's build must take at
  least as long at every tighter throttle step, and strictly longer at
  the tightest step than unthrottled (the throttle does throttle);
* **p99 protection** -- at the tightest throttle each *online*
  builder's windowed p99 must stay within
  :data:`P99_PROTECTION_FACTOR` of the no-build baseline's p99.  The
  offline builder is swept for contrast but excluded from this gate:
  it X-locks the table, so foreground latency during the build is the
  quiesce time, which no admission throttle can fix (sections 1-2 --
  the reason the online algorithms exist).

Usage::

    python -m repro.slo.tradeoff --out BENCH_PR6.json
    python -m repro.slo.tradeoff --smoke --out /tmp/now.json \\
        --check-against BENCH_PR6.json --max-regression 0.30

The smoke mode runs a strict subset of the full scenarios (the
unthrottled and tightest-throttle endpoints) with identical parameters,
so its simulated results must match the committed full baseline's rows
exactly; the tolerance only absorbs deliberate recalibrations.
"""

from __future__ import annotations

import sys
from typing import Any, Optional

from repro.bench.gate import Entry, Suite, find_scenario, scenario_count
from repro.core import BuildOptions, IndexSpec, get_builder
from repro.obs import enable_tracing
from repro.slo.analyzer import latency_report
from repro.system import System, SystemConfig
from repro.workloads import OpenLoopDriver, OpenLoopSpec

SCHEMA_VERSION = 1
SUITE_NAME = "repro.slo.tradeoff"

#: the p99-protection gate: at the tightest throttle, each online
#: builder's windowed foreground p99 must not exceed the no-build
#: baseline's p99 by more than this factor
P99_PROTECTION_FACTOR = 1.2

#: builders swept (offline included for contrast; the p99 gate skips it)
BUILDERS = ("offline", "nsf", "sf", "psf")

#: builders the p99-protection gate applies to
ONLINE_BUILDERS = ("nsf", "sf", "psf")

#: throttle sweep, loosest to tightest (None = unthrottled).  The smoke
#: mode keeps only the endpoints; the values are work items (pages
#: scanned / keys loaded / entries drained) per simulated time unit.
FULL_RATES: tuple[Optional[float], ...] = (None, 0.4, 0.1, 0.05)
SMOKE_RATES: tuple[Optional[float], ...] = (None, 0.05)

#: one fixed traffic/system shape for every scenario -- the sweep
#: varies ONLY the builder and its throttle, so rows are comparable
PARAMS = {
    "seed": 11,
    "rows": 320,
    "operations": 150,
    "arrival_rate": 0.05,
    "key_space": 2000,
    "buffer_frames": 32,
    "disk_channels": 1,
    "partitions": 2,
}

#: bursty-arrival add-on scenarios: the same traffic mean rate, but
#: arrivals alternate between a peak and a trough (coordinated-omission
#: stress -- backlog built during a burst inflates the tail).  Swept for
#: the sf builder at the throttle endpoints against a bursty no-build
#: baseline; the rows are gated when present but are not required, so
#: payloads from before the bursty sweep still validate.
BURSTY_BUILDER = "sf"
BURSTY_RATES: tuple[Optional[float], ...] = (None, 0.05)
BURSTY_PARAMS = {
    "arrivals": "bursty",
    "burst_factor": 4.0,
    "burst_fraction": 0.25,
    "burst_period": 40.0,
}

#: metric counters copied into each scenario (when present)
INTERESTING_COUNTERS = (
    "build.pages_scanned",
    "build.sidefile_drained",
    "build.throttle_charges",
    "build.throttle_waits",
    "sidefile.appends",
    "semaphore.disk.requests",
    "semaphore.disk.waits",
    "index.inserts.ib",
)


def rate_label(rate: Optional[float]) -> str:
    """Stable scenario-name fragment for a throttle rate."""
    return "none" if rate is None else f"{rate:g}"


def _run_traffic(builder: Optional[str], rate: Optional[float],
                 arrivals: str = "poisson") -> dict:
    """One deterministic run: open-loop traffic, optionally one build.

    Returns the scenario body: params, simulated ``build_time`` (absent
    for the baseline), the windowed latency report, and counters.
    """
    config = SystemConfig(
        page_capacity=8, leaf_capacity=8, branch_capacity=8,
        buffer_frames=PARAMS["buffer_frames"],
        sort_workspace=32, merge_fanin=4,
        disk_channels=PARAMS["disk_channels"],
        build_rate_limit=rate)
    system = System(config, seed=PARAMS["seed"])
    recorder = enable_tracing(system)
    table = system.create_table("t", ["k", "p"])
    burst = dict(BURSTY_PARAMS) if arrivals == "bursty" else {}
    spec = OpenLoopSpec(operations=PARAMS["operations"],
                        rate=PARAMS["arrival_rate"],
                        range_weight=0.0,
                        key_space=PARAMS["key_space"],
                        **burst)
    driver = OpenLoopDriver(system, table, spec, seed=PARAMS["seed"],
                            index_name="idx")
    system.spawn(driver.preload(PARAMS["rows"]), name="preload")
    system.run()

    done: dict[str, float] = {}
    if builder is not None:
        opts = {"checkpoint_every_keys": 200, "commit_every_keys": 128,
                "prefetch_pages": 2}
        if builder == "psf":
            opts["partitions"] = PARAMS["partitions"]
        build = get_builder(builder)(system, table,
                                     IndexSpec.of("idx", ["k"]),
                                     BuildOptions(**opts))

        def timed():
            done["start"] = system.sim.now
            yield from build.run()
            done["build_time"] = system.sim.now - done["start"]

        system.spawn(timed(), name="builder")
    dispatcher = driver.spawn()
    system.run()
    if dispatcher.error is not None:
        raise dispatcher.error
    if builder is not None and "build_time" not in done:
        raise AssertionError(f"{builder} build did not finish")

    window = (done["start"], done["start"] + done["build_time"]) \
        if "build_time" in done else None
    report = latency_report(recorder.events, window=window)
    params = dict(PARAMS)
    params["builder"] = builder
    params["build_rate_limit"] = rate
    params["arrivals"] = arrivals
    if burst:
        params.update(burst)
    scenario: dict[str, Any] = {"params": params, "latency": report}
    if builder is not None:
        scenario["build_time"] = done["build_time"]
        scenario["window"] = list(window)
        scenario["counters"] = {
            key: system.metrics.get(key) for key in INTERESTING_COUNTERS
            if system.metrics.get(key)}
    return scenario


def _scenarios(mode: str) -> list[Entry]:
    rates = SMOKE_RATES if mode == "smoke" else FULL_RATES
    entries: list[Entry] = [
        ("baseline", "baseline", lambda: _run_traffic(None, None))]
    for builder in BUILDERS:
        for rate in rates:
            entries.append((
                f"tradeoff/{builder}/rate_{rate_label(rate)}",
                "build",
                lambda b=builder, r=rate: _run_traffic(b, r)))
    entries.append(("bursty/baseline", "baseline",
                    lambda: _run_traffic(None, None, arrivals="bursty")))
    for rate in BURSTY_RATES:
        entries.append((
            f"bursty/{BURSTY_BUILDER}/rate_{rate_label(rate)}",
            "build",
            lambda r=rate: _run_traffic(BURSTY_BUILDER, r,
                                        arrivals="bursty")))
    return entries


def _check_row(name: str, scenario: dict) -> list[str]:
    problems = []
    latency = scenario.get("latency")
    if not isinstance(latency, dict) or not all(
            isinstance(latency.get(field), (int, float))
            for field in ("p50", "p95", "p99", "max", "mean", "ops")):
        problems.append(f"{name}: malformed latency report")
    if scenario.get("kind") == "build" \
            and not isinstance(scenario.get("build_time"), (int, float)):
        problems.append(f"{name}: missing build_time")
    return problems


def _required(mode: str) -> list[str]:
    rates = SMOKE_RATES if mode == "smoke" else FULL_RATES
    return ["baseline"] + [f"tradeoff/{builder}/rate_{rate_label(rate)}"
                           for builder in BUILDERS for rate in rates]


def _tradeoff_gates(payload: dict, _reference: Optional[dict],
                    _max_regression: float) -> list[str]:
    """The suite's own acceptance gates (no reference needed)."""
    problems: list[str] = []
    rates = SMOKE_RATES if payload.get("mode") == "smoke" else FULL_RATES
    baseline = find_scenario(payload, "baseline")
    baseline_p99 = None
    if baseline is not None and baseline.get("ok"):
        baseline_p99 = baseline["latency"]["p99"]

    for builder in BUILDERS:
        times: list[tuple[Optional[float], float]] = []
        for rate in rates:
            name = f"tradeoff/{builder}/rate_{rate_label(rate)}"
            scenario = find_scenario(payload, name)
            if scenario is None or not scenario.get("ok"):
                continue
            times.append((rate, scenario["build_time"]))
        if len(times) < 2:
            continue  # failures already reported by check_payload
        # monotone: tighter throttle (later in the sweep) never builds
        # faster, and the tightest is strictly slower than unthrottled
        for (loose, t_loose), (tight, t_tight) in zip(times, times[1:]):
            if t_tight < t_loose:
                problems.append(
                    f"{builder}: build_time fell from {t_loose:.1f} to "
                    f"{t_tight:.1f} when tightening rate "
                    f"{rate_label(loose)} -> {rate_label(tight)}")
        if times[0][0] is None and not times[-1][1] > times[0][1]:
            problems.append(
                f"{builder}: tightest throttle build_time "
                f"{times[-1][1]:.1f} not above unthrottled "
                f"{times[0][1]:.1f} -- the throttle is not throttling")

    if baseline_p99 is not None:
        ceiling = baseline_p99 * P99_PROTECTION_FACTOR
        tightest = rates[-1]
        for builder in ONLINE_BUILDERS:
            name = f"tradeoff/{builder}/rate_{rate_label(tightest)}"
            scenario = find_scenario(payload, name)
            if scenario is None or not scenario.get("ok"):
                continue
            p99 = scenario["latency"]["p99"]
            if p99 > ceiling:
                problems.append(
                    f"{builder} at rate {rate_label(tightest)}: windowed "
                    f"p99 {p99:.2f} exceeds {P99_PROTECTION_FACTOR}x "
                    f"baseline ({ceiling:.2f})")

    # Bursty add-on: same p99-protection contract, but against the
    # *bursty* no-build baseline (burst backlog raises the floor for
    # everyone; the gate is on what the build adds on top).  Applies
    # only when the bursty rows ran -- older payloads predate them.
    bursty_baseline = find_scenario(payload, "bursty/baseline")
    if bursty_baseline is not None and bursty_baseline.get("ok"):
        ceiling = bursty_baseline["latency"]["p99"] * P99_PROTECTION_FACTOR
        tightest = BURSTY_RATES[-1]
        name = f"bursty/{BURSTY_BUILDER}/rate_{rate_label(tightest)}"
        scenario = find_scenario(payload, name)
        if scenario is not None and scenario.get("ok"):
            p99 = scenario["latency"]["p99"]
            if p99 > ceiling:
                problems.append(
                    f"bursty {BURSTY_BUILDER} at rate "
                    f"{rate_label(tightest)}: windowed p99 {p99:.2f} "
                    f"exceeds {P99_PROTECTION_FACTOR}x bursty baseline "
                    f"({ceiling:.2f})")
    return problems


def _ok_line(name: str, scenario: dict) -> str:
    latency = scenario["latency"]
    build = scenario.get("build_time")
    build_part = f"build={build:9.1f}  " if build is not None else " " * 17
    return (f"{name:28s} {build_part}"
            f"p50={latency['p50']:6.2f} p99={latency['p99']:6.2f} "
            f"(n={latency['ops']})")


def _summary(payload: dict) -> str:
    baseline = find_scenario(payload, "baseline")
    tail = ""
    if baseline is not None and baseline.get("ok"):
        tail = f" (baseline p99 {baseline['latency']['p99']:.2f})"
    return scenario_count(payload) + tail


SUITE = Suite(
    name=SUITE_NAME,
    title="slo tradeoff suite",
    description="build-throttle vs foreground-latency tradeoff suite",
    scenarios=_scenarios,
    required=_required,
    gates=_tradeoff_gates,
    ok_line=_ok_line,
    kinds=("baseline", "build"),
    check_row=_check_row,
    drift_fields=("build_time", "latency.p99"),
    summary=_summary,
    extra={"p99_protection_factor": P99_PROTECTION_FACTOR},
    schema_version=SCHEMA_VERSION,
)

run_suite = SUITE.run_suite
validate_payload = SUITE.validate_payload
check_payload = SUITE.check_payload
main = SUITE.main


if __name__ == "__main__":  # pragma: no cover - CLI entry
    sys.exit(main())
