"""The benchmark's workloads and one measured iteration of each.

An iteration is: set up a fresh :class:`repro.System` and preload the
table (``setup``), build the index while the workload's foreground
traffic runs (``timed`` -- from builder spawn until the simulator
drains, so the build has flipped and all traffic is done), then audit
the built index and the op accounting outside the timer.

Everything the system sees is generated from the iteration's seed, so
every simulated-clock number and counter is a pure function of
``(workload, seed)``; only the wall-clock timings vary between repeats.
"""

from __future__ import annotations

import gc
import math
import time
from dataclasses import dataclass, field
from typing import Callable, Optional

from repro import (BuildOptions, IndexSpec, System, SystemConfig,
                   WorkloadDriver, WorkloadSpec, audit_index)
from repro.core import IndexState, get_builder
from repro.workloads import OpenLoopDriver, OpenLoopSpec
from speed import probe, scale

#: shared system shape: small pages force deep trees and multi-run sorts
#: at benchmark scale (the pool size is per workload)
CONFIG = dict(page_capacity=8, leaf_capacity=8, branch_capacity=8,
              sort_workspace=32, merge_fanin=4)


class BenchError(Exception):
    """A run produced wrong output: it must fail, not report numbers."""


@dataclass(frozen=True)
class Workload:
    name: str
    #: builder mode passed to :func:`repro.core.get_builder`
    builder: str
    #: rows preloaded before the build
    rows: int
    buffer_frames: int
    #: "none", "open" (OpenLoopDriver) or "closed" (WorkloadDriver)
    loop: str
    #: iterations whose seeds feed the simulated-clock metrics
    seeds_per_run: int
    #: OpenLoopSpec / WorkloadSpec keyword arguments
    traffic: dict = field(default_factory=dict)

    @property
    def table_pages(self) -> int:
        return math.ceil(self.rows / CONFIG["page_capacity"])


WORKLOADS = {w.name: w for w in (
    Workload("offline_bulk", "offline", rows=25_000, buffer_frames=512,
             loop="none", seeds_per_run=3),
    Workload("sf_point_writes", "sf", rows=10_000, buffer_frames=256,
             loop="open", seeds_per_run=8,
             traffic=dict(operations=2000, rate=0.2, range_weight=0.0,
                          rollback_fraction=0.05)),
    Workload("nsf_hot_writers", "nsf", rows=10_000, buffer_frames=2048,
             loop="closed", seeds_per_run=8,
             traffic=dict(workers=8, operations=250, distribution="skewed",
                          rollback_fraction=0.1, think_time=1.0)),
    Workload("sf_range_contention", "sf", rows=2_000, buffer_frames=128,
             loop="open", seeds_per_run=40,
             traffic=dict(operations=200, rate=0.1, range_weight=0.2)),
)}


@dataclass
class Iteration:
    """What one iteration measured."""

    #: raw wall times, and the same scaled to the reference CPU speed
    setup_s: float
    timed_s: float
    setup_ref_s: float
    timed_ref_s: float
    build_start: float
    build_end: float
    #: committed foreground latencies (sim clock), from arrival
    #: (open loop) or issue (closed loop) to completion
    latencies: list
    attempted: int
    committed: int
    rolledback: int
    failed: int
    #: longest gap between committed completions inside the build window
    stall_max: float
    #: open loop: highest number of ops in flight, and how late (sim
    #: clock) the dispatcher issued any op against its schedule
    inflight_max: int
    dispatch_late_max: float
    counters: dict
    stats: dict
    #: summary of the audited index: (entries, leaves, height)
    index_shape: tuple
    profile: Optional[object] = None

    @property
    def build_time(self) -> float:
        return self.build_end - self.build_start

    def sim_fingerprint(self) -> tuple:
        """Everything simulated: equal for equal (workload, seed)."""
        return (self.build_start, self.build_end, tuple(self.latencies),
                self.attempted, self.committed, self.rolledback,
                self.failed, self.inflight_max, self.index_shape,
                tuple(sorted(self.counters.items())))


def longest_stall(records: list, start: float, end: float) -> float:
    """Longest time inside ``[start, end]`` during which some op was in
    flight and none committed.

    Idle time with nothing in flight (think time, a gap between
    arrivals) is not a stall; a quiesce, a lock convoy or a backlog
    behind a table scan is.
    """
    events = sorted([(r.time, 0, r.outcome == "committed") for r in records]
                    + [(r.issued, 1, False) for r in records])
    inflight, progress, longest = 0, start, 0.0
    for time_, arrival, committed in events:
        if inflight:
            longest = max(longest, min(time_, end) - max(progress, start))
        if arrival:
            if not inflight:
                progress = time_
            inflight += 1
        else:
            if committed:
                progress = time_
            inflight -= 1
    return longest


def _setup(workload: Workload, seed: int):
    system = System(SystemConfig(buffer_frames=workload.buffer_frames,
                                 **CONFIG), seed=seed)
    table = system.create_table("t", ["k", "p"])
    if workload.loop == "open":
        driver = OpenLoopDriver(system, table,
                                OpenLoopSpec(**workload.traffic),
                                seed=seed, index_name="idx")
    else:
        spec = WorkloadSpec(**workload.traffic) if workload.traffic \
            else WorkloadSpec(workers=0, operations=0)
        driver = WorkloadDriver(system, table, spec, seed=seed)
    preload = system.spawn(driver.preload(workload.rows), name="preload")
    system.run()
    if preload.error is not None or not preload.finished:
        raise BenchError(f"preload failed: {preload.error!r}")
    return system, table, driver


def run_iteration(workload: Workload, seed: int,
                  profiler: Optional[Callable[[], object]] = None
                  ) -> Iteration:
    """One setup + timed build + audit.

    ``profiler`` (a factory for an object with ``enable``/``disable``)
    profiles the timed phase only; the profiler is returned on the
    iteration for the caller to read.
    """
    gc.collect()
    speeds = [probe()]
    started = time.perf_counter()
    system, table, driver = _setup(workload, seed)
    setup_s = time.perf_counter() - started

    builder = get_builder(workload.builder)(
        system, table, IndexSpec.of("idx", ["k"]), BuildOptions())
    window: dict = {}

    def build():
        window["start"] = system.now()
        yield from builder.run()
        window["end"] = system.now()

    gc.collect()
    speeds.append(probe())
    prof = profiler() if profiler is not None else None
    started = time.perf_counter()
    if prof is not None:
        prof.enable()
    build_proc = system.spawn(build(), name="builder")
    if workload.loop == "open":
        traffic = [driver.spawn()]
    elif workload.loop == "closed":
        traffic = driver.spawn_workers()
    else:
        traffic = []
    system.run()
    if prof is not None:
        prof.disable()
    timed_s = time.perf_counter() - started
    speeds.append(probe())

    for proc in [build_proc] + traffic:
        if proc.error is not None or not proc.finished:
            raise BenchError(f"{proc.name} did not finish cleanly: "
                             f"{proc.error!r}")
    walls = dict(setup_s=setup_s, timed_s=timed_s,
                 setup_ref_s=scale(setup_s, *speeds[0:2]),
                 timed_ref_s=scale(timed_s, *speeds[1:3]))
    return _audit(workload, system, driver, window, walls, prof)


def _audit(workload, system, driver, window, walls, prof) -> Iteration:
    """Check the built index and the op accounting; collect results."""
    descriptor = system.indexes.get("idx")
    if descriptor is None or descriptor.state is not IndexState.AVAILABLE \
            or "end" not in window:
        raise BenchError("the build did not flip the index to AVAILABLE")
    report = audit_index(system, descriptor)

    if workload.loop == "open":
        attempted = len(driver.arrivals)
    elif workload.loop == "closed":
        attempted = driver.spec.workers * driver.spec.operations
    else:
        attempted = 0
    outcomes = {"committed": 0, "rolledback": 0, "aborted": 0}
    for record in driver.op_timeline:
        if record.outcome not in outcomes:
            raise BenchError(f"unknown op outcome {record.outcome!r}")
        outcomes[record.outcome] += 1
    if sum(outcomes.values()) != attempted:
        raise BenchError(
            f"op accounting: {attempted} attempted != "
            f"{outcomes['committed']} committed + {outcomes['rolledback']} "
            f"rolled back + {outcomes['aborted']} failed")

    start, end = window["start"], window["end"]
    committed = [record for record in driver.op_timeline
                 if record.outcome == "committed"]
    latencies = sorted(record.latency for record in committed)
    stall_max = longest_stall(driver.op_timeline, start, end) \
        if driver.op_timeline else end - start

    inflight_max = late = 0
    if workload.loop == "open":
        inflight_max = driver.inflight_high_water
        due = [driver.started_at + at for at in driver.arrivals]
        issued = sorted(record.issued for record in driver.op_timeline)
        late = max(0.0, max(i - d for i, d in zip(issued, due)))

    metrics = system.metrics
    return Iteration(
        **walls,
        build_start=start, build_end=end, latencies=latencies,
        attempted=attempted, committed=outcomes["committed"],
        rolledback=outcomes["rolledback"], failed=outcomes["aborted"],
        stall_max=stall_max, inflight_max=inflight_max,
        dispatch_late_max=late, counters=metrics.snapshot(),
        stats={name: metrics.stat(name).total
               for name in ("lock.wait_time", "latch.wait_time")},
        index_shape=(report["entries"], report["leaves"], report["height"]),
        profile=prof)
