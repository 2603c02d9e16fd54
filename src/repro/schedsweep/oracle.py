"""The full correctness oracle applied after every explored schedule.

A schedule passes only if *all* of the following hold -- the union of
every check the repo knows how to make:

1. no process died with a Python error and the run did not crash;
2. every process finished (a live process after the event queue drains
   is a hang: a lost wakeup, stuck latch queue, or leaked waiter);
3. the index reached AVAILABLE;
4. the tree passes the structural audit (:mod:`repro.btree.audit`);
5. the index agrees with the table (:mod:`repro.verify.consistency`);
6. *serial-reference equivalence*: the tree's entry sequence is
   entry-for-entry what a quiesced offline build over the final table
   would produce (order-exact, not just set-equal -- catches ordering
   corruption that set-based audits miss);
7. metrics sanity: counters non-negative, zero crashes, and the
   workload's committed/rolledback/aborted counters conserve against
   the driver's operation timeline.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.sweep import check_indexes

if TYPE_CHECKING:  # pragma: no cover
    from repro.sim.kernel import Process
    from repro.system import System
    from repro.workloads import WorkloadDriver

#: workload outcome counters that must conserve against the op timeline
_OUTCOMES = ("committed", "rolledback", "aborted")


def check_run(system: "System", driver: "WorkloadDriver",
              builder_proc: "Process", index_names=("idx",)) -> str:
    """Apply the full oracle; returns '' when clean, else failure text.

    ``index_names`` lists every index the utility run built -- the
    multi-index shared-scan build (section 6.2) must satisfy the
    per-index checks 3-6 (:func:`repro.sweep.check_indexes`) for *every*
    index it produced.
    """
    if builder_proc.error is not None:
        return f"builder error: {builder_proc.error!r}"
    if system.sim.crashed:
        return f"unexpected simulated crash: {system.sim.crash_error!r}"
    if not builder_proc.finished:
        return "builder never finished (hang)"
    if system.sim.live_processes != 0:
        stuck = [row["name"] for row in system.sim.processes()
                 if not row["finished"]]
        return (f"{system.sim.live_processes} live processes after the "
                f"queue drained (lost wakeup): {stuck}")
    failure = check_indexes(system, index_names)
    return failure or _metrics_sanity(system, driver)


def _metrics_sanity(system: "System", driver: "WorkloadDriver") -> str:
    snapshot = system.metrics.snapshot()
    negative = {name: value for name, value in snapshot.items()
                if value < 0}
    if negative:
        return f"negative counters: {negative!r}"
    if snapshot.get("system.crashes", 0) != 0:
        return f"system.crashes = {snapshot['system.crashes']}"
    timeline: dict[str, int] = {outcome: 0 for outcome in _OUTCOMES}
    for record in driver.op_timeline:
        if record.outcome in timeline:
            timeline[record.outcome] += 1
    for outcome in _OUTCOMES:
        counted = snapshot.get(f"workload.{outcome}", 0)
        if counted != timeline[outcome]:
            return (f"workload.{outcome} counter {counted} != "
                    f"{timeline[outcome]} timeline records (lost or "
                    "double-counted operations)")
    return ""
