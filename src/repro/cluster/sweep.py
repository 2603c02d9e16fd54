"""Cluster fault sweep: crash ship/apply/promote, prove the oracle.

The single-node crash sweep (:mod:`repro.faultinject.sweep`) proves one
system's restart recovery; this sweep proves the *distributed* story on
top of it, over the canonical scenario of :mod:`repro.cluster.scenario`
(open-loop traffic on the primary, two replicas applying the shipped
WAL while building divergent indexes, one scripted failover):

1. **Discover** -- one clean seeded run with an unarmed injector counts
   every ``cluster.ship`` / ``cluster.apply`` / ``cluster.promote``
   hit.  The clean run must itself pass the cross-replica oracle.
2. **Enumerate** -- first / middle / last hit per site, by the shared
   sweep core's :func:`repro.sweep.hit_plans` (plain crashes: the
   cluster sites model node/link failures, not torn writes).
3. **Replay** -- each plan re-runs the identical seeded scenario armed.
   A ship fault escalates to failover, an apply fault to replica crash
   recovery, a promote fault to kill-and-retry of the candidate; the
   run may therefore see *two* failovers (scripted + injected).
4. **Prove** -- :func:`repro.cluster.oracle.check_cluster`: every
   surviving node self-consistent, every replica equal to the primary's
   physical history at its apply position, every index audited, every
   operation accounted for.

``--schedules N`` swaps fault injection for schedule perturbation: N
seeded :class:`~repro.schedsweep.policy.RandomTiePolicy` runs (each
with the scripted failover) must all pass the same oracle.

CLI::

    python -m repro.cluster.sweep                 # full crash sweep
    python -m repro.cluster.sweep --smoke         # CI-sized subset
    python -m repro.cluster.sweep --schedules 5   # schedule mode
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import dataclass, field
from typing import Optional

from repro.cluster.scenario import run_scenario
from repro.faultinject.injector import FaultPlan
from repro.sweep import (
    Report,
    RunResult,
    hit_plans,
    print_sites,
    run_all,
    tally,
)

#: simulated instant of the scripted failover (must be inside the
#: traffic window so cluster.promote is reachable during discovery)
FAILOVER_AT = 60.0


@dataclass(frozen=True)
class ClusterSweepConfig:
    """One sweep's fully deterministic scenario recipe."""

    replicas: int = 2
    records: int = 80
    operations: int = 120
    rate: float = 0.8
    seed: int = 3
    max_hits_per_site: int = 3  # first + last + middle
    max_plans: Optional[int] = None

    def scenario_kwargs(self) -> dict:
        return dict(replicas=self.replicas, records=self.records,
                    operations=self.operations, rate=self.rate,
                    seed=self.seed, failover_at=FAILOVER_AT)


@dataclass
class PlanResult(RunResult):
    """Outcome of one armed run (or one perturbed schedule)."""

    label: str


@dataclass
class ClusterSweepReport(Report):
    mode: str = "crash"
    discovered: dict = field(default_factory=dict)

    def to_text(self) -> str:
        lines = [f"cluster {self.mode} sweep: replicas="
                 f"{self.config.replicas} records={self.config.records} "
                 f"operations={self.config.operations} "
                 f"seed={self.config.seed}"]
        if self.discovered:
            lines.append(f"{len(self.discovered)} cluster fault sites "
                         f"discovered, {len(self.results)} plans run")
        for result in self.results:
            status = "ok" if result.passed else f"FAIL: {result.detail}"
            lines.append(f"  {result.label:<36} {status}")
        lines.append(tally(self.results,
                           "runs passed the cross-replica oracle"))
        return "\n".join(lines)


def discover(config: ClusterSweepConfig) -> dict:
    """Clean seeded run, unarmed injector; returns the site census."""
    _cluster, _driver, summary, injector = run_scenario(
        discover=True, **config.scenario_kwargs())
    assert summary.get("ok"), "clean discovery run failed the oracle"
    return {site: count for site, count in injector.hits.items()
            if site.startswith("cluster.")}


def enumerate_plans(config: ClusterSweepConfig,
                    discovered: dict) -> list:
    return hit_plans(discovered, config.max_hits_per_site,
                     config.max_plans)


def _run(config: ClusterSweepConfig, label: str,
         **perturbation) -> PlanResult:
    """One perturbed replay; pass iff the run ends in a cluster that
    settles and satisfies every oracle check."""
    result = PlanResult(label=label)
    try:
        cluster, _driver, summary, injector = run_scenario(
            **perturbation, **config.scenario_kwargs())
    except Exception as exc:  # noqa: BLE001 - report, don't mask
        result.detail = f"{type(exc).__name__}: {exc}"
        return result
    if injector is not None and injector.fired is None:
        # Hit count drifted from discovery (a config diff): the run is
        # then clean and the oracle already passed, but flag it so the
        # sweep's coverage claim stays honest.
        result.detail = "fault did not fire (clean run, oracle ok)"
    result.passed = bool(summary.get("ok"))
    result.trace = None if result.passed else cluster.tracer.to_jsonl()
    return result


def run_plan(config: ClusterSweepConfig, plan: FaultPlan) -> PlanResult:
    """One armed replay: a ship fault escalates to failover, an apply
    fault to replica crash recovery, a promote fault to kill-and-retry."""
    return _run(config, plan.describe(), fault_plan=plan)


def run_crash_sweep(config: ClusterSweepConfig,
                    progress=None) -> ClusterSweepReport:
    discovered = discover(config)
    results = run_all(enumerate_plans(config, discovered),
                      lambda plan: run_plan(config, plan),
                      lambda plan: f"{plan.describe():<36}", progress)
    return ClusterSweepReport(config=config, results=results,
                              discovered=discovered)


def run_schedule_sweep(config: ClusterSweepConfig, schedules: int,
                       progress=None) -> ClusterSweepReport:
    from repro.schedsweep.policy import RandomTiePolicy

    def run(seed: int) -> PlanResult:
        policy = RandomTiePolicy(seed, preempt_prob=0.05, max_preemptions=12)
        return _run(config, f"schedule#{seed}", schedule_policy=policy)

    results = run_all(list(range(schedules)), run,
                      lambda seed: f"{f'schedule#{seed}':<36}", progress)
    return ClusterSweepReport(config=config, results=results,
                              mode="schedule")


def main(argv: Optional[list] = None) -> int:
    parser = argparse.ArgumentParser(
        description="Crash- or schedule-sweep the replication cluster "
                    "scenario and prove the cross-replica oracle.")
    parser.add_argument("--replicas", type=int, default=2)
    parser.add_argument("--records", type=int, default=80)
    parser.add_argument("--operations", type=int, default=120)
    parser.add_argument("--seed", type=int, default=3)
    parser.add_argument("--max-hits-per-site", type=int, default=3)
    parser.add_argument("--max-plans", type=int, default=None)
    parser.add_argument("--schedules", type=int, default=None,
                        metavar="N",
                        help="run N perturbed-schedule runs instead of "
                             "the crash sweep")
    parser.add_argument("--smoke", action="store_true",
                        help="CI-sized subset: first hit per site only")
    parser.add_argument("--list-sites", action="store_true")
    parser.add_argument("--trace-out", default=None, metavar="FILE",
                        help="write the first FAILED run's JSONL trace")
    parser.add_argument("--quiet", action="store_true")
    args = parser.parse_args(argv)

    config = ClusterSweepConfig(
        replicas=args.replicas,
        records=args.records,
        operations=args.operations,
        seed=args.seed,
        max_hits_per_site=1 if args.smoke else args.max_hits_per_site,
        max_plans=args.max_plans,
    )
    if args.list_sites:
        return print_sites(discover(config), width=24)
    progress = None if args.quiet else \
        (lambda line: print(line, file=sys.stderr, flush=True))
    if args.schedules is not None:
        report = run_schedule_sweep(config, args.schedules,
                                    progress=progress)
    else:
        report = run_crash_sweep(config, progress=progress)
    if args.trace_out is not None:
        for result in report.failures:
            if result.trace is not None:
                with open(args.trace_out, "w") as handle:
                    handle.write(result.trace)
                print(f"trace written: {args.trace_out}",
                      file=sys.stderr)
                break
    print(report.to_text())
    return 0 if report.all_passed else 1


if __name__ == "__main__":  # pragma: no cover - CLI entry
    sys.exit(main())
