"""Crash-sweep driver: crash a build at every fault site, prove recovery.

The sweep exploits the simulator's determinism (section 7's argument that
restart recovery "can be tested systematically"):

1. **Discover** -- run one clean seeded build with an *unarmed*
   :class:`~repro.faultinject.injector.FaultInjector` installed; every
   :func:`~repro.faultinject.sites.fault_point` hit is counted, leaving
   the full list of reachable (site, hit-count) pairs.
2. **Enumerate** -- pick crash instants per site (first hit, last hit,
   optionally a middle hit) and fault kinds per site capability.
3. **Replay** -- for each plan, re-run the identical seeded build with
   the fault armed; the fault fires at exactly the discovered instant.
4. **Prove** -- restart recovery, resume (or re-issue) the build, run it
   to completion and apply the per-index oracle
   (:func:`repro.sweep.check_indexes`) to the result.  Any exception or
   oracle failure is a sweep failure.

CLI::

    python -m repro.faultinject.sweep --builder sf --records 500
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import dataclass, field
from typing import Optional

from repro.core import build_pre_undo, get_builder, resume_build
from repro.faultinject.injector import (
    CRASH,
    FaultInjector,
    FaultPlan,
    LOST_FLUSH,
    TORN_WRITE,
)
from repro.faultinject.sites import LOST_CAPABLE, TORN_CAPABLE
from repro.recovery import restart
from repro.sweep import (
    INDEX_NAME,
    BuildRecipe,
    Report,
    RunResult,
    add_recipe_args,
    check_indexes,
    hit_plans,
    index_specs,
    print_sites,
    recipe_from_args,
    run_all,
    start_build,
    tally,
    write_failures,
)
from repro.system import System


@dataclass(frozen=True)
class SweepConfig(BuildRecipe):
    """One crash sweep: the build recipe plus which plans to run."""

    max_hits_per_site: int = 2  # 1 = first hit only, 2 = first+last, 3 = +middle
    include_damage_kinds: bool = True
    max_plans: Optional[int] = None

    def make_injector(self, plan: Optional[FaultPlan] = None
                      ) -> FaultInjector:
        """Injector whose kernel-step watch list covers this builder's
        processes: psf adds the per-shard scan and merge workers, so the
        sweep censuses dynamic ``kernel.step.psf-worker-<i>`` /
        ``kernel.step.psf-merge-<i>`` sites per worker."""
        watch = ["builder", "resumed"]
        if self.builder == "psf":
            for shard in range(self.partitions):
                watch.append(f"psf-worker-{shard}")
                watch.append(f"psf-merge-{shard}")
        return FaultInjector(plan, watch_processes=tuple(watch))


@dataclass
class PlanResult(RunResult):
    """Outcome of one injected run."""

    plan: FaultPlan
    fired: bool = False
    fired_at: float = 0.0
    site_hits: dict = field(default_factory=dict)


@dataclass
class SweepReport(Report):
    """Per-plan results plus the discovery census."""

    discovered: dict = field(default_factory=dict)

    @property
    def sites(self) -> list:
        return sorted(self.discovered)

    def to_text(self) -> str:
        lines = [
            f"crash sweep: builder={self.config.builder} "
            f"records={self.config.records} seed={self.config.seed}",
            f"{len(self.discovered)} fault sites discovered, "
            f"{len(self.results)} plans run",
            "",
            f"{'site':<32} {'hits':>6}  plans  result",
        ]
        by_site: dict[str, list[PlanResult]] = {}
        for result in self.results:
            by_site.setdefault(result.plan.site, []).append(result)
        for site in self.sites:
            site_results = by_site.get(site, [])
            bad = [r for r in site_results if r.failed]
            if not site_results:
                verdict = "-"
            elif not bad:
                verdict = "PASS"
            else:
                verdict = f"FAIL ({', '.join(r.plan.describe() for r in bad)})"
            lines.append(f"{site:<32} {self.discovered[site]:>6}  "
                         f"{len(site_results):>5}  {verdict}")
        lines.append("")
        lines.append(tally(self.results, "plans recovered and audited clean"))
        for result in self.failures:
            lines.append(f"  FAIL {result.plan.describe()}: {result.detail}")
        return "\n".join(lines)


def discover(config: SweepConfig, tracer=None) -> dict:
    """Run the build once, unarmed; return the {site: hit count} census.

    Also asserts the clean run completes and passes the oracle, so a
    broken baseline is reported as such rather than as a wall of
    injected failures.
    """
    injector = config.make_injector()
    system, _driver, proc = start_build(config, injector=injector,
                                        tracer=tracer)
    system.run()
    if proc.error is not None:
        raise proc.error
    if system.sim.crashed:  # pragma: no cover - nothing armed
        raise RuntimeError("clean discovery run crashed")
    failure = check_indexes(system, config.index_names())
    if failure:
        raise RuntimeError(f"clean discovery run: {failure}")
    return dict(injector.hits)


def _finish(system: System, builder) -> None:
    """Run a resumed or re-issued build to completion."""
    proc = system.spawn(builder.run(), name="resumed")
    system.run()
    if proc.error is not None:
        raise proc.error


def _recover_and_audit(config: SweepConfig, system: System) -> str:
    """Restart, resume (or re-issue) the build, audit; '' or failure text."""
    names = config.index_names()
    recovered, state = restart(system, pre_undo=build_pre_undo)
    resumed = resume_build(recovered, state)
    if resumed is not None:
        _finish(recovered, resumed)
    if config.builder == "rebuild" and resumed is None:
        # The crash predated the rebuild's first (pre-flip) checkpoint:
        # the live index survived untouched and AVAILABLE.  Re-issue the
        # rebuild -- the sealed runs must still be valid.
        _finish(recovered, recovered.rebuild_index(
            INDEX_NAME, options=config.build_options()))
    if any(name not in recovered.indexes for name in names):
        # The crash landed before the build's first checkpoint: the
        # orphaned descriptors were discarded and the build is simply
        # reissued from scratch (the documented contract).
        _finish(recovered, get_builder(config.builder)(
            recovered, recovered.tables["t"], index_specs(config.builder),
            options=config.build_options()))
    return check_indexes(recovered, names)


def run_plan(config: SweepConfig, plan: FaultPlan) -> PlanResult:
    """Replay the seeded build with ``plan`` armed; recover and audit.

    Every run records a passive trace; a failing plan's
    :attr:`PlanResult.trace` carries the whole story (build spans, the
    injected crash, the recovery attempt) as JSONL for offline triage
    with ``python -m repro.obs.report``.
    """
    from repro.obs import TraceRecorder

    result = PlanResult(plan=plan)
    recorder = TraceRecorder()
    injector = config.make_injector(plan)
    system, _driver, proc = start_build(config, injector=injector,
                                        tracer=recorder)
    system.run()
    result.site_hits = dict(injector.hits)
    if injector.fired is None:
        # The site/hit pair was not reached (possible when a config diff
        # from discovery changes the schedule); the run is then a clean
        # build and must still pass the oracle.
        if proc.error is not None:
            failure = f"builder error: {proc.error!r}"
        else:
            failure = check_indexes(system, config.index_names())
        result.detail = f"did not fire; {failure}" if failure \
            else "fault did not fire"
    else:
        result.fired = True
        result.fired_at = injector.fired.sim_time
        if not system.sim.crashed:
            failure = "fault fired but system did not crash"
        else:
            try:
                failure = _recover_and_audit(config, system)
            except Exception as exc:  # noqa: BLE001 - report, don't mask
                failure = f"recovery raised: {exc!r}"
        result.detail = failure
    result.passed = not failure
    if failure:
        result.trace = recorder.to_jsonl()
    return result


def enumerate_plans(config: SweepConfig, discovered: dict) -> list:
    """:func:`repro.sweep.hit_plans` over the discovery census, adding
    damage kinds only where the site can express them
    (:data:`TORN_CAPABLE` / :data:`LOST_CAPABLE`)."""
    def kinds(site: str) -> list:
        damage = [TORN_WRITE] * (site in TORN_CAPABLE) \
            + [LOST_FLUSH] * (site in LOST_CAPABLE)
        return [CRASH] + (damage if config.include_damage_kinds else [])

    return hit_plans(discovered, config.max_hits_per_site,
                     config.max_plans, kinds)


def run_sweep(config: SweepConfig,
              progress=None, trace_out=None) -> SweepReport:
    """Discover, enumerate and run every plan; return the report.

    ``trace_out``: optional path; the clean discovery run's JSONL trace
    is written there (the sweep's reference timeline).
    """
    tracer = None
    if trace_out is not None:
        from repro.obs import TraceRecorder
        tracer = TraceRecorder()
    discovered = discover(config, tracer=tracer)
    if tracer is not None:
        tracer.write_jsonl(trace_out)
    results = run_all(enumerate_plans(config, discovered),
                      lambda plan: run_plan(config, plan),
                      lambda plan: f"{plan.describe():<40}", progress)
    return SweepReport(config=config, discovered=discovered,
                       results=results)


def _plan_slug(plan: FaultPlan) -> str:
    """Filesystem-safe name for one plan's trace file."""
    raw = plan.describe()
    return "".join(ch if ch.isalnum() or ch in "._-" else "-"
                   for ch in raw)


# -- CLI ----------------------------------------------------------------------


def main(argv: Optional[list] = None) -> int:
    parser = argparse.ArgumentParser(
        description="Crash-sweep a seeded online index build: inject one "
                    "fault per (site, hit) pair and prove restart "
                    "recovery + audit.")
    add_recipe_args(parser, SweepConfig(),
                    ("nsf", "sf", "psf", "multi", "rebuild"))
    parser.add_argument("--max-hits-per-site", type=int, default=2)
    parser.add_argument("--max-plans", type=int, default=None)
    parser.add_argument("--no-damage-kinds", action="store_true",
                        help="inject plain crashes only")
    parser.add_argument("--list-sites", action="store_true",
                        help="discover and list fault sites, then exit")
    parser.add_argument("--trace-out", default=None, metavar="FILE",
                        help="write the clean discovery run's JSONL trace "
                             "(render with python -m repro.obs.report)")
    parser.add_argument("--trace-dir", default=None, metavar="DIR",
                        help="write one JSONL trace per FAILED plan here")
    args = parser.parse_args(argv)

    config = recipe_from_args(SweepConfig, args)
    if args.list_sites:
        return print_sites(discover(config))
    progress = None if args.quiet else \
        (lambda line: print(line, file=sys.stderr, flush=True))
    report = run_sweep(config, progress=progress, trace_out=args.trace_out)
    if args.trace_dir is not None:
        write_failures(args.trace_dir,
                       [(f"{_plan_slug(r.plan)}.jsonl", r.trace)
                        for r in report.failures if r.trace is not None],
                       "trace")
    print(report.to_text())
    return 0 if report.all_passed else 1


if __name__ == "__main__":  # pragma: no cover - CLI entry
    sys.exit(main())
