"""Schedule-sweep driver: explore N seeded interleavings per builder.

Runs on the shared sweep core (:mod:`repro.sweep`: build recipe,
start-up, per-index oracle, CLI plumbing) and plugs a schedule policy
in where the crash sweep (:mod:`repro.faultinject.sweep`) arms a fault:

1. **Baseline** -- run each builder once with the explicit FIFO policy
   and prove the oracle passes (a broken baseline is reported as such,
   not as a wall of schedule failures).
2. **Explore** -- run N schedules per builder, each under a seeded
   :class:`~repro.schedsweep.policy.RandomTiePolicy` that perturbs
   same-timestamp ties and injects bounded preemptions.
3. **Prove** -- after every run, apply the full oracle
   (:func:`repro.schedsweep.oracle.check_run`): structural audit,
   index/table audit, serial-reference equivalence, metrics sanity,
   hang detection.
4. **Shrink + replay** -- a failing schedule is shrunk with the generic
   shrinker from :mod:`repro.faultinject.shrink` (same greedy halving,
   schedule runner instead of fault runner) and reported with its
   choice-string, which replays the exact schedule via ``--replay``.

CLI::

    python -m repro.schedsweep --schedules 50            # all builders
    python -m repro.schedsweep --builder psf --partitions 3
    python -m repro.schedsweep --builder sf --schedule-seed 123 \
        --replay '4:1.a!' --records 60
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import dataclass, replace
from typing import Optional

from repro.faultinject.shrink import shrink_failure
from repro.schedsweep.oracle import check_run
from repro.schedsweep.policy import (
    FifoPolicy,
    RandomTiePolicy,
    ReplayMismatch,
    ReplayPolicy,
)
from repro.sweep import (
    BuildRecipe,
    Report,
    RunResult,
    add_recipe_args,
    recipe_from_args,
    run_all,
    start_build,
    tally,
    write_failures,
)

#: builder rows the default sweep explores; psf runs at P in {1, 2, 3}
#: (the paper's interleaving arguments must hold per shard count),
#: multi builds K=3 indexes off one shared scan (section 6.2), and
#: rebuild stays last so every earlier row keeps its schedule seeds
DEFAULT_ROWS: tuple[tuple[str, int], ...] = (
    ("offline", 1), ("nsf", 1), ("sf", 1),
    ("psf", 1), ("psf", 2), ("psf", 3),
    ("multi", 1), ("rebuild", 1),
)


@dataclass(frozen=True)
class ScheduleConfig(BuildRecipe):
    """One schedule run: the build recipe plus the exploration policy.

    Field names ``records``/``operations``/``workers`` are the recipe's,
    so the generic shrinker's default floors apply unchanged.
    """

    records: int = 120
    operations: int = 40
    buffer_frames: int = 64
    preempt_prob: float = 0.1
    max_preemptions: int = 16

    def make_policy(self, plan: "SchedulePlan"):
        if plan.choices is not None:
            return ReplayPolicy(plan.choices)
        if plan.schedule_seed is None:
            return FifoPolicy()
        return RandomTiePolicy(plan.schedule_seed,
                               preempt_prob=self.preempt_prob,
                               max_preemptions=self.max_preemptions)


@dataclass(frozen=True)
class SchedulePlan:
    """What to run: a seeded exploration, a replay, or the FIFO baseline."""

    #: RandomTiePolicy seed; None = explicit FIFO baseline
    schedule_seed: Optional[int] = None
    #: recorded choice-string; when set, replays it instead of exploring
    choices: Optional[str] = None

    def describe(self) -> str:
        if self.choices is not None:
            return (f"replay[{self.choices or '(fifo)'}] "
                    f"seed={self.schedule_seed}")
        if self.schedule_seed is None:
            return "fifo-baseline"
        return f"schedule-seed={self.schedule_seed}"


@dataclass
class ScheduleResult(RunResult):
    """Outcome of one explored schedule."""

    plan: SchedulePlan
    #: the run's recorded choice-string (the reproduction recipe)
    choices: str = ""
    consults: int = 0
    ties_perturbed: int = 0
    preemptions: int = 0
    sim_time: float = 0.0


# -- one deterministic run ----------------------------------------------------


def run_plan(config: ScheduleConfig, plan: SchedulePlan) -> ScheduleResult:
    """Run one schedule to completion and apply the full oracle."""
    result = ScheduleResult(plan=plan)
    policy = config.make_policy(plan)
    system, driver, proc = start_build(config, policy=policy)
    failure = ""
    try:
        system.run()
    except ReplayMismatch as exc:
        failure = f"replay diverged: {exc}"
    except Exception as exc:  # noqa: BLE001 - a process died; report it
        failure = f"schedule raised: {exc!r}"
    recorder = getattr(policy, "recorder", None)
    if recorder is not None:
        result.choices = recorder.choice_string()
        result.consults = recorder.consults
        result.ties_perturbed = recorder.ties_perturbed
        result.preemptions = recorder.preemptions
    result.sim_time = system.sim.now
    if not failure:
        failure = check_run(system, driver, proc, config.index_names())
    result.detail = failure
    result.passed = not failure
    return result


# -- failure reporting --------------------------------------------------------


def schedule_dump(plan: SchedulePlan, config: ScheduleConfig,
                  result: ScheduleResult, attempts: int = 1) -> str:
    """Render a deterministic reproduction recipe for a failing schedule."""
    choices = result.choices or plan.choices or ""
    lines = [
        f"schedule    : {plan.describe()}",
        f"failure     : {result.detail or '(passed)'}",
        f"choices     : {choices or '(fifo)'}",
        f"perturbed   : {result.ties_perturbed} ties, "
        f"{result.preemptions} preemptions over {result.consults} consults",
        f"reproduce   : {config.render('repro.schedsweep')} "
        f"--replay {choices!r}",
        f"shrink runs : {attempts}",
    ]
    return "\n".join(lines)


# -- the sweep ----------------------------------------------------------------


@dataclass
class BuilderCensus(Report):
    """One (builder, partitions) row: its FIFO baseline and the
    explored schedules (``results``)."""

    baseline: Optional[ScheduleResult] = None

    @property
    def label(self) -> str:
        if self.config.builder == "psf":
            return f"psf(P={self.config.partitions})"
        return self.config.builder

    @property
    def failures(self) -> list:
        return [r for r in [self.baseline, *self.results] if r.failed]

    def totals(self) -> tuple[int, int, int]:
        return (sum(r.consults for r in self.results),
                sum(r.ties_perturbed for r in self.results),
                sum(r.preemptions for r in self.results))


@dataclass
class ScheduleSweepReport:
    """Census + failures for a whole sweep."""

    config: ScheduleConfig
    schedules: int
    rows: list

    @property
    def failures(self) -> list:
        return [(census, result) for census in self.rows
                for result in census.failures]

    @property
    def all_passed(self) -> bool:
        return not self.failures

    def to_text(self) -> str:
        lines = [
            f"schedule sweep: records={self.config.records} "
            f"operations={self.config.operations} "
            f"workers={self.config.workers} seed={self.config.seed} "
            f"preempt_prob={self.config.preempt_prob}",
            f"{self.schedules} seeded schedules per builder "
            f"(+1 FIFO baseline each)",
            "",
            f"{'builder':<10} {'schedules':>9} {'consults':>10} "
            f"{'tie-perturb':>11} {'preempts':>9}  result",
        ]
        for census in self.rows:
            consults, ties, preempts = census.totals()
            bad = census.failures
            verdict = "PASS" if not bad else f"FAIL ({len(bad)})"
            lines.append(
                f"{census.label:<10} {len(census.results):>9} "
                f"{consults:>10} {ties:>11} {preempts:>9}  {verdict}")
        runs = [r for census in self.rows
                for r in [census.baseline, *census.results]]
        lines.append("")
        lines.append(tally(runs, "schedules passed the full oracle"))
        for census, result in self.failures:
            lines.append(f"  FAIL {census.label} {result.plan.describe()}: "
                         f"{result.detail}")
        return "\n".join(lines)


def schedule_seed_for(base_seed: int, row_index: int, n: int) -> int:
    """Deterministic per-run policy seed (stable across sweep shapes)."""
    return (base_seed * 1_000_003) ^ (row_index << 20) ^ n


def _explore(config: ScheduleConfig, plan: SchedulePlan,
             shrink: bool) -> ScheduleResult:
    """Run one seeded schedule; shrink it with the generic shrinker
    when it fails.  The *seeded* plan (not its choice-string) is re-run
    at each smaller config: the same seed explores an analogous
    schedule over the smaller workload, and the shrunk run's own
    recorded choice-string becomes the final reproduction recipe."""
    result = run_plan(config, plan)
    if result.failed and shrink:
        shrunk = shrink_failure(config, plan, runner=run_plan,
                                dump=schedule_dump)
        result.detail += "\n" + shrunk.report()
    return result


def run_sweep(config: ScheduleConfig, schedules: int,
              rows: Optional[list] = None, progress=None,
              shrink: bool = True) -> ScheduleSweepReport:
    """Explore ``schedules`` seeded runs per builder row; report.

    ``rows``: list of ``(builder, partitions)`` pairs; defaults to
    :data:`DEFAULT_ROWS`.  When ``shrink`` is true, each failing seeded
    schedule is additionally shrunk and its minimized reproduction
    recipe appended to the result's detail.
    """
    rows = list(DEFAULT_ROWS) if rows is None else rows
    censuses = []
    for row_index, (builder, partitions) in enumerate(rows):
        row_config = replace(config, builder=builder,
                             partitions=partitions)
        census = BuilderCensus(row_config, baseline=run_plan(
            row_config, SchedulePlan()))
        censuses.append(census)
        if progress is not None:
            progress(f"[{census.label}] baseline {census.baseline.status}")
        if census.baseline.failed:
            # The FIFO schedule itself fails: exploring perturbations
            # of a broken baseline would just repeat the same failure.
            continue
        plans = [SchedulePlan(schedule_seed=schedule_seed_for(
            config.seed, row_index, n)) for n in range(schedules)]
        census.results = run_all(
            plans, lambda plan: _explore(row_config, plan, shrink),
            lambda plan: f"{census.label} {plan.describe()}", progress)
    return ScheduleSweepReport(config=config, schedules=schedules,
                               rows=censuses)


# -- CLI ----------------------------------------------------------------------


def main(argv: Optional[list] = None) -> int:
    parser = argparse.ArgumentParser(
        description="Explore seeded adversarial schedules of an online "
                    "index build and prove the full oracle on each.")
    add_recipe_args(parser, ScheduleConfig(),
                    ("all", "offline", "nsf", "sf", "psf", "multi",
                     "rebuild"))
    # --builder all sweeps DEFAULT_ROWS; psf without --partitions
    # sweeps P in {1, 2, 3}
    parser.set_defaults(builder="all", partitions=None)
    parser.add_argument("--schedules", type=int, default=50,
                        help="seeded schedules per builder row")
    parser.add_argument("--workers", type=int, default=2)
    parser.add_argument("--preempt-prob", type=float, default=0.1)
    parser.add_argument("--max-preemptions", type=int, default=16)
    parser.add_argument("--schedule-seed", type=int, default=None,
                        help="run exactly one seeded schedule and exit")
    parser.add_argument("--replay", default=None, metavar="CHOICES",
                        help="replay one recorded choice-string and exit")
    parser.add_argument("--no-shrink", action="store_true",
                        help="skip shrinking failing schedules")
    parser.add_argument("--failures-out", default=None, metavar="DIR",
                        help="write one reproduction recipe per failing "
                             "schedule here (CI artifact)")
    args = parser.parse_args(argv)

    config = recipe_from_args(
        ScheduleConfig, args,
        builder=args.builder if args.builder != "all" else "sf",
        partitions=args.partitions if args.partitions is not None else 2)

    if args.replay is not None or args.schedule_seed is not None:
        # Single-run mode: replay a recorded schedule or explore one seed.
        plan = SchedulePlan(schedule_seed=args.schedule_seed,
                            choices=args.replay)
        result = run_plan(config, plan)
        print(schedule_dump(plan, config, result))
        return 0 if result.passed else 1

    if args.builder == "all":
        rows = list(DEFAULT_ROWS)
    elif args.builder == "psf" and args.partitions is None:
        rows = [("psf", p) for p in (1, 2, 3)]
    else:
        rows = [(args.builder, config.partitions)]

    progress = None if args.quiet else \
        (lambda line: print(line, file=sys.stderr, flush=True))
    report = run_sweep(config, args.schedules, rows=rows,
                       progress=progress, shrink=not args.no_shrink)
    if args.failures_out is not None:
        write_failures(args.failures_out, [
            (f"{census.label}-{index}.txt",
             schedule_dump(result.plan, census.config, result) + "\n")
            for index, (census, result) in enumerate(report.failures)],
            "failure")
    print(report.to_text())
    return 0 if report.all_passed else 1


if __name__ == "__main__":  # pragma: no cover - CLI entry
    sys.exit(main())
