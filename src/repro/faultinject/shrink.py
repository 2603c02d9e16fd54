"""Shrink a failing plan to a minimal reproduction.

When a sweep plan fails, the interesting schedule is usually reachable
with far less workload than the sweep ran.  :func:`shrink_failure`
re-runs the same plan while halving the preloaded record count and the
concurrent operation count, keeping each reduction only if the failure
persists.  Because the simulator is deterministic, the shrunk
configuration is an exact reproduction recipe, and :func:`schedule_dump`
renders it (plus the fired fault and the site hit census of the failing
run) as a paste-able bug report.

The shrinker is generic over plan types: it was written for
:class:`~repro.faultinject.injector.FaultPlan` but any
``(config, plan)`` pair works as long as

* ``config`` is a dataclass with the fields named by ``floors``
  (``records``/``operations``/``workers`` by default),
* ``runner(config, plan)`` re-executes the plan deterministically and
  returns a result exposing boolean ``passed``/``failed``, and
* ``dump(plan, config, result, attempts=...)`` renders a report.

:mod:`repro.schedsweep` reuses it with a schedule plan, its own runner,
and its own dump, so schedule failures shrink exactly like crash
failures.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Any, Callable

from repro.faultinject.injector import FaultPlan
from repro.faultinject.sweep import PlanResult, SweepConfig, run_plan

#: never shrink below these (the build needs *some* table to index)
MIN_RECORDS = 20
MIN_OPERATIONS = 0

#: default shrink schedule: ``(config field, floor)`` pairs tried in order
DEFAULT_FLOORS: tuple[tuple[str, int], ...] = (
    ("records", MIN_RECORDS),
    ("operations", MIN_OPERATIONS),
    ("workers", 1),
)


@dataclass
class ShrinkResult:
    """The smallest configuration that still reproduces the failure."""

    plan: Any
    config: Any
    result: Any
    attempts: int
    #: report renderer captured from the shrink call, so the result knows
    #: how to describe plans of any type
    dump: Callable[..., str] = field(default=None, repr=False)  # type: ignore[assignment]

    def report(self) -> str:
        renderer = self.dump if self.dump is not None else schedule_dump
        return renderer(self.plan, self.config, self.result,
                        attempts=self.attempts)


def shrink_failure(config: Any, plan: Any, max_attempts: int = 16, *,
                   runner: Callable[[Any, Any], Any] = run_plan,
                   floors: tuple[tuple[str, int], ...] = DEFAULT_FLOORS,
                   dump: Callable[..., str] = None,  # type: ignore[assignment]
                   ) -> ShrinkResult:
    """Minimize ``config`` while ``plan`` still fails under it.

    Greedy halving, one field at a time (by default records, then
    operations, then workers); each candidate is a full re-run via
    ``runner``, so the cost is a handful of extra simulations.  If the
    plan does not actually fail under ``config``, the original
    configuration is returned untouched.

    The defaults reproduce the historical fault-plan behaviour
    (``runner=run_plan``, fault-plan report).  Pass ``runner``/``floors``/
    ``dump`` to shrink other plan types -- see the module docstring for
    the protocol.
    """
    best = runner(config, plan)
    attempts = 1
    if best.passed:
        return ShrinkResult(plan=plan, config=config, result=best,
                            attempts=attempts, dump=dump)
    current = config
    for field_name, floor in floors:
        while attempts < max_attempts:
            value = getattr(current, field_name)
            smaller = max(floor, value // 2)
            if smaller == value:
                break
            candidate = replace(current, **{field_name: smaller})
            result = runner(candidate, plan)
            attempts += 1
            if result.failed:
                current, best = candidate, result
            else:
                break
    return ShrinkResult(plan=plan, config=current, result=best,
                        attempts=attempts, dump=dump)


def schedule_dump(plan: FaultPlan, config: SweepConfig,
                  result: PlanResult, attempts: int = 1) -> str:
    """Render a deterministic reproduction recipe for a failing plan."""
    lines = [
        f"fault plan  : {plan.describe()}",
        f"failure     : {result.detail or '(passed)'}",
        f"fired       : {'yes, at t=%.3f' % result.fired_at if result.fired else 'no'}",
        f"reproduce   : run_plan({config.render()}, "
        f"FaultPlan({plan.site!r}, {plan.hit}, {plan.kind!r}))",
        f"shrink runs : {attempts}",
        "site hits in the failing run:",
    ]
    for site in sorted(result.site_hits):
        lines.append(f"  {site:<32} {result.site_hits[site]:>6}")
    return "\n".join(lines)
