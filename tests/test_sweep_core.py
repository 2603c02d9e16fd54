"""The shared sweep core (repro.sweep) as the three sweeps use it.

Reproduction recipes must round-trip: a schedule-sweep ``reproduce``
line replays through the CLI, and a crash-shrinker recipe rebuilds the
exact config and plan.  The schedule sweep runs ``rebuild`` (sealed
runs seeded by the core's start-up), and the cluster sweep's schedule
mode passes.
"""

import shlex

import pytest

from repro.cluster.sweep import ClusterSweepConfig, run_schedule_sweep
from repro.faultinject.injector import FaultPlan, TORN_WRITE
from repro.faultinject.shrink import schedule_dump as crash_dump
from repro.faultinject.sweep import PlanResult, SweepConfig
from repro.schedsweep import ScheduleConfig, SchedulePlan, run_plan
from repro.schedsweep.sweep import main, schedule_dump


def _reproduce_line(dump: str) -> str:
    line = next(line for line in dump.splitlines()
                if line.startswith("reproduce"))
    return line.split(":", 1)[1].strip()


@pytest.mark.parametrize("overrides", [
    dict(build_rate_limit=2.0),
    dict(build_rate_limit=2.0, compressed_keys=True, builder="psf",
         partitions=3),
])
def test_schedule_recipe_replays_through_the_cli(overrides, capsys):
    config = ScheduleConfig(records=60, operations=15, **overrides)
    plan = SchedulePlan(schedule_seed=5)
    seeded = run_plan(config, plan)
    assert seeded.passed, seeded.detail
    words = shlex.split(_reproduce_line(schedule_dump(plan, config,
                                                      seeded)))
    assert words[:3] == ["python", "-m", "repro.schedsweep"]
    assert main(words[3:] + ["--quiet"]) == 0, capsys.readouterr().out


def test_crash_recipe_rebuilds_the_config_and_plan():
    config = SweepConfig(builder="psf", records=120, operations=20,
                         partitions=3, compressed_keys=True,
                         build_rate_limit=2.0, workers=1)
    plan = FaultPlan("btree.force", 2, TORN_WRITE)
    recipe = _reproduce_line(crash_dump(plan, config, PlanResult(plan=plan)))
    rebuilt = eval(recipe, {"run_plan": lambda *pair: pair,  # noqa: S307
                            "SweepConfig": SweepConfig,
                            "FaultPlan": FaultPlan})
    assert rebuilt == (config, plan)


def test_schedule_sweep_cli_runs_rebuild(capsys):
    assert main(["--builder", "rebuild", "--schedules", "2",
                 "--records", "60", "--operations", "15",
                 "--quiet"]) == 0
    out = capsys.readouterr().out
    assert "rebuild" in out
    assert "3/3 schedules passed the full oracle" in out


def test_cluster_schedule_mode_passes():
    report = run_schedule_sweep(ClusterSweepConfig(), 2)
    assert [result.label for result in report.results] == \
        ["schedule#0", "schedule#1"]
    assert report.all_passed, report.to_text()
