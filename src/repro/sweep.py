"""The one sweep core behind the crash, schedule and cluster sweeps.

Each sweep replays one seeded build many times with one perturbation
plugged in: a fault plan (:mod:`repro.faultinject.sweep`,
:mod:`repro.cluster.sweep`) or a schedule policy
(:mod:`repro.schedsweep.sweep`).  The rest lives here once: the build
recipe and its start-up, the first/last/middle hit enumeration, the
per-index oracle, and the run loop, results and CLI arguments.
"""

from __future__ import annotations

import os
import sys
from dataclasses import dataclass, field, fields
from typing import Any, Callable, Iterable, Optional

from repro.btree.audit import audit_tree
from repro.core import BuildOptions, IndexSpec, get_builder
from repro.core.descriptor import IndexState
from repro.faultinject.injector import CRASH, FaultPlan
from repro.faultinject.sites import SITE_DOCS
from repro.system import System, SystemConfig
from repro.verify import audit_index
from repro.workloads import WorkloadDriver, WorkloadSpec

INDEX_NAME = "idx"

#: the K=3 spec set used by ``--builder multi`` (section 6.2): two
#: single-column indexes plus a composite, so a sweep crosses every
#: per-index pipeline boundary (load/drain/flip) of the shared scan
MULTI_SPECS = (
    IndexSpec.of("idx", ["k"]),
    IndexSpec.of("idx2", ["p"]),
    IndexSpec.of("idx3", ["k", "p"]),
)

#: recipe switches whose CLI flag is not the field name
_SWITCH_FLAGS = {"compressed_keys": "codec",
                 "include_damage_kinds": "no-damage-kinds"}


def index_specs(builder: str) -> list:
    """The index specs one run builds: K=3 for multi, else one."""
    if builder == "multi":
        return list(MULTI_SPECS)
    return [IndexSpec.of(INDEX_NAME, ["k"])]


@dataclass(frozen=True)
class BuildRecipe:
    """One fully deterministic build: equal recipes replay identically."""

    builder: str = "sf"
    records: int = 500          # heap rows preloaded before the build
    operations: int = 150       # concurrent update ops per worker
    workers: int = 2
    seed: int = 7               # workload/system seed (not a schedule's)
    partitions: int = 2         # psf shard count (ignored by the others)
    buffer_frames: int = 80     # modest pool; large tables reach evictions
    checkpoint_every_pages: int = 8
    checkpoint_every_keys: int = 48
    commit_every_keys: int = 24
    #: IB admission control (work items / time unit); None = unthrottled.
    #: The throttle must be transparent to both sweeps: its delays
    #: reshuffle the schedule, and every crash plan and explored
    #: interleaving must still recover and audit like the unthrottled
    #: build.
    build_rate_limit: Optional[float] = None
    #: compressed-key sort (experiment E25).  The codec must be
    #: transparent too: every plan recovers, with the resumed sorters
    #: adopting the checkpointed column layout, and every interleaving
    #: produces the same audited tree with the codec on as off.
    compressed_keys: bool = False

    def system_config(self) -> SystemConfig:
        return SystemConfig(page_capacity=8, leaf_capacity=8,
                            buffer_frames=self.buffer_frames,
                            sort_workspace=16, merge_fanin=4,
                            build_rate_limit=self.build_rate_limit)

    def build_options(self) -> BuildOptions:
        return BuildOptions(
            checkpoint_every_pages=self.checkpoint_every_pages,
            checkpoint_every_keys=self.checkpoint_every_keys,
            commit_every_keys=self.commit_every_keys,
            partitions=self.partitions,
            compressed_keys=self.compressed_keys)

    def index_names(self) -> list:
        return [spec.name for spec in index_specs(self.builder)]

    def render(self, cli: Optional[str] = None) -> str:
        """The builder and every non-default field, as a ``python -m
        <cli>`` command line, else as a constructor call.  A field the
        CLI has no flag for makes it reject the line, never replay
        another recipe."""
        changed = [(f.name, getattr(self, f.name)) for f in fields(self)
                   if f.name == "builder"
                   or getattr(self, f.name) != f.default]
        if cli is None:
            args = ", ".join(f"{name}={value!r}" for name, value in changed)
            return f"{type(self).__name__}({args})"
        words = ["python -m", cli]
        for name, value in changed:
            words.append("--" + _SWITCH_FLAGS.get(name,
                                                  name.replace("_", "-")))
            if not isinstance(value, bool):
                # a switch differs from its default only when it is set
                words.append(str(value))
        return " ".join(words)


def _run_setup(system: System, body, name: str) -> None:
    proc = system.spawn(body, name=name)
    system.run()
    if proc.error is not None:  # pragma: no cover - setup bug
        raise proc.error


def start_build(recipe: BuildRecipe, *, injector=None, policy=None,
                tracer=None):
    """Preload the table, then launch the builder and the workload.

    Returns ``(system, driver, builder_proc)``.  ``tracer`` (a
    :class:`~repro.obs.TraceRecorder`) attaches *passively* -- no gauge
    sampler process -- so the traced schedule is step-identical to the
    untraced one.  ``rebuild`` first seeds its sealed runs with one
    clean, unperturbed SF build.  The injector or schedule policy is
    installed only after that, so site hit counts and consult numbers
    cover exactly the build-era schedule and the preloaded table is
    identical across every run of one recipe.
    """
    system = System(recipe.system_config(), seed=recipe.seed)
    if tracer is not None:
        from repro.obs import enable_tracing
        enable_tracing(system, tracer)
    table = system.create_table("t", ["k", "p"])
    spec = WorkloadSpec(operations=recipe.operations, workers=recipe.workers,
                        think_time=1.0, rollback_fraction=0.2)
    driver = WorkloadDriver(system, table, spec, seed=recipe.seed)
    _run_setup(system, driver.preload(recipe.records), "preload")
    specs = index_specs(recipe.builder)
    if recipe.builder == "rebuild":
        seed = get_builder("sf")(system, table, specs,
                                 options=recipe.build_options())
        _run_setup(system, seed.run(), "seed-builder")
    if injector is not None:
        injector.install(system)
    if policy is not None:
        system.sim.schedule_policy = policy
    if recipe.builder == "rebuild":
        builder = system.rebuild_index(INDEX_NAME,
                                       options=recipe.build_options())
    else:
        builder = get_builder(recipe.builder)(
            system, table, specs, options=recipe.build_options())
    proc = system.spawn(builder.run(), name="builder")
    driver.spawn_workers()
    return system, driver, proc


def hit_plans(discovered: dict, max_hits_per_site: int,
              max_plans: Optional[int] = None,
              kinds: Callable[[str], Iterable[str]] = lambda site: (CRASH,),
              ) -> list:
    """Stratified (site, hit, kind) plans from a discovery census.

    Per site: the first hit, the last hit (``max_hits_per_site`` >= 2)
    and a middle hit (>= 3), each armed with every kind ``kinds(site)``
    names.  ``max_plans`` truncates the list.
    """
    plans = []
    for site in sorted(discovered):
        count = discovered[site]
        hits = {1}
        if max_hits_per_site >= 2 and count > 1:
            hits.add(count)
        if max_hits_per_site >= 3 and count > 2:
            hits.add((count + 1) // 2)
        for hit in sorted(hits):
            plans.extend(FaultPlan(site, hit, kind) for kind in kinds(site))
    return plans if max_plans is None else plans[:max_plans]


# -- the per-index oracle ---------------------------------------------------


def check_indexes(system: System, names: Iterable[str]) -> str:
    """The per-index oracle; returns '' when clean, else failure text.

    Every named index must exist, be AVAILABLE, pass the structural
    audit (:mod:`repro.btree.audit`), agree with its table
    (:func:`repro.verify.audit_index`), and match the serial reference
    entry for entry.
    """
    for name in names:
        descriptor = system.indexes.get(name)
        if descriptor is None:
            return f"index {name!r} missing"
        if descriptor.state is not IndexState.AVAILABLE:
            return f"index {name} state {descriptor.state!r}"
        try:
            audit_tree(descriptor.tree)
        except Exception as exc:  # noqa: BLE001 - report, don't mask
            return f"{name}: structural audit failed: {exc!r}"
        try:
            audit_index(system, descriptor)
        except Exception as exc:  # noqa: BLE001 - report, don't mask
            return f"{name}: index/table audit failed: {exc!r}"
        failure = _serial_reference_check(descriptor)
        if failure:
            return f"{name}: {failure}"
    return ""


def _serial_reference_check(descriptor) -> str:
    """Order-exact comparison against the serial reference.

    The reference is what a quiesced offline build over the *final*
    table state produces: every live ``(key, rid)`` pair, sorted.  The
    online build, under any perturbation, must converge to exactly that
    sequence (order-exact, not just set-equal -- this catches ordering
    corruption that set-based audits miss).
    """
    reference = sorted(
        (descriptor.key_of(record), rid)
        for rid, record in descriptor.table.audit_records())
    actual = [(entry.key_value, entry.rid)
              for entry in descriptor.tree.all_entries()]
    if actual != reference:
        for position, (got, want) in enumerate(zip(actual, reference)):
            if got != want:
                return (f"serial-reference divergence at entry "
                        f"{position}: tree has {got!r}, reference has "
                        f"{want!r}")
        return (f"serial-reference length mismatch: tree has "
                f"{len(actual)} entries, reference has {len(reference)}")
    return ""


# -- driver code --------------------------------------------------------------


@dataclass(kw_only=True)
class RunResult:
    """Outcome of one perturbed run."""

    passed: bool = False
    detail: str = ""
    #: JSONL trace of a failed run; None for passing runs -- only
    #: failures carry their evidence
    trace: Optional[str] = None

    @property
    def failed(self) -> bool:
        return not self.passed

    @property
    def status(self) -> str:
        """``ok``, or ``FAIL:`` and the first line of the detail."""
        if self.passed:
            return "ok"
        return "FAIL: " + self.detail.split("\n", 1)[0]


@dataclass
class Report:
    """A sweep's recipe plus its per-run results."""

    config: Any
    results: list = field(default_factory=list)

    @property
    def failures(self) -> list:
        return [r for r in self.results if r.failed]

    @property
    def all_passed(self) -> bool:
        return not self.failures


def run_all(items: list, run: Callable[[Any], RunResult],
            label: Callable[[Any], str], progress=None) -> list:
    """``run`` every item in order, reporting ``[i/n] label status``."""
    results = []
    for index, item in enumerate(items):
        result = run(item)
        results.append(result)
        if progress is not None:
            progress(f"[{index + 1}/{len(items)}] {label(item)} "
                     f"{result.status}")
    return results


def tally(results: list, claim: str) -> str:
    """The report's closing ``passed/total claim`` line."""
    passed = sum(1 for result in results if result.passed)
    return f"{passed}/{len(results)} {claim}"


def print_sites(discovered: dict, width: int = 32) -> int:
    """Print the ``--list-sites`` census; returns the exit status."""
    for site in sorted(discovered):
        doc = SITE_DOCS.get(site, "(dynamic site)")
        print(f"{site:<{width}} {discovered[site]:>6}  {doc}")
    print(f"{len(discovered)} sites")
    return 0


def write_failures(directory: str, files: Iterable[tuple[str, str]],
                   what: str) -> None:
    """Write each failing run's ``(file name, text)`` into ``directory``."""
    os.makedirs(directory, exist_ok=True)
    for name, text in files:
        path = os.path.join(directory, name)
        with open(path, "w") as handle:
            handle.write(text)
        print(f"{what} written: {path}", file=sys.stderr)


def add_recipe_args(parser, defaults: BuildRecipe,
                    builders: tuple[str, ...]) -> None:
    """The CLI arguments the crash and schedule sweeps share."""
    parser.add_argument("--builder", choices=builders,
                        default=defaults.builder)
    parser.add_argument("--partitions", type=int,
                        default=defaults.partitions,
                        help="psf shard count (ignored by the other "
                             "builders)")
    for name in ("records", "operations", "seed"):
        parser.add_argument(f"--{name}", type=int,
                            default=getattr(defaults, name))
    parser.add_argument("--build-rate-limit", type=float, default=None,
                        help="IB admission-control rate (work items per "
                             "simulated time unit; default unthrottled)")
    parser.add_argument("--codec", action="store_true",
                        help="sort with compressed keys (experiment E25); "
                             "every run must still pass its oracle")
    parser.add_argument("--quiet", action="store_true")


def recipe_from_args(cls, args, **overrides) -> BuildRecipe:
    """The ``cls`` recipe that parsed CLI arguments name, field by field
    (the inverse of :meth:`BuildRecipe.render`)."""
    values = {}
    for f in fields(cls):
        flag = _SWITCH_FLAGS.get(f.name, f.name).replace("-", "_")
        if hasattr(args, flag):
            value = getattr(args, flag)
            # a set switch flips its field's default
            values[f.name] = value != f.default \
                if f.name in _SWITCH_FLAGS else value
    return cls(**{**values, **overrides})
