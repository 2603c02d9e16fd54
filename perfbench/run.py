#!/usr/bin/env python3
"""Run one benchmark workload and print its metrics.

Usage, from the repository root::

    python3 perfbench/run.py --workload sf_point_writes --seed 1 \\
        --seconds 25 --trace 0

``--trace 0`` reports the end-to-end metrics, measured with profiling
off.  ``--trace 1`` makes a separate run of the same workload that
reports per-layer self time and call counts (a cProfile of the timed
phase, bucketed by ``repro.<package>``), the system's own counters, and
the profiling overhead.  The metric names, units and workloads are the
ones ``BENCHMARK.json`` declares; ``perfbench/README.md`` defines them.

Each iteration builds the index on a fresh system preloaded from its own
seed (``seed * 1000 + i`` for the run's i-th iteration).  A run repeats
iterations for ``--seconds`` and reports medians; the simulated-clock
metrics come from the first ``seeds_per_run`` iterations only, so they
are the same for the same ``--seed`` whatever the machine's speed.  Any
audit or op-accounting failure exits non-zero without a result.  The
last line of standard output is the result as one JSON object.
"""

from __future__ import annotations

import argparse
import json
import math
import resource
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"

#: (name, unit) of every end-to-end metric, in output order
END_TO_END = (
    ("wall_us_per_row", "us/row"),
    ("setup_s", "s"),
    ("sim_build_time", "sim_units"),
    ("op_p50_sim", "sim_units"),
    ("op_p99_sim", "sim_units"),
    ("op_ok_share", "share"),
    ("stall_max_sim", "sim_units"),
    ("peak_rss_mb", "MB"),
)

#: the system's own counters reported by the traced run
COUNTERS = (
    "buffer.prefetches", "disk.pages_read", "disk.pages_written",
    "index.traversals", "index.splits", "index.inserts.bulk",
    "index.inserts.ib", "index.inserts.txn", "index.inserts.drain",
    "index.pseudo_deletes", "wal.records", "wal.forces",
    "lock.requests", "lock.waits", "lock.deadlocks", "txn.rollbacks",
    "latch.requests", "latch.waits", "sidefile.appends",
    "build.sidefile_drained", "build.pages_scanned",
    "build.utility_checkpoints", "query.range_scans",
    "openloop.range_via_index", "openloop.range_via_scan",
)

#: layer self times must sum to the traced wall time within this share
COVERAGE_TOLERANCE = 0.15


def sub_seed(seed: int, iteration: int) -> int:
    return seed * 1000 + iteration


def _import_system():
    """Put the checkout's ``src`` on the path; fail without it."""
    if not (SRC / "repro" / "__init__.py").is_file():
        raise SystemExit(f"error: no repro sources at {SRC}")
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(HERE))
    import repro
    if not Path(repro.__file__).resolve().is_relative_to(SRC.resolve()):
        raise SystemExit(f"error: repro imported from {repro.__file__}, "
                         f"not from {SRC}")


def percentile(ordered: list, q: float) -> float:
    """Nearest-rank percentile of an ascending list."""
    rank = math.ceil(q * len(ordered) - 1e-9)
    return ordered[min(max(rank, 1), len(ordered)) - 1]


def repeat(seconds: float, minimum: int, body) -> list:
    """Call ``body(iteration)`` for ``seconds``, and at least ``minimum``
    times; returns the results."""
    started = time.perf_counter()
    results = []
    while True:
        results.append(body(len(results)))
        elapsed = time.perf_counter() - started
        if len(results) >= minimum and \
                elapsed * (len(results) + 1) / len(results) > seconds:
            return results


def end_to_end(workload, runs: list) -> tuple[dict, dict]:
    """The end-to-end metrics of untraced iterations ``runs``, and
    sample counts for the log."""
    sim = runs[:workload.seeds_per_run]
    latencies = sorted(x for run in sim for x in run.latencies)
    attempted = sum(run.attempted for run in sim)
    failed = sum(run.failed for run in sim)
    build_time = statistics.median(run.build_time for run in sim)
    if latencies:
        p50, p99 = percentile(latencies, 0.50), percentile(latencies, 0.99)
    else:
        # No foreground op ran (offline_bulk): an op arriving with the
        # build would have waited out the whole build window.
        p50 = p99 = build_time
    # The process's first iteration warms imports and allocator arenas;
    # it counts for the simulated metrics but not the wall times.
    warm = runs[1:] or runs
    values = {
        "wall_us_per_row": statistics.median(
            run.timed_ref_s for run in warm) / workload.rows * 1e6,
        "setup_s": statistics.median(run.setup_ref_s for run in warm),
        "sim_build_time": build_time,
        "op_p50_sim": p50,
        "op_p99_sim": p99,
        "op_ok_share": 1.0 - failed / attempted if attempted else 1.0,
        "stall_max_sim": statistics.median(run.stall_max for run in sim),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        / 1024.0,
    }
    info = {"iterations": len(runs), "seeds": len(sim),
            "raw_wall_us_per_row": statistics.median(
                run.timed_s for run in warm) / workload.rows * 1e6,
            "raw_setup_s": statistics.median(run.setup_s for run in warm),
            "op_samples": len(latencies), "ops_attempted": attempted,
            "ops_failed": failed}
    return {name: (values[name], unit) for name, unit in END_TO_END}, info


def per_layer_names() -> list:
    """(name, unit) of every per-layer metric, in output order."""
    from layers import LAYERS
    names = []
    for layer in LAYERS:
        names += [(f"{layer}.self_s", "s"), (f"{layer}.calls_in", "count")]
    names += [(name, "count") for name in COUNTERS]
    names += [
        ("buffer.hit_ratio", "ratio"),
        ("buffer.evictions", "count"),
        ("index.page_visits_per_traversal", "pages"),
        ("wal.bytes_per_row", "bytes/row"),
        ("lock.wait_time_sim", "sim_units"),
        ("latch.wait_time_sim", "sim_units"),
        ("op.samples", "count"),
        ("op.failed_share", "share"),
        ("op.rollback_share", "share"),
        ("workloads.inflight_max", "count"),
        ("workloads.dispatch_late_max_sim", "sim_units"),
        ("trace_overhead", "ratio"),
        ("profile.coverage", "ratio"),
    ]
    return names


def per_layer(workload, pairs: list) -> dict:
    """Per-layer metrics from (untraced, traced) iteration pairs."""
    from layers import LayerMap, attribute
    from workloads import BenchError
    layer_map = LayerMap(str(SRC), str(HERE))
    attributions = []
    for plain, traced in pairs:
        if plain.sim_fingerprint() != traced.sim_fingerprint():
            raise BenchError("profiling changed the simulated run")
        traced.profile.create_stats()
        attributions.append(attribute(traced.profile.stats, layer_map))
    traced_s = statistics.median(traced.timed_s for _, traced in pairs)
    plain_s = statistics.median(plain.timed_s for plain, _ in pairs)
    coverage = statistics.median(
        sum(found["self_s"].values()) / traced.timed_s
        for found, (_, traced) in zip(attributions, pairs))
    if abs(coverage - 1.0) > COVERAGE_TOLERANCE:
        raise BenchError(f"layer self times cover {coverage:.3f} of "
                         f"the traced wall time (tolerance "
                         f"{COVERAGE_TOLERANCE})")

    first = pairs[0][0]
    counters = first.counters
    values = {}
    for name in attributions[0]["self_s"]:
        values[f"{name}.self_s"] = statistics.median(
            found["self_s"].get(name, 0.0) for found in attributions)
    for name, count in attributions[0]["calls_in"].items():
        values[f"{name}.calls_in"] = count
    values.update({name: counters.get(name, 0) for name in COUNTERS})
    hits, misses = counters.get("buffer.hits", 0), \
        counters.get("buffer.misses", 0)
    traversals = counters.get("index.traversals", 0)
    values.update({
        "buffer.hit_ratio": hits / (hits + misses) if hits + misses else 0.0,
        "buffer.evictions": counters.get("buffer.evictions.clean", 0)
        + counters.get("buffer.evictions.dirty", 0),
        "index.page_visits_per_traversal":
        counters.get("index.page_visits", 0) / traversals
        if traversals else 0.0,
        "wal.bytes_per_row": counters.get("wal.bytes", 0) / workload.rows,
        "lock.wait_time_sim": first.stats["lock.wait_time"],
        "latch.wait_time_sim": first.stats["latch.wait_time"],
        "op.samples": len(first.latencies),
        "op.failed_share": first.failed / first.attempted
        if first.attempted else 0.0,
        "op.rollback_share": first.rolledback / first.attempted
        if first.attempted else 0.0,
        "workloads.inflight_max": first.inflight_max,
        "workloads.dispatch_late_max_sim": first.dispatch_late_max,
        "trace_overhead": traced_s / plain_s,
        "profile.coverage": coverage,
    })
    return {name: (values.get(name, 0), unit)
            for name, unit in per_layer_names()}


def run(workload_name: str, seed: int, seconds: float, trace: bool) -> dict:
    """One benchmark run; returns the result object."""
    import cProfile
    from workloads import WORKLOADS, run_iteration
    workload = WORKLOADS[workload_name]
    if trace:
        def pair(i):
            # Both halves of a pair run the same input, so the traced
            # schedule must match the untraced one exactly.
            plain = run_iteration(workload, sub_seed(seed, i))
            traced = run_iteration(workload, sub_seed(seed, i),
                                   profiler=cProfile.Profile)
            return plain, traced
        pairs = repeat(seconds, 1, pair)
        metrics = per_layer(workload, pairs)
        builds, info = 2 * len(pairs), {"pairs": len(pairs)}
    else:
        runs = repeat(seconds, workload.seeds_per_run,
                      lambda i: run_iteration(workload, sub_seed(seed, i)))
        metrics, info = end_to_end(workload, runs)
        builds = len(runs)
    return {"metrics": metrics, "builds": builds, "info": info}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    _import_system()
    from repro.errors import ReproError
    from workloads import WORKLOADS, BenchError
    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from "
                     f"{', '.join(WORKLOADS)}")
    try:
        result = run(args.workload, args.seed, args.seconds,
                     bool(args.trace))
    except (BenchError, ReproError) as error:
        print(f"error: {error}", file=sys.stderr)
        return 1
    for key, value in result["info"].items():
        print(f"# {key} = {value}")
    for name, (value, unit) in result["metrics"].items():
        print(f"{name} = {value:.6g} {unit}")
    print(json.dumps({
        "correct": True,
        "attempted": result["builds"],
        "failed": 0,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in result["metrics"].items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
