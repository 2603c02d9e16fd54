"""CPU-speed probe for scaling wall times to a reference speed.

On a shared host the same Python code runs up to 1.6x slower in some
seconds than in others (a fixed loop took 25 to 42 ms across one minute
on a 2-core cloud box, with process CPU time equal to wall time, so the
slowdown is the host's, not descheduling).  Such drift lasts seconds,
longer than one timed phase, so medians over a run do not remove it.

:func:`probe` times a fixed pure-Python event loop -- a heap of
generator processes, like the simulator's, but sharing no code with
``repro`` -- right before and after each measured phase.  A phase's
wall time is then scaled by ``REFERENCE_S / probe time``: the time the
phase would have taken at the speed where the probe takes
``REFERENCE_S``.  A change to ``repro`` cannot move the probe.
"""

from __future__ import annotations

import gc
import heapq
import statistics
import time

#: probe time that defines the reference speed
REFERENCE_S = 0.010


def _process(steps: int, counts: dict):
    for step in range(steps):
        counts[step & 255] = counts.get(step & 255, 0) + 1
        yield step % 7


def _probe_once() -> float:
    started = time.perf_counter()
    counts: dict = {}
    processes = [_process(400, counts) for _ in range(40)]
    queue = [(0.0, pid) for pid in range(len(processes))]
    heapq.heapify(queue)
    while queue:
        now, pid = heapq.heappop(queue)
        try:
            delay = next(processes[pid])
        except StopIteration:
            continue
        heapq.heappush(queue, (now + delay + 0.5, pid))
    return time.perf_counter() - started


def probe(repeats: int = 5) -> float:
    """Median time of the fixed probe, with the cyclic GC off so the
    size of the heap around it does not matter."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        return statistics.median(_probe_once() for _ in range(repeats))
    finally:
        if enabled:
            gc.enable()


def scale(seconds: float, before: float, after: float) -> float:
    """``seconds`` measured between probes ``before`` and ``after``, at
    the reference speed."""
    return seconds * REFERENCE_S / ((before + after) / 2)
