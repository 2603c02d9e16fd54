"""Restartable merge phase (section 5.2).

N sorted input streams merge into one output stream.  Restartability rests
on the paper's counter vector:

    "Associate with the tournament tree a vector of N counters, where each
    counter is associated with one input stream ...  while outputting a
    value from the tree, we increment by one the counter associated with
    the input stream from which that value came."

A checkpoint forces the output stream and records the counters plus the
output's end-of-file; restart truncates the output back to that position,
repositions every input to its counter, and rebuilds the merge -- "no key
is left out from the merge and no key is output more than once".

No per-key tournament step is needed for that.  Construction sorts the
inputs' unread suffixes, concatenated in slot order, once: timsort finds
the N sorted runs and gallop-merges them in C, and being stable it keeps
equal keys in slot order.  Producing keys is slicing; the counters and
the tournament's comparison count are derived from the last key out.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from operator import lt
from typing import Any, Optional

from repro.errors import SortRestartError
from repro.sort.runs import RunStore, SortRun


class RestartableMerger:
    """Merge N input runs into one output run with checkpoint support."""

    def __init__(self, inputs: list[SortRun], output: SortRun,
                 counters: Optional[list[int]] = None) -> None:
        if not inputs:
            raise SortRestartError("merge needs at least one input")
        self.inputs = list(inputs)
        self.output = output
        # Counters are 1-based positions of the next key to read from each
        # input, as in the paper ("All the counters are initialized to 1").
        starts = list(counters) if counters is not None \
            else [1] * len(inputs)
        if len(starts) != len(self.inputs):
            raise SortRestartError("one counter per input stream required")
        # A counter is the 1-based position of the next key to read, so the
        # legal range is [1, len(run) + 1] (the latter: input exhausted).
        # Restored counters outside it mean the checkpoint does not belong
        # to these runs -- e.g. a stale manifest applied to reused sealed
        # runs -- and would silently merge from the wrong offsets.
        merged: list[Any] = []
        for run, counter in zip(self.inputs, starts):
            keys = run.keys
            if not 1 <= counter <= len(keys) + 1:
                raise SortRestartError(
                    f"counter {counter} out of range for run {run.name!r} "
                    f"with {len(keys)} keys")
            if any(map(lt, keys[counter:], keys[counter - 1:])):
                raise SortRestartError(
                    f"run {run.name}: keys from position {counter} are "
                    f"not in sort order")
            merged += keys[counter - 1:]
        merged.sort()
        self._starts = starts
        self._merged = merged
        self._pos = 0
        size = len(self.inputs)
        # Matches a loser tree plays refilling slot i: one per level from
        # leaf node i + size up to the root.
        self._depths = [(slot + size).bit_length() - 1
                        for slot in range(size)]

    # -- producing ---------------------------------------------------------

    @property
    def exhausted(self) -> bool:
        return self._pos >= len(self._merged)

    def pop(self) -> Optional[Any]:
        """Produce the next merged key (appending it to the output run),
        or None when every input is exhausted."""
        batch = self.pop_many(1)
        return batch[0] if batch else None

    def pop_many(self, limit: int) -> list[Any]:
        """Produce up to ``limit`` merged keys."""
        pos = self._pos
        batch = self._merged[pos:pos + limit]
        self.output.extend_sorted(batch)
        self._pos = pos + len(batch)
        return batch

    def run_to_completion(self) -> SortRun:
        self.pop_many(len(self._merged))
        self.output.closed = True
        self.output.force()
        return self.output

    @property
    def counters(self) -> list[int]:
        """The paper's counter vector for the keys produced so far."""
        pos = self._pos
        if not pos:
            return list(self._starts)
        last = self._merged[pos - 1]
        # Emitted copies of ``last``: the stable sort put them out in slot
        # order, so they are handed back to the inputs in that order.
        copies = pos - bisect_left(self._merged, last, 0, pos)
        counters = []
        for run, start in zip(self.inputs, self._starts):
            keys = run.keys
            below = bisect_left(keys, last, start - 1)
            taken = min(copies, bisect_right(keys, last, below) - below)
            copies -= taken
            counters.append(1 + below + taken)
        return counters

    @property
    def comparisons(self) -> int:
        """Key comparisons an N-way loser tree makes for the same output."""
        return len(self.inputs) - 1 + sum(
            (counter - start) * depth for counter, start, depth
            in zip(self.counters, self._starts, self._depths))

    # -- checkpointing (section 5.2) ---------------------------------------------

    def checkpoint(self) -> dict:
        """Force the output and record counters + output end-of-file."""
        self.output.force()
        return {
            "phase": "merge",
            "inputs": [run.name for run in self.inputs],
            "counters": list(self.counters),
            "output": self.output.name,
            "output_length": len(self.output),
        }

    @classmethod
    def restore(cls, store: RunStore, manifest: dict) -> "RestartableMerger":
        """Resume a merge from its latest checkpoint after a crash."""
        if manifest.get("phase") != "merge":
            raise SortRestartError("manifest is not a merge-phase checkpoint")
        output = store.get(manifest["output"])
        # "Truncate the tail of the output file so that its end of file
        # position corresponds to the checkpointed information."
        output.truncate(manifest["output_length"])
        output.closed = False
        inputs = [store.get(name) for name in manifest["inputs"]]
        return cls(inputs, output, counters=list(manifest["counters"]))


def merge_pass(store: RunStore, runs: list[SortRun], fanin: int,
               ) -> list[SortRun]:
    """One full merge pass: groups of ``fanin`` runs -> one run each."""
    if fanin < 2:
        raise SortRestartError("merge fan-in must be at least 2")
    merged: list[SortRun] = []
    for start in range(0, len(runs), fanin):
        group = runs[start:start + fanin]
        if len(group) == 1:
            merged.append(group[0])
            continue
        output = store.new_run()
        merger = RestartableMerger(group, output)
        merger.run_to_completion()
        for run in group:
            store.discard(run.name)
        merged.append(output)
    return merged


def merge_to_single(store: RunStore, runs: list[SortRun], fanin: int
                    ) -> Optional[SortRun]:
    """Repeat merge passes until at most one run remains."""
    current = list(runs)
    while len(current) > 1:
        current = merge_pass(store, current, fanin)
    return current[0] if current else None


def final_merger(store: RunStore, runs: list[SortRun], fanin: int
                 ) -> Optional[RestartableMerger]:
    """Prepare the *final* merge as a streaming merger.

    Earlier passes (if the run count exceeds ``fanin``) are performed
    eagerly; the last pass is returned as a :class:`RestartableMerger` so
    the caller can pipeline its output into index construction ("the final
    merge phase of sort can be performed as keys are being inserted into
    the index", section 2.2.2).  Returns None when there are no runs.
    """
    if not runs:
        return None
    current = list(runs)
    while len(current) > fanin:
        current = merge_pass(store, current, fanin)
    output = store.new_run()
    return RestartableMerger(current, output)
