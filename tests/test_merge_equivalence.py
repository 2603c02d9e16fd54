"""Equivalence oracle for the one-shot stable merge.

The reference below is the per-key loser-tree ``RestartableMerger`` the
one-shot merge replaced, copied verbatim.  Both mergers are driven in
lockstep with random ``pop_many`` chunk sizes and random checkpoint ->
crash -> restore points, over runs of duplicate ints, distinct
``(key, rid)`` composites, and codec int/``SpilledKey`` mixes.  Output
and the loser tree's comparison count must match; for distinct keys the
counter vector must match after every chunk.  The loser tree breaks ties
between inputs differently, so for duplicate keys only the restart
guarantee is checked: no key lost, none produced twice.
"""

from typing import Any, Optional

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import SortRestartError
from repro.sort import KeyCodec, RunStore, SortRun
from repro.sort import merge as shipped
from repro.sort.tournament import INF, LoserTree, _Infinite


# -- reference: the per-key loser-tree merger, verbatim ---------------------


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
        self.counters = list(counters) if counters is not None \
            else [1] * len(inputs)
        if len(self.counters) != len(self.inputs):
            raise SortRestartError("one counter per input stream required")
        # A counter is the 1-based position of the next key to read, so the
        # legal range is [1, len(run) + 1] (the latter: input exhausted).
        # Restored counters outside it mean the checkpoint does not belong
        # to these runs -- e.g. a stale manifest applied to reused sealed
        # runs -- and would silently merge from the wrong offsets.
        for run, counter in zip(self.inputs, self.counters):
            if not 1 <= counter <= len(run.keys) + 1:
                raise SortRestartError(
                    f"counter {counter} out of range for run {run.name!r} "
                    f"with {len(run.keys)} keys")
        self._tree = LoserTree(len(self.inputs))
        for slot, run in enumerate(self.inputs):
            self._tree.set(slot, self._key_at(run, self.counters[slot]))
        self._tree.build()

    @staticmethod
    def _key_at(run: SortRun, counter: int) -> Any:
        index = counter - 1
        if index >= len(run.keys):
            return INF
        return run.keys[index]

    # -- producing ---------------------------------------------------------

    @property
    def exhausted(self) -> bool:
        return self._tree.exhausted

    def pop(self) -> Optional[Any]:
        """Produce the next merged key (appending it to the output run),
        or None when every input is exhausted."""
        if self._tree.exhausted:
            return None
        slot, value = self._tree.pop()
        self.output.append(value)
        self.counters[slot] += 1
        self._tree.set(slot,
                       self._key_at(self.inputs[slot], self.counters[slot]))
        self._tree.fixup(slot)
        return value

    def pop_many(self, limit: int) -> list[Any]:
        """Produce up to ``limit`` merged keys.

        Inlines :meth:`pop`'s loop body with hoisted bindings -- this is
        NSF's key-supply path, called once per IB batch for the whole
        build, and the per-key method dispatch was measurable.
        """
        tree = self._tree
        if not tree._built:
            tree.build()
        counters = self.counters
        append = self.output.append
        values = tree.values
        losers = tree._losers
        size = tree.size
        keys_by_slot = [run.keys for run in self.inputs]
        out: list[Any] = []
        out_append = out.append
        compared = 0
        winner = losers[0]
        while len(out) < limit:
            value = values[winner]
            if isinstance(value, _Infinite):
                break
            append(value)
            out_append(value)
            counter = counters[winner] + 1
            counters[winner] = counter
            keys = keys_by_slot[winner]
            replacement = keys[counter - 1] if counter <= len(keys) else INF
            values[winner] = replacement
            # Inlined fixup: replay matches from the refilled leaf upward.
            node = (winner + size) // 2
            while node >= 1:
                loser = losers[node]
                compared += 1
                contender = values[loser]
                # A bare ``<`` is total here: _Infinite answers False on
                # the left and (via the reflected operator) True on the
                # right, so the isinstance guards this used to carry were
                # two redundant tests per match in the hottest loop.
                if contender < replacement:
                    losers[node] = winner
                    winner = loser
                    replacement = contender
                node >>= 1
            losers[0] = winner
        tree.comparisons += compared
        return out

    def run_to_completion(self) -> SortRun:
        while self.pop() is not None:
            pass
        self.output.closed = True
        self.output.force()
        return self.output

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



# -- lockstep driver -----------------------------------------------------------


def _store_with(lists) -> tuple[RunStore, list[SortRun]]:
    store = RunStore(prefix="m")
    runs = []
    for keys in lists:
        run = store.new_run()
        for key in keys:
            run.append(key)
        run.force()
        run.closed = True
        runs.append(run)
    return store, runs


def _drive(data, lists, distinct: bool) -> None:
    ref_store, ref_runs = _store_with(lists)
    new_store, new_runs = _store_with(lists)
    ref = RestartableMerger(ref_runs, ref_store.new_run())
    new = shipped.RestartableMerger(new_runs, new_store.new_run())
    total = sum(len(keys) for keys in lists)
    restored = False
    while not ref.exhausted:
        if data.draw(st.integers(0, 4), label="restart?") == 0:
            ref_manifest = ref.checkpoint()
            new_manifest = new.checkpoint()
            if distinct:
                assert new_manifest == ref_manifest
            lost = data.draw(st.integers(0, total), label="lost")
            assert new.pop_many(lost) == ref.pop_many(lost)
            ref_store.crash()
            new_store.crash()
            ref = RestartableMerger.restore(ref_store, ref_manifest)
            new = shipped.RestartableMerger.restore(new_store, new_manifest)
            restored = True
        chunk = data.draw(st.integers(0, 40), label="chunk")
        assert new.pop_many(chunk) == ref.pop_many(chunk)
        assert new.exhausted == ref.exhausted
        if distinct:
            assert new.counters == ref.counters
            assert new.comparisons == ref._tree.comparisons
    assert new.exhausted and new.pop() is None and new.pop_many(5) == []
    if distinct or not restored:
        assert new.comparisons == ref._tree.comparisons
    expected = sorted(key for keys in lists for key in keys)
    assert ref.run_to_completion().keys == expected
    assert new.run_to_completion().keys == expected


def _split(data, keys: list) -> list[list]:
    """Deal ``keys`` into 1-6 runs, each sorted."""
    n_runs = data.draw(st.integers(1, 6), label="runs")
    lists = [[] for _ in range(n_runs)]
    for key in keys:
        lists[data.draw(st.integers(0, n_runs - 1))].append(key)
    return [sorted(keys) for keys in lists]


@settings(max_examples=80, deadline=None)
@given(data=st.data(),
       keys=st.lists(st.integers(0, 30), max_size=120))
def test_duplicate_ints_match_reference(data, keys):
    _drive(data, _split(data, keys), distinct=False)


@settings(max_examples=80, deadline=None)
@given(data=st.data(),
       keys=st.sets(st.tuples(st.integers(0, 50),
                              st.tuples(st.integers(0, 9),
                                        st.integers(0, 9))),
                    max_size=120))
def test_distinct_composites_match_reference(data, keys):
    _drive(data, _split(data, list(keys)), distinct=True)


@settings(max_examples=60, deadline=None)
@given(data=st.data(),
       values=st.lists(st.one_of(st.integers(0, 1000),
                                 st.integers(1 << 50, (1 << 50) + 1000)),
                       max_size=100))
def test_codec_int_and_spilled_mix_matches_reference(data, values):
    codec = KeyCodec("i")
    # Distinct rids make every composite, and so every encoding, distinct.
    keys = [codec.encode((value,), (i // 64, i % 64))
            for i, value in enumerate(values)]
    _drive(data, _split(data, keys), distinct=True)


# -- the order checks still fire ------------------------------------------------


def test_out_of_order_input_fails_construction():
    store, runs = _store_with([[1, 4, 9], [2, 3, 8]])
    runs[1].keys[1:3] = [8, 3]
    with pytest.raises(SortRestartError, match="not in sort order"):
        shipped.RestartableMerger(runs, store.new_run())
    # Only the unread suffix is checked: a counter past the disorder is
    # a legitimate restart point.
    merger = shipped.RestartableMerger(runs, store.new_run(),
                                       counters=[1, 3])
    assert merger.run_to_completion().keys == [1, 3, 4, 9]


def _append_error(run: SortRun, key: Any) -> str:
    with pytest.raises(SortRestartError) as info:
        run.append(key)
    return str(info.value)


def test_extend_sorted_rejects_closed_run_like_append():
    run = SortRun("r-1")
    run.extend_sorted([1, 2])
    run.closed = True
    with pytest.raises(SortRestartError) as info:
        run.extend_sorted([3, 4])
    assert str(info.value) == _append_error(run, 3)
    assert run.keys == [1, 2]


def test_extend_sorted_rejects_descending_boundary_like_append():
    run = SortRun("r-1")
    run.extend_sorted([5, 7])
    with pytest.raises(SortRestartError) as info:
        run.extend_sorted([6, 8])
    assert str(info.value) == _append_error(run, 6)
    assert run.keys == [5, 7]
    run.extend_sorted([7, 9])
    assert run.keys == [5, 7, 7, 9]
