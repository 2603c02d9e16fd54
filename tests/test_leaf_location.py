"""Routed leaf location: ``BTree._leaf_covers`` and ``_path_to_leaf``.

Both answer from an O(height) descent by composite.  The oracle here is
the fence pair of every leaf derived from a full structural walk of the
tree, the definition the routed answers must reproduce exactly.
"""

from types import SimpleNamespace

import pytest
from hypothesis import given, settings, strategies as st

from repro.btree import BTree, BulkLoader, IBCursor, audit_tree
from repro.btree.node import LeafPage
from repro.btree.tree import MIN_RID
from repro.core import IndexSpec, SFIndexBuilder
from repro.errors import StorageError
from repro.storage import RID
from repro.system import System, SystemConfig
from repro.verify import audit_index
from repro.workloads import WorkloadDriver, WorkloadSpec


def structural_fences(tree):
    """``{leaf_no: ((low, high), path)}`` from a walk of every page;
    a ``None`` fence is unbounded, a path lists ``(branch_no, slot)``."""
    found = {}

    def walk(page_no, low, high, path):
        node = tree.pages[page_no]
        if isinstance(node, LeafPage):
            found[page_no] = ((low, high), path)
            return
        for slot, child in enumerate(node.children):
            child_low, child_high = low, high
            if slot > 0:
                separator = node.separators[slot - 1]
                if child_low is None or separator > child_low:
                    child_low = separator
            if slot < len(node.separators):
                separator = node.separators[slot]
                if child_high is None or separator < child_high:
                    child_high = separator
            walk(child, child_low, child_high, path + [(page_no, slot)])

    walk(tree.root, None, None, [])
    return found


def in_fences(fences, composite):
    low, high = fences
    return ((low is None or low <= composite)
            and (high is None or composite < high))


def probes_of(tree):
    """Every entry, every separator, and composites just around each."""
    probes = set()
    for page in tree.pages.values():
        if isinstance(page, LeafPage):
            probes.update(entry.composite for entry in page.entries)
            continue
        for key_value, rid in page.separators:
            probes.update([
                (key_value, rid),
                (key_value, RID(rid.page_no, rid.slot - 1)),
                (key_value, RID(rid.page_no, rid.slot + 1)),
                (key_value, MIN_RID),
                (key_value - 1, RID(10 ** 6, 0)),
                (key_value + 1, MIN_RID),
            ])
    return sorted(probes)


def run(system, body):
    proc = system.spawn(body, name="driver")
    system.run()
    if proc.error is not None:
        raise proc.error
    return proc.result


@st.composite
def scenarios(draw):
    unique = draw(st.booleans())
    raw = draw(st.lists(
        st.tuples(st.integers(0, 300), st.integers(0, 40),
                  st.integers(1, 14)),
        min_size=30, max_size=160, unique_by=lambda t: t[0] if unique
        else t))
    keys = sorted((kv, RID(page, slot)) for kv, page, slot in raw)
    bulk = draw(st.integers(0, len(keys)))
    picks = st.lists(st.integers(0, len(keys) - 1), min_size=4, max_size=48)
    ops = draw(st.lists(st.tuples(
        st.sampled_from(["txn_insert", "txn_delete", "ib", "ib_rollback"]),
        picks), min_size=2, max_size=10))
    return unique, keys, bulk, ops


@settings(max_examples=60, deadline=None)
@given(scenario=scenarios())
def test_leaf_covers_matches_structural_fences(scenario):
    unique, keys, bulk, ops = scenario
    system = System(SystemConfig(leaf_capacity=4, branch_capacity=4))
    system.create_table("t", ["k", "p"])
    tree = BTree(system, "idx", "t", unique=unique)
    system.indexes["idx"] = SimpleNamespace(tree=tree)  # for logical undo
    loader = BulkLoader(tree)
    for key_value, rid in keys[:bulk]:
        loader.append(key_value, rid)
    loader.finish()
    # A wrong answer must fail the test rather than retry forever.
    calls = []
    leaf_covers = tree._leaf_covers

    def bounded_covers(leaf, composite):
        calls.append(composite)
        assert len(calls) < 20_000, "leaf location retries without progress"
        return leaf_covers(leaf, composite)

    tree._leaf_covers = bounded_covers

    for kind, picks in ops:
        chosen = sorted({keys[i] for i in picks})
        if kind.startswith("ib"):
            # A contiguous run, like IB's sorted stream: its splits fill
            # whole leaves, which a rollback then empties.
            chosen = keys[min(picks):max(picks) + 1]

        def body(kind=kind, chosen=chosen):
            txn = system.txns.begin(kind)
            if kind.startswith("ib"):
                yield from tree.ib_insert_batch(
                    txn, [(kv, tuple(rid)) for kv, rid in chosen],
                    IBCursor())
            for key_value, rid in chosen:
                if kind == "txn_insert":
                    yield from tree.txn_insert_key(
                        txn, key_value, rid, during_build=False)
                elif kind == "txn_delete":
                    yield from tree.txn_delete_key(
                        txn, key_value, rid, during_build=False)
            if kind == "ib_rollback":
                # Undo removes IB's keys physically: leaves can empty.
                yield from txn.rollback()
            else:
                yield from txn.commit()

        run(system, body())
    del tree._leaf_covers
    tree._ensure_root()  # no-op unless nothing was ever inserted
    audit_tree(tree)

    reference = structural_fences(tree)
    leaves = [tree.pages[no] for no in sorted(reference)]
    probes = probes_of(tree)
    # Warm pass: the cache as the ops and split patching left it.
    for leaf in leaves:
        for probe in probes:
            assert tree._leaf_covers(leaf, probe) \
                == in_fences(reference[leaf.page_no][0], probe)
    # Cold pass: every answer from the routed miss path.
    for leaf in leaves:
        for probe in probes:
            tree._bounds_cache.clear()
            assert tree._leaf_covers(leaf, probe) \
                == in_fences(reference[leaf.page_no][0], probe)
    for leaf in leaves:
        fences, path = reference[leaf.page_no]
        assert tree._bounds_cache.get(leaf.page_no, fences) == fences
        for probe in probes:
            if in_fences(fences, probe):
                routed = tree._path_to_leaf(leaf, probe)
                assert [(branch.page_no, slot)
                        for branch, slot in routed] == path


def test_sf_build_with_drain_and_post_flip_writes_routes_splits(
        monkeypatch):
    """An SF build whose traffic feeds the side-file drain and keeps
    writing after the flip completes, and every split's branch path
    comes from the routed descent (a missed route would raise)."""
    routed = []
    original = BTree._path_to_leaf

    def counting_path_to_leaf(self, leaf, composite):
        routed.append(leaf.page_no)
        return original(self, leaf, composite)

    monkeypatch.setattr(BTree, "_path_to_leaf", counting_path_to_leaf)
    system = System(SystemConfig(page_capacity=8, leaf_capacity=8,
                                 branch_capacity=8, sort_workspace=16,
                                 merge_fanin=4), seed=7)
    table = system.create_table("t", ["k", "p"])
    spec = WorkloadSpec(operations=150, workers=3, rollback_fraction=0.1,
                        key_space=100_000, think_time=1.0)
    driver = WorkloadDriver(system, table, spec, seed=7)
    run(system, driver.preload(300))
    builder = SFIndexBuilder(system, table, IndexSpec.of("idx", ["k"]))
    build = system.spawn(builder.run(), name="builder")
    workers = driver.spawn_workers()
    system.run()
    assert build.error is None
    assert all(proc.error is None for proc in workers)
    audit_index(system, system.indexes["idx"])
    assert system.metrics.get("index.inserts.drain") > 0
    # Post-flip transactions maintain the tree directly.
    assert system.metrics.get("index.inserts.txn") > 0
    assert routed


def test_path_to_leaf_rejects_a_leaf_that_does_not_cover_the_key():
    system = System(SystemConfig(leaf_capacity=4, branch_capacity=4))
    system.create_table("t", ["k", "p"])
    tree = BTree(system, "idx", "t", unique=True)
    loader = BulkLoader(tree)
    for key_value in range(40):
        loader.append(key_value, RID(1, key_value + 1))
    loader.finish()
    first = tree._ensure_root()  # the leftmost leaf
    last_entry = (39, RID(1, 40))
    assert not tree._leaf_covers(first, last_entry)
    with pytest.raises(StorageError, match="does not cover"):
        tree._path_to_leaf(first, last_entry)
