"""The workload drivers' RID pool: a dict with O(log n) random draws.

Delete, update and point-read ops each draw a random committed RID.
``rng.choice(list(pool))`` copies the whole pool on every draw.
:meth:`RidPool.choice` returns the same RID -- ``list(pool)[i]`` for
``i = rng._randbelow(len(pool))``, which is how CPython's
``Random.choice`` indexes a sequence -- by descending a Fenwick tree over
insertion slots.  The draws, and so every op sequence, stay identical.

The index is built on the first draw, so pools that are only filled
(preloads, offline builds) pay nothing beyond the overridden setter.
"""

from __future__ import annotations


class RidPool(dict):
    """Insertion-ordered ``{rid: key}`` pool with order-statistic draws.

    Slot ``s`` holds the ``s``-th key inserted since the last index
    build; ``_tree`` is a Fenwick tree counting the slots still live.
    A re-assigned key keeps its slot, as in a dict.  Mutators other than
    ``pool[k] = v``, ``pop`` and ``del`` drop the index, and the next
    draw rebuilds it from the dict's own order.
    """

    _tree: list[int] | None = None

    def choice(self, rng):
        """``rng.choice(list(self))``, without the copy."""
        size = len(self)
        if not size:
            raise IndexError("Cannot choose from an empty sequence")
        rank = rng._randbelow(size)
        if self._tree is None:
            self._build()
        tree = self._tree
        pos = 0
        step = len(tree) >> 1   # half the (power-of-two) capacity
        while step:
            probe = pos + step
            if tree[probe] <= rank:
                pos = probe
                rank -= tree[probe]
            step >>= 1
        return self._keys[pos]

    def _build(self) -> None:
        keys = list(self)
        capacity = 1 << max(2 * len(keys), 32).bit_length()
        tree = [0] + [1] * len(keys) + [0] * (capacity - len(keys))
        for i in range(1, capacity):
            tree[i + (i & -i)] += tree[i]
        self._keys = keys
        self._slot = {key: slot for slot, key in enumerate(keys)}
        self._tree = tree

    def _bump(self, slot: int, delta: int) -> None:
        tree = self._tree
        i = slot + 1
        while i < len(tree):
            tree[i] += delta
            i += i & -i

    def __setitem__(self, key, value) -> None:
        fresh = self._tree is not None and key not in self
        super().__setitem__(key, value)
        if fresh:
            slot = len(self._keys)
            if slot + 1 == len(self._tree):
                self._tree = None  # slots used up: rebuild compacted
                return
            self._keys.append(key)
            self._slot[key] = slot
            self._bump(slot, 1)

    def __delitem__(self, key) -> None:
        super().__delitem__(key)
        if self._tree is not None:
            self._bump(self._slot.pop(key), -1)

    def pop(self, key, *default):
        if self._tree is not None and key in self:
            self._bump(self._slot.pop(key), -1)
        return super().pop(key, *default)

    def clear(self) -> None:
        self._tree = None
        super().clear()

    def popitem(self):
        self._tree = None
        return super().popitem()

    def setdefault(self, key, default=None):
        self._tree = None
        return super().setdefault(key, default)

    def update(self, *args, **kwargs) -> None:
        self._tree = None
        super().update(*args, **kwargs)

    def __getstate__(self):
        # Copies and pickles carry the items only: ``copy`` restores
        # state before it re-inserts the items, which would double-index
        # every key, so each copy rebuilds its index on its first draw.
        return None

    def __ior__(self, other):
        self._tree = None
        return super().__ior__(other)
