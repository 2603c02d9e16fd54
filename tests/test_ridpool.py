"""``RidPool`` draws exactly what ``rng.choice(list(pool))`` draws."""

import copy
import pickle
import random

from hypothesis import given, settings, strategies as st

from repro.storage import RID
from repro.workloads import RidPool

ops_strategy = st.lists(st.tuples(
    st.sampled_from(["insert", "claim", "unclaim", "sample", "reassign",
                     "delete"]),
    st.integers(0, 10 ** 6)), max_size=400)


@settings(max_examples=80, deadline=None)
@given(preload=st.integers(0, 120), ops=ops_strategy,
       seed=st.integers(0, 2 ** 32))
def test_choice_matches_choice_over_list(preload, ops, seed):
    pool, plain = RidPool(), {}
    for n in range(preload):
        pool[RID(n, 0)] = plain[RID(n, 0)] = n
    pool_rng, plain_rng = random.Random(seed), random.Random(seed)
    claimed = []
    for step, (op, arg) in enumerate(ops):
        if op == "insert":
            rid = RID(10 ** 6 + step, arg % 7)
            pool[rid] = plain[rid] = arg
        elif op in ("claim", "sample") and plain:
            drawn = pool.choice(pool_rng)
            assert drawn == plain_rng.choice(list(plain))
            if op == "claim":
                claimed.append((drawn, pool.pop(drawn)))
                assert plain.pop(drawn) == claimed[-1][1]
        elif op == "unclaim" and claimed:
            rid, key = claimed.pop(arg % len(claimed))
            pool[rid] = plain[rid] = key
        elif op == "reassign" and plain:
            rid = list(plain)[arg % len(plain)]
            pool[rid] = plain[rid] = arg   # keeps its insertion position
        elif op == "delete" and plain:
            rid = list(plain)[arg % len(plain)]
            del pool[rid]
            del plain[rid]
    assert list(pool) == list(plain)
    assert pool == plain and plain == pool
    assert list(pool.items()) == list(plain.items())
    if plain:
        assert pool.choice(pool_rng) == plain_rng.choice(list(plain))


def test_draws_stay_exact_as_the_pool_outgrows_its_index():
    pool, plain = RidPool(), {}
    rng, check = random.Random(5), random.Random(5)
    for n in range(3000):
        pool[RID(n, 0)] = plain[RID(n, 0)] = n
        drawn = pool.choice(rng)
        assert drawn == check.choice(list(plain))
        if n % 3 == 0:
            del pool[drawn], plain[drawn]
    assert list(pool) == list(plain)


class FixedRank:
    """Stands in for ``random.Random``: every draw is one given rank."""

    def __init__(self, rank):
        self.rank = rank

    def _randbelow(self, size):
        assert 0 <= self.rank < size
        return self.rank


def test_every_rank_maps_to_its_key_through_growth_and_deletes():
    pool, plain = RidPool(), {}
    for n in range(400):
        pool[RID(n, 0)] = plain[RID(n, 0)] = n
        if n % 3 == 2:
            victim = pool.choice(FixedRank(n % len(pool)))
            del pool[victim], plain[victim]
        order = list(plain)
        assert [pool.choice(FixedRank(rank)) for rank in range(len(order))] \
            == order


def test_bulk_mutators_rebuild_the_index():
    pool = RidPool((RID(n, 0), n) for n in range(50))
    rng = random.Random(3)
    pool.choice(rng)            # builds the index
    pool.update({RID(99, 0): 99})
    pool.setdefault(RID(98, 0), 98)
    pool.popitem()
    pool |= {RID(97, 0): 97}
    plain = dict(pool)
    check = random.Random(4)
    rng.seed(4)
    for _ in range(20):
        assert pool.choice(rng) == check.choice(list(plain))
    pool.clear()
    assert not pool


def test_copies_of_a_drawn_pool_draw_like_a_plain_dict():
    pool = RidPool((RID(n, 0), n) for n in range(50))
    rng = random.Random(3)
    for _ in range(5):
        pool.pop(pool.choice(rng))   # builds and exercises the index
    plain = dict(pool)
    for clone in (copy.copy(pool), copy.deepcopy(pool),
                  pickle.loads(pickle.dumps(pool))):
        assert type(clone) is RidPool and clone == plain
        assert list(clone) == list(plain)
        clone_rng, plain_rng = random.Random(9), random.Random(9)
        mirror = dict(plain)
        for step in range(60):
            drawn = clone.choice(clone_rng)
            assert drawn == plain_rng.choice(list(mirror))
            clone.pop(drawn)
            mirror.pop(drawn)
            clone[RID(100 + step, 1)] = mirror[RID(100 + step, 1)] = step
    # The copies left the original's index intact.
    rng, plain_rng = random.Random(5), random.Random(5)
    for _ in range(20):
        assert pool.choice(rng) == plain_rng.choice(list(plain))
