"""The draw kernels draw exactly what ``random.Random`` draws.

All five round sweeps order their roster with ``repro.sim.rng.shuffle``
instead of ``rng.shuffle``, and the sharded directory draws its batches
with ``repro.sim.rng.sample`` instead of ``rng.sample``.  Every seeded
outcome in the repo depends on each pair being interchangeable: the same
result *and* the same generator state afterwards, for any size, on a
generator that has already been used — so that is what is pinned here,
together with the shape of the shuffle's one piece of state, the
bit-length table.
"""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim import rng as rng_module
from repro.sim.rng import make_stream, sample, shuffle

LENGTHS = list(range(301)) + [9_000, 10_001]
SEEDS = range(20)


class _Item:
    """A roster entry: identity only, like a node."""


def _pair(seed: int):
    return random.Random(seed), random.Random(seed)


def _assert_same_shuffle(ours, stdlib, length: int) -> None:
    items = [_Item() for _ in range(length)]
    expected = list(items)
    shuffle(ours, items)
    stdlib.shuffle(expected)
    assert len(items) == length
    assert all(a is b for a, b in zip(items, expected)), length
    assert ours.getstate() == stdlib.getstate(), length


@pytest.mark.parametrize("seed", SEEDS)
def test_every_length_matches_the_stdlib_draw_for_draw(seed):
    """A fresh pair of generators per length: list and state equal."""
    for length in LENGTHS:
        _assert_same_shuffle(*_pair(seed * 7919 + length), length)


@pytest.mark.parametrize("seed", SEEDS)
def test_one_generator_over_shrinking_and_growing_rosters(seed):
    """The churned-roster shape: one order stream, a new length almost
    every round, the state carried from call to call."""
    ours, stdlib = _pair(seed)
    lengths = random.Random(seed + 1000)
    size = 120
    for _ in range(150):
        size = max(0, size + lengths.randint(-15, 15))
        _assert_same_shuffle(ours, stdlib, size)
    assert ours.random() == stdlib.random()


def test_a_named_stream_and_a_non_list_sequence():
    """The sweeps pass ``StreamFactory`` streams; the kernel takes any
    mutable sequence, as the stdlib's does."""
    ours, stdlib = make_stream(42, "order"), make_stream(42, "order")
    items, expected = list(range(500)), list(range(500))
    shuffle(ours, items)
    stdlib.shuffle(expected)
    assert items == expected
    column, expected_column = bytearray(range(250)), bytearray(range(250))
    shuffle(ours, column)
    stdlib.shuffle(expected_column)
    assert column == expected_column
    assert ours.getstate() == stdlib.getstate()


def test_short_rosters_draw_nothing():
    for length in (0, 1):
        ours = random.Random(5)
        before = ours.getstate()
        items = list(range(length))
        shuffle(ours, items)
        assert items == list(range(length))
        assert ours.getstate() == before


class TestBitLengthTable:
    """One table, as long as the longest roster needs and no longer: a
    plan kept per *length* grows without bound under churn (a rejected
    variant took ``sharded_churn_10k`` from 33 to 97 MB)."""

    @pytest.fixture(autouse=True)
    def fresh_table(self, monkeypatch):
        monkeypatch.setattr(rng_module, "_BIT_LENGTHS", b"")

    def test_it_holds_the_width_of_every_partner_draw(self):
        shuffle(random.Random(0), list(range(1_000)))
        table = rng_module._BIT_LENGTHS
        assert list(table) == [(i + 1).bit_length() for i in range(1, 1_000)]

    def test_it_never_exceeds_the_longest_roster_minus_one(self):
        generator = random.Random(1)
        longest = 0
        for length in (0, 1, 2, 3, 50, 49, 700, 5, 701, 2, 10_001, 9_000):
            shuffle(generator, list(range(length)))
            longest = max(longest, length)
            assert len(rng_module._BIT_LENGTHS) == max(0, longest - 1)

    def test_a_shorter_roster_reuses_it(self):
        generator = random.Random(2)
        shuffle(generator, list(range(2_000)))
        table = rng_module._BIT_LENGTHS
        for length in (1_999, 120, 2, 0, 2_000):
            shuffle(generator, list(range(length)))
            assert rng_module._BIT_LENGTHS is table

    def test_growing_extends_what_was_there(self):
        generator = random.Random(3)
        shuffle(generator, list(range(100)))
        shorter = rng_module._BIT_LENGTHS
        shuffle(generator, list(range(300)))
        longer = rng_module._BIT_LENGTHS
        assert len(shorter) == 99 and len(longer) == 299
        assert longer.startswith(shorter)


class TestSample:
    """``sample(rng, population, k)`` is ``rng.sample(population, k)``:
    both of the stdlib's branches (a pool list while ``n`` is small
    against ``k``, a selected-index set otherwise), the same picks in
    the same order, the same state afterwards."""

    @settings(max_examples=300, deadline=None)
    @given(
        seed=st.integers(0, 2**64 - 1),
        warmup=st.integers(0, 3),
        n=st.integers(0, 2_000),
        data=st.data(),
    )
    def test_it_draws_what_the_stdlib_draws(self, seed, warmup, n, data):
        k = data.draw(st.integers(0, n), label="k")
        ours, stdlib = _pair(seed)
        for _ in range(warmup):  # a generator that has been used
            assert ours.random() == stdlib.random()
        population = [_Item() for _ in range(n)]
        picks = sample(ours, population, k)
        expected = stdlib.sample(population, k)
        assert len(picks) == k
        assert all(a is b for a, b in zip(picks, expected))
        assert ours.getstate() == stdlib.getstate()

    def test_the_directory_shape_one_stream_many_shards(self):
        """156 of 1,250 per shard, shard after shard, as the sharded
        directory draws at N=10k — then a small shard in the pool branch."""
        ours, stdlib = _pair(11)
        population = list(range(1_250))
        for _ in range(8):
            assert sample(ours, population, 156) == stdlib.sample(population, 156)
        assert sample(ours, population[:36], 36) == stdlib.sample(population[:36], 36)
        assert ours.getstate() == stdlib.getstate()

    @pytest.mark.parametrize("n, k", [(3, 4), (0, 1), (5, -1)])
    def test_it_refuses_what_the_stdlib_refuses(self, n, k):
        with pytest.raises(ValueError):
            random.Random(0).sample(range(n), k)
        with pytest.raises(ValueError):
            sample(random.Random(0), range(n), k)
