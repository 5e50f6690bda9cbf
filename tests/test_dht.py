"""Unit tests for the Chord DHT substrate and the feed directory."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.errors import ConfigurationError, UnknownNodeError
from repro.dht.chord import ChordRing
from repro.dht.directory_service import DirectoryRecord, FeedDirectory
from repro.dht.hashspace import (
    clockwise_distance,
    hash_key,
    in_interval,
    ring_size,
)
from repro.dht.storage import DhtStore


class TestHashspace:
    def test_hash_is_stable_and_in_range(self):
        a = hash_key("peer-1", bits=16)
        assert a == hash_key("peer-1", bits=16)
        assert 0 <= a < ring_size(16)

    def test_different_keys_differ(self):
        assert hash_key("a") != hash_key("b")

    def test_in_interval_plain(self):
        assert in_interval(5, 2, 9)
        assert not in_interval(2, 2, 9)
        assert not in_interval(9, 2, 9)
        assert in_interval(9, 2, 9, inclusive_right=True)

    def test_in_interval_wrapping(self):
        size = ring_size()
        assert in_interval(size - 1, size - 5, 3)
        assert in_interval(1, size - 5, 3)
        assert not in_interval(10, size - 5, 3)

    def test_in_interval_degenerate_full_ring(self):
        assert in_interval(5, 7, 7)
        assert not in_interval(7, 7, 7)
        assert in_interval(7, 7, 7, inclusive_right=True)

    def test_clockwise_distance(self):
        assert clockwise_distance(5, 7) == 2
        assert clockwise_distance(7, 5) == ring_size() - 2


class TestChordRing:
    def _ring(self, n=20):
        ring = ChordRing(bits=16)
        for index in range(n):
            ring.add_peer(f"peer-{index}")
        return ring

    def test_successor_predecessor_consistency(self):
        ring = self._ring(12)
        peers = ring.peers
        for index, peer in enumerate(peers):
            assert peer.successor is peers[(index + 1) % len(peers)]
            assert peer.predecessor is peers[(index - 1) % len(peers)]

    def test_lookup_finds_the_owner(self):
        ring = self._ring(25)
        for key in range(0, ring_size(16), 977):
            owner, _ = ring.find_successor(key)
            # The owner must be the first peer at/after the key.
            expected = min(
                ring.peers,
                key=lambda p: (p.ident - key) % ring_size(16),
            )
            assert owner is expected

    def test_lookup_from_any_start_agrees(self):
        ring = self._ring(20)
        key = hash_key("some-key", 16)
        owners = {
            ring.find_successor(key, start=peer)[0].name for peer in ring.peers
        }
        assert len(owners) == 1

    def test_lookup_hops_logarithmic(self):
        ring = self._ring(64)
        hops = []
        for key in range(0, ring_size(16), 499):
            _, h = ring.find_successor(key)
            hops.append(h)
        mean_hops = sum(hops) / len(hops)
        assert mean_hops <= 2 * math.log2(64)

    def test_single_peer_owns_everything(self):
        ring = ChordRing(bits=16)
        only = ring.add_peer("solo")
        owner, hops = ring.find_successor(12345)
        assert owner is only
        assert hops == 0

    def test_remove_peer_repairs_ring(self):
        ring = self._ring(10)
        victim = ring.peers[3]
        ring.remove_peer(victim.name)
        assert len(ring) == 9
        for peer in ring.peers:
            assert peer.successor is not victim
            for finger in peer.fingers:
                assert finger is not victim

    def test_duplicate_join_rejected(self):
        ring = self._ring(3)
        with pytest.raises(ConfigurationError):
            ring.add_peer("peer-0")

    def test_unknown_peer_lookup_raises(self):
        ring = self._ring(3)
        with pytest.raises(UnknownNodeError):
            ring.peer("ghost")

    def test_empty_ring_lookup_raises(self):
        with pytest.raises(UnknownNodeError):
            ChordRing().find_successor(1)

    @settings(max_examples=150, deadline=None)
    @given(
        peers=st.integers(1, 24),
        bits=st.sampled_from([8, 16, 32]),
        keys=st.lists(
            st.one_of(st.integers(), st.text(max_size=6)), min_size=1, max_size=24
        ),
    )
    def test_owner_is_where_routing_lands(self, peers, bits, keys):
        """``owner(k)`` (a bisect) is ``find_successor(hash_key(k))[0]``
        (Chord routing), for any ring, including keys that land exactly
        on a peer's identifier; and it leaves the hop statistics alone."""
        ring = ChordRing(bits=bits)
        names = [f"peer-{i}" for i in range(peers)]
        for name in names:
            ring.add_peer(name)
        for key in keys + names:
            lookups, hops = ring.lookups, ring.total_hops
            owner = ring.owner(key)
            assert (ring.lookups, ring.total_hops) == (lookups, hops)
            assert owner is ring.find_successor(hash_key(key, bits))[0]

    def test_owner_on_an_empty_ring_raises(self):
        with pytest.raises(UnknownNodeError):
            ChordRing().owner("key")

    def test_statistics_accumulate(self):
        ring = self._ring(16)
        for key in range(5):
            ring.find_successor(hash_key(key, 16))
        assert ring.lookups == 5
        assert ring.mean_lookup_hops() >= 0.0


class TestDhtStore:
    def _store(self, n=12, replication=3):
        ring = ChordRing(bits=16)
        for index in range(n):
            ring.add_peer(f"peer-{index}")
        return ring, DhtStore(ring, replication=replication)

    def test_put_get_roundtrip(self):
        _, store = self._store()
        store.put("key", {"v": 1})
        assert store.get("key") == {"v": 1}

    def test_get_missing_returns_none(self):
        _, store = self._store()
        assert store.get("nothing") is None

    def test_put_replaces(self):
        _, store = self._store()
        store.put("key", 1)
        store.put("key", 2)
        assert store.get("key") == 2

    def test_replication_survives_owner_loss(self):
        ring, store = self._store(replication=3)
        store.put("key", "value")
        owner, _ = ring.find_successor(hash_key("key", 16))
        ring.remove_peer(owner.name)
        store.forget_peer(owner.name)
        assert store.get("key") == "value"

    def test_delete_removes_everywhere(self):
        _, store = self._store()
        store.put("key", "value")
        store.delete("key")
        assert store.get("key") is None

    def test_repair_rereplicates(self):
        ring, store = self._store(replication=2)
        store.put("key", "value")
        owner, _ = ring.find_successor(hash_key("key", 16))
        ring.remove_peer(owner.name)
        store.forget_peer(owner.name)
        store.repair()
        # After repair the value is on fresh replicas even if the next
        # owner also disappears.
        next_owner, _ = ring.find_successor(hash_key("key", 16))
        ring.remove_peer(next_owner.name)
        store.forget_peer(next_owner.name)
        assert store.get("key") == "value"

    def test_invalid_replication_rejected(self):
        ring, _ = self._store()
        with pytest.raises(ConfigurationError):
            DhtStore(ring, replication=0)


class TestFeedDirectory:
    def _directory(self):
        ring = ChordRing(bits=16)
        for index in range(8):
            ring.add_peer(f"svc-{index}")
        return FeedDirectory(DhtStore(ring))

    def test_register_and_fetch(self):
        directory = self._directory()
        directory.register(
            "feed-x", DirectoryRecord(node_id=7, delay=2, free_fanout=1, registered_at=4)
        )
        records = directory.records("feed-x")
        assert len(records) == 1
        assert records[0].node_id == 7

    def test_reregistration_replaces(self):
        directory = self._directory()
        directory.register(
            "f", DirectoryRecord(node_id=7, delay=2, free_fanout=1, registered_at=1)
        )
        directory.register(
            "f", DirectoryRecord(node_id=7, delay=5, free_fanout=0, registered_at=9)
        )
        records = directory.records("f")
        assert len(records) == 1
        assert records[0].delay == 5

    def test_feeds_are_isolated(self):
        directory = self._directory()
        directory.register(
            "f1", DirectoryRecord(node_id=1, delay=1, free_fanout=1, registered_at=0)
        )
        assert directory.records("f2") == []

    def test_deregister(self):
        directory = self._directory()
        directory.register(
            "f", DirectoryRecord(node_id=1, delay=1, free_fanout=1, registered_at=0)
        )
        directory.deregister("f", 1)
        assert directory.records("f") == []

    def test_deregister_missing_is_noop(self):
        directory = self._directory()
        directory.deregister("f", 99)
        assert directory.records("f") == []
