"""Tests for message-level DHT lookups (repro.dht.remote)."""

import math
import random

import pytest

from repro.core.errors import ConfigurationError
from repro.dht.chord import ChordRing
from repro.dht.hashspace import hash_key, ring_size
from repro.dht.remote import LookupClient, measure_lookup_latency, wire_ring
from repro.network.latency import ConstantLatency, CoordinateLatency
from repro.network.transport import Network
from repro.sim.engine import EventScheduler


def make_ring(n=24, bits=16):
    ring = ChordRing(bits=bits)
    for index in range(n):
        ring.add_peer(f"peer-{index}")
    return ring


class TestLookupProtocol:
    def test_owner_matches_synchronous_router(self):
        ring = make_ring()
        scheduler = EventScheduler()
        network = Network(scheduler, ConstantLatency(1.0))
        keys = [hash_key(f"k{i}", 16) for i in range(20)]
        results = measure_lookup_latency(ring, network, scheduler, keys)
        assert len(results) == 20
        assert all(r.owner is not None for r in results)

    def test_latency_counts_request_reply_pairs(self):
        ring = make_ring()
        scheduler = EventScheduler()
        network = Network(scheduler, ConstantLatency(0.5))
        results = measure_lookup_latency(
            ring, network, scheduler, [hash_key("x", 16)]
        )
        result = results[0]
        # (hops + 1) exchanges, each 2 x 0.5 time units.
        assert result.latency == pytest.approx((result.hops + 1) * 1.0)

    def test_coordinate_latency_varies(self):
        ring = make_ring()
        scheduler = EventScheduler()
        network = Network(
            scheduler, CoordinateLatency(random.Random(1), base=0.1, scale=1.0)
        )
        keys = [hash_key(f"k{i}", 16) for i in range(15)]
        results = measure_lookup_latency(ring, network, scheduler, keys)
        latencies = {round(r.latency, 6) for r in results}
        assert len(latencies) > 5  # heterogeneous paths

    def test_lossy_network_retries_and_completes(self):
        ring = make_ring(12)
        scheduler = EventScheduler()
        network = Network(
            scheduler,
            ConstantLatency(0.5),
            loss_probability=0.1,
            rng=random.Random(7),
        )
        keys = [hash_key(f"k{i}", 16) for i in range(25)]
        results = measure_lookup_latency(ring, network, scheduler, keys)
        finished = [r for r in results if r.finished_at is not None]
        assert len(finished) >= 20  # most complete despite 10% loss
        assert any(r.retries > 0 for r in results)

    def test_hopeless_loss_gives_up_after_max_retries(self):
        ring = make_ring(6)
        scheduler = EventScheduler()
        network = Network(
            scheduler,
            ConstantLatency(0.5),
            loss_probability=0.999,
            rng=random.Random(1),
        )
        wire_ring(ring, network)
        client = LookupClient(
            "client", ring, network, scheduler, retry_timeout=2.0, max_retries=2
        )
        result = client.lookup(hash_key("x", 16))
        scheduler.run()
        assert result.finished_at is None
        assert result.retries == 2
        assert result in client.completed  # reported, as failed

    def test_empty_ring_rejected(self):
        scheduler = EventScheduler()
        network = Network(scheduler)
        client = LookupClient("client", ChordRing(), network, scheduler)
        with pytest.raises(ConfigurationError):
            client.lookup(1)

    def test_single_peer_ring(self):
        ring = make_ring(1)
        scheduler = EventScheduler()
        network = Network(scheduler, ConstantLatency(1.0))
        results = measure_lookup_latency(ring, network, scheduler, [123, 456])
        assert all(r.owner == "peer-0" for r in results)
        assert all(r.hops == 0 for r in results)

    def test_mean_hops_logarithmicish_at_scale(self):
        ring = make_ring(64)
        scheduler = EventScheduler()
        network = Network(scheduler, ConstantLatency(1.0))
        keys = list(range(0, ring_size(16), 1499))
        results = measure_lookup_latency(ring, network, scheduler, keys)
        mean_hops = sum(r.hops for r in results) / len(results)
        assert mean_hops <= 12  # ~2*log2(64)

    def test_query_hops_grow_logarithmically_with_ring_size(self):
        """The oracle's directory query over a wide-area substrate:
        every lookup completes, mean hops stay within 2 log2(n) + 1 and
        grow with the ring."""
        mean_hops = {}
        for size in (8, 16, 32, 64):
            ring = ChordRing(bits=16)
            for index in range(size):
                ring.add_peer(f"svc-{index}")
            scheduler = EventScheduler()
            network = Network(
                scheduler,
                CoordinateLatency(random.Random(size), base=0.02, scale=0.1),
            )
            keys = [hash_key(f"q{i}", 16) for i in range(60)]
            results = measure_lookup_latency(ring, network, scheduler, keys)
            assert len(results) == 60
            assert all(r.finished_at is not None for r in results)
            mean_hops[size] = sum(r.hops for r in results) / len(results)
            assert mean_hops[size] <= 2 * math.log2(size) + 1
        assert mean_hops[64] > mean_hops[8]
