"""Tests for the direct-polling and FeedTree/Scribe baselines."""

import pytest

from repro.baselines.client_server import DirectPollingBaseline
from repro.baselines.feedtree import evaluate_feedtree
from repro.baselines.scribe import ScribeMulticast
from repro.core.errors import ConfigurationError
from repro.dht.chord import ChordRing
from repro.workloads import make as make_workload
from repro.workloads.base import make_workload as build_workload

from tests.conftest import spec


class TestDirectPolling:
    def test_small_population_fully_served(self):
        workload = make_workload("Rand", size=20, seed=1)
        report = DirectPollingBaseline(workload, capacity=50, seed=1).run(60.0)
        assert report.rejection_rate == 0.0
        assert report.satisfied_fraction == 1.0

    def test_load_grows_linearly_with_population(self):
        loads = []
        for size in (25, 50, 100):
            workload = make_workload("Rand", size=size, seed=1)
            report = DirectPollingBaseline(workload, capacity=10_000, seed=1).run(
                60.0
            )
            loads.append(report.offered_load_per_unit)
        assert loads[1] > 1.5 * loads[0]
        assert loads[2] > 1.5 * loads[1]

    def test_overload_causes_rejections_and_misses(self):
        workload = make_workload("Rand", size=200, seed=1)
        report = DirectPollingBaseline(workload, capacity=10, seed=1).run(60.0)
        assert report.rejection_rate > 0.3
        assert report.satisfied_fraction < 0.7

    def test_strict_clients_poll_more(self):
        strict = build_workload("strict", 3, [(f"s{i}", spec(1, 1)) for i in range(10)])
        lax = build_workload("lax", 3, [(f"l{i}", spec(10, 1)) for i in range(10)])
        strict_report = DirectPollingBaseline(strict, capacity=10_000, seed=1).run(60.0)
        lax_report = DirectPollingBaseline(lax, capacity=10_000, seed=1).run(60.0)
        assert strict_report.requests > 5 * lax_report.requests

    def test_invalid_capacity(self):
        workload = make_workload("Rand", size=10, seed=1)
        with pytest.raises(ConfigurationError):
            DirectPollingBaseline(workload, capacity=0)


class TestScribe:
    def _ring(self, n):
        ring = ChordRing(bits=16)
        for index in range(n):
            ring.add_peer(f"p{index}")
        return ring

    def test_tree_reaches_every_subscriber(self):
        ring = self._ring(40)
        subscribers = [f"p{i}" for i in range(0, 40, 2)]
        tree = ScribeMulticast(ring).build_tree("g", subscribers)
        for name in subscribers:
            assert tree.depth(name) >= 0  # raises on breakage / cycles

    def test_tree_parents_form_no_cycles(self):
        ring = self._ring(60)
        subscribers = [f"p{i}" for i in range(60)]
        tree = ScribeMulticast(ring).build_tree("g", subscribers)
        depths = [tree.depth(name) for name in subscribers]
        assert max(depths) >= 1

    def test_rendezvous_is_key_owner(self):
        ring = self._ring(20)
        tree = ScribeMulticast(ring).build_tree("g", ["p1", "p2"])
        assert tree.rendezvous == ring.owner("g").name

    def test_forwarders_are_non_subscribers(self):
        ring = self._ring(50)
        subscribers = [f"p{i}" for i in range(5)]
        tree = ScribeMulticast(ring).build_tree("g", subscribers)
        assert tree.forwarders().isdisjoint(subscribers)

    def test_empty_ring_rejected(self):
        with pytest.raises(ConfigurationError):
            ScribeMulticast(ChordRing()).build_tree("g", [])


class TestFeedTreeEvaluation:
    def test_report_fields_consistent(self):
        workload = make_workload("BiCorr", size=80, seed=2)
        report = evaluate_feedtree(workload, infrastructure_peers=40)
        assert report.subscribers == 80
        assert 0.0 <= report.satisfied_fraction <= 1.0
        assert report.max_delay >= 1
        assert report.mean_delay <= report.max_delay

    def test_feedtree_violates_constraints_lagover_would_meet(self):
        """The related-work contrast: geometry-built trees strand strict
        consumers and ignore fanout declarations."""
        workload = make_workload("BiCorr", size=120, seed=1)
        report = evaluate_feedtree(workload, infrastructure_peers=100)
        assert report.satisfied_fraction < 0.9
        assert report.fanout_violations > 0
        assert report.uninterested_forwarders > 0

    def test_without_infrastructure_no_uninterested_forwarders_possible(self):
        workload = make_workload("Rand", size=30, seed=1)
        report = evaluate_feedtree(workload, infrastructure_peers=0)
        assert report.uninterested_forwarders == 0
