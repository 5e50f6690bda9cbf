"""Unit and integration tests for the feed substrate."""

import random

import pytest

from repro.core.errors import ConfigurationError
from repro.core.tree import Overlay
from repro.feeds.client import FeedConsumer
from repro.feeds.dissemination import LagOverDissemination, disseminate
from repro.feeds.items import FeedItem
from repro.feeds.rss import parse_rss, render_rss
from repro.feeds.source import FeedSource, bursty, periodic, poisson
from repro.feeds.staleness import (
    build_report,
    percentile,
    staleness_percentiles,
)
from repro.sim.runner import Simulation, SimulationConfig
from repro.workloads import make as make_workload

from tests.conftest import build_chain, spec


class TestFeedSource:
    def test_periodic_publishing(self):
        source = FeedSource(process=periodic(2.0))
        fresh = source.advance_to(10.0)
        assert len(fresh) == 5
        assert [item.seq for item in fresh] == [1, 2, 3, 4, 5]

    def test_poisson_publishing_rate(self):
        source = FeedSource(process=poisson(2.0, random.Random(1)))
        source.advance_to(500.0)
        # ~1000 expected; loose bounds.
        assert 800 < source.latest_seq < 1200

    def test_pull_returns_only_new_items(self):
        source = FeedSource(process=periodic(1.0))
        items, seq = source.pull(3.0)
        assert [i.seq for i in items] == [1, 2, 3]
        items, _ = source.pull(5.0, since_seq=seq)
        assert [i.seq for i in items] == [4, 5]

    def test_pull_serves_the_suffix_after_the_cursor(self):
        source = FeedSource(
            process=bursty(1.5, random.Random(4), burst_size=3, intra_gap=0.05)
        )
        source.advance_to(40.0)
        items = source.items
        assert len(items) > 20
        assert [item.seq for item in items] == list(range(1, len(items) + 1))
        for cursor in range(len(items) + 2):
            served, latest = source.pull(40.0, since_seq=cursor)
            assert served == [item for item in items if item.seq > cursor]
            assert served is not items and latest == len(items)

    def test_capacity_rejects_excess_requests(self):
        source = FeedSource(process=periodic(1.0), capacity_per_unit=2)
        assert source.pull(0.5) is not None
        assert source.pull(0.6) is not None
        assert source.pull(0.7) is None  # third request in unit window
        assert source.pull(1.2) is not None  # new window
        assert source.requests_rejected == 1

    def test_rejection_rate(self):
        source = FeedSource(capacity_per_unit=1)
        source.pull(0.1)
        source.pull(0.2)
        assert source.rejection_rate == 0.5

    def test_invalid_configs(self):
        with pytest.raises(ConfigurationError):
            periodic(0)
        with pytest.raises(ConfigurationError):
            poisson(0, random.Random(1))
        with pytest.raises(ConfigurationError):
            FeedSource(capacity_per_unit=0)


class TestFeedConsumer:
    def test_delivery_dedupes(self):
        consumer = FeedConsumer(1)
        item = FeedItem(seq=1, title="x", published_at=0.0)
        assert consumer.deliver([item], 1.0) == [item]
        assert consumer.deliver([item], 2.0) == []
        assert consumer.arrivals[1].arrived_at == 1.0

    def test_staleness(self):
        consumer = FeedConsumer(1)
        consumer.deliver([FeedItem(seq=1, title="x", published_at=2.0)], 5.0)
        assert consumer.worst_staleness() == pytest.approx(3.0)


class TestRssRoundtrip:
    def test_render_parse_roundtrip(self):
        items = [
            FeedItem(seq=1, title="first", published_at=1.5),
            FeedItem(seq=2, title="second", published_at=2.5),
        ]
        document = render_rss("feed-7", items)
        parsed = parse_rss(document)
        assert parsed == items

    def test_rendered_is_newest_first(self):
        items = [
            FeedItem(seq=1, title="first", published_at=1.0),
            FeedItem(seq=2, title="second", published_at=2.0),
        ]
        document = render_rss("f", items)
        assert document.index("second") < document.index("first")

    def test_parse_rejects_garbage(self):
        with pytest.raises(ConfigurationError):
            parse_rss("not xml at all <")
        with pytest.raises(ConfigurationError):
            parse_rss("<html></html>")


class TestDissemination:
    def _chain_overlay(self):
        overlay = Overlay(source_fanout=1)
        a = overlay.add_consumer(spec(1, 1), name="a")
        b = overlay.add_consumer(spec(2, 1), name="b")
        c = overlay.add_consumer(spec(3, 1), name="c")
        build_chain(overlay, a, b, c)
        return overlay

    def test_chain_staleness_respects_depth_bounds(self):
        overlay = self._chain_overlay()
        report = disseminate(overlay, duration=80.0, seed=1)
        assert report.satisfied_fraction == 1.0
        by_depth = {c.depth: c for c in report.consumers}
        # Worst staleness grows with depth but stays within DelayAt units.
        assert by_depth[1].worst_staleness <= 1.0
        assert by_depth[2].worst_staleness <= 2.0
        assert by_depth[3].worst_staleness <= 3.0
        assert by_depth[2].worst_staleness > by_depth[1].worst_staleness

    def test_all_old_items_delivered_everywhere(self):
        overlay = self._chain_overlay()
        report = disseminate(overlay, duration=50.0, seed=2)
        for consumer in report.consumers:
            assert consumer.received >= consumer.expected > 0

    def test_misplaced_node_detected_by_staleness(self):
        """A node deeper than its constraint measurably misses its promise."""
        overlay = Overlay(source_fanout=1)
        a = overlay.add_consumer(spec(1, 1), name="a")
        b = overlay.add_consumer(spec(1, 1), name="b")  # l=1 at depth 2
        build_chain(overlay, a, b)
        report = disseminate(overlay, duration=80.0, seed=3)
        rows = {c.node_id: c for c in report.consumers}
        assert rows[a.node_id].within_constraint
        assert not rows[b.node_id].within_constraint

    def test_offline_subtree_receives_nothing(self):
        overlay = self._chain_overlay()
        c = overlay.node(3)
        overlay.go_offline(c)
        report = disseminate(overlay, duration=30.0, seed=4)
        assert report.consumers[2].received == 0

    def test_end_to_end_constructed_overlay_delivers(self):
        workload = make_workload("Rand", size=50, seed=3)
        simulation = Simulation(
            workload, SimulationConfig(algorithm="greedy", seed=3)
        )
        simulation.run()
        assert simulation.overlay.is_converged()
        report = disseminate(simulation.overlay, duration=60.0, seed=3)
        assert report.satisfied_fraction == 1.0
        assert report.worst_violation() <= 0.0

    def test_lagover_source_load_is_constant(self):
        """§1: a LagOver's source serves one pull per direct puller per
        unit, bounded by the source fanout and flat in the population."""

        def pull_rate(population):
            workload = make_workload("Rand", size=population, seed=1)
            simulation = Simulation(
                workload, SimulationConfig(algorithm="hybrid", seed=1)
            )
            simulation.run()
            assert simulation.overlay.is_converged()
            source = FeedSource()
            LagOverDissemination(
                simulation.overlay, source, random.Random(1)
            ).run(40.0)
            rate = source.requests_total / 40.0
            assert rate <= workload.source_fanout + 0.5
            return rate

        assert pull_rate(160) <= pull_rate(40) * 1.25

    def test_invalid_hop_delay_rejected(self):
        overlay = self._chain_overlay()
        with pytest.raises(ConfigurationError):
            LagOverDissemination(
                overlay, FeedSource(), random.Random(1), hop_delay_range=(0.5, 1.5)
            )


class TestPercentile:
    def test_empty_reports_zero(self):
        assert percentile([], 99.0) == 0.0
        assert staleness_percentiles([]) == {"p50": 0.0, "p99": 0.0, "p999": 0.0}

    def test_nearest_rank_is_exact(self):
        values = list(range(1, 11))  # 1..10
        assert percentile(values, 50.0) == 5
        assert percentile(values, 10.0) == 1
        assert percentile(values, 99.0) == 10
        assert percentile(values, 100.0) == 10

    def test_single_value_dominates_every_quantile(self):
        for q in (0.1, 50.0, 99.9, 100.0):
            assert percentile([7.5], q) == 7.5

    def test_order_invariant(self):
        values = [9.0, 1.0, 5.0, 3.0, 7.0]
        assert percentile(values, 60.0) == percentile(sorted(values), 60.0)

    def test_rejects_out_of_range_q(self):
        for q in (0.0, -5.0, 100.1):
            with pytest.raises(ValueError):
                percentile([1.0], q)

    def test_small_samples_report_max_for_high_quantiles(self):
        # With n < 100, p99/p999 both land on the max — the nearest-rank
        # convention the soak summary relies on for tiny feeds.
        values = [1.0, 2.0, 3.0]
        report = staleness_percentiles(values)
        assert report["p99"] == report["p999"] == 3.0
        assert report["p50"] == 2.0

    def test_label_drops_decimal_point(self):
        report = staleness_percentiles([1.0], qs=(25.0, 99.9))
        assert set(report) == {"p25", "p999"}


class TestBursty:
    def _times(self, seed, rate=1.0, burst_size=4, until=400.0):
        process = bursty(rate, random.Random(seed), burst_size=burst_size)
        source = FeedSource(process=process)
        source.advance_to(until)
        return [item.published_at for item in source.items]

    def test_invalid_configs(self):
        rng = random.Random(1)
        with pytest.raises(ConfigurationError):
            bursty(0.0, rng)
        with pytest.raises(ConfigurationError):
            bursty(1.0, rng, burst_size=0)
        with pytest.raises(ConfigurationError):
            bursty(1.0, rng, intra_gap=0.0)

    def test_deterministic_per_seed(self):
        assert self._times(5) == self._times(5)
        assert self._times(5) != self._times(6)

    def test_long_run_rate(self):
        times = self._times(2, rate=2.0, until=2000.0)
        # ~4000 expected; loose bounds like the poisson test.
        assert 3200 < len(times) < 4800

    def test_items_cluster_into_bursts(self):
        times = self._times(3, rate=0.5, burst_size=4)
        gaps = [b - a for a, b in zip(times, times[1:])]
        tight = [g for g in gaps if g == pytest.approx(0.1)]
        loose = [g for g in gaps if g > 1.0]
        # Both regimes present: intra-burst spacing and real quiet gaps.
        assert tight and loose

    def test_burst_size_one_is_plain_poisson_shape(self):
        times = self._times(4, rate=1.0, burst_size=1, until=300.0)
        gaps = [b - a for a, b in zip(times, times[1:])]
        assert not [g for g in gaps if g == pytest.approx(0.1)]


class TestBuildReportEdgeCases:
    def _overlay_pair(self):
        overlay = Overlay(source_fanout=1)
        rooted = overlay.add_consumer(spec(3, 1), name="rooted")
        stray = overlay.add_consumer(spec(3, 1), name="stray")
        build_chain(overlay, rooted)  # stray stays parentless
        return overlay, rooted, stray

    def test_unrooted_consumer_expects_nothing(self):
        overlay, rooted, stray = self._overlay_pair()
        consumers = {n.node_id: FeedConsumer(n.node_id) for n in (rooted, stray)}
        report = build_report(overlay, consumers, 1.0, published=50)
        rows = {c.node_id: c for c in report.consumers}
        assert rows[stray.node_id].depth == 0
        assert rows[stray.node_id].expected == 0
        assert rows[rooted.node_id].expected == 48  # published - (depth + 1)

    def test_unrooted_consumers_do_not_count_toward_satisfaction(self):
        overlay, rooted, stray = self._overlay_pair()
        consumers = {n.node_id: FeedConsumer(n.node_id) for n in (rooted, stray)}
        for seq in range(1, 49):
            consumers[rooted.node_id].deliver(
                [FeedItem(seq=seq, title="t", published_at=float(seq))],
                seq + 0.5,
            )
        report = build_report(overlay, consumers, 1.0, published=50)
        assert report.satisfied_fraction == 1.0  # stray is excluded

    def test_zero_delivery_rooted_consumer_misses_promise(self):
        overlay, rooted, stray = self._overlay_pair()
        consumers = {n.node_id: FeedConsumer(n.node_id) for n in (rooted, stray)}
        report = build_report(overlay, consumers, 1.0, published=50)
        row = next(c for c in report.consumers if c.node_id == rooted.node_id)
        assert row.received == 0
        assert row.worst_staleness == row.mean_staleness == 0.0
        assert not row.within_constraint
        assert report.satisfied_fraction == 0.0

    def test_short_run_warmup_tail_expects_nothing(self):
        # A run shorter than the delivery tail evaluates no items at all:
        # everything published may legitimately still be in flight.
        overlay, rooted, stray = self._overlay_pair()
        consumers = {n.node_id: FeedConsumer(n.node_id) for n in (rooted, stray)}
        report = build_report(overlay, consumers, 1.0, published=1)
        row = next(c for c in report.consumers if c.node_id == rooted.node_id)
        assert row.expected == 0
        assert row.within_constraint
        assert report.satisfied_fraction == 1.0

    def test_offline_node_counts_as_unrooted(self):
        overlay, rooted, stray = self._overlay_pair()
        overlay.go_offline(rooted)
        consumers = {n.node_id: FeedConsumer(n.node_id) for n in (rooted, stray)}
        report = build_report(overlay, consumers, 1.0, published=20)
        row = next(c for c in report.consumers if c.node_id == rooted.node_id)
        assert row.depth == 0 and row.expected == 0


class TestEnsureConsumer:
    def test_idempotent(self):
        overlay = Overlay(source_fanout=1)
        a = overlay.add_consumer(spec(1, 1), name="a")
        build_chain(overlay, a)
        engine = LagOverDissemination(
            overlay, FeedSource(process=periodic(1.0)), random.Random(1)
        )
        first = engine.ensure_consumer(a.node_id)
        assert engine.ensure_consumer(a.node_id) is first

    def test_midrun_joiner_receives_later_items(self):
        overlay = Overlay(source_fanout=1)
        a = overlay.add_consumer(spec(1, 2), name="a")
        build_chain(overlay, a)
        engine = LagOverDissemination(
            overlay, FeedSource(process=periodic(1.0)), random.Random(1)
        )
        engine.start_direct_pullers()
        engine.scheduler.run_until(10.0)
        # A flash-crowd style late join: attach under the direct child
        # *after* dissemination started, then register the delivery log.
        late = overlay.add_consumer(spec(5, 1), name="late")
        overlay.attach(late, a)
        consumer = engine.ensure_consumer(late.node_id)
        assert consumer.arrivals == {}
        engine.scheduler.run_until(30.0)
        assert consumer.arrivals  # pushes now reach the late joiner
        assert min(consumer.arrivals[s].arrived_at
                   for s in consumer.arrivals) > 10.0
