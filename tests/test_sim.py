"""Unit tests for the simulation machinery: rng streams, churn, asynchrony,
metrics, traces and the event engine."""

import random

import pytest

from repro.core.errors import ConfigurationError
from repro.core.tree import Overlay
from repro.faults.injector import Members
from repro.obs.probe import RecordingProbe
from repro.sim.asynchrony import AsynchronyConfig, AsynchronyModel
from repro.sim.churn import ChurnConfig, ChurnProcess
from repro.sim.engine import EventScheduler
from repro.sim.metrics import MetricsCollector
from repro.sim.rng import StreamFactory, derive_seed, make_stream
from repro.sim.trace import OverlayTrace

from tests.conftest import spec


class TestRngStreams:
    def test_derive_seed_is_stable(self):
        assert derive_seed(1, "churn") == derive_seed(1, "churn")

    def test_streams_differ_by_name(self):
        assert derive_seed(1, "churn") != derive_seed(1, "oracle")

    def test_streams_differ_by_root_seed(self):
        assert derive_seed(1, "churn") != derive_seed(2, "churn")

    def test_make_stream_reproducible(self):
        assert make_stream(5, "x").random() == make_stream(5, "x").random()

    def test_factory_caches_streams(self):
        factory = StreamFactory(1)
        assert factory.get("a") is factory.get("a")
        assert factory.get("a") is not factory.get("b")


class TestChurn:
    def _overlay(self, n=50):
        overlay = Overlay(source_fanout=3)
        for i in range(n):
            overlay.add_consumer(spec(3, 2), name=f"n{i}")
        return overlay

    @staticmethod
    def _process(overlay, config, seed=1):
        return ChurnProcess(
            Members.of_overlay(overlay), config, random.Random(seed)
        )

    def test_default_probabilities_match_paper(self):
        config = ChurnConfig()
        assert config.leave_probability == 0.01
        assert config.rejoin_probability == 0.2

    def test_stationary_offline_fraction(self):
        assert ChurnConfig().stationary_offline_fraction == pytest.approx(
            0.01 / 0.21
        )
        assert ChurnConfig(0.0, 0.0).stationary_offline_fraction == 0.0

    def test_invalid_probability_rejected(self):
        with pytest.raises(ConfigurationError):
            ChurnConfig(leave_probability=1.5)

    def test_no_churn_before_start_round(self):
        overlay = self._overlay()
        process = self._process(overlay, ChurnConfig(1.0, 0.0, start_round=10))
        assert process.step(now=5) == (0, 0)
        assert all(n.online for n in overlay.consumers)

    def test_certain_departure(self):
        overlay = self._overlay(5)
        process = self._process(overlay, ChurnConfig(1.0, 0.0))
        assert process.step(now=1) == (5, 0)
        assert not overlay.online_consumers

    def test_certain_rejoin(self):
        overlay = self._overlay(5)
        for node in overlay.consumers:
            overlay.go_offline(node)
        process = self._process(overlay, ChurnConfig(0.0, 1.0))
        assert process.step(now=1) == (0, 5)
        assert len(overlay.online_consumers) == 5

    def test_departure_orphans_recorded(self):
        overlay = self._overlay(3)
        overlay.probe = RecordingProbe()
        a, b = overlay.node(1), overlay.node(2)
        overlay.attach(a, overlay.source)
        overlay.attach(b, a)
        process = self._process(overlay, ChurnConfig(1.0, 0.0))
        process.step(now=1)
        orphans = {e.node: e.orphans for e in overlay.probe.events_of("churn-leave")}
        assert orphans[a.node_id] == 1  # b, before it left in turn
        assert b.parent is None and not b.online

    def test_no_same_round_flapping(self):
        """A peer never leaves and rejoins within one step (snapshot rule)."""
        overlay = self._overlay(30)
        for node in overlay.consumers[::3]:
            overlay.go_offline(node)
        overlay.probe = RecordingProbe()
        process = self._process(overlay, ChurnConfig(1.0, 1.0))
        assert process.step(now=1) == (20, 10)
        left = {e.node for e in overlay.probe.events_of("churn-leave")}
        rejoined = {e.node for e in overlay.probe.events_of("churn-rejoin")}
        assert (len(left), len(rejoined)) == (20, 10)
        assert left.isdisjoint(rejoined)

    def test_statistics_accumulate(self):
        overlay = self._overlay(10)
        process = self._process(overlay, ChurnConfig(0.5, 0.5))
        for now in range(1, 50):
            process.step(now)
        assert process.total_departures > 0
        assert process.total_rejoins > 0


class TestAsynchrony:
    def test_duration_bounds(self):
        model = AsynchronyModel(AsynchronyConfig(2, 5), random.Random(1))
        overlay = Overlay(source_fanout=1)
        node = overlay.add_consumer(spec(1, 1))
        for _ in range(50):
            node.busy_until = 0
            duration = model.occupy(node, now=10)
            assert 2 <= duration <= 5
            assert node.busy_until == 10 + duration

    def test_is_free_semantics(self):
        model = AsynchronyModel(AsynchronyConfig(1, 1), random.Random(1))
        overlay = Overlay(source_fanout=1)
        node = overlay.add_consumer(spec(1, 1))
        assert model.is_free(node, now=0)
        model.occupy(node, now=0)
        assert not model.is_free(node, now=0)
        assert model.is_free(node, now=1)

    def test_invalid_config_rejected(self):
        with pytest.raises(ConfigurationError):
            AsynchronyConfig(0, 3)
        with pytest.raises(ConfigurationError):
            AsynchronyConfig(4, 3)


class TestMetricsAndTrace:
    def _overlay(self):
        overlay = Overlay(source_fanout=2)
        overlay.add_consumer(spec(1, 1), name="a")
        overlay.add_consumer(spec(2, 1), name="b")
        return overlay

    def test_records_accumulate(self):
        overlay = self._overlay()
        collector = MetricsCollector(overlay)
        collector.record(1)
        overlay.attach(overlay.node(1), overlay.source)
        collector.record(2)
        assert len(collector.records) == 2
        assert collector.satisfied_series() == [0.0, 0.5]

    def test_first_converged_round(self):
        overlay = self._overlay()
        collector = MetricsCollector(overlay)
        collector.record(1)
        overlay.attach(overlay.node(1), overlay.source)
        overlay.attach(overlay.node(2), overlay.node(1))
        collector.record(2)
        assert collector.first_converged_round() == 2

    def test_never_converged_returns_none(self):
        overlay = self._overlay()
        collector = MetricsCollector(overlay)
        collector.record(1)
        assert collector.first_converged_round() is None

    def test_trace_captures_changes(self):
        overlay = self._overlay()
        trace = OverlayTrace(overlay)
        trace.capture(1)
        overlay.attach(overlay.node(1), overlay.source)
        trace.capture(2)
        trace.capture(3)
        assert trace.changes() == [2]
        assert trace.total_edge_changes() == 1

    def test_trace_edges(self):
        overlay = self._overlay()
        overlay.attach(overlay.node(1), overlay.source)
        trace = OverlayTrace(overlay)
        frame = trace.capture(1)
        assert frame.edges() == {(1, 0)}


class TestEventScheduler:
    def test_events_fire_in_time_order(self):
        scheduler = EventScheduler()
        fired = []
        scheduler.schedule(3.0, fired.append, "late")
        scheduler.schedule(1.0, fired.append, "early")
        scheduler.run()
        assert fired == ["early", "late"]
        assert scheduler.now == 3.0

    def test_fifo_tie_break(self):
        scheduler = EventScheduler()
        fired = []
        scheduler.schedule(1.0, fired.append, "first")
        scheduler.schedule(1.0, fired.append, "second")
        scheduler.run()
        assert fired == ["first", "second"]

    def test_cancelled_events_do_not_fire(self):
        scheduler = EventScheduler()
        fired = []
        handle = scheduler.schedule(1.0, fired.append, "x")
        handle.cancel()
        scheduler.run()
        assert fired == []

    def test_run_until_stops_at_horizon(self):
        scheduler = EventScheduler()
        fired = []
        scheduler.schedule(1.0, fired.append, "a")
        scheduler.schedule(5.0, fired.append, "b")
        scheduler.run_until(2.0)
        assert fired == ["a"]
        assert scheduler.now == 2.0
        assert scheduler.pending == 1

    def test_negative_delay_rejected(self):
        scheduler = EventScheduler()
        with pytest.raises(ConfigurationError):
            scheduler.schedule(-1.0, lambda: None)

    def test_schedule_at_absolute_time(self):
        scheduler = EventScheduler()
        fired = []
        scheduler.schedule_at(4.0, fired.append, "x")
        scheduler.run()
        assert scheduler.now == 4.0

    def test_events_can_schedule_events(self):
        scheduler = EventScheduler()
        fired = []

        def chain(depth):
            fired.append(depth)
            if depth < 3:
                scheduler.schedule(1.0, chain, depth + 1)

        scheduler.schedule(0.0, chain, 0)
        scheduler.run()
        assert fired == [0, 1, 2, 3]

    def test_runaway_cascade_guard(self):
        scheduler = EventScheduler()

        def forever():
            scheduler.schedule(0.0, forever)

        scheduler.schedule(0.0, forever)
        with pytest.raises(ConfigurationError):
            scheduler.run(max_events=100)

    def test_peek_skips_cancelled(self):
        scheduler = EventScheduler()
        handle = scheduler.schedule(1.0, lambda: None)
        scheduler.schedule(2.0, lambda: None)
        handle.cancel()
        assert scheduler.peek_time() == 2.0
