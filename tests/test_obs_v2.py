"""Tests for the v2 observability layers (:mod:`repro.obs` v2).

Covers the flight-recorder ring, the O(dirty-set) health timeseries,
feed-domain delivery spans with exact staleness attribution, the
round-domain staleness attributor (the acceptance identity, pinned at
N=2000 across both algorithms and all four oracles), the parallel
health merge — and the layer's central invariant: recording a run must
not change it.
"""

import dataclasses
import pickle
import random

import pytest

from repro.core.constraints import NodeSpec
from repro.core.tree import Overlay
from repro.feeds.dissemination import LagOverDissemination
from repro.feeds.source import FeedSource
from repro.obs import (
    FeedAttribution,
    HealthConfig,
    HealthRecorder,
    RingBuffer,
    Span,
    SpanRecorder,
    StalenessAttributor,
    merge_spans,
    sample_from_dict,
    span_from_dict,
)
from repro.obs.trace import (
    STALL_BUCKETS,
    attribute_chain,
    critical_paths,
    describe_path,
    index_spans,
)
from repro.par import (
    SerialExecutor,
    ProcessPoolSweepExecutor,
    SweepItem,
    merge_outcome_health,
    repeat_items,
)
from repro.core.greedy import GreedyConstruction
from repro.sim.churn import ChurnConfig
from repro.sim.runner import Simulation, SimulationConfig, register_algorithm
from repro.stabilize import corrupt_overlay, sanitize
from repro.workloads import make


class AbortingConstruction(GreedyConstruction):
    """Raises immediately — a sweep item that can never produce health."""

    name = "obs-aborting"

    def step(self, node):
        raise RuntimeError("injected failure before any sample")


register_algorithm(AbortingConstruction)

ALGORITHMS = ["greedy", "hybrid"]
ORACLES = [
    "random",
    "random-capacity",
    "random-delay",
    "random-delay-capacity",
]


def churned_config(**overrides):
    defaults = dict(
        algorithm="hybrid",
        oracle="random-delay",
        seed=7,
        churn=ChurnConfig(),
        max_rounds=30,
        stop_at_convergence=False,
    )
    defaults.update(overrides)
    return SimulationConfig(**defaults)


class TestRingBuffer:
    def test_append_below_capacity_keeps_everything(self):
        ring = RingBuffer(4)
        assert [ring.append(i) for i in range(3)] == [None, None, None]
        assert ring.to_list() == [0, 1, 2]
        assert len(ring) == 3
        assert ring.dropped == 0

    def test_eviction_returns_the_displaced_record_oldest_first(self):
        ring = RingBuffer(3)
        for i in range(3):
            ring.append(i)
        assert ring.append(3) == 0
        assert ring.append(4) == 1
        assert ring.to_list() == [2, 3, 4]
        assert ring.dropped == 2

    def test_iteration_is_oldest_first_across_wraparound(self):
        ring = RingBuffer(3)
        for i in range(7):
            ring.append(i)
        assert list(ring) == [4, 5, 6]

    def test_latest_returns_the_newest_window(self):
        ring = RingBuffer(5)
        for i in range(9):
            ring.append(i)
        assert ring.latest(2) == [7, 8]
        assert ring.latest(100) == [4, 5, 6, 7, 8]

    def test_capacity_must_be_positive(self):
        with pytest.raises(ValueError):
            RingBuffer(0)


class TestHealthConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            HealthConfig(every=0)
        with pytest.raises(ValueError):
            HealthConfig(capacity=0)

    def test_picklable_inside_simulation_config(self):
        config = churned_config(health=HealthConfig(every=2, capacity=64))
        clone = pickle.loads(pickle.dumps(config))
        assert clone.health == config.health


class TestHealthRecorder:
    def run_with_health(self, **overrides):
        config = churned_config(health=HealthConfig(), **overrides)
        simulation = Simulation(make("Rand", size=120, seed=7), config)
        result = simulation.run()
        return simulation, result

    def test_incremental_aggregates_match_full_rescan(self):
        simulation, result = self.run_with_health()
        simulation.health.verify()
        samples = simulation.health.samples.to_list()
        assert len(samples) == result.rounds_run

    def test_samples_reflect_overlay_state(self):
        simulation, _ = self.run_with_health()
        last = simulation.health.samples.latest(1)[0]
        overlay = simulation.overlay
        online = [n for n in overlay.consumers if n.online]
        assert last.online == len(online)
        assert last.rooted == sum(1 for n in online if overlay.is_rooted(n))
        assert last.orphans == sum(
            1 for n in online if n.parent is None
        )

    def test_capture_is_dirty_set_sized_not_population_sized(self):
        simulation, result = self.run_with_health()
        population = len(simulation.overlay.consumers)
        dirties = [s.dirty for s in simulation.health.samples]
        # Steady-state rounds touch a small fraction of the overlay;
        # a full-rescan implementation would show dirty == population.
        assert max(dirties) < population
        assert sum(dirties) / len(dirties) < population / 2

    def test_every_thins_the_series(self):
        config = churned_config(health=HealthConfig(every=3))
        simulation = Simulation(make("Rand", size=80, seed=5), config)
        result = simulation.run()
        samples = simulation.health.samples.to_list()
        assert len(samples) == result.rounds_run // 3
        assert all(s.round % 3 == 0 for s in samples)

    def test_ring_bounds_the_series(self):
        config = churned_config(health=HealthConfig(capacity=8))
        simulation = Simulation(make("Rand", size=80, seed=5), config)
        result = simulation.run()
        ring = simulation.health.samples
        assert len(ring) == 8
        assert ring.dropped == result.rounds_run - 8
        # The newest window survives, oldest-first.
        assert [s.round for s in ring] == list(
            range(result.rounds_run - 7, result.rounds_run + 1)
        )

    def test_sample_round_trips_through_dict(self):
        simulation, _ = self.run_with_health()
        sample = simulation.health.samples.latest(1)[0]
        payload = sample.to_dict()
        assert payload["kind"] == "health-sample"
        assert sample_from_dict(payload) == sample

    def test_recorders_never_change_the_run(self):
        plain = Simulation(make("Rand", size=120, seed=7), churned_config())
        instrumented, _ = self.run_with_health(attribution=True)
        assert plain.run() == instrumented.result()

    @pytest.mark.parametrize("seed", range(5))
    def test_rebuild_feeds_the_recorder(self, seed):
        """``ChainIndex.rebuild()`` used to note no ids, so a recorder
        armed before a corruption + sanitize kept counting the nodes the
        corruption had taken offline."""
        simulation = Simulation(
            make("Rand", size=60, seed=seed),
            SimulationConfig(seed=seed, max_rounds=40, health=HealthConfig()),
        )
        simulation.run()
        corrupt_overlay(simulation.overlay, random.Random(seed))
        sanitize(simulation.overlay)
        simulation.health.verify()

    def test_two_recorders_share_one_overlay(self):
        """Each recorder drains a watch set of its own; a second one
        used to replace the first one's and starve it."""
        simulation = Simulation(
            make("Rand", size=60, seed=2),
            churned_config(health=HealthConfig()),
        )
        second = HealthRecorder(simulation.overlay)
        for _ in range(30):
            simulation.run_round()
            second.capture(simulation.now)
        simulation.health.verify()
        second.verify()
        first = simulation.health.samples.latest(1)[0]
        assert dataclasses.replace(
            second.samples.latest(1)[0],
            churn_out=first.churn_out,
            churn_in=first.churn_in,
        ) == first


class TestWatchSets:
    def test_every_watcher_sees_every_touched_id(self):
        overlay = Overlay(source_fanout=2)
        a, b, c = (
            overlay.add_consumer(NodeSpec(latency=5, fanout=2))
            for _ in range(3)
        )
        first = overlay.chain_index.watch()
        second = overlay.chain_index.watch()
        overlay.attach(b, a)
        overlay.attach(c, b)
        assert first == second == {a.node_id, b.node_id, c.node_id}
        first.clear()  # one consumer drains; the other keeps its ids
        overlay.attach(a, overlay.source)  # shifts the whole chain
        assert first == {0, a.node_id, b.node_id, c.node_id}
        assert second == first
        first.clear()
        second.clear()
        overlay.go_offline(b)
        assert first == second == {a.node_id, b.node_id, c.node_id}
        first.clear()
        overlay.go_online(b)
        assert first == {b.node_id}
        newcomer = overlay.add_consumer(NodeSpec(latency=5, fanout=0))
        assert newcomer.node_id in first
        first.clear()
        overlay.go_offline(newcomer)
        overlay.remove_consumer(newcomer)
        assert first == {newcomer.node_id}
        first.clear()
        overlay.chain_index.rebuild()
        assert first == {n.node_id for n in overlay}
        overlay.check_integrity()


class TestFeedSpans:
    def traced_delivery(self, size=60, seed=3, duration=40.0):
        config = SimulationConfig(algorithm="hybrid", seed=seed)
        simulation = Simulation(make("Rand", size=size, seed=seed), config)
        simulation.run()
        tracer = SpanRecorder()
        engine = LagOverDissemination(
            simulation.overlay, FeedSource(), random.Random(seed), tracer=tracer
        )
        report = engine.run(duration)
        return engine, tracer, report

    def test_attribution_is_exact_for_every_delivery(self):
        engine, tracer, _ = self.traced_delivery()
        checked = 0
        for node_id, consumer in engine.consumers.items():
            for seq, arrival in consumer.arrivals.items():
                attribution = tracer.attribute(node_id, seq)
                if attribution is None:
                    continue  # never delivered there / evicted
                assert attribution.total == pytest.approx(
                    arrival.staleness, abs=1e-9
                )
                assert attribution.pull_wait >= 0
                assert attribution.transit >= 0
                assert attribution.hold >= 0
                checked += 1
        assert checked > 100  # the identity was exercised at scale

    def test_deeper_consumers_take_more_hops(self):
        engine, tracer, _ = self.traced_delivery()
        overlay = engine.overlay
        for node in overlay.consumers:
            if not overlay.is_rooted(node):
                continue
            attribution = tracer.attribute(node.node_id, 0)
            if attribution is None:
                continue
            assert attribution.hops == overlay.delay_at(node) - 1

    def test_tracing_never_changes_the_delivery(self):
        def run(tracer):
            config = SimulationConfig(algorithm="hybrid", seed=3)
            simulation = Simulation(make("Rand", size=40, seed=3), config)
            simulation.run()
            engine = LagOverDissemination(
                simulation.overlay,
                FeedSource(),
                random.Random(3),
                tracer=tracer,
            )
            return engine.run(30.0)

        assert run(None) == run(SpanRecorder())

    def test_critical_paths_rank_worst_first_and_describe(self):
        _, tracer, _ = self.traced_delivery()
        ranked = tracer.critical_paths(top=3)
        assert ranked
        costs = [cost for cost, _ in ranked]
        assert costs == sorted(costs, reverse=True)
        for cost, chain in ranked:
            assert chain[0].hop == "pull"
            assert cost == pytest.approx(
                chain[-1].recv_at - chain[0].sent_at
            )
            line = describe_path(chain)
            assert line.startswith("0 ")
            assert "pull" in line

    def test_span_round_trips_and_merge_keeps_earliest(self):
        span = Span(trace_id=4, node=9, parent=2, hop="push", sent_at=1.5, recv_at=2.25)
        assert span_from_dict(span.to_dict()) == span
        later = Span(trace_id=4, node=9, parent=3, hop="push", sent_at=2.0, recv_at=3.0)
        other = Span(trace_id=4, node=2, parent=0, hop="pull", sent_at=0.0, recv_at=1.0)
        merged = merge_spans([[later, other], [span]])
        assert merged == [other, span]
        attribution = attribute_chain(
            [other, span]
        )
        assert attribution.total == pytest.approx(2.25)

    def test_eviction_keeps_key_index_consistent(self):
        tracer = SpanRecorder(capacity=4)

        class Item:
            def __init__(self, seq):
                self.seq = seq
                self.published_at = float(seq)

        for seq in range(10):
            tracer.record_pull(1, [Item(seq)], now=seq + 0.5)
        assert len(tracer) == 4
        assert tracer.attribute(1, 0) is None  # evicted, index followed
        attribution = tracer.attribute(1, 9)
        assert attribution.pull_wait == pytest.approx(0.5)
        keys = {(s.trace_id, s.node) for s in tracer.spans}
        assert set(tracer._by_key) == keys


class TestStalenessAttributor:
    @pytest.mark.parametrize("algorithm", ALGORITHMS)
    @pytest.mark.parametrize("oracle", ORACLES)
    def test_acceptance_identity_at_n2000(self, algorithm, oracle):
        """The ISSUE acceptance bar: on a seeded N=2000 churned run the
        per-consumer components sum exactly to the measured staleness,
        for greedy/hybrid across all four oracles."""
        config = churned_config(
            algorithm=algorithm,
            oracle=oracle,
            seed=11,
            max_rounds=10,
            attribution=True,
        )
        simulation = Simulation(make("Rand", size=2000, seed=11), config)
        simulation.run()
        attributor = simulation.attributor
        attributor.verify()  # raises on the first identity violation
        rows = attributor.records()
        assert len(rows) > 1000  # tracked essentially the whole overlay
        for row in rows:
            components = row["depth"] + sum(
                row[bucket] for bucket in STALL_BUCKETS
            )
            assert components == row["staleness"]
        totals = attributor.totals()
        assert totals["staleness"] == totals["depth"] + sum(
            totals[bucket] for bucket in STALL_BUCKETS
        )

    def test_rooted_consumer_age_is_its_delay(self):
        config = churned_config(attribution=True, seed=3)
        simulation = Simulation(make("Rand", size=100, seed=3), config)
        simulation.run()
        overlay = simulation.overlay
        for node in overlay.online_consumers:
            if not overlay.is_rooted(node):
                continue
            row = simulation.attributor.breakdown(node.node_id)
            assert row["staleness"] == overlay.delay_at(node)
            assert row["depth"] == overlay.delay_at(node)
            assert all(row[bucket] == 0 for bucket in STALL_BUCKETS)

    def test_outage_rounds_are_charged_to_outage_stall(self):
        from repro.faults import parse_fault_plan

        config = churned_config(
            attribution=True,
            seed=9,
            max_rounds=30,
            faults=parse_fault_plan("source-outage@5:25"),
        )
        simulation = Simulation(make("Rand", size=60, seed=9), config)
        simulation.run()
        totals = simulation.attributor.totals()
        assert totals["outage_stall"] > 0
        simulation.attributor.verify()

    def test_attribution_never_changes_the_run(self):
        plain = Simulation(make("Rand", size=100, seed=13), churned_config(seed=13))
        traced = Simulation(
            make("Rand", size=100, seed=13),
            churned_config(seed=13, attribution=True),
        )
        assert plain.run() == traced.run()

    def test_records_sorted_worst_first(self):
        config = churned_config(attribution=True)
        simulation = Simulation(make("Rand", size=80, seed=7), config)
        simulation.run()
        rows = simulation.attributor.records()
        staleness = [row["staleness"] for row in rows]
        assert staleness == sorted(staleness, reverse=True)
        assert all(row["kind"] == "staleness" for row in rows)


class TestParallelHealthMerge:
    def items(self, repeats=3):
        return repeat_items(
            "Rand",
            SimulationConfig(
                churn=ChurnConfig(), max_rounds=12, stop_at_convergence=False
            ),
            40,
            repeats,
        )

    def test_health_collection_is_opt_in(self):
        outcomes = SerialExecutor().run(self.items())
        assert all(outcome.health is None for outcome in outcomes)

    def test_merged_ring_is_tagged_and_ordered(self):
        outcomes = SerialExecutor().run(self.items(), collect_health=True)
        ring = merge_outcome_health(outcomes)
        samples = ring.to_list()
        assert samples
        positions = [s["sweep_position"] for s in samples]
        assert positions == sorted(positions)
        for position, outcome in enumerate(outcomes):
            tagged = [s for s in samples if s["sweep_position"] == position]
            assert len(tagged) == len(outcome.health)
            assert all(s["seed"] == outcome.item.seed for s in tagged)

    def test_serial_and_pool_merge_identically(self):
        items = self.items()
        serial = SerialExecutor().run(items, collect_health=True)
        pooled = ProcessPoolSweepExecutor(2).run(items, collect_health=True)
        assert (
            merge_outcome_health(serial).to_list()
            == merge_outcome_health(pooled).to_list()
        )

    def test_capacity_bounds_the_merge(self):
        outcomes = SerialExecutor().run(self.items(), collect_health=True)
        total = sum(len(outcome.health) for outcome in outcomes)
        ring = merge_outcome_health(outcomes, capacity=5)
        assert len(ring) == 5
        assert ring.dropped == total - 5

    def test_failed_outcomes_are_skipped(self):
        config = SimulationConfig(algorithm="obs-aborting", max_rounds=5)
        items = [SweepItem(family="Rand", config=config, population=12, seed=0)]
        outcomes = SerialExecutor().run(items, collect_health=True)
        assert not outcomes[0].ok
        assert merge_outcome_health(outcomes).to_list() == []
