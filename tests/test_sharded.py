"""The sharded oracle directory: batching, balance, determinism.

What makes :mod:`repro.oracles.sharded` the scale path is *how little*
work it does per query, so the tests pin the mechanics, not just the
outcomes:

* one reservoir draw (:func:`repro.sim.rng.sample`) per populated
  shard per round — and **zero** RNG consumption while serving, so the
  hybrid requeue path reuses the round's batch instead of re-sampling;
* serving scans plain records against two bounds (a latency bound and
  a free-fanout floor), no callback;
* Algorithm R reservoirs: bounded size, lazily pruned on departure;
* deterministic cross-shard rebalance keeps pool sizes within a batch
  of each other and is honored by ``shard_of``;
* population-scaled sizing (``autoscale_sizing``);
* the oracle surface: filter modes, staleness accounting, the
  ``realize_oracle``/``SimulationConfig`` wiring, and seeded
  reproducibility of whole simulation runs.
"""

from __future__ import annotations

import random

import pytest

from repro.core.constraints import NodeSpec
from repro.core.errors import ConfigurationError
from repro.core.tree import Overlay
from repro.oracles import sharded
from repro.oracles.distributed import realize_oracle
from repro.oracles.sharded import (
    NO_BOUND,
    SHARD_FILTERS,
    ShardedDirectory,
    ShardedOracle,
    autoscale_sizing,
)
from repro.sim.churn import ChurnConfig
from repro.sim.runner import SimulationConfig, run_simulation
from repro.workloads.random_workload import rand_workload


def build_overlay(size: int = 40, attach: bool = True) -> Overlay:
    overlay = Overlay(source_fanout=4)
    nodes = [
        overlay.add_consumer(NodeSpec(latency=30 + i % 10, fanout=3))
        for i in range(size)
    ]
    if attach:
        frontier = [overlay.source]
        for node in nodes:
            while len(frontier[0].children) >= frontier[0].fanout:
                frontier.pop(0)
            overlay.attach(node, frontier[0])
            frontier.append(node)
    return overlay


class TestAutoscaleSizing:
    def test_small_population_keeps_compact_layout(self):
        assert autoscale_sizing(1) == (8, 512, 64)
        assert autoscale_sizing(2000) == (8, 512, 64)

    def test_large_population_scales_all_three_axes(self):
        shards, capacity, batch = autoscale_sizing(100_000)
        assert shards == 100_000 // 1280
        # Reservoirs jointly cover the whole population.
        assert shards * capacity >= 100_000
        assert batch == capacity // 8

    def test_coverage_scales_with_population(self):
        previous_shards = 0
        for population in (1, 1000, 5000, 20_000, 100_000, 500_000):
            shards, capacity, batch = autoscale_sizing(population)
            # Shard count never shrinks, pools jointly cover everyone,
            # and batches stay a fixed fraction of a reservoir.
            assert shards >= previous_shards
            assert shards * capacity >= population
            assert batch >= capacity // 8
            previous_shards = shards


class TestShardedDirectory:
    def test_one_reservoir_draw_per_shard_per_round(self, monkeypatch):
        overlay = build_overlay(40)
        rng = random.Random(7)
        directory = ShardedDirectory(overlay, rng, shards=4)
        directory.on_round(0)
        draws = []
        draw = sharded.sample

        def counting_sample(stream, population, k):
            draws.append((stream, len(population), k))
            return draw(stream, population, k)

        monkeypatch.setattr(sharded, "sample", counting_sample)
        directory.on_round(1)  # steady state: no joins, no rebalance due
        populated = [r for r in directory._reservoirs if r]
        assert draws == [
            (rng, len(r), min(directory.batch_size, len(r))) for r in populated
        ]

    def test_serve_consumes_no_rng(self):
        overlay = build_overlay(40)
        rng = random.Random(7)
        directory = ShardedDirectory(overlay, rng, shards=4)
        directory.on_round(0)
        state = rng.getstate()
        enquirer = overlay.consumers[0]
        served = [directory.serve(enquirer, NO_BOUND, -NO_BOUND) for _ in range(10)]
        assert all(record is not None for record in served)
        assert rng.getstate() == state

    def test_serve_rotates_through_the_batch(self):
        overlay = build_overlay(40)
        directory = ShardedDirectory(overlay, random.Random(7), shards=1)
        directory.on_round(0)
        batch = directory._batches[0]
        enquirer = overlay.consumers[0]
        served = [
            directory.serve(enquirer, NO_BOUND, -NO_BOUND)
            for _ in range(2 * len(batch))
        ]
        # The unbounded scan serves the batch in cursor order, skipping
        # the enquirer's own record, and wraps to the front: each lap
        # is the batch minus the enquirer, in batch order.
        lap = [record for record in batch if record.node_id != enquirer.node_id]
        assert served[: len(lap)] == lap
        assert served[len(lap) : 2 * len(lap)] == lap

    def test_serve_applies_the_delay_bound_and_the_fanout_floor(self):
        overlay = build_overlay(40)
        directory = ShardedDirectory(overlay, random.Random(7), shards=1)
        directory.on_round(0)
        enquirer = overlay.consumers[0]
        records = directory._batches[0]
        for delay_bound in (1, 2, 3, NO_BOUND):
            for fanout_floor in (-NO_BOUND, 1, 3):
                expected = {
                    r.node_id
                    for r in records
                    if r.delay < delay_bound
                    and r.free_fanout >= fanout_floor
                    and r.node_id != enquirer.node_id
                }
                served = set()
                for _ in range(len(records) + 1):
                    record = directory.serve(enquirer, delay_bound, fanout_floor)
                    if record is None:
                        break
                    served.add(record.node_id)
                assert served == expected
                if not expected:
                    assert directory.serve(enquirer, delay_bound, fanout_floor) is None

    def test_never_serves_the_enquirer_itself(self):
        overlay = build_overlay(8)
        directory = ShardedDirectory(overlay, random.Random(3), shards=1)
        directory.on_round(0)
        for enquirer in overlay.consumers:
            served = [
                directory.serve(enquirer, NO_BOUND, -NO_BOUND) for _ in range(16)
            ]
            assert all(record is not None for record in served)
            assert enquirer.node_id not in {record.node_id for record in served}

    def test_departed_members_are_pruned_from_reservoirs(self):
        overlay = build_overlay(40, attach=False)
        directory = ShardedDirectory(overlay, random.Random(7), shards=2)
        directory.on_round(0)
        for node in overlay.consumers[:20]:
            overlay.go_offline(node)
        directory.on_round(1)
        live = {n.node_id for n in overlay.online_consumers}
        for reservoir in directory._reservoirs:
            for record in reservoir:
                assert record.node_id in live

    def test_reservoirs_are_bounded(self):
        overlay = build_overlay(60, attach=False)
        directory = ShardedDirectory(
            overlay, random.Random(7), shards=2, reservoir_capacity=8
        )
        directory.on_round(0)
        assert all(len(r) <= 8 for r in directory._reservoirs)
        assert sum(directory._seen) == 60

    def test_rebalance_evens_pools_and_moves_ownership(self):
        overlay = build_overlay(200, attach=False)
        directory = ShardedDirectory(
            overlay, random.Random(7), shards=8, batch_size=4
        )
        directory.on_round(0)  # round 0 triggers an immediate rebalance
        sizes = directory.reservoir_sizes()
        slack = max(1, directory.batch_size // 2)
        mean = sum(sizes) / len(sizes)
        assert max(sizes) <= mean + slack
        assert directory.rebalanced > 0
        # Overrides are honored and point at the record's actual shard.
        for node_id, shard in directory._overrides.items():
            assert directory.shard_of(node_id) == shard
            record = directory._records[node_id]
            assert record in directory._reservoirs[shard]

    def test_refresh_bounds_served_staleness(self):
        overlay = build_overlay(30)
        directory = ShardedDirectory(
            overlay, random.Random(7), shards=1, refresh_interval=2
        )
        directory.on_round(0)
        for now in range(1, 6):
            directory.on_round(now)
            for record in directory._batches[0]:
                assert now - record.refreshed_at <= directory.refresh_interval

    def test_rejects_bad_parameters(self):
        overlay = build_overlay(4, attach=False)
        rng = random.Random(0)
        for kwargs in (
            {"shards": 0},
            {"reservoir_capacity": 0},
            {"batch_size": 0},
            {"refresh_interval": 0},
            {"rebalance_interval": 0},
        ):
            with pytest.raises(ConfigurationError):
                ShardedDirectory(overlay, rng, **kwargs)


class TestShardedOracle:
    def test_rejects_unknown_filter(self):
        overlay = build_overlay(4, attach=False)
        with pytest.raises(ConfigurationError):
            ShardedOracle(overlay, random.Random(0), filter_mode="psychic")

    @pytest.mark.parametrize("filter_mode", SHARD_FILTERS)
    def test_realize_oracle_wires_filter_modes(self, filter_mode):
        reverse = {
            "random": "random",
            "capacity": "random-capacity",
            "delay": "random-delay",
            "delay-capacity": "random-delay-capacity",
        }
        overlay = build_overlay(4, attach=False)
        oracle = realize_oracle(
            "sharded", reverse[filter_mode], overlay, random.Random(0)
        )
        assert isinstance(oracle, ShardedOracle)
        assert oracle.filter_mode == filter_mode
        assert oracle.name == f"sharded-{filter_mode}"
        assert oracle.realization == "sharded"

    def test_requeue_reuses_round_batch_without_rng(self):
        """Repeated same-round samples (the hybrid requeue path) cost
        zero RNG draws: they walk the already-drawn batch."""
        overlay = build_overlay(40)
        rng = random.Random(7)
        oracle = ShardedOracle(overlay, rng, filter_mode="random", shards=2)
        oracle.on_round(0)
        before = rng.getstate()
        samples = [oracle.sample(overlay.consumers[0]) for _ in range(6)]
        assert rng.getstate() == before
        assert any(s is not None for s in samples)

    def test_stale_candidate_counts_and_misses(self):
        overlay = build_overlay(20)
        rng = random.Random(7)
        oracle = ShardedOracle(overlay, rng, filter_mode="random", shards=1)
        oracle.on_round(0)
        # Everyone the directory could serve goes offline after the draw.
        enquirer = overlay.consumers[0]
        for node in overlay.consumers[1:]:
            overlay.go_offline(node)
        assert oracle.sample(enquirer) is None
        assert oracle.stale_hits >= 1
        assert oracle.misses >= 1

    def test_delay_filter_applies_to_batched_records(self):
        overlay = build_overlay(20)
        oracle = ShardedOracle(
            overlay, random.Random(7), filter_mode="delay", shards=1
        )
        oracle.on_round(0)
        enquirer = min(overlay.consumers, key=lambda n: n.latency)
        # Records are served fresh (refreshed at draw time, and the
        # overlay hasn't mutated since), so every served candidate's
        # *current* delay passed the filter too.
        for _ in range(32):
            node = oracle.sample(enquirer)
            if node is not None:
                assert overlay.delay_at(node) < enquirer.latency

    def test_admits_uses_live_values(self):
        overlay = build_overlay(20)
        oracle = ShardedOracle(
            overlay, random.Random(7), filter_mode="delay", shards=1
        )
        enquirer = min(overlay.consumers, key=lambda n: n.latency)
        deepest = max(overlay.consumers, key=lambda n: overlay.delay_at(n))
        if overlay.delay_at(deepest) >= enquirer.latency:
            assert not oracle.admits(enquirer, deepest)
        assert not oracle.admits(enquirer, enquirer)


class TestSeededRuns:
    def _run(self, oracle="random-delay", seed=9):
        workload, _ = rand_workload(size=120, seed=3, source_fanout=4)
        config = SimulationConfig(
            algorithm="hybrid",
            oracle=oracle,
            oracle_realization="sharded",
            seed=seed,
            max_rounds=80,
            churn=ChurnConfig(),
            stop_at_convergence=False,
        )
        return run_simulation(workload, config)

    def test_identical_seeds_are_bit_identical(self):
        assert self._run() == self._run()

    def test_different_seeds_diverge(self):
        assert self._run(seed=9) != self._run(seed=10)

    def test_sharded_construction_makes_progress(self):
        workload, _ = rand_workload(
            size=300,
            seed=0,
            source_fanout=16,
            max_latency=40,
            min_fanout=2,
            max_fanout=8,
        )
        config = SimulationConfig(
            algorithm="hybrid",
            oracle="random-delay",
            oracle_realization="sharded",
            seed=0,
            max_rounds=80,
            stop_at_convergence=False,
        )
        result = run_simulation(workload, config)
        assert result.final_quality.satisfied_fraction >= 0.9
