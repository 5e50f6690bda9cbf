"""Tests for the v2 multipath-delivery extension (§7).

Covers the enforced-disjointness guarantee (edge policy + oracle +
overlap repair), fault-plan composition across paths, system-level
recovery metrics, the resilience payoff at equal fanout budget, and the
golden-seed determinism guards (same-seed repeatability and
serial-vs-pooled sweep equality).
"""

import dataclasses

import pytest

from repro.core.constraints import NodeSpec
from repro.core.errors import ConfigurationError
from repro.core.tree import Overlay
from repro.faults import parse_fault_plan
from repro.multipath import (
    DisjointDelayOracle,
    MultipathSystem,
    delivery_under_failures,
)
from repro.par import ProcessPoolSweepExecutor, SerialExecutor, repeat_items
from repro.sim.churn import ChurnConfig
from repro.sim.runner import SimulationConfig, SimulationResult
from repro.spec import RunSpec, run
from repro.workloads import make as make_workload
from repro.workloads.base import make_workload as build_workload

RESULT_FIELDS = [
    f.name for f in dataclasses.fields(SimulationResult) if f.compare
]


def built_system(paths=2, seed=1, size=40, **kwargs):
    workload = make_workload("Rand", size=size, seed=seed)
    system = MultipathSystem(workload, paths=paths, seed=seed, **kwargs)
    assert system.run(max_rounds=4000)
    return system


def interior_chain(overlay, node):
    """Interior names of the node's chain (strict ancestors, no source)."""
    names = set()
    current = node.parent
    while current is not None and not current.is_source:
        names.add(current.name)
        current = current.parent
    return names


def assert_vertex_disjoint(system):
    """No consumer's chains share an interior node across any two paths."""
    for name, _ in system.workload.population:
        chains = [
            interior_chain(system.overlays[p], system._nodes[p][name])
            for p in range(system.paths)
        ]
        for q in range(1, system.paths):
            for p in range(q):
                assert not (chains[p] & chains[q]), (
                    f"{name}: paths {p}/{q} share {chains[p] & chains[q]}"
                )


class TestConstruction:
    def test_all_paths_converge_vertex_disjoint(self):
        system = built_system(paths=2, seed=2)
        assert system.all_converged()
        for overlay in system.overlays:
            overlay.check_integrity()
            assert overlay.is_converged()
        assert_vertex_disjoint(system)

    def test_three_paths_converge_vertex_disjoint(self):
        system = built_system(paths=3, seed=2)
        assert_vertex_disjoint(system)

    def test_path_latency_relaxation(self):
        workload = make_workload("Rand", size=20, seed=2)
        system = MultipathSystem(workload, paths=3, seed=2)
        base = {name: spec.latency for name, spec in workload.population}
        for path, nodes in enumerate(system._nodes):
            for name, node in nodes.items():
                # Path p relaxes by p; sufficiency repair may relax more.
                assert node.latency >= base[name] + path

    def test_fanout_budget_split_across_paths(self):
        workload = make_workload("Rand", size=20, seed=2)
        for paths in (2, 3):
            system = MultipathSystem(workload, paths=paths, seed=2)
            for name, spec in workload.population:
                allocated = sum(
                    system._nodes[p][name].fanout for p in range(paths)
                )
                assert allocated == spec.fanout

    def test_invalid_configs(self):
        workload = make_workload("Rand", size=10, seed=1)
        with pytest.raises(ConfigurationError):
            MultipathSystem(workload, paths=0)
        with pytest.raises(ConfigurationError):
            MultipathSystem(workload, paths=2, algorithm="nope")
        with pytest.raises(ConfigurationError):
            MultipathSystem(workload, paths=2, faults="crash@10:0.2")

    def test_a_repeated_consumer_name_is_refused(self):
        """Each path's copies of a consumer are found by its name, so a
        repeated name would leave one consumer per path out of churn,
        faults and delivery."""
        workload = build_workload(
            "dup",
            2,
            [("a", NodeSpec(3, 2)), ("a", NodeSpec(3, 2)), ("b", NodeSpec(3, 2))],
        )
        with pytest.raises(ConfigurationError, match="'a'"):
            MultipathSystem(workload, paths=2)

    def test_single_path_has_no_repairs(self):
        system = built_system(paths=1, seed=1)
        assert system.overlap_repairs == 0
        assert system.unblock_repairs == 0


class TestDisjointnessEnforcement:
    def test_edge_policy_rejects_other_path_upstream(self):
        system = built_system(paths=2, seed=3)
        rejected = 0
        for path in range(2):
            edge_ok = system.algorithms[path].edge_ok
            for name, _ in system.workload.population:
                child = system._nodes[path][name]
                for blocked_name in system.upstream_elsewhere(name, path):
                    parent = system._nodes[path][blocked_name]
                    assert not edge_ok(parent, child)
                    rejected += 1
        assert rejected > 0  # the guarantee was actually exercised

    def test_oracle_never_samples_blocked_candidates(self):
        system = built_system(paths=2, seed=3)
        for path in range(2):
            oracle = system.oracles[path]  # no plan, so not fault-gated
            assert isinstance(oracle, DisjointDelayOracle)
            for name, _ in system.workload.population[:10]:
                enquirer = system._nodes[path][name]
                blocked = system.upstream_elsewhere(name, path)
                for _ in range(10):
                    sampled = oracle.sample(enquirer)
                    if sampled is None:
                        continue
                    chain = interior_chain(system.overlays[path], sampled)
                    chain.add(sampled.name)
                    assert not (chain & blocked)

    def test_overlap_repair_detaches_higher_path(self):
        system = built_system(paths=2, seed=4)
        # Manufacture an overlap behind the policy's back: re-home a
        # consumer's path-1 parent pointer onto its path-0 parent's twin.
        for name, _ in system.workload.population:
            node0 = system._nodes[0][name]
            node1 = system._nodes[1][name]
            if node0.parent is None or node0.parent.is_source:
                continue
            twin = system._nodes[1][node0.parent.name]
            if node1.parent is twin or system.overlays[1].delay_at(twin) == 0:
                continue
            if twin.free_fanout < 1:
                continue
            if node1.parent is not None:
                system.overlays[1].detach(node1, reason="test")
            system.overlays[1].attach(node1, twin)
            repaired = system._repair_overlaps()
            assert repaired >= 1
            assert node1.parent is None  # higher path lost
            assert node0.parent is not None  # lower path kept
            return
        pytest.skip("no manufacturable overlap on this draw")


class TestChainQueries:
    def test_chain_alive_no_failures(self):
        system = built_system(paths=2)
        name = system.workload.population[0][0]
        assert system.chain_alive(name, 0, failed=set())

    def test_failed_consumer_delivers_nothing(self):
        system = built_system(paths=2)
        name = system.workload.population[0][0]
        assert not system.chain_alive(name, 0, failed={name})

    def test_failed_ancestor_kills_chain(self):
        system = built_system(paths=1)
        for name, node in system._nodes[0].items():
            if node.parent is not None and not node.parent.is_source:
                assert not system.chain_alive(
                    name, 0, failed={node.parent.name}
                )
                return
        pytest.skip("tree is a star; no mid-chain consumer")

    def test_upstream_elsewhere_reports_other_path_ancestors(self):
        system = built_system(paths=2)
        for name, _ in system.workload.population:
            reported = system.upstream_elsewhere(name, 1)
            assert reported == interior_chain(
                system.overlays[0], system._nodes[0][name]
            )


class TestFaultComposition:
    PLAN = "crash@60:0.2:rejoin=15"

    def faulted_system(self, seed=0, size=60, paths=2):
        workload = make_workload("Rand", size=size, seed=seed)
        system = MultipathSystem(
            workload,
            paths=paths,
            seed=seed,
            faults=parse_fault_plan(self.PLAN),
        )
        system.run(max_rounds=300)
        return system

    def test_crash_hits_every_path_and_rejoins(self):
        system = self.faulted_system()
        result = system.result()
        assert result.fault_events == 2  # crash + mass-rejoin
        # After the rejoin window every twin is back online everywhere.
        for path in range(system.paths):
            assert all(
                node.online for node in system._nodes[path].values()
            )

    def test_recovery_metrics(self):
        system = self.faulted_system()
        result = system.result()
        assert 0.0 < result.delivery_availability <= 1.0
        assert result.time_to_recover is not None
        assert len(result.delivery_recovery_series) == len(
            system.injector.fault_rounds
        )
        # Final-state histogram over consumers: after the rejoin window
        # every consumer is back to both paths rooted.
        assert sum(result.paths_surviving.values()) == len(
            system.overlays[0].online_consumers
        )
        assert result.paths_surviving == {2: 60}

    def test_per_path_results(self):
        system = self.faulted_system()
        result = system.result()
        assert len(result.per_path) == 2
        for path, per in enumerate(result.per_path):
            assert isinstance(per, SimulationResult)
            assert per.oracle == f"disjoint-delay/{path}"
            assert per.fault_events == result.fault_events

    def test_summary_result_shape(self):
        system = self.faulted_system()
        result = system.result()
        summary = result.summary()
        assert summary.oracle == "disjoint-delay"
        assert summary.availability == pytest.approx(
            result.delivery_availability
        )
        assert summary.attaches == sum(p.attaches for p in result.per_path)
        assert summary.fault_events == result.fault_events

    def test_a_converged_round_reads_no_node_predicate(self, monkeypatch):
        """Convergence is the chain index's counter: one round of a
        converged two-path system under a (not yet due) fault plan makes
        no per-node ``meets_latency`` call."""
        system = MultipathSystem(
            make_workload("Rand", size=40, seed=2),
            paths=2,
            seed=2,
            faults=parse_fault_plan("crash@500:0.2"),
        )
        assert system.run(max_rounds=400, stop_at_convergence=True)
        calls = []
        meets_latency = Overlay.meets_latency
        monkeypatch.setattr(
            Overlay,
            "meets_latency",
            lambda self, node: calls.append(node) or meets_latency(self, node),
        )
        system.run_round()
        assert system.all_converged()
        assert calls == []


class TestChurnComposition:
    """One churn chain over the twin view: a churned peer leaves and
    rejoins every path at once, and every path stays a valid overlay."""

    CRASH = "crash@40:0.2:rejoin=10"

    def churned_system(self, **kwargs):
        return MultipathSystem(
            make_workload("Rand", size=40, seed=3),
            paths=2,
            seed=3,
            churn=ChurnConfig(),
            **kwargs,
        )

    def test_paths_stay_whole_and_in_lockstep_every_round(self):
        system = self.churned_system(faults=parse_fault_plan(self.CRASH))
        for _ in range(120):
            system.run_round()
            for overlay in system.overlays:
                overlay.check_integrity()
            for name, node in system._nodes[0].items():
                assert node.online == system._nodes[1][name].online, name
        assert system.churn.total_departures > 0
        assert system.churn.total_rejoins > 0
        assert system.injector.crashes > 0

    def test_departures_count_members_not_participations(self):
        system = self.churned_system()
        system.run(max_rounds=120, stop_at_convergence=False)
        result = system.result()
        departures = system.churn.total_departures
        assert departures > 0
        assert [r.departures for r in result.per_path] == [departures] * 2
        assert result.summary().departures == departures
        assert result.summary().rejoins == system.churn.total_rejoins

    def test_spec_runs_churned_paths(self):
        spec = RunSpec.parse("size=40;workload-seed=3;churn=1;paths=2;rounds=60")
        result = run(spec, 3)
        assert result.paths == 2
        assert result.per_path[0].departures > 0


class TestDeterminism:
    """Golden-seed guards: reruns and executors must agree exactly."""

    def run_once(self):
        workload = make_workload("Rand", size=30, seed=5)
        system = MultipathSystem(
            workload,
            paths=2,
            seed=5,
            faults=parse_fault_plan("crash@40:0.2:rejoin=10"),
        )
        system.run(max_rounds=200)
        return system.result()

    def assert_results_equal(self, left, right):
        assert left.converged == right.converged
        assert left.construction_rounds == right.construction_rounds
        assert left.delivery_availability == right.delivery_availability
        assert left.paths_surviving == right.paths_surviving
        assert left.delivery_recovery_series == right.delivery_recovery_series
        assert left.time_to_recover == right.time_to_recover
        assert left.overlap_repairs == right.overlap_repairs
        for p_left, p_right in zip(left.per_path, right.per_path):
            for name in RESULT_FIELDS:
                assert getattr(p_left, name) == getattr(p_right, name), name

    def test_same_seed_reproduces(self):
        self.assert_results_equal(self.run_once(), self.run_once())

    def test_serial_equals_pooled_sweep(self):
        config = SimulationConfig(
            algorithm="hybrid",
            oracle="random-delay",
            max_rounds=2000,
            paths=2,
        )
        items = repeat_items("Rand", config, 25, 2, base_seed=0)
        serial = SerialExecutor().run(items)
        pooled = ProcessPoolSweepExecutor(2).run(items)
        assert len(serial) == len(pooled) == 2
        for left, right in zip(serial, pooled):
            assert left.error is None and right.error is None
            assert left.result.oracle == "disjoint-delay"
            for name in RESULT_FIELDS:
                assert getattr(left.result, name) == getattr(
                    right.result, name
                ), name


class TestResilience:
    def test_no_failures_full_delivery(self):
        workload = make_workload("Rand", size=30, seed=3)
        rows = delivery_under_failures(
            workload, paths=2, failure_fractions=[0.0], seed=3
        )
        assert rows[0].delivered_fraction == 1.0
        assert rows[0].mean_surviving_paths == pytest.approx(2.0)

    def test_delivery_degrades_with_failures(self):
        workload = make_workload("Rand", size=40, seed=4)
        rows = delivery_under_failures(
            workload, paths=2, failure_fractions=[0.05, 0.3], seed=4
        )
        assert rows[0].delivered_fraction > rows[1].delivered_fraction

    def test_two_paths_beat_one_at_equal_budget(self):
        """The acceptance criterion: k=2 strictly above k=1 at every
        failed fraction in [0.1, 0.3], same total fanout budget."""
        workload = make_workload("Rand", size=40, seed=2)
        single = delivery_under_failures(
            workload, paths=1, failure_fractions=[0.1, 0.3], seed=2, trials=5
        )
        double = delivery_under_failures(
            workload, paths=2, failure_fractions=[0.1, 0.3], seed=2, trials=5
        )
        for one, two in zip(single, double):
            assert two.delivered_fraction > one.delivered_fraction
            assert two.mean_surviving_paths > one.mean_surviving_paths
