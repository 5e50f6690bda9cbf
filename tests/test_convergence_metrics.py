"""Unit tests for repro.core.convergence (quality measures)."""

import random

import pytest

from repro.core.convergence import (
    OverlayQuality,
    depth_histogram,
    latency_gradation_violations,
    measure,
    violated_nodes,
)
from repro.core.tree import Overlay
from repro.faults.plan import parse_fault_plan
from repro.sim.churn import ChurnConfig
from repro.sim.runner import Simulation, SimulationConfig
from repro.stabilize import corrupt_overlay
from repro.stabilize.harness import converge, sanitize
from repro.workloads import make, rand_workload

from tests.conftest import build_chain, spec


def small_tree():
    """source(f=2) <- a(l1) <- b(l3); c(l2) parentless; d offline."""
    overlay = Overlay(source_fanout=2)
    a = overlay.add_consumer(spec(1, 2), name="a")
    b = overlay.add_consumer(spec(3, 2), name="b")
    overlay.add_consumer(spec(2, 1), name="c")
    d = overlay.add_consumer(spec(2, 1), name="d")
    build_chain(overlay, a, b)
    overlay.go_offline(d)
    return overlay


class TestMeasure:
    def test_counts(self):
        quality = measure(small_tree())
        assert quality.online == 3
        assert quality.rooted == 2
        assert quality.satisfied == 2
        assert quality.fragments == 2  # source tree + c
        assert quality.max_depth == 2
        assert quality.used_source_fanout == 1

    def test_satisfied_fraction_and_converged(self):
        quality = measure(small_tree())
        assert quality.satisfied_fraction == 2 / 3
        assert not quality.converged

    def test_mean_slack(self):
        # a: l=1 at depth 1 (slack 0); b: l=3 at depth 2 (slack 1).
        assert measure(small_tree()).mean_slack == 0.5

    def test_empty_population(self):
        quality = measure(Overlay(source_fanout=1))
        assert quality.converged
        assert quality.satisfied_fraction == 1.0
        assert quality.mean_slack == 0.0


class TestHistogramsAndViolations:
    def test_depth_histogram(self):
        assert depth_histogram(small_tree()) == {1: 1, 2: 1}

    def test_violated_nodes(self):
        overlay = small_tree()
        names = {n.name for n in violated_nodes(overlay)}
        assert names == {"c"}  # unrooted; a and b satisfied, d offline

    def test_gradation_violations_empty_for_ordered_tree(self):
        assert latency_gradation_violations(small_tree()) == []

    def test_gradation_violation_detected(self):
        overlay = Overlay(source_fanout=1)
        lax = overlay.add_consumer(spec(9, 1), name="lax")
        strict = overlay.add_consumer(spec(2, 1), name="strict")
        build_chain(overlay, lax, strict)
        violations = latency_gradation_violations(overlay)
        assert [n.name for n in violations] == ["strict"]

    def test_source_edges_never_count_as_violations(self):
        overlay = Overlay(source_fanout=1)
        lax = overlay.add_consumer(spec(9, 1), name="lax")
        overlay.attach(lax, overlay.source)
        assert latency_gradation_violations(overlay) == []


# ----------------------------------------------------------------------
# the column-read scan against the per-node-call scan it replaced
# ----------------------------------------------------------------------


def _reference_scan(overlay):
    """``_forest_scan`` as it was before it read the chain columns: one
    ``is_rooted`` / ``delay_at`` reader call per online consumer.  Kept
    here as the reference the shipped scan must equal."""
    online = rooted = satisfied = 0
    slack_sum = 0
    max_depth = 0
    fragments = 1
    histogram = {}
    for node in overlay.online_consumers:
        online += 1
        if node.parent is None:
            fragments += 1
        if overlay.is_rooted(node):
            rooted += 1
            delay = overlay.delay_at(node)
            if delay > max_depth:
                max_depth = delay
            histogram[delay] = histogram.get(delay, 0) + 1
            if delay <= node.latency:
                satisfied += 1
                slack_sum += node.latency - delay
    quality = OverlayQuality(
        online=online,
        rooted=rooted,
        satisfied=satisfied,
        fragments=fragments,
        max_depth=max_depth,
        mean_slack=(slack_sum / satisfied) if satisfied else 0.0,
        used_source_fanout=len(overlay.source.children),
    )
    return quality, dict(sorted(histogram.items()))


def _assert_scan_matches_reference(overlay):
    quality, histogram = _reference_scan(overlay)
    assert measure(overlay) == quality
    shipped = depth_histogram(overlay)
    assert shipped == histogram
    assert list(shipped) == list(histogram)  # same (sorted) key order
    assert measure(overlay).satisfied_fraction == overlay.satisfied_fraction()
    assert measure(overlay).converged == overlay.is_converged()
    return quality


class TestColumnReadScanEqualsTheReaderScan:
    def test_small_tree(self):
        _assert_scan_matches_reference(small_tree())

    @pytest.mark.parametrize("algorithm", ("greedy", "hybrid"))
    @pytest.mark.parametrize(
        "scenario",
        (
            dict(churn=ChurnConfig()),
            dict(faults=parse_fault_plan("crash@10:0.3:rejoin=8,leave@25:0.2")),
            dict(
                churn=ChurnConfig(),
                faults=parse_fault_plan("crash@15:0.25:rejoin=10"),
                oracle_realization="sharded",
            ),
        ),
        ids=("churned", "faulted", "churned+faulted"),
    )
    def test_every_round_of_a_disturbed_run(self, algorithm, scenario):
        workload, _ = rand_workload(size=60, seed=4, source_fanout=3)
        sim = Simulation(
            workload,
            SimulationConfig(
                algorithm=algorithm,
                oracle="random-delay",
                seed=4,
                max_rounds=45,
                stop_at_convergence=False,
                **scenario,
            ),
        )
        seen = set()
        for _ in range(45):
            sim.run_round()
            quality = _assert_scan_matches_reference(sim.overlay)
            # What the round recorded is the same scan, served cached.
            assert sim.metrics.records[-1].quality == quality
            seen.add(quality.online)
        assert len(seen) > 1  # the roster did move

    @pytest.mark.parametrize("algorithm", ("greedy", "hybrid"))
    @pytest.mark.parametrize("seed", range(4))
    def test_corrupted_then_sanitized(self, algorithm, seed):
        overlay = make("Rand", size=50, seed=seed).build_overlay()
        converge(overlay, algorithm=algorithm, seed=seed, max_rounds=400)
        _assert_scan_matches_reference(overlay)
        corrupt_overlay(overlay, random.Random(seed))
        sanitize(overlay, algorithm=algorithm)  # swaps the online roster
        _assert_scan_matches_reference(overlay)
        converge(overlay, algorithm=algorithm, seed=seed + 1, max_rounds=25)
        _assert_scan_matches_reference(overlay)
        overlay.check_integrity()
