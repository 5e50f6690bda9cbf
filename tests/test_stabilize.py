"""Property suite for ``repro.stabilize``: convergence from arbitrary states.

The self-stabilization claim: for *any* corrupted overlay state (the
seeded generator produces states no protocol run could reach — cycles,
fanout overflows, lying index entries, offline interior nodes), one
local reset (:func:`~repro.stabilize.harness.sanitize`) followed by
ordinary protocol rounds re-converges within the documented bound
(:func:`~repro.stabilize.harness.round_bound`), for greedy AND hybrid,
under all four oracle realizations, with ``Overlay.check_integrity()``
holding at the end.

Hypothesis drives the corruption seed and intensity; the full
(algorithm × realization) matrix is parametrized so a failure names its
cell exactly.
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.errors import LagOverError
from repro.core.tree import Overlay
from repro.stabilize import (
    CORRUPTION_KINDS,
    corrupt_overlay,
    round_bound,
    sanitize,
    stabilize,
)
from repro.stabilize.harness import converge
from repro.workloads import make as make_workload

SIZE = 24
REALIZATIONS = ("omniscient", "dht", "sharded", "random-walk")


def oracle_for(realization):
    # The random-walk realization only exists for Oracle Random.
    return "random" if realization == "random-walk" else "random-delay"


def converged_overlay(algorithm, realization, seed=3):
    """A freshly built, converged overlay to corrupt."""
    workload = make_workload("Rand", size=SIZE, seed=seed)
    overlay = Overlay(source_fanout=workload.source_fanout)
    overlay.add_population(workload.population)
    ok, _ = converge(
        overlay,
        algorithm=algorithm,
        oracle=oracle_for(realization),
        realization=realization,
        seed=seed,
        max_rounds=4000,
    )
    assert ok, "construction itself must converge before corruption"
    return overlay


class TestCorruptionGenerator:
    def test_corruption_breaks_integrity(self):
        overlay = converged_overlay("hybrid", "omniscient")
        applied = corrupt_overlay(overlay, random.Random(7))
        assert set(applied) == set(CORRUPTION_KINDS)
        assert all(count > 0 for count in applied.values())
        with pytest.raises(LagOverError):
            overlay.check_integrity()

    def test_corruption_is_deterministic(self):
        snapshots = []
        for _ in range(2):
            overlay = converged_overlay("hybrid", "omniscient")
            corrupt_overlay(overlay, random.Random(11))
            snapshots.append(
                [
                    (n.name, n.parent.name if n.parent else None, n.online)
                    for n in overlay.consumers
                ]
            )
        assert snapshots[0] == snapshots[1]

    def test_source_never_corrupted(self):
        overlay = converged_overlay("hybrid", "omniscient")
        corrupt_overlay(overlay, random.Random(5))
        assert overlay.source.online
        assert overlay.source.parent is None

    def test_unknown_kind_rejected(self):
        overlay = converged_overlay("hybrid", "omniscient")
        with pytest.raises(ValueError):
            corrupt_overlay(overlay, random.Random(0), kinds=("nope",))


class TestSanitize:
    @pytest.mark.parametrize("algorithm", ["greedy", "hybrid"])
    def test_sanitize_restores_integrity(self, algorithm):
        overlay = converged_overlay(algorithm, "omniscient")
        corrupt_overlay(overlay, random.Random(23))
        report = sanitize(overlay, algorithm=algorithm)
        overlay.check_integrity()  # raises on any surviving violation
        assert report.roster_fixes + report.offline_severed >= 0

    def test_sanitize_never_attaches(self):
        overlay = converged_overlay("hybrid", "omniscient")
        corrupt_overlay(overlay, random.Random(3))
        before = {
            n.name: (n.parent.name if n.parent else None)
            for n in overlay.consumers
        }
        sanitize(overlay)
        for node in overlay.consumers:
            if node.parent is not None:
                assert before[node.name] == node.parent.name

    def test_greedy_sanitize_restores_edge_invariant(self):
        overlay = converged_overlay("greedy", "omniscient")
        corrupt_overlay(overlay, random.Random(29))
        sanitize(overlay, algorithm="greedy")
        for node in overlay.consumers:
            parent = node.parent
            if parent is not None and not parent.is_source:
                assert parent.latency <= node.latency


class StabilizeMatrix:
    """One (algorithm) half of the property matrix; subclasses pin it."""

    algorithm = None

    @pytest.mark.parametrize("realization", REALIZATIONS)
    @settings(max_examples=5, deadline=None)
    @given(
        corruption_seed=st.integers(min_value=0, max_value=2**16),
        intensity=st.floats(min_value=0.1, max_value=0.6),
    )
    def test_converges_within_bound(self, realization, corruption_seed, intensity):
        overlay = converged_overlay(self.algorithm, realization)
        corrupt_overlay(
            overlay, random.Random(corruption_seed), intensity=intensity
        )
        outcome = stabilize(
            overlay,
            algorithm=self.algorithm,
            oracle=oracle_for(realization),
            realization=realization,
            seed=corruption_seed,
        )
        assert outcome.bound == round_bound(len(overlay.online_consumers))
        assert outcome.converged, (
            f"{self.algorithm}/{realization} did not re-converge "
            f"within {outcome.bound} rounds (seed {corruption_seed})"
        )
        assert outcome.rounds <= outcome.bound
        # stabilize() already ran check_integrity(); assert the latency
        # claim explicitly: every chain meets its constraint.
        for node in overlay.online_consumers:
            assert overlay.delay_at(node) <= node.latency


class TestStabilizeGreedy(StabilizeMatrix):
    algorithm = "greedy"


class TestStabilizeHybrid(StabilizeMatrix):
    algorithm = "hybrid"
