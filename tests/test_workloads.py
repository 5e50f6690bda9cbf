"""Unit tests for the §4.1 workload generators."""

import random

import pytest

from repro.core.errors import ConfigurationError
from repro.core.sufficiency import sufficiency_holds
from repro.sim.rng import make_stream
from repro.workloads import (
    PAPER_FAMILIES,
    adversarial_workload,
    bicorr_workload,
    bimodal_population,
    biuncorr_workload,
    make,
    make_workload,
    paper_adversarial_workload,
    rand_workload,
    repair_population,
    tf1_population,
    tf1_workload,
)
from repro.workloads.bimodal import HIGH_FANOUTS, LOW_FANOUTS, STRICT_LATENCY_BOUND

from tests.conftest import spec


class TestWorkloadBase:
    def test_build_overlay_matches_population(self):
        workload = make_workload(
            "w", 2, [("a", spec(1, 1)), ("b", spec(2, 2))]
        )
        overlay = workload.build_overlay()
        assert len(overlay.consumers) == 2
        assert overlay.source.fanout == 2
        assert all(n.parent is None for n in overlay.consumers)

    def test_histograms(self):
        workload = make_workload(
            "w", 1, [("a", spec(1, 1)), ("b", spec(1, 2)), ("c", spec(3, 2))]
        )
        assert workload.latency_histogram() == {1: 2, 3: 1}
        assert workload.fanout_histogram() == {1: 1, 2: 2}

    def test_empty_population_rejected(self):
        with pytest.raises(ConfigurationError):
            make_workload("w", 1, [])

    def test_describe_mentions_name_and_size(self):
        workload = make_workload("mywl", 1, [("a", spec(1, 1))])
        assert "mywl" in workload.describe()
        assert "n=1" in workload.describe()


class TestTf1:
    def test_tier_structure_120(self):
        population = tf1_population(120, fanout=3)
        latencies = [s.latency for _, s in population]
        assert latencies.count(1) == 3
        assert latencies.count(2) == 9
        assert latencies.count(3) == 27
        assert latencies.count(4) == 81
        assert all(s.fanout == 3 for _, s in population)

    def test_partial_last_tier(self):
        population = tf1_population(5, fanout=3)
        latencies = [s.latency for _, s in population]
        assert latencies == [1, 1, 1, 2, 2]

    def test_tf1_meets_sufficiency_exactly(self):
        workload = tf1_workload(120)
        assert workload.satisfies_sufficiency()
        assert workload.source_fanout == 3

    def test_invalid_size_rejected(self):
        with pytest.raises(ConfigurationError):
            tf1_population(0)


class TestRand:
    def test_repaired_to_sufficiency(self):
        for seed in range(5):
            workload, report = rand_workload(size=80, seed=seed)
            assert workload.satisfies_sufficiency()
            assert report.relaxations >= 0

    def test_deterministic_per_seed(self):
        a, _ = rand_workload(size=50, seed=3)
        b, _ = rand_workload(size=50, seed=3)
        assert a.population == b.population

    def test_different_seeds_differ(self):
        a, _ = rand_workload(size=50, seed=3)
        b, _ = rand_workload(size=50, seed=4)
        assert a.population != b.population

    def test_fanout_bounds_respected(self):
        workload, _ = rand_workload(size=60, seed=1, min_fanout=2, max_fanout=5)
        assert all(2 <= s.fanout <= 5 for s in workload.specs)


class TestBimodal:
    def test_bicorr_strict_nodes_have_low_fanout(self):
        rng = make_stream(0, "t")
        population = bimodal_population(200, rng, correlated=True)
        for _, s in population:
            if s.latency < STRICT_LATENCY_BOUND:
                assert s.fanout in LOW_FANOUTS

    def test_fanouts_are_bimodal(self):
        rng = make_stream(0, "t")
        population = bimodal_population(200, rng, correlated=False)
        assert all(
            s.fanout in LOW_FANOUTS + HIGH_FANOUTS for _, s in population
        )

    def test_biuncorr_strict_nodes_can_be_high(self):
        rng = make_stream(1, "t")
        population = bimodal_population(400, rng, correlated=False)
        strict_high = [
            s
            for _, s in population
            if s.latency < STRICT_LATENCY_BOUND and s.fanout in HIGH_FANOUTS
        ]
        assert strict_high  # uncorrelated draw produces some

    def test_workloads_meet_sufficiency(self):
        for seed in range(3):
            for factory in (bicorr_workload, biuncorr_workload):
                workload, _ = factory(size=120, seed=seed)
                assert workload.satisfies_sufficiency()


class TestRepair:
    def test_repair_fixes_overfull_class(self):
        population = [(f"n{i}", spec(1, 1)) for i in range(5)]
        repaired, report = repair_population(1, population, random.Random(1))
        assert sufficiency_holds(1, [s for _, s in repaired])
        assert report.relaxations > 0

    def test_repair_noop_for_feasible(self):
        population = [("a", spec(1, 2)), ("b", spec(2, 0))]
        repaired, report = repair_population(1, population, random.Random(1))
        assert report.relaxations == 0
        assert repaired == population

    def test_repair_preserves_fanouts_and_size(self):
        population = [(f"n{i}", spec(1, 2)) for i in range(10)]
        repaired, _ = repair_population(2, population, random.Random(1))
        assert len(repaired) == 10
        assert [s.fanout for _, s in repaired] == [2] * 10

    def test_repair_divergence_guard(self):
        population = [(f"n{i}", spec(1, 0)) for i in range(5)]
        with pytest.raises(ConfigurationError):
            repair_population(1, population, random.Random(1), max_relaxations=50)

    @pytest.mark.parametrize("seed", range(60))
    def test_incremental_repair_equals_regrouping_loop(self, seed):
        """The per-class bookkeeping must relax exactly the members, in
        exactly the order, that regrouping the whole population before
        every relaxation did (the loop this replaced, written out)."""
        draw = random.Random(seed)
        size = draw.choice((8, 40, 150, 400))
        source_fanout = draw.randint(1, 5)
        population = [
            (f"n{i}", spec(draw.randint(1, draw.choice((2, 6, 12))), draw.randint(0, 4)))
            for i in range(size)
        ]
        if source_fanout + sum(s.fanout for _, s in population) < size:
            population[0] = ("n0", spec(1, size))  # make it repairable
        reference = list(population)
        rng = random.Random(seed + 1)
        relaxations = 0
        dead_end = False
        while not dead_end:
            classes = {}
            for index, (_, member) in enumerate(reference):
                classes.setdefault(member.latency, []).append(index)
            available = source_fanout
            violated = None
            for latency in range(1, max(classes) + 1):
                members = classes.get(latency, [])
                if len(members) > available:
                    violated = latency
                    break
                available += sum(reference[i][1].fanout for i in members)
                available -= len(members)
            if violated is None:
                break
            if available == 0:
                dead_end = True  # the regrouping loop would grind on forever
                break
            index = rng.choice(classes[violated])
            name, member = reference[index]
            reference[index] = (name, spec(member.latency + 1, member.fanout))
            relaxations += 1
        if dead_end:
            with pytest.raises(ConfigurationError, match="cannot terminate"):
                repair_population(source_fanout, population, random.Random(seed + 1))
            return
        repaired, report = repair_population(
            source_fanout, population, random.Random(seed + 1)
        )
        assert repaired == reference
        assert report.relaxations == relaxations
        assert report.max_latency_after == max(s.latency for _, s in reference)
        assert sufficiency_holds(source_fanout, [s for _, s in repaired])

    def test_repair_dead_end_raises_at_once(self):
        # Seats suffice in total (1 + 5 >= 3), but not where they are
        # needed: whoever stays in class 1 has no fanout, so class 2
        # starts from zero seats, and so does every class after it.
        population = [("a", spec(1, 0)), ("b", spec(1, 0)), ("c", spec(3, 5))]
        with pytest.raises(ConfigurationError, match="cannot terminate"):
            repair_population(1, population, random.Random(1))


class TestAdversarial:
    def test_repaired_population_specs(self):
        workload = adversarial_workload()
        assert workload.size == 5
        assert workload.source_fanout == 1
        assert not workload.satisfies_sufficiency()

    def test_paper_verbatim_population_kept_for_the_record(self):
        workload = paper_adversarial_workload()
        labels = [s.label(n) for n, s in workload.population]
        assert labels == ["1_1^1", "2_1^2", "3_2^4", "4_1^3", "5_0^3"]


class TestCatalog:
    def test_all_families_buildable(self):
        for family in PAPER_FAMILIES:
            workload = make(family, size=40, seed=0)
            assert workload.size >= 5

    def test_adversarial_in_catalog(self):
        assert make("Adversarial").size == 5

    def test_unknown_family_raises(self):
        with pytest.raises(ValueError):
            make("Zipf")
