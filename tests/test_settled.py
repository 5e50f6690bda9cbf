"""Settled nodes cost nothing — and skipping them changes nothing.

``ConstructionAlgorithm.settled(node)`` promises that ``maintain(node)``
would return ``False`` and write no state, now and until the node's
chain next changes.  Both clocks lean on it: the round sweeps visit only
nodes that are parentless or unsettled, and the continuous engine lets
settled nodes sleep.
Four guarantees:

1. **Soundness** — on random mutation sequences, for every registered
   algorithm (eager ablations included), a settled
   node's ``maintain`` is a no-op on the parent map, the protocol
   counters and the probe stream.  This is what catches a subclass that
   swaps the rule but inherits the other rule's predicate.
2. **The predicate is tied to the rule** — overriding ``maintain``
   alone resets ``settled`` to the base class's "never".
3. **Differential** — against registered doubles whose ``settled`` is
   the base-class ``False`` (every parented node visited every tick, as
   before), every rounds-mode composition produces an equal result, and
   the continuous clock an equal result on every field but
   ``events_fired``.
4. **Boundary upkeep follows one liveness counter** — each of the four
   membership mutators moves it, and the sharded directory acts on it.
"""

from __future__ import annotations

import dataclasses
import gc
import pickle
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.experiments.ablations  # noqa: F401 - registers the eager rules
from repro.core.constraints import NodeSpec
from repro.core.greedy import GreedyConstruction
from repro.core.node import SOURCE_ID
from repro.core.hybrid import HybridConstruction
from repro.core.protocol import ConstructionAlgorithm
from repro.core.tree import Overlay
from repro.faults.plan import parse_fault_plan
from repro.multifeed import MultiFeedSystem
from repro.multipath.delivery import MultipathSystem
from repro.obs.probe import RecordingProbe
from repro.oracles.base import make_oracle
from repro.sim.churn import ChurnConfig
from repro.sim.runner import (
    ALGORITHMS,
    Simulation,
    SimulationConfig,
    register_algorithm,
    run_simulation,
)
from repro.stabilize import corrupt_overlay
from repro.stabilize.harness import converge, sanitize
from repro.workloads import make
from repro.workloads.random_workload import rand_workload

SHIPPED = ("greedy", "hybrid", "greedy-eager", "hybrid-eager")


def _polled(name: str) -> str:
    """Register ``name``'s double with the base-class predicate — the
    once-per-tick polling every algorithm got before ``settled`` — and
    return the double's name."""
    cls = ALGORITHMS[name]
    double = type(
        f"Polled{cls.__name__}",
        (cls,),
        {"name": f"{name}-polled", "settled": ConstructionAlgorithm.settled},
    )
    register_algorithm(double)
    return double.name


POLLED = {name: _polled(name) for name in SHIPPED}


def slack_workload(size: int, seed: int):
    """``Rand`` with slack a sampled directory can serve: latency budgets
    up to 40, fanout 2..8, source fanout 32."""
    workload, _ = rand_workload(
        size,
        seed,
        source_fanout=32,
        max_latency=40,
        min_fanout=2,
        max_fanout=8,
    )
    return workload


# ----------------------------------------------------------------------
# 1. soundness
# ----------------------------------------------------------------------


def _observable_state(overlay: Overlay, probe: RecordingProbe):
    return (
        overlay.snapshot(),
        overlay.attach_count,
        overlay.detach_count,
        [
            (
                node.node_id,
                node.online,
                node.rounds_without_parent,
                node.violation_rounds,
                None if node.referral is None else node.referral.node_id,
                node.busy_until,
                node.source_failures,
                node.source_retry_timeout,
            )
            for node in overlay
        ],
        len(probe.events),
    )


def _assert_settled_nodes_are_quiet(algorithm, overlay, probe) -> None:
    for node in list(overlay):
        if not algorithm.settled(node):
            continue
        before = _observable_state(overlay, probe)
        assert algorithm.maintain(node) is False, node
        assert _observable_state(overlay, probe) == before, node


def _mutate_and_check(algorithm_name: str, seed: int, steps: int):
    rng = random.Random(seed)
    overlay = Overlay(source_fanout=rng.randint(1, 3))
    probe = RecordingProbe()
    overlay.probe = probe

    def newcomer():
        # Tight constraints, so raw attaches overshoot them all the time.
        overlay.add_consumer(
            NodeSpec(latency=rng.randint(1, 4), fanout=rng.randint(0, 3))
        )

    for _ in range(rng.randint(3, 9)):
        newcomer()
    algorithm = ALGORITHMS[algorithm_name](
        overlay, make_oracle("random", overlay, random.Random(seed + 1))
    )
    for _ in range(steps):
        op = rng.choice(
            ("attach", "attach", "attach", "detach", "churn", "add", "remove",
             "maintain", "maintain", "step")
        )
        consumers = overlay.consumers
        if op == "add" or not consumers:
            newcomer()
        elif op == "attach":
            # Unchecked by any edge policy: latency-violating chains,
            # rooted and unrooted, are the states the rules react to.
            child = rng.choice(consumers)
            parent = rng.choice(consumers + [overlay.source])
            if (
                child.online
                and parent.online
                and child.parent is None
                and parent is not child
                and parent.free_fanout > 0
                and not overlay.is_descendant(parent, child)
            ):
                overlay.attach(child, parent)
        elif op == "detach":
            parented = [n for n in consumers if n.parent is not None]
            if parented:
                overlay.detach(rng.choice(parented))
        elif op == "churn":
            node = rng.choice(consumers)
            if node.online:
                overlay.go_offline(node, graceful=rng.random() < 0.5)
            else:
                overlay.go_online(node)
        elif op == "remove":
            node = rng.choice(consumers)
            if node.online:
                overlay.go_offline(node)
            overlay.remove_consumer(node)
        elif op == "maintain":
            # The rule itself moves the damping counters and detaches.
            unsettled = [
                n for n in consumers
                if n.parent is not None and not algorithm.settled(n)
            ]
            if unsettled:
                algorithm.maintain(rng.choice(unsettled))
        else:
            parentless = [n for n in consumers if n.online and n.parent is None]
            if parentless:
                algorithm.step(rng.choice(parentless))
        _assert_settled_nodes_are_quiet(algorithm, overlay, probe)
    overlay.check_integrity()


class TestSettledIsSound:
    @pytest.mark.parametrize("algorithm", SHIPPED)
    @given(seed=st.integers(0, 100_000), steps=st.integers(10, 60))
    @settings(max_examples=25, deadline=None)
    def test_settled_implies_maintain_is_a_no_op(self, algorithm, seed, steps):
        _mutate_and_check(algorithm, seed, steps)

    @given(data=st.data(), seed=st.integers(0, 100_000))
    @settings(max_examples=40, deadline=None)
    def test_whatever_else_is_registered(self, data, seed):
        """Every entry of the live registry, whichever test modules or
        extensions put it there (only ``maintain``/``settled``/``step``
        of the parent rule are exercised by the doubles of other test
        modules, which override ``step``)."""
        names = sorted(
            name for name, cls in ALGORITHMS.items()
            if "step" not in vars(cls)
        )
        algorithm = data.draw(st.sampled_from(names))
        _mutate_and_check(algorithm, seed, 30)

    def test_an_inherited_predicate_would_be_caught(self):
        """The failure the property exists for: the eager rule under the
        lazy rule's predicate is unsound within a few mutations."""
        wrong = type(
            "WrongPredicate",
            (ALGORITHMS["greedy-eager"],),
            {"name": "wrong-predicate", "settled": GreedyConstruction.settled},
        )
        register_algorithm(wrong)
        try:
            with pytest.raises(AssertionError):
                for seed in range(40):
                    _mutate_and_check("wrong-predicate", seed, 40)
        finally:
            del ALGORITHMS["wrong-predicate"]


# ----------------------------------------------------------------------
# 2. the predicate belongs to the rule
# ----------------------------------------------------------------------


def sweep_visits(algorithm, roster, on_step=None):
    """The ``(rule, node)`` calls one :meth:`sweep` over ``roster``
    makes, through recording ``step``/``maintain`` replaced on the
    instance (as a timing wrapper would be).  The recorders act on
    nothing themselves; ``on_step(node)`` lets a stepping node act."""
    visits = []

    def step(node):
        visits.append(("step", node))
        if on_step is not None:
            on_step(node)

    def maintain(node):
        visits.append(("maintain", node))
        return False

    algorithm.step = step
    algorithm.maintain = maintain
    algorithm.sweep(roster)
    return visits


class TestPredicateIsTiedToTheRule:
    def test_swapping_maintain_alone_resets_settled(self):
        class Swapped(HybridConstruction):
            name = "swapped"

            def maintain(self, node):
                return False

        assert Swapped.settled is ConstructionAlgorithm.settled
        assert vars(HybridConstruction)["settled"] is not (
            ConstructionAlgorithm.settled
        )

    def test_restating_both_keeps_both(self):
        eager = ALGORITHMS["hybrid-eager"]
        assert "maintain" in vars(eager) and "settled" in vars(eager)
        assert eager.settled is not HybridConstruction.settled

    def test_other_overrides_keep_the_predicate(self):
        class SameRule(GreedyConstruction):
            name = "same-rule"

            def step(self, node):
                return super().step(node)

        assert SameRule.settled is GreedyConstruction.settled

    def test_every_registered_rule_brought_its_own_predicate(self):
        for name, cls in ALGORITHMS.items():
            rule_owner = next(c for c in cls.__mro__ if "maintain" in vars(c))
            predicate_owner = next(c for c in cls.__mro__ if "settled" in vars(c))
            assert (
                predicate_owner is rule_owner
                or cls.settled is ConstructionAlgorithm.settled
            ), name

    def test_base_class_never_settles_so_unknown_rules_are_polled(self):
        sim = Simulation(
            make("Rand", size=30, seed=1),
            SimulationConfig(algorithm=POLLED["hybrid"], seed=1, max_rounds=30),
        )
        sim.run()
        parented = [
            n for n in sim.overlay.online_consumers if n.parent is not None
        ]
        assert parented
        assert sweep_visits(sim.algorithm, parented) == [
            ("maintain", node) for node in parented
        ]

    def test_a_swapped_rule_is_never_settled_at_run_time(self):
        """The fallback holds where it is used, not only on the class:
        the predicate is a plain class attribute — no algorithm binds a
        reader on the instance, which would shadow the reset — so an
        instance of a subclass that swaps ``maintain`` alone reports
        every node unsettled and ``sweep`` visits the whole roster."""

        class Swapped(GreedyConstruction):
            name = "swapped-at-run-time"

            def maintain(self, node):
                return False

        overlay = Overlay(source_fanout=2)
        nodes = [
            overlay.add_consumer(NodeSpec(latency=4, fanout=2))
            for _ in range(6)
        ]
        overlay.attach(nodes[0], overlay.source)
        overlay.attach(nodes[1], nodes[0])
        overlay.attach(nodes[3], nodes[2])  # an unrooted pair
        oracle = make_oracle("random", overlay, random.Random(0))
        swapped = Swapped(overlay, oracle)
        shipped = GreedyConstruction(overlay, oracle)
        assert "settled" not in vars(swapped)
        assert "settled" not in vars(shipped)
        assert all(shipped.settled(node) for node in nodes)
        assert not any(swapped.settled(node) for node in overlay)
        assert [node for _, node in sweep_visits(swapped, nodes)] == nodes
        assert sweep_visits(shipped, nodes) == [
            ("step", nodes[2]), ("step", nodes[4]), ("step", nodes[5])
        ]


class TestSweepReadsLiveState:
    def test_an_earlier_actor_can_unsettle_a_later_node(self):
        overlay = Overlay(source_fanout=1)
        first = overlay.add_consumer(NodeSpec(latency=1, fanout=1))
        second = overlay.add_consumer(NodeSpec(latency=1, fanout=0))
        overlay.attach(second, first)  # unrooted: settled for the lazy rules
        algorithm = HybridConstruction(
            overlay, make_oracle("random", overlay, random.Random(0))
        )
        assert algorithm.settled(second)

        def root_the_chain(node):
            overlay.attach(node, overlay.source)

        # ``first`` is parentless, so it steps and roots the chain; then
        # ``second`` is at DelayAt 2 > l 1, seen at visit time.
        assert sweep_visits(algorithm, [first, second], root_the_chain) == [
            ("step", first), ("maintain", second)
        ]
        assert sweep_visits(algorithm, [second, first]) == [("maintain", second)]


# ----------------------------------------------------------------------
# 3. differential against the polled doubles
# ----------------------------------------------------------------------

FAULTS = "crash@20:0.2:rejoin=10,source-outage@35:4"

SCENARIOS = {
    "static": dict(max_rounds=400),
    "churn": dict(max_rounds=90, churn=ChurnConfig(), stop_at_convergence=False),
    "faults": dict(
        max_rounds=70,
        faults=parse_fault_plan(FAULTS),
        stop_at_convergence=False,
    ),
}



class TestRoundsModeDifferential:
    @pytest.mark.parametrize("scenario", sorted(SCENARIOS))
    @pytest.mark.parametrize("realization", ("omniscient", "sharded"))
    @pytest.mark.parametrize("algorithm", SHIPPED)
    def test_simulation_result_is_equal(self, algorithm, realization, scenario):
        workload = make("Rand", size=70, seed=11)
        config = SimulationConfig(
            algorithm=algorithm,
            oracle="random-delay",
            oracle_realization=realization,
            seed=11,
            **SCENARIOS[scenario],
        )
        skipping = run_simulation(workload, config)
        polled = run_simulation(
            workload, config.with_(algorithm=POLLED[algorithm])
        )
        assert dataclasses.replace(polled, algorithm=algorithm) == skipping
        assert (
            skipping.phase_timings.get("maintain", {"calls": 0})["calls"]
            <= polled.phase_timings["maintain"]["calls"]
        )

    def test_the_sweep_runs_the_rule_ten_times_less_often(self):
        workload = slack_workload(600, 4)
        config = SimulationConfig(
            algorithm="hybrid",
            oracle_realization="sharded",
            seed=4,
            max_rounds=60,
            churn=ChurnConfig(),
            stop_at_convergence=False,
        )
        skipping = run_simulation(workload, config)
        polled = run_simulation(workload, config.with_(algorithm=POLLED["hybrid"]))
        assert dataclasses.replace(polled, algorithm="hybrid") == skipping
        assert (
            10 * skipping.phase_timings["maintain"]["calls"]
            <= polled.phase_timings["maintain"]["calls"]
        )

    @pytest.mark.parametrize("algorithm", ("greedy", "hybrid"))
    def test_multipath_two_paths(self, algorithm):
        def run(name):
            system = MultipathSystem(
                make("Rand", size=40, seed=5),
                paths=2,
                seed=5,
                algorithm=name,
                faults=parse_fault_plan("crash@15:0.2:rejoin=8"),
            )
            system.run(max_rounds=60)
            return (
                [overlay.snapshot() for overlay in system.overlays],
                dataclasses.replace(system.result().summary(), algorithm=algorithm),
                system.overlap_repairs,
                system.unblock_repairs,
            )

        assert run(algorithm) == run(POLLED[algorithm])

    @pytest.mark.parametrize("sequential", (False, True))
    def test_multifeed(self, sequential, monkeypatch):
        def run():
            system = MultiFeedSystem(["a", "b", "c"], consumer_count=40, seed=9)
            if sequential:
                system.run_sequential(max_rounds_per_feed=300)
            else:
                system.run(max_rounds=300)
            return system.now, {
                feed: (overlay.snapshot(), overlay.attach_count, overlay.detach_count)
                for feed, overlay in system.overlays.items()
            }

        skipping = run()
        # MultiFeedSystem names its algorithm class outright, so the
        # double is the class itself with the predicate put back.
        monkeypatch.setattr(
            HybridConstruction, "settled", ConstructionAlgorithm.settled
        )
        assert run() == skipping

    @pytest.mark.parametrize("algorithm", ("greedy", "hybrid"))
    def test_stabilize_converge(self, algorithm):
        def run(name):
            overlay = make("Rand", size=50, seed=6).build_overlay()
            converge(overlay, algorithm=name, seed=6, max_rounds=400)
            corrupt_overlay(overlay, random.Random(6))
            sanitize(overlay, algorithm=algorithm)
            outcome = converge(overlay, algorithm=name, seed=7, max_rounds=600)
            return outcome, overlay.snapshot(), overlay.detach_count

        assert run(algorithm) == run(POLLED[algorithm])


class TestContinuousDifferential:
    @pytest.mark.parametrize("profile", ("geo-3region", "geo-5region", "metro"))
    @pytest.mark.parametrize("algorithm", ("greedy", "hybrid"))
    def test_static_build_differs_in_events_fired_alone(self, algorithm, profile):
        workload = slack_workload(600, 2)
        config = SimulationConfig(
            algorithm=algorithm,
            oracle_realization="sharded",
            seed=2,
            max_rounds=50,
            stop_at_convergence=False,
            time_model=f"continuous:{profile}",
        )
        sleeping = run_simulation(workload, config)
        polled = run_simulation(
            workload, config.with_(algorithm=POLLED[algorithm])
        )
        assert (
            dataclasses.replace(
                polled, algorithm=algorithm, events_fired=sleeping.events_fired
            )
            == sleeping
        )
        assert 5 * sleeping.events_fired <= polled.events_fired

    @pytest.mark.parametrize("scenario", ("churn", "faults"))
    @pytest.mark.parametrize("profile", ("geo-3region", "geo-5region", "metro"))
    @pytest.mark.parametrize("algorithm", SHIPPED)
    def test_churn_and_faults(self, algorithm, profile, scenario):
        workload = slack_workload(200, 8)
        config = SimulationConfig(
            algorithm=algorithm,
            oracle_realization="sharded",
            seed=8,
            time_model=f"continuous:{profile}",
            **SCENARIOS[scenario],
        )
        sleeping = run_simulation(workload, config)
        polled = run_simulation(
            workload, config.with_(algorithm=POLLED[algorithm])
        )
        assert (
            dataclasses.replace(
                polled, algorithm=algorithm, events_fired=sleeping.events_fired
            )
            == sleeping
        )
        assert sleeping.events_fired < polled.events_fired


# ----------------------------------------------------------------------
# 4. one liveness feed behind the per-round membership upkeep
# ----------------------------------------------------------------------


class _UnreadableRoster(list):
    """An online roster the membership upkeep may edit but not scan."""

    def __iter__(self):
        raise AssertionError("the online roster was scanned")


def _drained_feed(overlay):
    """A new liveness feed, checked to start as the online roster and
    then emptied, so it holds only what comes next."""
    feed = overlay.watch_liveness()
    assert feed == {node.node_id for node in overlay.online_consumers}
    feed.clear()
    return feed


class TestLivenessCounter:
    """``Overlay.watch_liveness()``: every membership or liveness
    mutator feeds the ids it moved, and the sharded directory's sync
    reads the feed, never the roster."""

    def _sharded_sim(self) -> Simulation:
        sim = Simulation(
            make("Rand", size=40, seed=3),
            SimulationConfig(
                algorithm="hybrid",
                oracle_realization="sharded",
                seed=3,
                max_rounds=200,
                stop_at_convergence=False,
            ),
        )
        for _ in range(5):
            sim.run_round()
        return sim

    def test_a_quiet_round_skips_the_membership_diff(self):
        sim = self._sharded_sim()
        overlay = sim.overlay
        directory = sim.oracle.directory
        records = dict(directory._records)
        reservoirs = list(directory._reservoirs)
        assert not directory._liveness
        sim.run_round()
        # Nobody came or went: nothing registered, forgotten or pruned
        # (every reservoir is still the very same list).
        assert directory._records == records
        assert all(a is b for a, b in zip(directory._reservoirs, reservoirs))
        # A sync after the first reads the feed alone, even when it
        # is not empty: the roster may be edited but never scanned.
        victim = overlay.consumers[0]
        overlay._online = _UnreadableRoster(overlay._online)
        directory.on_round(sim.now)
        overlay.go_offline(victim)
        assert directory._liveness == {victim.node_id}
        directory.on_round(sim.now + 1)
        assert not directory._liveness
        assert victim.node_id not in directory._records
        assert not records[victim.node_id].live
        assert all(
            record.live for reservoir in directory._reservoirs for record in reservoir
        )
        overlay._online = overlay._online[:]  # a plain list again
        overlay.check_integrity()

    def test_add_consumer_registers_at_the_next_round(self):
        sim = self._sharded_sim()
        feed = _drained_feed(sim.overlay)
        newcomer = sim.overlay.add_consumer(NodeSpec(latency=9, fanout=2))
        assert feed == {newcomer.node_id}
        sim.run_round()
        assert newcomer.node_id in sim.oracle.directory._records
        assert not sim.oracle.directory._liveness

    def test_go_offline_forgets_at_the_next_round(self):
        sim = self._sharded_sim()
        victim = sim.overlay.consumers[3]
        assert victim.node_id in sim.oracle.directory._records
        feed = _drained_feed(sim.overlay)
        sim.overlay.go_offline(victim)
        assert feed == {victim.node_id}
        sim.run_round()
        assert victim.node_id not in sim.oracle.directory._records

    def test_go_online_registers_again_at_the_next_round(self):
        sim = self._sharded_sim()
        victim = sim.overlay.consumers[3]
        sim.overlay.go_offline(victim)
        sim.run_round()
        feed = _drained_feed(sim.overlay)
        sim.overlay.go_online(victim)
        assert feed == {victim.node_id}
        sim.run_round()
        assert victim.node_id in sim.oracle.directory._records

    def test_remove_consumer_stays_forgotten_and_its_id_can_come_back(self):
        sim = self._sharded_sim()
        directory = sim.oracle.directory
        victim = sim.overlay.consumers[3]
        sim.overlay.go_offline(victim)
        sim.run_round()
        feed = _drained_feed(sim.overlay)
        sim.overlay.remove_consumer(victim)
        assert feed == {victim.node_id}
        sim.run_round()
        assert victim.node_id not in directory._records
        heir = sim.overlay.add_consumer(NodeSpec(latency=9, fanout=2))
        assert heir.node_id == victim.node_id  # the store recycles ids
        sim.run_round()
        assert directory._records[heir.node_id].node_id == heir.node_id
        sim.overlay.check_integrity()

    def test_a_dropped_feed_leaves_the_overlay(self):
        """``converge`` builds a new sharded directory per call; each
        releases its feed with the directory, so mutators feed only
        the live watchers."""
        overlay = make("Rand", size=40, seed=3).build_overlay()
        kept = overlay.watch_liveness()
        for seed in (3, 4):
            converge(overlay, realization="sharded", seed=seed, max_rounds=400)
        gc.collect()
        assert [ref() for ref in overlay._liveness_feeds] == [kept]
        assert overlay._liveness_feeds[0]() is kept
        del kept
        assert overlay._liveness_feeds == []
        overlay.go_offline(overlay.consumers[0])  # feeds nobody

    def test_a_pickled_overlay_keeps_the_feeds_of_its_pickled_watchers(self):
        sim = self._sharded_sim()
        directory = pickle.loads(pickle.dumps(sim.oracle.directory))
        overlay = directory.overlay
        assert [ref() for ref in overlay._liveness_feeds] == [directory._liveness]
        assert overlay._liveness_feeds[0]() is directory._liveness
        victim = overlay.consumers[3]
        overlay.go_offline(victim)
        assert directory._liveness == {victim.node_id}
        assert sim.oracle.directory._liveness == set()
        clone = pickle.loads(pickle.dumps(sim.overlay))  # no watcher along
        gc.collect()
        assert clone._liveness_feeds == []
        clone.check_integrity()

    def test_pruning_only_when_membership_changed_draws_the_same_batches(self):
        """The skipped upkeep is invisible: a run whose feed holds every
        consumer id before every round (as if everybody moved) and that prunes
        every round serves the same batches from the same RNG."""
        def run(forget: bool):
            sim = Simulation(
                make("Rand", size=60, seed=5),
                SimulationConfig(
                    algorithm="hybrid",
                    oracle_realization="sharded",
                    seed=5,
                    max_rounds=60,
                    churn=ChurnConfig(),
                    stop_at_convergence=False,
                ),
            )
            directory = sim.oracle.directory
            batches = []
            for _ in range(60):
                if forget:
                    directory._liveness.update(
                        range(SOURCE_ID + 1, sim.overlay.store.capacity)
                    )
                    directory._died = True
                sim.run_round()
                batches.append(
                    [[r.node_id for r in batch] for batch in directory._batches]
                )
            return batches, sim.result()

        assert run(forget=True) == run(forget=False)
