"""The chain-metadata index: exactness, integrity, behavior-invisibility.

Three layers of guarantees:

1. A randomized mutation-sequence property test: after *every*
   attach/detach/splice/churn/rebuild/removal transition and every
   maintenance call, every index-backed read equals the naive
   parent-chain walk (kept in-tree as ``Overlay.walk_*``), the
   incrementally maintained rosters equal their refiltered definitions,
   the quality counters equal the forest scan, the unsettled column of
   the bound rule (greedy, hybrid or eager) equals its predicate, and
   every moved node is in the watch set.  ``splice`` is checked
   against the detach/attach/attach triple it fuses, on pickled twins.
2. ``check_integrity()`` cross-validates the index against the walks and
   detects a deliberately corrupted chain column.
3. A golden-seed guard: seeded construction runs produce *identical*
   ``SimulationResult``s whether chain metadata is read through the index
   or through the reference walks (both algorithms, all four paper
   oracles, churn on) — the refactor is behavior-invisible.
"""

from __future__ import annotations

import pickle
import random
from array import array
from itertools import zip_longest
from typing import Dict, Tuple

import pytest

import repro.core.convergence as convergence
import repro.experiments.ablations  # noqa: F401 - registers the eager rules
from repro.core.constraints import NodeSpec
from repro.core.convergence import _forest_scan
from repro.core.errors import (
    FanoutExceededError,
    OfflineNodeError,
    TopologyError,
)
from repro.core.index import ChainIndex
from repro.core.interactions import try_insert_between
from repro.core.tree import Overlay
from repro.obs.probe import RecordingProbe
from repro.oracles.base import make_oracle
from repro.sim.churn import ChurnConfig
from repro.sim.runner import ALGORITHMS, Simulation, SimulationConfig, run_simulation
from repro.workloads import make
from repro.workloads.random_workload import rand_workload

#: The Overlay chain-metadata readers and their reference twins.
WALKED_READS = (
    "fragment_root",
    "depth",
    "is_rooted",
    "delay_at",
    "meets_latency",
)


def force_walk_on_read(monkeypatch) -> None:
    """Route every chain-metadata read through the reference walk."""
    for name in WALKED_READS:
        monkeypatch.setattr(Overlay, name, getattr(Overlay, f"walk_{name}"))


def assert_index_matches_walk(overlay: Overlay) -> None:
    """Every index-backed read equals the naive walk, for every node."""
    for node in overlay:
        assert overlay.fragment_root(node) is overlay.walk_fragment_root(node)
        assert overlay.depth(node) == overlay.walk_depth(node)
        assert overlay.is_rooted(node) == overlay.walk_is_rooted(node)
        assert overlay.delay_at(node) == overlay.walk_delay_at(node)
        assert overlay.meets_latency(node) == overlay.walk_meets_latency(node)
    # Id order: a recycled id is re-inserted at the node table's end.
    naive_consumers = sorted(
        (n for n in overlay if not n.is_source), key=lambda n: n.node_id
    )
    assert overlay.consumers == naive_consumers
    assert overlay.online_consumers == [n for n in naive_consumers if n.online]


def chain_facts(overlay: Overlay) -> Dict[int, Tuple[int, int, bool]]:
    """Every node's two chain cells and liveness, by id."""
    store = overlay.store
    return {
        n.node_id: (
            store.root[n.node_id],
            store.delay[n.node_id],
            n.online,
        )
        for n in overlay
    }


def assert_counters_and_column(overlay: Overlay, algorithm=None) -> None:
    """The quality counters equal the forest scan, and, with a rule
    bound, every parented online node's unsettled cell equals
    ``not settled(node)`` by the algorithm's own predicate."""
    assert overlay.chain_index.counts() == _forest_scan(overlay)
    if algorithm is None:
        return
    assert overlay.chain_index.settled_rule is type(algorithm).settled
    for node in overlay.online_consumers:
        if node.parent is not None:
            cell = overlay.store.unsettled[node.node_id]
            assert cell == (not algorithm.settled(node)), node


#: The shipped maintenance rules, by the algorithm that binds each.
RULES = ("greedy", "hybrid", "greedy-eager")


def assert_roster_matches_scan(overlay: Overlay) -> None:
    """The kept delay roster equals a from-scratch scan (trailing
    empty buckets aside, exactly as ``ChainIndex.verify`` compares)."""
    index = overlay.chain_index
    for kept, scanned in zip_longest(
        index.delay_roster(), index._scan_roster(), fillvalue=0
    ):
        assert kept == scanned


class TestMutationSequenceProperty:
    @staticmethod
    def _spec(rng: random.Random, max_latency: int) -> NodeSpec:
        return NodeSpec(
            latency=rng.randint(1, max_latency), fanout=rng.randint(1, 4)
        )

    def _random_overlay(
        self, rng: random.Random, size: int, max_latency: int
    ) -> Overlay:
        overlay = Overlay(source_fanout=rng.randint(1, 4))
        for _ in range(size):
            overlay.add_consumer(self._spec(rng, max_latency))
        return overlay

    def _mutate_once(
        self, overlay: Overlay, rng: random.Random, max_latency: int, algorithm=None
    ) -> None:
        """Attempt one random structural or liveness transition, or run
        ``algorithm``'s maintenance rule at one node or its round sweep.

        Illegal attempts are fine: the checked mutators raise *before*
        touching any state, which is itself part of what the invariant
        check after each step exercises.
        """
        op = rng.choice(
            (
                "attach", "attach", "detach", "splice", "splice",
                "offline", "interior-offline", "online", "add", "remove",
                "rebuild", "maintain", "sweep",
            )
        )
        nodes = list(overlay)
        try:
            if op == "attach":
                child = rng.choice(overlay.consumers)
                parent = rng.choice(nodes)
                overlay.attach(child, parent)
            elif op == "detach":
                node = rng.choice(overlay.consumers)
                overlay.detach(node)
            elif op == "splice":
                tops = [n for n in overlay.online_consumers if n.parent is None]
                below = [n for n in overlay.consumers if n.parent is not None]
                if tops and below:
                    overlay.splice(rng.choice(tops), rng.choice(below), "splice")
            elif op == "offline":
                overlay.go_offline(rng.choice(overlay.consumers))
            elif op == "interior-offline":
                interior = [
                    n
                    for n in overlay.online_consumers
                    if n.parent is not None and n.children
                ]
                if interior:
                    overlay.go_offline(rng.choice(interior))
            elif op == "online":
                overlay.go_online(rng.choice(overlay.consumers))
            elif op == "remove":
                # Gone for good; the next add recycles the id.
                node = rng.choice(overlay.consumers)
                if node.online:
                    overlay.go_offline(node)
                overlay.remove_consumer(node)
                overlay.add_consumer(self._spec(rng, max_latency))
            elif op == "rebuild":
                overlay.chain_index.rebuild()
            elif op == "maintain":
                parented = [n for n in overlay.consumers if n.parent is not None]
                if algorithm is not None and parented:
                    algorithm.maintain(rng.choice(parented))
            elif op == "sweep":
                # One round of the rule: the protocol's own moves, and
                # damping counts that rise and clear.
                if algorithm is not None:
                    roster = overlay.online_consumers
                    rng.shuffle(roster)
                    algorithm.sweep(roster)
            else:
                overlay.add_consumer(self._spec(rng, max_latency))
        except (TopologyError, FanoutExceededError, OfflineNodeError):
            pass

    def _run(
        self, seed, roster, watched, size, steps, rule=None, max_latency=10
    ) -> None:
        """``steps`` random transitions; after each one the index equals
        the walk, a built roster equals its scan, the counters equal the
        forest scan, the column of ``rule``'s algorithm (if any) equals
        its predicate, and every node whose chain cells or liveness
        moved is in the watch set."""
        rng = random.Random(seed)
        overlay = self._random_overlay(rng, size, max_latency)
        algorithm = None
        if rule is not None:
            algorithm = ALGORITHMS[rule](
                overlay, make_oracle("random", overlay, random.Random(seed))
            )
        if roster:
            overlay.chain_index.delay_roster()
        watcher = overlay.chain_index.watch() if watched else None
        assert_index_matches_walk(overlay)
        before = chain_facts(overlay)
        for _ in range(steps):
            self._mutate_once(overlay, rng, max_latency, algorithm)
            assert_index_matches_walk(overlay)
            assert_counters_and_column(overlay, algorithm)
            if roster:
                assert_roster_matches_scan(overlay)
            after = chain_facts(overlay)
            if watcher is not None:
                moved = {i for i, facts in after.items() if before.get(i) != facts}
                assert moved <= watcher
                watcher.clear()
            before = after
        assert (overlay.chain_index._roster is not None) == roster
        overlay.check_integrity()

    @pytest.mark.parametrize("watched", [False, True], ids=["unwatched", "watched"])
    @pytest.mark.parametrize("roster", [False, True], ids=["lazy", "roster"])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_index_equals_walk_after_every_transition(self, seed, roster, watched):
        self._run(seed, roster, watched, size=30, steps=300)

    @pytest.mark.parametrize("seed", range(4))
    @pytest.mark.parametrize("rule", RULES)
    def test_counters_and_unsettled_column_after_every_transition(self, rule, seed):
        """Tight budgets (``l`` up to 3), so the rules see violations,
        damping counts and their clearing."""
        self._run(
            seed, roster=True, watched=False, size=30, steps=300, rule=rule,
            max_latency=3,
        )

    @pytest.mark.soak
    @pytest.mark.parametrize("seed", range(20))
    def test_long_sequences_with_roster_and_watcher(self, seed):
        """Deep subtrees through the level shift and the splice: 2,000
        steps at N = 60, roster built, one watcher, and the rules taken
        in turn."""
        self._run(
            seed, roster=True, watched=True, size=60, steps=2000,
            rule=RULES[seed % len(RULES)], max_latency=3 + seed % 8,
        )

    def test_offline_cascade_reroots_every_orphan_subtree(self):
        overlay = Overlay(source_fanout=2)
        nodes = [
            overlay.add_consumer(NodeSpec(latency=9, fanout=3))
            for _ in range(7)
        ]
        a, b, c, d, e, f, g = nodes
        overlay.attach(a, overlay.source)
        overlay.attach(b, a)
        overlay.attach(c, b)
        overlay.attach(d, b)
        overlay.attach(e, d)
        overlay.attach(f, a)
        overlay.attach(g, f)
        # b departs: c and d (with e under it) become fragment roots.
        overlay.go_offline(b)
        assert c.parent is None and d.parent is None
        assert overlay.fragment_root(e) is d
        assert overlay.delay_at(e) == 2  # potential: depth 1 + 1
        assert overlay.delay_at(b) == 1  # offline: own root, potential 1
        assert_index_matches_walk(overlay)
        overlay.check_integrity()


class TestSpliceEquivalence:
    """``splice`` against the three calls it fuses, on pickled twins:
    ``detach(child)``, ``attach(incoming, parent)``,
    ``attach(child, incoming)`` — same links and child-list order, same
    chain cells, roster, counts, probe events and watch sets, and the
    same exception type when the move is refused."""

    @staticmethod
    def _base(seed: int) -> Overlay:
        rng = random.Random(seed)
        overlay = Overlay(source_fanout=3)
        for _ in range(40):
            overlay.add_consumer(
                NodeSpec(latency=rng.randint(1, 10), fanout=rng.randint(1, 3))
            )
        nodes = list(overlay)
        for _ in range(120):
            try:
                overlay.attach(rng.choice(overlay.consumers), rng.choice(nodes))
            except (TopologyError, FanoutExceededError, OfflineNodeError):
                pass
        for node in rng.sample(overlay.consumers, 4):
            overlay.go_offline(node)
        overlay.chain_index.delay_roster()
        overlay.chain_index.watch()
        overlay.probe = RecordingProbe()
        return overlay

    @staticmethod
    def _state(overlay: Overlay):
        store = overlay.store
        index = overlay.chain_index
        return (
            {n.node_id: [c.node_id for c in n.children] for n in overlay},
            overlay.snapshot(),
            (list(store.root), list(store.delay)),
            list(index.delay_roster()),
            (overlay.attach_count, overlay.detach_count),
            [(n.source_failures, n.source_retry_timeout) for n in overlay],
            overlay.probe.events,
            index.watchers[0],
        )

    @staticmethod
    def _triple(overlay: Overlay, incoming, child, reason: str) -> None:
        parent = overlay.detach(child, reason=reason)
        overlay.attach(incoming, parent)
        overlay.attach(child, incoming)

    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    def test_splice_equals_detach_attach_attach(self, seed):
        base = self._base(seed)
        frozen = pickle.dumps(base)
        rng = random.Random(seed)
        tops = [n for n in base.online_consumers if n.parent is None]
        spliced = 0
        for _ in range(80):
            fused = pickle.loads(frozen)
            reference = pickle.loads(frozen)
            # Mostly parentless incomers (a legal move is likely), the
            # rest from anywhere (refusals must match too).
            incomers = tops if rng.random() < 0.8 else base.consumers
            i = rng.choice(incomers).node_id
            c = rng.choice(base.consumers).node_id
            results = []
            for overlay, move in ((fused, Overlay.splice), (reference, self._triple)):
                incoming, child = overlay.node(i), overlay.node(c)
                moved = overlay.shifted_nodes
                sizes = (
                    sum(1 for _ in overlay.subtree(incoming)),
                    sum(1 for _ in overlay.subtree(child)),
                )
                try:
                    move(overlay, incoming, child, "splice")
                except (TopologyError, FanoutExceededError, OfflineNodeError) as exc:
                    results.append(type(exc))
                else:
                    results.append((sizes, overlay.shifted_nodes - moved))
            assert type(results[0]) is type(results[1])
            if isinstance(results[0], tuple):
                spliced += 1
                assert self._state(fused) == self._state(reference)
                fused.check_integrity()
                (top, below), fused_moved = results[0]
                assert fused_moved == top + below
                assert results[1][1] == top + 2 * below
            else:
                assert results[0] is results[1]
                assert self._state(fused) == self._state(pickle.loads(frozen))
        assert spliced >= 20


class TestShiftedNodes:
    """``Overlay.shifted_nodes`` counts the nodes each move re-roots."""

    @staticmethod
    def _chain(overlay: Overlay, top, length: int):
        nodes = [top]
        for _ in range(length - 1):
            node = overlay.add_consumer(NodeSpec(latency=9, fanout=2))
            overlay.attach(node, nodes[-1])
            nodes.append(node)
        return nodes

    def test_insert_between_moves_each_subtree_once(self):
        overlay = Overlay(source_fanout=2)
        parent = overlay.add_consumer(NodeSpec(latency=9, fanout=2), "p")
        child = overlay.add_consumer(NodeSpec(latency=9, fanout=2), "c")
        incoming = overlay.add_consumer(NodeSpec(latency=9, fanout=2), "i")
        overlay.attach(parent, overlay.source)
        overlay.attach(child, parent)
        self._chain(overlay, child, 3)
        self._chain(overlay, incoming, 2)
        before = overlay.shifted_nodes
        assert try_insert_between(overlay, incoming, child)
        assert overlay.shifted_nodes - before == 2 + 3
        assert child.parent is incoming and incoming.parent is parent
        overlay.check_integrity()

    def test_departure_moves_the_leaver_and_each_orphan_subtree_once(self):
        overlay = Overlay(source_fanout=2)
        leaver = overlay.add_consumer(NodeSpec(latency=9, fanout=3), "x")
        overlay.attach(leaver, overlay.source)
        first = overlay.add_consumer(NodeSpec(latency=9, fanout=2), "a")
        second = overlay.add_consumer(NodeSpec(latency=9, fanout=2), "b")
        overlay.attach(first, leaver)
        overlay.attach(second, leaver)
        self._chain(overlay, first, 3)
        before = overlay.shifted_nodes
        orphans = overlay.go_offline(leaver)
        assert orphans == [first, second]
        assert overlay.shifted_nodes - before == 1 + 3 + 1
        overlay.check_integrity()


class TestIntegrityCrossCheck:
    def test_check_integrity_detects_corrupted_depth(self):
        overlay = Overlay(source_fanout=2)
        a = overlay.add_consumer(NodeSpec(latency=3, fanout=2))
        b = overlay.add_consumer(NodeSpec(latency=5, fanout=2))
        overlay.attach(a, overlay.source)
        overlay.attach(b, a)
        overlay.check_integrity()
        # Depth is read off the delay cell, so a lying delay is a lying
        # depth.
        overlay.store.delay[b.node_id] = 99
        assert overlay.depth(b) == 99
        with pytest.raises(TopologyError, match="diverged"):
            overlay.check_integrity()

    def test_check_integrity_detects_corrupted_root(self):
        overlay = Overlay(source_fanout=2)
        a = overlay.add_consumer(NodeSpec(latency=3, fanout=2))
        b = overlay.add_consumer(NodeSpec(latency=5, fanout=2))
        overlay.attach(a, overlay.source)
        overlay.store.root[a.node_id] = b.node_id
        with pytest.raises(TopologyError, match="diverged"):
            overlay.check_integrity()

    def test_foreign_node_falls_back_to_reference_walk(self):
        overlay = Overlay(source_fanout=2)
        other = Overlay(source_fanout=2)
        foreign = other.add_consumer(NodeSpec(latency=4, fanout=1))
        assert overlay.delay_at(foreign) == other.delay_at(foreign)
        assert overlay.fragment_root(foreign) is foreign

    def test_foreign_node_with_a_colliding_id_reads_its_own_chain(self):
        """A node of another overlay whose id is in use here is foreign
        all the same: the readers must not serve it the local node's
        chain facts."""
        a = Overlay(source_fanout=2)
        a.add_consumer(NodeSpec(latency=3, fanout=2), "p")
        q = a.add_consumer(NodeSpec(latency=3, fanout=2), "q")
        a.attach(q, a.source)
        b = Overlay(source_fanout=2)
        y = b.add_consumer(NodeSpec(latency=3, fanout=2), "y")
        z = b.add_consumer(NodeSpec(latency=1, fanout=2), "z")
        b.attach(z, y)
        assert z.node_id == q.node_id and z not in a
        assert a.delay_at(z) == a.walk_delay_at(z) == 2
        assert a.depth(z) == 1
        assert not a.is_rooted(z)
        assert a.fragment_root(z) is y
        assert not a.meets_latency(z)

    def test_rebuild_recovers_from_corruption(self):
        overlay = Overlay(source_fanout=2)
        a = overlay.add_consumer(NodeSpec(latency=3, fanout=2))
        overlay.attach(a, overlay.source)
        overlay.store.root[a.node_id] = a.node_id
        overlay.store.delay[a.node_id] = 42
        with pytest.raises(TopologyError, match="diverged"):
            overlay.check_integrity()
        overlay.chain_index.rebuild()
        overlay.check_integrity()
        assert overlay.is_rooted(a) and overlay.delay_at(a) == 1


class TestChainColumnCorruption:
    """Each chain column is audited: a lie in any one cell fails
    ``check_integrity()``, and ``rebuild()`` heals it."""

    @staticmethod
    def _overlay() -> Overlay:
        overlay = Overlay(source_fanout=2)
        a = overlay.add_consumer(NodeSpec(latency=6, fanout=2), "a")
        b = overlay.add_consumer(NodeSpec(latency=8, fanout=2), "b")
        overlay.attach(a, overlay.source)
        overlay.attach(b, a)
        overlay.check_integrity()
        return overlay

    @pytest.mark.parametrize("column", ["root", "delay"])
    def test_a_lying_cell_is_caught_and_healed(self, column):
        overlay = self._overlay()
        b = overlay.node(2)
        cells = getattr(overlay.store, column)
        # b sits rooted at delay 2: root id 0 + 1 names its parent, and
        # delay 3 is one hop too deep.
        i = b.node_id
        cells[i] += 1
        with pytest.raises(TopologyError, match="diverged"):
            overlay.check_integrity()
        overlay.chain_index.rebuild()
        overlay.check_integrity()
        assert overlay.delay_at(b) == overlay.walk_delay_at(b) == 2

    @pytest.mark.parametrize(
        "counter", ["parented", "rooted", "satisfied", "slack_sum"]
    )
    def test_a_lying_counter_is_caught_and_healed(self, counter):
        overlay = self._overlay()
        index = overlay.chain_index
        setattr(index, counter, getattr(index, counter) + 1)
        with pytest.raises(TopologyError, match="forest scan"):
            overlay.check_integrity()
        index.rebuild()
        overlay.check_integrity()

    @pytest.mark.parametrize("rule", RULES)
    def test_a_lying_unsettled_cell_is_caught_and_healed(self, rule):
        overlay = self._overlay()
        ALGORITHMS[rule](overlay, make_oracle("random", overlay, random.Random(0)))
        cells = overlay.store.unsettled
        cells[2] = 1 - cells[2]
        with pytest.raises(TopologyError, match="unsettled column diverged"):
            overlay.check_integrity()
        overlay.chain_index.rebuild()
        overlay.check_integrity()


class TestGoldenSeedGuard:
    """Seeded runs are bit-identical with and without the index."""

    ORACLES = (
        "random",
        "random-capacity",
        "random-delay-capacity",
        "random-delay",
    )

    @staticmethod
    def _run(algorithm: str, oracle: str):
        workload, _ = rand_workload(size=36, seed=5, source_fanout=3)
        config = SimulationConfig(
            algorithm=algorithm,
            oracle=oracle,
            seed=17,
            max_rounds=250,
            churn=ChurnConfig(),  # churn transitions included in the guard
        )
        return run_simulation(workload, config)

    @pytest.mark.parametrize("algorithm", ["greedy", "hybrid"])
    @pytest.mark.parametrize("oracle", ORACLES)
    def test_result_identical_with_and_without_index(
        self, algorithm, oracle, monkeypatch
    ):
        indexed = self._run(algorithm, oracle)
        with monkeypatch.context() as patched:
            force_walk_on_read(patched)
            walked = self._run(algorithm, oracle)
        # SimulationResult equality covers convergence round, final
        # quality, per-round satisfied series and reconfiguration counts.
        assert indexed == walked


class _Counting:
    """A column that counts the cells written into it."""

    writes = 0

    def __setitem__(self, key, value) -> None:
        self.writes += 1
        super().__setitem__(key, value)


class _CountingColumn(_Counting, bytearray):
    pass


class _CountingArray(_Counting, array):
    pass


class TestShiftWork:
    """A moved node costs exactly two column writes, its ``root`` and
    its ``delay`` cell, on either clock: a chain column mirrored back
    into the store fails here."""

    @staticmethod
    def _assert_two_writes_per_moved_node(sim: Simulation, monkeypatch) -> None:
        store = sim.overlay.store
        store.root = root = _CountingArray("l", store.root)
        store.delay = delay = _CountingArray("l", store.delay)
        shift = ChainIndex._shift_subtree
        shifts = []

        def counted(index, top, root_id, at):
            before = root.writes + delay.writes
            moved = shift(index, top, root_id, at)
            shifts.append((moved, root.writes + delay.writes - before))
            return moved

        monkeypatch.setattr(ChainIndex, "_shift_subtree", counted)
        shifted_before = sim.overlay.shifted_nodes
        sim.run()
        assert sim.overlay.shifted_nodes > shifted_before
        assert all(written == 2 * moved for moved, written in shifts)
        # Every mutator shift went through the counted walk.
        assert sum(moved for moved, _ in shifts) == (
            sim.overlay.shifted_nodes - shifted_before
        )
        sim.overlay.check_integrity()

    def test_a_churned_rounds_run(self, monkeypatch):
        sim = Simulation(
            make("Rand", size=200, seed=4),
            SimulationConfig(
                algorithm="hybrid",
                oracle="random-delay",
                seed=4,
                max_rounds=80,
                churn=ChurnConfig(),
                stop_at_convergence=False,
            ),
        )
        self._assert_two_writes_per_moved_node(sim, monkeypatch)

    def test_a_continuous_clock_run(self, monkeypatch):
        sim = Simulation(
            make("Rand", size=200, seed=4),
            SimulationConfig(
                algorithm="hybrid",
                oracle="random-delay",
                seed=4,
                max_rounds=400,
                time_model="continuous:geo-3region",
            ),
        )
        self._assert_two_writes_per_moved_node(sim, monkeypatch)


class TestRoundWork:
    """A round reads quality and settledness off the index: no forest
    scan and no predicate call, and the unsettled column is written
    once per shifted node and at most once per maintenance call."""

    @pytest.mark.parametrize("algorithm", ["greedy", "hybrid"])
    def test_a_paper_grid_cell_scans_nothing(self, algorithm, monkeypatch):
        sim = Simulation(
            make("Rand", size=120, seed=3),
            SimulationConfig(
                algorithm=algorithm, oracle="random", seed=3, max_rounds=8000
            ),
        )
        scans = []
        scan = convergence._forest_scan
        monkeypatch.setattr(
            convergence, "_forest_scan", lambda o: scans.append(o) or scan(o)
        )
        predicate = type(sim.algorithm).settled
        calls = []

        def counted(algorithm, node):
            calls.append(node)
            return predicate(algorithm, node)

        counted.level = predicate.level
        monkeypatch.setattr(type(sim.algorithm), "settled", counted)
        overlay = sim.overlay
        overlay.store.unsettled = column = _CountingColumn(overlay.store.unsettled)
        result = sim.run()
        assert result.converged
        assert scans == [] and calls == []
        maintained = result.phase_timings.get("maintain", {"calls": 0})["calls"]
        assert 0 < column.writes <= overlay.shifted_nodes + maintained
        overlay.check_integrity()  # where the scan and the predicate run
        assert scans and calls
