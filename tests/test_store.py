"""The columnar node store: dense ids, views, pickling, verification.

Four layers:

1. Allocator unit tests — dense id assignment, lowest-freed-id-first
   reuse, and the release guards (only an offline, fully unlinked
   consumer may give its id back).
2. A hypothesis property test over randomized churn/removal/rejoin
   sequences: freed ids are reused, a rejoin burst never aliases a live
   consumer, and the store's column/view cross-check stays clean after
   every step.
3. View semantics — a node's plain child list follows every link
   change, and node identity (not equality) governs membership.
4. Pickle round-trips — the columnar overlay is fork-safe for
   :mod:`repro.par`: a clone is structurally identical and fully
   detached from the original's columns.
"""

from __future__ import annotations

import pickle
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.constraints import NodeSpec
from repro.core.errors import OfflineNodeError, TopologyError, UnknownNodeError
from repro.core.node import SOURCE_ID
from repro.core.store import ColumnarState
from repro.core.tree import Overlay
from repro.sim.churn import ChurnConfig
from repro.sim.runner import Simulation, SimulationConfig
from repro.workloads.random_workload import rand_workload


def columnar_overlay(source_fanout: int = 3) -> Overlay:
    return Overlay(source_fanout=source_fanout)


SPEC = NodeSpec(latency=5, fanout=2)


class TestAllocator:
    def test_ids_are_dense_from_zero(self):
        overlay = columnar_overlay()
        assert overlay.source.node_id == 0
        ids = [overlay.add_consumer(SPEC).node_id for _ in range(5)]
        assert ids == [1, 2, 3, 4, 5]
        store = overlay.store
        assert len(store.root) == len(store.delay) == len(store.unsettled) == 6

    def test_lowest_freed_id_is_reused_first(self):
        overlay = columnar_overlay()
        nodes = [overlay.add_consumer(SPEC) for _ in range(5)]
        for node in (nodes[3], nodes[1]):
            overlay.go_offline(node)
            overlay.remove_consumer(node)
        assert overlay.add_consumer(SPEC).node_id == nodes[1].node_id
        assert overlay.add_consumer(SPEC).node_id == nodes[3].node_id
        # The table never grew: freed slots were recycled in place.
        assert len(overlay.store.root) == len(overlay.store.delay) == 6

    def test_release_guards(self):
        overlay = columnar_overlay()
        store = overlay.store
        node = overlay.add_consumer(SPEC)
        with pytest.raises(TopologyError):
            store.release(node.node_id)  # still online
        # Force an offline-but-linked state (unreachable through the
        # Overlay API, which always disconnects before removal).
        linked = overlay.add_consumer(SPEC)
        linked.online = False
        linked.parent = overlay.source
        with pytest.raises(TopologyError):
            store.release(linked.node_id)
        linked.parent = None
        linked.children.append(node)
        with pytest.raises(TopologyError):
            store.release(linked.node_id)

    def test_remove_consumer_guards(self):
        overlay = columnar_overlay()
        node = overlay.add_consumer(SPEC)
        with pytest.raises(OfflineNodeError):
            overlay.remove_consumer(node)  # still online
        with pytest.raises(TopologyError):
            overlay.remove_consumer(overlay.source)
        foreign = Overlay(source_fanout=1).add_consumer(SPEC)
        with pytest.raises(UnknownNodeError):
            overlay.remove_consumer(foreign)
        overlay.go_offline(node)
        overlay.remove_consumer(node)
        with pytest.raises(TopologyError):
            overlay.store.release(node.node_id)  # already free
        with pytest.raises(UnknownNodeError):
            overlay.remove_consumer(node)  # no longer a member

    def test_double_remove_id_not_aliased_by_rejoin(self):
        overlay = columnar_overlay()
        victim = overlay.add_consumer(SPEC)
        keeper = overlay.add_consumer(SPEC)
        overlay.go_offline(victim)
        overlay.remove_consumer(victim)
        replacement = overlay.add_consumer(SPEC)
        assert replacement.node_id == victim.node_id
        assert replacement is not victim
        # The keeper kept its identity and id through the recycle.
        assert overlay.node(keeper.node_id) is keeper
        overlay.check_integrity()


class TestAllocatorProperty:
    """Randomized churn/remove/rejoin sequences never alias live ids."""

    @given(
        seed=st.integers(0, 10_000),
        steps=st.integers(10, 60),
    )
    @settings(max_examples=60, deadline=None)
    def test_freed_ids_reused_and_never_alias_live(self, seed, steps):
        rng = random.Random(seed)
        overlay = columnar_overlay(source_fanout=rng.randint(1, 4))
        removed_ids = []
        for _ in range(steps):
            op = rng.choice(("add", "add", "churn", "remove", "rejoin-burst"))
            consumers = overlay.consumers
            if op == "add" or not consumers:
                overlay.add_consumer(
                    NodeSpec(
                        latency=rng.randint(1, 10), fanout=rng.randint(1, 4)
                    )
                )
            elif op == "churn":
                node = rng.choice(consumers)
                if node.online:
                    overlay.go_offline(node)
                else:
                    overlay.go_online(node)
            elif op == "remove":
                node = rng.choice(consumers)
                if node.online:
                    overlay.go_offline(node)  # disconnects fully
                removed_ids.append(node.node_id)
                overlay.remove_consumer(node)
            else:  # rejoin-burst: a batch of joins right after removals
                before_free = sorted(overlay.store.free)
                joined = [
                    overlay.add_consumer(
                        NodeSpec(latency=rng.randint(1, 10), fanout=1)
                    )
                    for _ in range(rng.randint(1, 4))
                ]
                # Freed ids are reused, lowest first, before any growth.
                reused = [n.node_id for n in joined[: len(before_free)]]
                assert reused == before_free[: len(reused)]
            # No alias: every live consumer resolves to exactly itself.
            live = overlay.consumers
            assert len({n.node_id for n in live}) == len(live)
            for node in live:
                assert overlay.node(node.node_id) is node
            # Ids on the free list belong to no live view.
            for free_id in overlay.store.free:
                assert overlay.store.nodes[free_id] is None
            overlay.check_integrity()


class TestChildList:
    def test_child_list_tracks_links(self):
        overlay = columnar_overlay()
        parent = overlay.add_consumer(NodeSpec(latency=5, fanout=3))
        overlay.attach(parent, overlay.source)
        kids = [overlay.add_consumer(SPEC) for _ in range(3)]
        for kid in kids:
            overlay.attach(kid, parent)
        assert parent.children == kids
        assert parent.free_fanout == 0
        overlay.detach(kids[1])
        assert parent.children == [kids[0], kids[2]]
        assert parent.free_fanout == 1
        assert kids[1] not in parent.children
        assert kids[0] in parent.children

    def test_membership_is_identity_based(self):
        overlay = columnar_overlay()
        parent = overlay.add_consumer(NodeSpec(latency=5, fanout=3))
        overlay.attach(parent, overlay.source)
        kid = overlay.add_consumer(SPEC)
        overlay.attach(kid, parent)
        # A same-spec node is not "in" the children: no __eq__ aliasing.
        stranger = overlay.add_consumer(SPEC)
        assert kid in parent.children
        assert stranger not in parent.children


class TestColumnVerification:
    def test_the_store_holds_only_the_chain_columns(self):
        """``root``, ``delay`` and ``unsettled`` besides the view table
        and the free list: node facts live in the node slots only."""
        assert set(vars(ColumnarState())) == {
            "root", "delay", "unsettled", "nodes", "free"
        }

    def test_verify_detects_a_diverged_view_table(self):
        overlay = columnar_overlay()
        node = overlay.add_consumer(SPEC)
        overlay.store.nodes[node.node_id] = None  # corrupt
        with pytest.raises(TopologyError, match="view table"):
            overlay.check_integrity()

    def test_standalone_state_rejects_bad_release(self):
        state = ColumnarState()
        node = state.allocate(SPEC)
        with pytest.raises(TopologyError):
            state.release(node.node_id)  # online


class TestPickleRoundTrip:
    def _built_overlay(self) -> Overlay:
        workload, _ = rand_workload(size=40, seed=11, source_fanout=3)
        config = SimulationConfig(
            algorithm="hybrid",
            oracle="random-delay",
            seed=4,
            max_rounds=40,
            churn=ChurnConfig(),
            stop_at_convergence=False,
        )
        simulation = Simulation(workload, config)
        simulation.run()
        overlay = simulation.overlay
        assert overlay.store is not None  # columnar is the default
        return overlay

    def test_clone_is_structurally_identical(self):
        overlay = self._built_overlay()
        clone = pickle.loads(pickle.dumps(overlay))
        assert clone.snapshot() == overlay.snapshot()
        assert [n.online for n in clone] == [n.online for n in overlay]
        assert list(clone.store.root) == list(overlay.store.root)
        assert list(clone.store.delay) == list(overlay.store.delay)
        assert bytes(clone.store.unsettled) == bytes(overlay.store.unsettled)
        assert clone.store.free == overlay.store.free
        clone.check_integrity()

    def test_clone_is_detached_from_original_columns(self):
        overlay = self._built_overlay()
        clone = pickle.loads(pickle.dumps(overlay))
        victim = next(n for n in clone.consumers if n.parent is not None)
        clone.detach(victim)
        assert overlay.snapshot() != clone.snapshot()
        overlay.check_integrity()
        clone.check_integrity()

    def test_is_source_holds_through_id_reuse_and_pickling(self):
        overlay = columnar_overlay()
        nodes = [overlay.add_consumer(SPEC) for _ in range(4)]
        overlay.go_offline(nodes[1])
        overlay.remove_consumer(nodes[1])
        reused = overlay.add_consumer(SPEC)
        assert reused.node_id == nodes[1].node_id
        clone = pickle.loads(pickle.dumps(overlay))
        for view in (overlay, clone):
            assert [n.is_source for n in view] == [
                n.node_id == SOURCE_ID for n in view
            ]
            assert view.source.is_source
        assert not clone.node(reused.node_id).is_source

    def test_views_rebind_to_cloned_store(self):
        overlay = self._built_overlay()
        clone = pickle.loads(pickle.dumps(overlay))
        for node in clone:
            assert clone.store.nodes[node.node_id] is node
            # A clone column written is what the clone reads for the node.
            clone.store.delay[node.node_id] = 1000 + node.node_id
            assert clone.delay_at(node) == 1000 + node.node_id
        assert 1000 not in list(overlay.store.delay)
