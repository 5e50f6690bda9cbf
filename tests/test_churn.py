"""Regression tests for :class:`repro.sim.churn.ChurnProcess`.

The broader churn behavior (stationary fraction, orphaning, rejoin
state) is covered in ``tests/test_sim.py``; this module pins the chain's
structure on a :class:`~repro.faults.injector.Members` view:
``ChurnProcess.step`` visits a fixed snapshot of the members, so the
take-downs and bring-ups it makes mid-loop can never skip or
double-visit a peer, and it draws exactly as the per-overlay loop it
replaced did.
"""

import random

from repro.core.tree import Overlay
from repro.faults.injector import Members
from repro.sim.churn import ChurnConfig, ChurnProcess

from tests.conftest import spec


class _CountingRandom(random.Random):
    """Random that counts how many membership draws were made."""

    def __init__(self, seed):
        super().__init__(seed)
        self.draws = 0

    def random(self):
        self.draws += 1
        return super().random()


def _overlay(n):
    overlay = Overlay(source_fanout=3)
    for i in range(n):
        overlay.add_consumer(spec(3, 2), f"n{i}")
    return overlay


def _process(overlay, config, rng):
    return ChurnProcess(Members.of_overlay(overlay), config, rng)


class _ChangeLog:
    """Records which node ids leave and rejoin, per step."""

    def __init__(self, overlay):
        self.left, self.rejoined = [], []
        go_offline, go_online = overlay.go_offline, overlay.go_online

        def offline(node, *args, **kwargs):
            self.left.append(node.node_id)
            return go_offline(node, *args, **kwargs)

        def online(node):
            self.rejoined.append(node.node_id)
            return go_online(node)

        overlay.go_offline, overlay.go_online = offline, online


class TestChurnSnapshot:
    def test_every_peer_is_visited_exactly_once(self):
        """One membership draw per member per step — no more, no less.

        With leave probability 1.0 and rejoin probability 1.0 every
        visited peer flips state, which is the worst case for a loop
        that iterates a live roster while mutating it: any skip or
        double-visit would show up either in the draw count or as a peer
        that flipped twice (ending where it started).
        """
        overlay = _overlay(40)
        for node in list(overlay.consumers)[:13]:
            overlay.go_offline(node)
        online_before = {n.node_id for n in overlay.consumers if n.online}
        rng = _CountingRandom(7)
        process = _process(
            overlay,
            ChurnConfig(leave_probability=1.0, rejoin_probability=1.0),
            rng,
        )
        log = _ChangeLog(overlay)
        assert process.step(0) == (27, 13)
        assert rng.draws == 40
        left, rejoined = set(log.left), set(log.rejoined)
        assert left == online_before
        assert rejoined == {n.node_id for n in overlay.consumers} - online_before
        assert not (left & rejoined)  # nobody flipped twice in one step
        # And the overlay agrees: everyone ended in the opposite state.
        for node in overlay.consumers:
            assert node.online == (node.node_id in rejoined)

    def test_snapshot_is_independent_of_roster_mutation(self):
        """Peers taken offline mid-step by the loop itself stay visited
        from the snapshot, not re-observed in their new state."""
        overlay = _overlay(10)
        rng = _CountingRandom(3)
        process = _process(
            overlay,
            ChurnConfig(leave_probability=1.0, rejoin_probability=0.0),
            rng,
        )
        # All 10 left; had the loop re-observed freshly-offline peers it
        # would have drawn rejoin probabilities for them as well.
        assert process.step(0) == (10, 0)
        assert rng.draws == 10
        assert process.total_departures == 10

    def test_start_round_gate_draws_nothing(self):
        overlay = _overlay(5)
        rng = _CountingRandom(3)
        process = _process(overlay, ChurnConfig(start_round=10), rng)
        assert process.step(9) == (0, 0)
        assert rng.draws == 0


def _per_overlay_step(overlay, config, rng):
    """The chain as it ran on one overlay before it moved onto
    :class:`Members`: the reference the draw-for-draw test holds the
    new loop to."""
    left, rejoined = [], []
    for node in list(overlay.consumers):
        if node.online:
            if rng.random() < config.leave_probability:
                overlay.go_offline(node)
                left.append(node.node_id)
        elif rng.random() < config.rejoin_probability:
            overlay.go_online(node)
            rejoined.append(node.node_id)
    return left, rejoined


def _linked(n, seed):
    """An overlay of ``n`` consumers with some parent links, so leaves
    orphan children."""
    overlay = _overlay(n)
    links = random.Random(seed)
    nodes = overlay.consumers
    for child in nodes[1:]:
        parent = links.choice([overlay.source] + nodes[: child.node_id - 1])
        if parent.free_fanout > 0:
            overlay.attach(child, parent)
    return overlay


def test_chain_draws_as_the_per_overlay_loop_did():
    """N=300, p = (0.5, 0.5), 20 steps: the same members leave and
    rejoin each step, and the stream ends in the same state."""
    config = ChurnConfig(leave_probability=0.5, rejoin_probability=0.5)
    reference, reference_rng = _linked(300, 1), random.Random(9)
    overlay, rng = _linked(300, 1), random.Random(9)
    process = _process(overlay, config, rng)
    log = _ChangeLog(overlay)
    for now in range(1, 21):
        left, rejoined = _per_overlay_step(reference, config, reference_rng)
        log.left.clear(), log.rejoined.clear()
        assert process.step(now) == (len(left), len(rejoined))
        assert (log.left, log.rejoined) == (left, rejoined)
    assert process.total_departures and process.total_rejoins
    assert rng.getstate() == reference_rng.getstate()
    assert overlay.snapshot() == reference.snapshot()
