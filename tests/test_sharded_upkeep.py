"""The sharded directory's feed-driven upkeep against a roster re-diff.

:class:`~repro.oracles.sharded.ShardedDirectory` pays per membership
change: its sync reads only the overlay's liveness feed, a departure marks its record dead, a round prunes only
if a record died, drawn records refresh from the store columns, owners
come from :meth:`ChordRing.owner <repro.dht.chord.ChordRing.owner>`
and serving compares two bounds instead of calling a filter.

:class:`RosterDiffDirectory` is the same directory upkept the plain
way, every round: diff the whole online roster, re-filter every
reservoir by ``_records`` identity, draw with ``Random.sample``,
refresh through ``Overlay.delay_at``, resolve owners by Chord routing
and serve through a filter callback.  Both run over one overlay, under
churn, ``remove_consumer`` -> ``add_consumer`` id recycling, link
changes and the stabilization harness's roster rewrite, with small
reservoirs that evict (Algorithm R) and a rebalance every four rounds
that moves dead records.  Every round they must hold the same records,
reservoirs (identity and order), batches, cursors and generator state,
and serve the same answers.
"""

from __future__ import annotations

import random
from collections import Counter

import pytest

from repro.core.constraints import NodeSpec
from repro.core.tree import Overlay
from repro.dht.hashspace import hash_key
from repro.oracles.sharded import SHARD_FILTERS, ShardedDirectory, ShardedOracle
from repro.stabilize.harness import sanitize

SIZING = dict(shards=4, reservoir_capacity=18, batch_size=4, rebalance_interval=4)
ROUNDS = 80


class RosterDiffDirectory(ShardedDirectory):
    """The reference upkeep: everything re-derived every round."""

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self._known_online = set()

    def shard_of(self, node_id: int) -> int:
        override = self._overrides.get(node_id)
        if override is not None:
            return override
        ring = self.ring
        return self._shard_index[
            ring.find_successor(hash_key(node_id, ring.bits))[0].name
        ]

    def on_round(self, now: int) -> None:
        overlay = self.overlay
        self._round = now
        online_now = {n.node_id for n in overlay._online}
        joined = online_now - self._known_online
        departed = self._known_online - online_now
        self._known_online = online_now
        for node_id in departed:
            self._records.pop(node_id, None)
        for node_id in sorted(joined):
            self._register(overlay._nodes[node_id], now)
        if now % self.rebalance_interval == 0:
            self._rebalance()
        records = self._records
        self._reservoirs = [
            [r for r in reservoir if records.get(r.node_id) is r]
            for reservoir in self._reservoirs
        ]
        for shard, reservoir in enumerate(self._reservoirs):
            size = min(self.batch_size, len(reservoir))
            batch = self.rng.sample(reservoir, size) if size else []
            for record in batch:
                if record.refreshed_at <= now - self.refresh_interval:
                    node = overlay._nodes.get(record.node_id)
                    if node is not None:
                        record.delay = overlay.delay_at(node)
                        record.free_fanout = node.free_fanout
                        record.refreshed_at = now
            self._batches[shard] = batch
            self._cursors[shard] = 0
        self._liveness.clear()  # unread: only keeps the feed from growing

    def serve_by(self, enquirer, passes):
        """The callback scan, shard by shard from each cursor."""
        n_shards = self.n_shards
        start = (self.shard_of(enquirer.node_id) + self._round) % n_shards
        for step in range(n_shards):
            shard = (start + step) % n_shards
            batch = self._batches[shard]
            size = len(batch)
            for offset in range(size):
                index = (self._cursors[shard] + offset) % size
                record = batch[index]
                if record.node_id == enquirer.node_id:
                    continue
                if passes(record):
                    self._cursors[shard] = (index + 1) % size
                    return record
        return None


def passes(filter_mode: str, enquirer, record) -> bool:
    """The four filters as the callback form states them."""
    if filter_mode in ("capacity", "delay-capacity") and record.free_fanout <= 0:
        return False
    if filter_mode in ("delay", "delay-capacity") and record.delay >= enquirer.latency:
        return False
    return True


def reference_sample(directory, filter_mode, enquirer):
    record = directory.serve_by(enquirer, lambda r: passes(filter_mode, enquirer, r))
    if record is None:
        return None
    node = directory.overlay._nodes.get(record.node_id)
    return node if node is not None and node.online else None


def facts(record):
    return (record.node_id, record.delay, record.free_fanout, record.refreshed_at)


def state(directory):
    """Everything the two upkeeps must agree on, by value."""
    return (
        {node_id: facts(r) for node_id, r in directory._records.items()},
        [[facts(r) for r in reservoir] for reservoir in directory._reservoirs],
        [[facts(r) for r in batch] for batch in directory._batches],
        list(directory._cursors),
        list(directory._seen),
        dict(directory._overrides),
        directory.rebalanced,
        directory.rng.getstate(),
    )


def assert_identities(directory) -> None:
    """Every reservoir entry is its member's registered record, and
    every batch entry is an entry of its shard's reservoir."""
    records = directory._records
    for shard, reservoir in enumerate(directory._reservoirs):
        assert all(records.get(r.node_id) is r for r in reservoir)
        entries = {id(r) for r in reservoir}
        assert all(id(r) in entries for r in directory._batches[shard])


def build(seed: int) -> Overlay:
    overlay = Overlay(source_fanout=5)
    draw = random.Random(seed)
    for _ in range(72):
        overlay.add_consumer(NodeSpec(latency=draw.randint(2, 6), fanout=draw.randint(1, 3)))
    return overlay


class Mutator:
    """Seeded membership and link changes between rounds."""

    def __init__(self, overlay: Overlay, seed: int) -> None:
        self.overlay = overlay
        self.rng = random.Random(seed)
        self.seen = Counter()

    def spec(self) -> NodeSpec:
        return NodeSpec(latency=self.rng.randint(2, 6), fanout=self.rng.randint(1, 3))

    def round(self, now: int, directory: ShardedDirectory) -> None:
        overlay, rng = self.overlay, self.rng
        if (now + 1) % directory.rebalance_interval == 0:
            self.kill_a_tail(directory)
        if now % 9 == 5:
            self.roster_rewrite()
        for _ in range(rng.randint(0, 7)):
            online = overlay.online_consumers
            offline = [n for n in overlay.consumers if not n.online]
            roll = rng.random()
            if roll < 0.22 and len(online) > 8:
                overlay.go_offline(rng.choice(online), graceful=rng.random() < 0.5)
                self.seen["offline"] += 1
            elif roll < 0.38 and offline:
                overlay.go_online(rng.choice(offline))
                self.seen["online"] += 1
            elif roll < 0.48 and offline:
                victim = rng.choice(offline)
                overlay.remove_consumer(victim)
                self.seen["remove"] += 1
                if rng.random() < 0.6:
                    heir = overlay.add_consumer(self.spec())
                    self.seen["recycled"] += heir.node_id == victim.node_id
            elif roll < 0.55:
                overlay.add_consumer(self.spec())
                self.seen["add"] += 1
            elif roll < 0.85:
                self.attach(online)
            else:
                parented = [n for n in online if n.parent is not None]
                if parented:
                    overlay.detach(rng.choice(parented))
                    self.seen["detach"] += 1

    def kill_a_tail(self, directory: ShardedDirectory) -> None:
        """Before a rebalance round, take offline the member whose
        record ends the fullest reservoir: the next rebalance migrates
        tail-first, so it moves that record after the sync killed it."""
        fullest = max(directory._reservoirs, key=len)
        if fullest and fullest[-1].live:
            node = self.overlay._nodes[fullest[-1].node_id]
            if node.online:
                self.overlay.go_offline(node)
                self.seen["offline"] += 1

    def attach(self, online) -> None:
        overlay, rng = self.overlay, self.rng
        orphans = [n for n in online if n.parent is None]
        if not orphans:
            return
        child = rng.choice(orphans)
        hosts = [
            n
            for n in [overlay.source] + online
            if n is not child
            and n.free_fanout > 0
            and overlay.store.root[n.node_id] != child.node_id
        ]
        if hosts:
            overlay.attach(child, rng.choice(hosts))
            self.seen["attach"] += 1

    def roster_rewrite(self) -> None:
        """Flip liveness bits behind the roster's back, then let the
        harness's sanitize pass rebuild the roster from them."""
        overlay, rng = self.overlay, self.rng
        for node in rng.sample(overlay.consumers, 3):
            node.online = not node.online
        assert sanitize(overlay).roster_fixes == 1
        self.seen["rewrite"] += 1


@pytest.mark.parametrize("filter_mode", SHARD_FILTERS)
@pytest.mark.parametrize("seed", range(3))
def test_feed_upkeep_matches_the_roster_rediff(filter_mode, seed):
    overlay = build(seed)
    oracle = ShardedOracle(overlay, random.Random(seed), filter_mode=filter_mode, **SIZING)
    directory = oracle.directory
    reference = RosterDiffDirectory(overlay, random.Random(seed), **SIZING)
    mutator = Mutator(overlay, seed + 100)
    queries = random.Random(seed + 200)

    # Coverage the N=36 ledger rows never reach: evictions, and a
    # rebalance that moves a record its member's departure killed.
    dead_moved = []
    rebalance = directory._rebalance

    def watched_rebalance():
        where = {
            id(r): shard
            for shard, reservoir in enumerate(directory._reservoirs)
            for r in reservoir
            if not r.live
        }
        rebalance()
        dead_moved.extend(
            r
            for shard, reservoir in enumerate(directory._reservoirs)
            for r in reservoir
            if not r.live and where[id(r)] != shard
        )

    directory._rebalance = watched_rebalance

    def ask(count: int) -> None:
        online = overlay.online_consumers
        for _ in range(count):
            enquirer = queries.choice(online)
            assert oracle.sample(enquirer) is reference_sample(
                reference, filter_mode, enquirer
            )
            assert directory._cursors == reference._cursors

    for now in range(ROUNDS):
        directory.on_round(now)
        reference.on_round(now)
        assert not directory._liveness
        assert state(directory) == state(reference), now
        assert_identities(directory)
        assert_identities(reference)
        ask(6)
        mutator.round(now, directory)
        ask(6)  # answers from records the mutations made stale
        overlay.check_integrity()

    assert sum(directory._seen) > sum(directory.reservoir_sizes())  # evictions
    assert dead_moved, "no rebalance moved a dead record"
    for event in ("offline", "online", "remove", "recycled", "add", "rewrite"):
        assert mutator.seen[event], event
