"""Sharded oracle directory: batched candidate sampling for N=100k.

Every other oracle realization pays per-query costs that scale with the
population: the omniscient oracles re-filter the whole online roster per
enquirer (O(N) per query, O(N²) per round while everyone is searching)
and the DHT directory re-registers every consumer every few rounds and
scans all records per query.  Both are fine at N=10^3 and hopeless at
N=10^5.  This module is the scale path:

* the candidate pool is split into **consistent-hash shards** over the
  existing :class:`repro.dht.chord.ChordRing` realization (one virtual
  directory peer per shard, owners resolved once and cached);
* each shard keeps a bounded **reservoir sample** (Vitter's Algorithm R)
  of its registration stream, so shard state is O(capacity) no matter
  how large the population grows;
* partner draws are **batched per round**: at round start each shard
  draws one batch from its reservoir (*one* RNG call per shard per
  round — replacing the per-node draws of every other realization), and
  every query that round is served by scanning the batches in a
  round-rotated shard order (home shard first, offset by the round
  number) from per-shard rotating cursors.  Because queries consume no
  RNG, a
  requeued query (the stale-referral hardening of
  :class:`~repro.core.protocol.ProtocolConfig`) reuses the round's batch
  instead of re-sampling the directory;
* occasional **cross-shard rebalance**: consistent hashing splits the
  ring unevenly, so every ``rebalance_interval`` rounds members migrate
  from over-full reservoirs to the emptiest shard (an explicit override
  map on top of the hash assignment).

Like the DHT directory, the answers are honest about information
quality: records carry the delay/free-fanout values observed when the
batch was drawn (refreshed at most every ``refresh_interval`` rounds),
so a returned candidate may no longer pass the filter — the protocol's
own re-validation during interactions absorbs this.
"""

from __future__ import annotations

import random
from typing import Dict, List, Optional, Set

from repro.core.errors import ConfigurationError
from repro.core.node import Node
from repro.core.tree import Overlay
from repro.dht.chord import ChordRing
from repro.oracles.base import Oracle

#: Filter modes, mirroring the four paper oracles (same vocabulary as
#: :data:`repro.oracles.distributed.DIRECTORY_FILTERS`).
SHARD_FILTERS = ("random", "capacity", "delay", "delay-capacity")


def autoscale_sizing(population: int) -> "tuple[int, int, int]":
    """Directory sizing ``(shards, reservoir_capacity, batch_size)`` for a
    population of ``population`` members.

    Sizing depends only on the population count, so seeded runs stay
    bit-reproducible.  Small populations get the compact 8×512×64 layout;
    past ~10k members the shard count grows linearly (one shard per
    ~1.25k members), reservoirs grow to cover the whole population, and
    batches grow to an eighth of a reservoir — keeping per-round serve
    capacity proportional to N instead of constant.
    """
    population = max(1, population)
    shards = max(8, population // 1280)
    reservoir_capacity = max(512, -(-population // shards))
    batch_size = max(64, reservoir_capacity // 8)
    return shards, reservoir_capacity, batch_size


class ShardRecord:
    """One member's registered facts, refreshed at batch-draw time."""

    __slots__ = ("node_id", "delay", "free_fanout", "refreshed_at")

    def __init__(self, node_id: int, delay: int, free_fanout: int, now: int) -> None:
        self.node_id = node_id
        self.delay = delay
        self.free_fanout = free_fanout
        self.refreshed_at = now


class ShardedDirectory:
    """Consistent-hash sharded, reservoir-sampled candidate directory."""

    def __init__(
        self,
        overlay: Overlay,
        rng: random.Random,
        shards: Optional[int] = None,
        reservoir_capacity: Optional[int] = None,
        batch_size: Optional[int] = None,
        refresh_interval: int = 2,
        rebalance_interval: int = 32,
    ) -> None:
        auto = autoscale_sizing(len(overlay.consumers))
        if shards is None:
            shards = auto[0]
        if reservoir_capacity is None:
            reservoir_capacity = auto[1]
        if batch_size is None:
            batch_size = auto[2]
        if shards < 1:
            raise ConfigurationError("shards must be >= 1")
        if reservoir_capacity < 1:
            raise ConfigurationError("reservoir_capacity must be >= 1")
        if batch_size < 1:
            raise ConfigurationError("batch_size must be >= 1")
        if refresh_interval < 1:
            raise ConfigurationError("refresh_interval must be >= 1")
        if rebalance_interval < 1:
            raise ConfigurationError("rebalance_interval must be >= 1")
        self.overlay = overlay
        self.rng = rng
        self.n_shards = shards
        self.reservoir_capacity = reservoir_capacity
        self.batch_size = batch_size
        self.refresh_interval = refresh_interval
        self.rebalance_interval = rebalance_interval
        #: The Chord substrate: one virtual directory peer per shard.
        self.ring = ChordRing()
        self._shard_index: Dict[str, int] = {}
        for index in range(shards):
            name = f"shard-{index}"
            self.ring.add_peer(name)
            self._shard_index[name] = index
        #: node_id -> hash-assigned shard (ring lookups cached: the ring
        #: membership is the fixed directory service population).
        self._owner_cache: Dict[int, int] = {}
        #: Rebalance reassignments layered over the hash assignment.
        self._overrides: Dict[int, int] = {}
        self._records: Dict[int, ShardRecord] = {}
        self._reservoirs: List[List[ShardRecord]] = [[] for _ in range(shards)]
        #: Per-shard registration-stream length (Algorithm R state).
        self._seen: List[int] = [0] * shards
        self._known_online: Set[int] = set()
        #: ``overlay.liveness_version`` as of the last membership sync.
        self._synced_liveness: Optional[int] = None
        self._batches: List[List[ShardRecord]] = [[] for _ in range(shards)]
        self._cursors: List[int] = [0] * shards
        #: Round counter driving the serve-order rotation (see ``serve``).
        self._round = 0
        #: Total members migrated by cross-shard rebalances.
        self.rebalanced = 0

    # ------------------------------------------------------------------

    def shard_of(self, node_id: int) -> int:
        """The shard serving this id (hash assignment plus overrides)."""
        override = self._overrides.get(node_id)
        if override is not None:
            return override
        cached = self._owner_cache.get(node_id)
        if cached is None:
            cached = self._shard_index[self.ring.owner_of(node_id).name]
            self._owner_cache[node_id] = cached
        return cached

    def _register(self, node: Node, now: int) -> None:
        """Fold one (re)joining member into its shard's reservoir
        (Algorithm R over the shard's registration stream)."""
        overlay = self.overlay
        record = ShardRecord(
            node.node_id, overlay.delay_at(node), node.free_fanout, now
        )
        self._records[node.node_id] = record
        shard = self.shard_of(node.node_id)
        reservoir = self._reservoirs[shard]
        self._seen[shard] += 1
        if len(reservoir) < self.reservoir_capacity:
            reservoir.append(record)
        else:
            slot = self.rng.randrange(self._seen[shard])
            if slot < self.reservoir_capacity:
                reservoir[slot] = record

    def on_round(self, now: int) -> None:
        """Round upkeep: membership sync, rebalance, one draw per shard."""
        self._round = now
        membership_changed = self._sync_membership(now)
        if now % self.rebalance_interval == 0:
            self._rebalance()
        self._draw_batches(now, prune=membership_changed)

    def _sync_membership(self, now: int) -> bool:
        """Register who came online and forget who left since the last
        round; returns whether anybody did.  A round in which the
        overlay's liveness counter stood still has nobody to diff."""
        liveness = self.overlay.liveness_version
        if liveness == self._synced_liveness:
            return False
        self._synced_liveness = liveness
        online_now = {n.node_id for n in self.overlay._online}
        joined = online_now - self._known_online
        departed = self._known_online - online_now
        self._known_online = online_now
        for node_id in departed:
            self._records.pop(node_id, None)  # reservoirs prune lazily
        if joined:
            overlay_nodes = self.overlay._nodes
            for node_id in sorted(joined):
                self._register(overlay_nodes[node_id], now)
        return bool(joined or departed)

    def _draw_batches(self, now: int, prune: bool) -> None:
        """One RNG draw per shard: this round's candidate batches.

        Dead reservoir entries (departed or re-registered members) are
        pruned here when ``prune`` says the records changed this round —
        one O(capacity) sweep per shard, after the rebalance as ever —
        and drawn records older than ``refresh_interval`` are refreshed
        from live overlay state, bounding the staleness of every
        *served* candidate.
        """
        overlay = self.overlay
        records = self._records
        refresh_before = now - self.refresh_interval
        for shard in range(self.n_shards):
            reservoir = self._reservoirs[shard]
            if prune:
                live = [r for r in reservoir if records.get(r.node_id) is r]
                if len(live) != len(reservoir):
                    self._reservoirs[shard] = reservoir = live
            size = min(self.batch_size, len(reservoir))
            batch = self.rng.sample(reservoir, size) if size else []
            for record in batch:
                if record.refreshed_at <= refresh_before:
                    node = overlay._nodes.get(record.node_id)
                    if node is not None:
                        record.delay = overlay.delay_at(node)
                        record.free_fanout = node.free_fanout
                        record.refreshed_at = now
            self._batches[shard] = batch
            self._cursors[shard] = 0

    def _rebalance(self) -> None:
        """Migrate members from over-full reservoirs to the emptiest shard.

        Consistent hashing over a handful of shard peers is lumpy; the
        override map evens the candidate pools out so every home shard
        serves batches of comparable quality.  Deterministic (no RNG):
        surplus members move tail-first to the currently smallest shard.
        """
        sizes = [len(r) for r in self._reservoirs]
        total = sum(sizes)
        if total == 0:
            return
        mean = total / self.n_shards
        # Tolerate one batch of skew before migrating.
        slack = max(1, self.batch_size // 2)
        for shard in range(self.n_shards):
            reservoir = self._reservoirs[shard]
            while len(reservoir) > mean + slack:
                target = min(range(self.n_shards), key=lambda s: len(self._reservoirs[s]))
                if target == shard or len(self._reservoirs[target]) + 1 > mean + slack:
                    break
                record = reservoir.pop()
                self._overrides[record.node_id] = target
                self._reservoirs[target].append(record)
                self.rebalanced += 1

    # ------------------------------------------------------------------

    def serve(self, enquirer: Node, passes) -> Optional[ShardRecord]:
        """First record accepted by ``passes``, scanning shards in a
        round-rotated order starting near the enquirer's home shard.

        The scan starts at ``(home + round) % n_shards`` and wraps over
        every shard, reading each shard's batch from its own rotating
        cursor.  The rotation is what makes small populations safe: with
        few members per shard an enquirer's home batch can permanently
        hold only itself or its own descendants (a livelock — every
        query forever returns the same useless answer), but rotating the
        start shard guarantees every enquirer fronts every shard within
        ``n_shards`` rounds.  Deterministic and RNG-free, like the
        cursor scheme it extends; at N=100k scale the home batch almost
        always serves the answer on the first probe, so the extra shards
        are rarely touched."""
        home = self.shard_of(enquirer.node_id)
        n_shards = self.n_shards
        enquirer_id = enquirer.node_id
        start = (home + self._round) % n_shards
        for step in range(n_shards):
            shard = start + step
            if shard >= n_shards:
                shard -= n_shards
            batch = self._batches[shard]
            size = len(batch)
            if size == 0:
                continue
            cursor = self._cursors[shard]
            for offset in range(size):
                index = cursor + offset
                if index >= size:
                    index -= size
                record = batch[index]
                if record.node_id == enquirer_id:
                    continue
                if passes(record):
                    self._cursors[shard] = (index + 1) % size
                    return record
        return None

    def batch_sizes(self) -> List[int]:
        """Current per-shard batch sizes (observability/tests)."""
        return [len(batch) for batch in self._batches]

    def reservoir_sizes(self) -> List[int]:
        """Current per-shard reservoir sizes (observability/tests)."""
        return [len(reservoir) for reservoir in self._reservoirs]


class ShardedOracle(Oracle):
    """The paper oracles served from a :class:`ShardedDirectory`.

    ``filter_mode`` mirrors the four paper oracles exactly like the DHT
    directory realization; the filter applies to the *batched* record
    values (bounded-staleness), with a final liveness check against the
    overlay — stale answers count in :attr:`stale_hits`.
    """

    realization = "sharded"

    def __init__(
        self,
        overlay: Overlay,
        rng: random.Random,
        filter_mode: str = "delay",
        shards: Optional[int] = None,
        reservoir_capacity: Optional[int] = None,
        batch_size: Optional[int] = None,
        refresh_interval: int = 2,
        rebalance_interval: int = 32,
    ) -> None:
        if filter_mode not in SHARD_FILTERS:
            raise ConfigurationError(
                f"unknown shard filter {filter_mode!r}; choose from {SHARD_FILTERS}"
            )
        super().__init__(overlay, rng)
        self.filter_mode = filter_mode
        self.name = f"sharded-{filter_mode}"
        self.directory = ShardedDirectory(
            overlay,
            rng,
            shards=shards,
            reservoir_capacity=reservoir_capacity,
            batch_size=batch_size,
            refresh_interval=refresh_interval,
            rebalance_interval=rebalance_interval,
        )
        #: Samples whose candidate was gone by query time.
        self.stale_hits = 0

    # ------------------------------------------------------------------

    def on_round(self, now: int) -> None:
        self.directory.on_round(now)

    def _record_passes(self, enquirer: Node, record: ShardRecord) -> bool:
        if self.filter_mode in ("capacity", "delay-capacity"):
            if record.free_fanout <= 0:
                return False
        if self.filter_mode in ("delay", "delay-capacity"):
            if record.delay >= enquirer.latency:
                return False
        return True

    def sample(self, enquirer: Node) -> Optional[Node]:
        record = self.directory.serve(
            enquirer, lambda r: self._record_passes(enquirer, r)
        )
        if record is None:
            self.misses += 1
            self.probe.oracle_miss(enquirer.node_id, self.name)
            return None
        node = self.overlay._nodes.get(record.node_id)
        if node is None or not node.online:
            self.stale_hits += 1
            self.misses += 1
            self.probe.oracle_miss(enquirer.node_id, self.name)
            return None
        self.hits += 1
        if self.probe.enabled:
            self.probe.oracle_query(
                enquirer.node_id,
                self.name,
                len(
                    self.directory._batches[
                        self.directory.shard_of(enquirer.node_id)
                    ]
                ),
                node.node_id,
            )
        return node

    def admits(self, enquirer: Node, candidate: Node) -> bool:
        """This oracle's filter on *live* overlay values (for fault
        decorators that bypass the batched records)."""
        if candidate is enquirer:
            return False
        if self.filter_mode in ("capacity", "delay-capacity"):
            if candidate.free_fanout <= 0:
                return False
        if self.filter_mode in ("delay", "delay-capacity"):
            if self.overlay.delay_at(candidate) >= enquirer.latency:
                return False
        return True

    def _admits(self, enquirer: Node, candidate: Node) -> bool:
        return True  # unused: sampling is batch-based
