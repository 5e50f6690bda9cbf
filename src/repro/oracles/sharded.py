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
import sys
from itertools import chain
from operator import attrgetter
from typing import Dict, List, Optional

from repro.core.errors import ConfigurationError
from repro.core.node import Node
from repro.core.tree import Overlay
from repro.dht.chord import ChordRing
from repro.oracles.base import Oracle
from repro.sim.rng import sample

#: Filter modes, mirroring the four paper oracles (same vocabulary as
#: :data:`repro.oracles.distributed.DIRECTORY_FILTERS`).
SHARD_FILTERS = ("random", "capacity", "delay", "delay-capacity")

#: A :meth:`ShardedDirectory.serve` bound no record value reaches.
NO_BOUND = sys.maxsize


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
    """One member's registered facts, refreshed at batch-draw time.

    ``live`` turns false once, when the member's departure drops the
    record from the directory; the next prune sweeps it out of its
    reservoir."""

    __slots__ = ("node_id", "delay", "free_fanout", "refreshed_at", "live")

    def __init__(self, node_id: int, delay: int, free_fanout: int, now: int) -> None:
        self.node_id = node_id
        self.delay = delay
        self.free_fanout = free_fanout
        self.refreshed_at = now
        self.live = True


_IS_LIVE = attrgetter("live")


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
        #: The registered members: exactly the ids online as of the last
        #: membership sync.
        self._records: Dict[int, ShardRecord] = {}
        self._reservoirs: List[List[ShardRecord]] = [[] for _ in range(shards)]
        #: Per-shard registration-stream length (Algorithm R state).
        self._seen: List[int] = [0] * shards
        #: Ids whose membership or liveness changed since the last sync
        #: (at first: everyone online).
        self._liveness = overlay.watch_liveness()
        #: Whether a record died since the last prune.
        self._died = False
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
            cached = self._shard_index[self.ring.owner(node_id).name]
            self._owner_cache[node_id] = cached
        return cached

    def _register(self, node: Node, now: int) -> None:
        """Fold one (re)joining member into its shard's reservoir
        (Algorithm R over the shard's registration stream)."""
        node_id = node.node_id
        record = ShardRecord(
            node_id, self.overlay.store.delay[node_id], node.free_fanout, now
        )
        self._records[node_id] = record
        shard = self.shard_of(node_id)
        reservoir = self._reservoirs[shard]
        self._seen[shard] += 1
        if len(reservoir) < self.reservoir_capacity:
            reservoir.append(record)
        else:
            slot = self.rng.randrange(self._seen[shard])
            if slot < self.reservoir_capacity:
                reservoir[slot] = record

    def on_round(self, now: int) -> None:
        """Round upkeep: membership sync, rebalance, prune, one draw per
        shard."""
        self._round = now
        self._sync_membership(now)
        if now % self.rebalance_interval == 0:
            self._rebalance()
        if self._died:
            self._prune()
        self._draw_batches(now)

    def _sync_membership(self, now: int) -> None:
        """Register who came online and forget who left since the last
        sync.

        A sync reads only the overlay's liveness feed (at first, the
        online roster), so a round costs the membership changes since
        the last one, not the population.  A fed id that is online and
        unregistered joins; one that is registered and now offline or
        removed departs, and its record dies.  An id that left and came back (or was removed and handed
        to a newcomer) between two syncs is neither, exactly as a diff
        of the two rosters sees it.  Joins register in id order, so
        Algorithm R draws as it would for the sorted roster diff.
        """
        overlay = self.overlay
        fed = self._liveness
        if not fed:
            return
        nodes = overlay._nodes
        records = self._records
        joined = []
        for node_id in fed:
            node = nodes.get(node_id)
            if node is not None and node.online:
                if node_id not in records:
                    joined.append(node_id)
            elif node_id in records:
                records.pop(node_id).live = False
                self._died = True
        fed.clear()
        joined.sort()
        for node_id in joined:
            self._register(nodes[node_id], now)

    def _prune(self) -> None:
        """Drop dead records from every reservoir, keeping order: one
        filtered pass per shard, after the rebalance as ever."""
        self._died = False
        reservoirs = self._reservoirs
        for shard, reservoir in enumerate(reservoirs):
            live = list(filter(_IS_LIVE, reservoir))
            if len(live) != len(reservoir):
                reservoirs[shard] = live

    def _draw_batches(self, now: int) -> None:
        """One RNG draw per shard: this round's candidate batches.

        Drawn records older than ``refresh_interval`` are refreshed from
        the overlay's columns, bounding the staleness of every *served*
        candidate.  Every reservoir entry is live here (the prune ran),
        so every drawn id has a node.
        """
        store = self.overlay.store
        delays = store.delay
        store_nodes = store.nodes
        rng = self.rng
        batch_size = self.batch_size
        refresh_before = now - self.refresh_interval
        batches = self._batches
        for shard, reservoir in enumerate(self._reservoirs):
            size = min(batch_size, len(reservoir))
            batch = sample(rng, reservoir, size) if size else []
            for record in batch:
                if record.refreshed_at <= refresh_before:
                    node_id = record.node_id
                    node = store_nodes[node_id]
                    record.delay = delays[node_id]
                    record.free_fanout = node.fanout - len(node.children)
                    record.refreshed_at = now
            batches[shard] = batch
        self._cursors = [0] * self.n_shards

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

    def serve(
        self, enquirer: Node, delay_bound: int, fanout_floor: int
    ) -> Optional[ShardRecord]:
        """First batched record other than the enquirer's own with
        ``delay < delay_bound`` and ``free_fanout >= fanout_floor``,
        scanning shards in a round-rotated order starting near the
        enquirer's home shard (:data:`NO_BOUND` disables a test).

        The scan starts at ``(home + round) % n_shards`` and wraps over
        every shard, reading each shard's batch from its own rotating
        cursor: the batch from the cursor to its end, then from its
        start up to the cursor.  The rotation is what makes small
        populations safe: with few members per shard an enquirer's home
        batch can permanently hold only itself or its own descendants
        (a livelock — every query forever returns the same useless
        answer), but rotating the start shard guarantees every enquirer
        fronts every shard within ``n_shards`` rounds.  Deterministic
        and RNG-free, like the cursor scheme it extends; at N=100k scale
        the home batch almost always serves the answer on the first
        probe, so the extra shards are rarely touched."""
        enquirer_id = enquirer.node_id
        n_shards = self.n_shards
        batches = self._batches
        cursors = self._cursors
        start = (self.shard_of(enquirer_id) + self._round) % n_shards
        for step in range(n_shards):
            shard = start + step
            if shard >= n_shards:
                shard -= n_shards
            batch = batches[shard]
            if not batch:
                continue
            size = len(batch)
            cursor = cursors[shard]
            for index in chain(range(cursor, size), range(cursor)):
                record = batch[index]
                if (
                    record.delay < delay_bound
                    and record.free_fanout >= fanout_floor
                    and record.node_id != enquirer_id
                ):
                    cursors[shard] = index + 1 if index + 1 < size else 0
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
        #: The filter as ``serve`` bounds: records must have
        #: ``delay < enquirer.latency`` (delay modes) and at least one
        #: free child slot (capacity modes).
        self._delay_filter = filter_mode in ("delay", "delay-capacity")
        self._fanout_floor = (
            1 if filter_mode in ("capacity", "delay-capacity") else -NO_BOUND
        )
        #: Samples whose candidate was gone by query time.
        self.stale_hits = 0

    # ------------------------------------------------------------------

    def on_round(self, now: int) -> None:
        self.directory.on_round(now)

    def sample(self, enquirer: Node) -> Optional[Node]:
        record = self.directory.serve(
            enquirer,
            enquirer.latency if self._delay_filter else NO_BOUND,
            self._fanout_floor,
        )
        probe = self.overlay.probe
        if record is None:
            self.misses += 1
            if probe.enabled:
                probe.oracle_miss(enquirer.node_id, self.name)
            return None
        node = self.overlay._nodes.get(record.node_id)
        if node is None or not node.online:
            self.stale_hits += 1
            self.misses += 1
            if probe.enabled:
                probe.oracle_miss(enquirer.node_id, self.name)
            return None
        self.hits += 1
        if probe.enabled:
            probe.oracle_query(
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
