"""Distributed oracle realizations (§2.1.4's implementation sketch).

The omniscient oracles of :mod:`repro.oracles.base` see the overlay's true
state — the paper's simulation idealization.  This module provides the
realizations the paper sketches for a deployment, built on this package's
own substrates:

* :class:`RandomWalkOracle` — Oracle *Random* via random walkers over an
  unstructured gossip overlay among the consumers themselves
  ("if nodes participate in an unstructured network, random walkers can
  be used to implement Oracle Random");
* :class:`DhtDirectoryOracle` — the filtered oracles via a per-feed
  directory hosted on a Chord DHT run by a *separate, stable* service
  population ("a separate open service like (and even using) OpenDHT"),
  with consumers re-registering their observed delay and free capacity
  every ``refresh_interval`` rounds.

Both are honest about their information quality: the walk sampler can
fail, and the directory serves *stale* records, so a returned candidate
may no longer satisfy the filter — the construction protocol's own
re-validation during interactions absorbs this, and the oracle-realization
ablation quantifies the cost.
"""

from __future__ import annotations

import random
from typing import Dict, Optional

from repro.core.errors import ConfigurationError
from repro.core.node import Node
from repro.core.tree import Overlay
from repro.dht.chord import ChordRing
from repro.dht.directory_service import DirectoryRecord, FeedDirectory
from repro.dht.storage import DhtStore
from repro.gossip.unstructured import UnstructuredOverlay
from repro.oracles.base import Oracle


class RandomWalkOracle(Oracle):
    """Oracle *Random* realized by random walks over a gossip overlay."""

    name = "random"
    figure_label = "O1"
    realization = "random-walk"

    def __init__(
        self,
        overlay: Overlay,
        rng: random.Random,
        view_size: int = 8,
        walk_length: int = 6,
    ) -> None:
        super().__init__(overlay, rng)
        self.gossip = UnstructuredOverlay(
            members=[n.node_id for n in overlay.online_consumers],
            rng=rng,
            view_size=view_size,
            walk_length=walk_length,
        )
        self._known_online = {n.node_id for n in overlay.online_consumers}

    def on_round(self, now: int) -> None:
        """Sync gossip membership with consumer liveness, then shuffle."""
        online_now = {n.node_id for n in self.overlay.online_consumers}
        for node_id in online_now - self._known_online:
            self.gossip.join(node_id)
        for node_id in self._known_online - online_now:
            self.gossip.leave(node_id)
        self._known_online = online_now
        self.gossip.tick()

    def sample(self, enquirer: Node) -> Optional[Node]:
        landed = self.gossip.sample(enquirer.node_id)
        probe = self.overlay.probe
        if landed is None:
            self.misses += 1
            if probe.enabled:
                probe.oracle_miss(enquirer.node_id, self.name)
            return None
        node = self.overlay.node(landed)
        if not node.online or node is enquirer:
            self.misses += 1
            if probe.enabled:
                probe.oracle_miss(enquirer.node_id, self.name)
            return None
        self.hits += 1
        # A walk lands on a single node: the "answer" has size one.
        if probe.enabled:
            probe.oracle_query(enquirer.node_id, self.name, 1, node.node_id)
        return node

    def _admits(self, enquirer: Node, candidate: Node) -> bool:
        return True  # unused: sampling is walk-based


#: Filter modes of the directory oracle, mirroring the four paper oracles.
DIRECTORY_FILTERS = ("random", "capacity", "delay", "delay-capacity")


class DhtDirectoryOracle(Oracle):
    """Filtered oracles realized by a DHT-hosted per-feed directory.

    Consumers re-register ``(delay, free_fanout)`` every
    ``refresh_interval`` rounds; queries filter on the *registered* (hence
    up to ``refresh_interval`` rounds stale) values.
    """

    realization = "dht"

    def __init__(
        self,
        overlay: Overlay,
        rng: random.Random,
        filter_mode: str = "delay",
        feed_id: str = "feed-0",
        service_population: int = 16,
        refresh_interval: int = 2,
        ring: Optional[ChordRing] = None,
    ) -> None:
        if filter_mode not in DIRECTORY_FILTERS:
            raise ConfigurationError(
                f"unknown directory filter {filter_mode!r}; "
                f"choose from {DIRECTORY_FILTERS}"
            )
        if refresh_interval < 1:
            raise ConfigurationError("refresh_interval must be >= 1")
        super().__init__(overlay, rng)
        self.filter_mode = filter_mode
        self.feed_id = feed_id
        self.refresh_interval = refresh_interval
        self.name = f"dht-{filter_mode}"
        if ring is None:
            ring = ChordRing()
            for index in range(service_population):
                ring.add_peer(f"service-{index}")
        self.ring = ring
        self.store = DhtStore(ring, replication=2)
        self.directory = FeedDirectory(self.store)
        #: Samples that turned out stale (candidate offline by query time).
        self.stale_hits = 0
        self._registered: Dict[int, int] = {}  # node_id -> last round

    # ------------------------------------------------------------------

    def on_round(self, now: int) -> None:
        """Consumers (re-)register; departed consumers age out implicitly.

        The registered delay is an O(1) chain-index read, so a full
        re-registration sweep costs O(online) rather than O(online·depth).
        """
        for node in self.overlay.online_consumers:
            last = self._registered.get(node.node_id, -10**9)
            if now - last >= self.refresh_interval:
                self.directory.register(
                    self.feed_id,
                    DirectoryRecord(
                        node_id=node.node_id,
                        delay=self.overlay.delay_at(node),
                        free_fanout=node.free_fanout,
                        registered_at=now,
                    ),
                )
                self._registered[node.node_id] = now

    def _record_passes(self, enquirer: Node, record: DirectoryRecord) -> bool:
        if record.node_id == enquirer.node_id:
            return False
        if self.filter_mode in ("capacity", "delay-capacity"):
            if record.free_fanout <= 0:
                return False
        if self.filter_mode in ("delay", "delay-capacity"):
            if record.delay is None or record.delay >= enquirer.latency:
                return False
        return True

    def sample(self, enquirer: Node) -> Optional[Node]:
        records = self.directory.records(self.feed_id)
        candidates = [
            r for r in records if self._record_passes(enquirer, r)
        ]
        probe = self.overlay.probe
        if not candidates:
            self.misses += 1
            if probe.enabled:
                probe.oracle_miss(enquirer.node_id, self.name)
            return None
        record = self.rng.choice(candidates)
        node = self.overlay.node(record.node_id)
        if not node.online:
            self.stale_hits += 1
            self.misses += 1
            if probe.enabled:
                probe.oracle_miss(enquirer.node_id, self.name)
            return None
        self.hits += 1
        if probe.enabled:
            probe.oracle_query(
                enquirer.node_id, self.name, len(candidates), node.node_id
            )
        return node

    def admits(self, enquirer: Node, candidate: Node) -> bool:
        """This directory's filter mode, applied to *live* overlay values
        (for fault decorators that bypass the registered records)."""
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
        return True  # unused: sampling is directory-based


#: Omniscient-oracle name -> directory filter mode.
_FILTER_BY_ORACLE = {
    "random": "random",
    "random-capacity": "capacity",
    "random-delay": "delay",
    "random-delay-capacity": "delay-capacity",
}


def realize_oracle(
    realization: str,
    oracle_name: str,
    overlay: Overlay,
    rng: random.Random,
) -> Oracle:
    """Build an oracle by (realization, paper-oracle-name).

    ``realization``: ``"omniscient"`` (the default simulation model),
    ``"dht"`` (directory on Chord; all four oracles), ``"sharded"``
    (consistent-hash sharded reservoirs with batched per-round draws —
    the N=100k scale path, all four oracles; see
    :mod:`repro.oracles.sharded`), or ``"random-walk"`` (gossip walkers;
    Oracle Random only).
    """
    if realization == "omniscient":
        from repro.oracles.base import make_oracle

        return make_oracle(oracle_name, overlay, rng)
    if realization == "dht":
        return DhtDirectoryOracle(
            overlay, rng, filter_mode=_FILTER_BY_ORACLE[oracle_name]
        )
    if realization == "sharded":
        from repro.oracles.sharded import ShardedOracle

        return ShardedOracle(
            overlay, rng, filter_mode=_FILTER_BY_ORACLE[oracle_name]
        )
    if realization == "random-walk":
        if oracle_name != "random":
            raise ConfigurationError(
                "random walkers realize only Oracle Random; "
                f"got {oracle_name!r} (use realization='dht')"
            )
        return RandomWalkOracle(overlay, rng)
    raise ConfigurationError(
        f"unknown oracle realization {realization!r}; choose from "
        "('omniscient', 'dht', 'sharded', 'random-walk')"
    )
