"""A Chord-style structured overlay (the directory oracle's substrate).

The paper suggests realizing the filtered Oracles with "a directory
service ... realized if the nodes organize as a distributed hash table",
concretely an OpenDHT-like service run by a smaller, more stable
population than the consumers.  This module provides that substrate:
a Chord ring with correct finger tables, successor lists, O(log n)
iterative lookups with hop accounting, and membership changes.

Fidelity notes.  Routing is the genuine Chord algorithm — each lookup
walks real finger tables and we count its hops, so the logarithmic cost
the oracle ablation reports is measured, not assumed.  Ring *maintenance*
is idealized: joins and leaves repair fingers immediately instead of
through periodic stabilization, which matches the paper's assumption of a
"relatively stable and dedicated infrastructure like PlanetLab" for the
oracle service.
"""

from __future__ import annotations

import bisect
from typing import Dict, List, Optional, Tuple

from repro.core.errors import ConfigurationError, UnknownNodeError
from repro.dht.hashspace import DEFAULT_BITS, hash_key, in_interval


class ChordPeer:
    """One ring member: identifier, finger table, successor list."""

    def __init__(self, name: str, ident: int, bits: int) -> None:
        self.name = name
        self.ident = ident
        self.bits = bits
        #: finger[i] routes to successor((ident + 2**i) mod 2**bits).
        self.fingers: List["ChordPeer"] = []
        self.successors: List["ChordPeer"] = []
        self.predecessor: Optional["ChordPeer"] = None

    @property
    def successor(self) -> "ChordPeer":
        return self.successors[0]

    def closest_preceding_finger(self, key: int) -> "ChordPeer":
        """The finger most closely preceding ``key`` (Chord routing step)."""
        for finger in reversed(self.fingers):
            if in_interval(finger.ident, self.ident, key, bits=self.bits):
                return finger
        return self

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<ChordPeer {self.name}@{self.ident}>"


class ChordRing:
    """The ring: membership plus lookup with hop accounting."""

    def __init__(self, bits: int = DEFAULT_BITS, successor_list_length: int = 3):
        if successor_list_length < 1:
            raise ConfigurationError("successor list needs length >= 1")
        self.bits = bits
        self.successor_list_length = successor_list_length
        self._peers: Dict[str, ChordPeer] = {}
        self._sorted_idents: List[int] = []
        self._by_ident: Dict[int, ChordPeer] = {}
        #: Lookup statistics.
        self.lookups = 0
        self.total_hops = 0

    # ------------------------------------------------------------------
    # membership
    # ------------------------------------------------------------------

    def __len__(self) -> int:
        return len(self._peers)

    @property
    def peers(self) -> List[ChordPeer]:
        return [self._by_ident[i] for i in self._sorted_idents]

    def peer(self, name: str) -> ChordPeer:
        try:
            return self._peers[name]
        except KeyError:
            raise UnknownNodeError(name) from None

    def add_peer(self, name: str) -> ChordPeer:
        """Join a peer (identifier = hash of its name) and repair the ring."""
        if name in self._peers:
            raise ConfigurationError(f"peer {name!r} already in the ring")
        ident = hash_key(name, self.bits)
        while ident in self._by_ident:  # vanishing-probability collision
            ident = (ident + 1) % (1 << self.bits)
        peer = ChordPeer(name, ident, self.bits)
        self._peers[name] = peer
        self._by_ident[ident] = peer
        bisect.insort(self._sorted_idents, ident)
        self._rebuild_pointers()
        return peer

    def remove_peer(self, name: str) -> None:
        """Leave: drop the peer and repair all pointers."""
        peer = self.peer(name)
        del self._peers[name]
        del self._by_ident[peer.ident]
        self._sorted_idents.remove(peer.ident)
        self._rebuild_pointers()

    def _successor_of_point(self, point: int) -> ChordPeer:
        """The first peer at or clockwise after ``point``."""
        idents = self._sorted_idents
        index = bisect.bisect_left(idents, point % (1 << self.bits))
        if index == len(idents):
            index = 0
        return self._by_ident[idents[index]]

    def _rebuild_pointers(self) -> None:
        """Recompute fingers, successor lists and predecessors.

        Idealized immediate repair (see module docstring); O(n log n) per
        membership change, fine for the service-population sizes used.
        """
        if not self._peers:
            return
        peers = self.peers
        count = len(peers)
        for index, peer in enumerate(peers):
            peer.successors = [
                peers[(index + k + 1) % count]
                for k in range(min(self.successor_list_length, count))
            ]
            peer.predecessor = peers[(index - 1) % count]
            peer.fingers = [
                self._successor_of_point(peer.ident + (1 << i))
                for i in range(self.bits)
            ]

    # ------------------------------------------------------------------
    # lookup
    # ------------------------------------------------------------------

    def find_successor(
        self, key: int, start: Optional[ChordPeer] = None
    ) -> Tuple[ChordPeer, int]:
        """Route to the peer owning ``key``; returns ``(owner, hops)``.

        Iterative Chord routing from ``start`` (default: an arbitrary
        peer): repeatedly jump to the closest preceding finger until the
        key falls between a peer and its successor.
        """
        if not self._peers:
            raise UnknownNodeError("lookup on an empty ring")
        node = start if start is not None else self.peers[0]
        hops = 0
        limit = 2 * self.bits + len(self._peers)
        while not in_interval(
            key, node.ident, node.successor.ident, inclusive_right=True,
            bits=self.bits,
        ):
            nxt = node.closest_preceding_finger(key)
            if nxt is node:
                break
            node = nxt
            hops += 1
            if hops > limit:  # pragma: no cover - routing invariant guard
                raise ConfigurationError("Chord routing did not terminate")
        owner = node.successor
        if len(self._peers) == 1:
            owner = node
        self.lookups += 1
        self.total_hops += hops
        return owner, hops

    def owner(self, key: object) -> ChordPeer:
        """Owner of an application key, resolved without routing.

        The successor of the key's hashed point, found by bisecting the
        sorted identifiers: the peer :meth:`find_successor` routes to
        (property-tested in ``tests/test_dht.py``), without touching the
        hop statistics.
        """
        if not self._peers:
            raise UnknownNodeError("lookup on an empty ring")
        return self._successor_of_point(hash_key(key, self.bits))

    def mean_lookup_hops(self) -> float:
        """Average hops per lookup so far (0.0 before any lookup)."""
        return self.total_hops / self.lookups if self.lookups else 0.0
