"""Consumer-side feed state.

Each overlay consumer runs a :class:`FeedConsumer`: it records which items
have arrived and when, regardless of whether they came from a direct pull
at the source or a push from the overlay parent.  The dissemination engine
(:mod:`repro.feeds.dissemination`) drives delivery; this class is pure
bookkeeping, which is what makes the staleness reports easy to audit.
"""

from __future__ import annotations

import dataclasses
import types
from typing import Dict, List, Mapping, Tuple

from repro.feeds.items import FeedItem


@dataclasses.dataclass(slots=True)
class Arrival:
    """One item's delivery at one consumer."""

    item: FeedItem
    arrived_at: float

    @property
    def staleness(self) -> float:
        """Item age on arrival, in feed time units."""
        return self.arrived_at - self.item.published_at


class FeedConsumer:
    """Per-consumer delivery log and cursor.

    The log holds one ``(batch, arrived_at)`` entry per delivery, in
    delivery order.  A batch is the list of items that delivery brought
    that were new here; it is shared with the sender and the rest of the
    subtree and is never mutated once served, so logging it costs one
    tuple, not one record per item.  :attr:`arrivals` is the per-item
    read view built from the log.
    """

    def __init__(self, node_id: int) -> None:
        self.node_id = node_id
        self.last_seen_seq = 0
        self.log: List[Tuple[List[FeedItem], float]] = []
        self._arrivals: Dict[int, Arrival] = {}
        self._folded = 0

    @property
    def arrivals(self) -> Mapping[int, Arrival]:
        """``seq -> Arrival`` for every item delivered here, read-only.

        The log is the one record of what arrived; this view is built
        from it on first read and extended with only the entries logged
        since, so repeated reads cost what was delivered in between.
        """
        return types.MappingProxyType(self._fold())

    def _fold(self) -> Dict[int, Arrival]:
        arrivals = self._arrivals
        log = self.log
        for index in range(self._folded, len(log)):
            batch, arrived_at = log[index]
            for item in batch:
                arrivals[item.seq] = Arrival(item, arrived_at)
        self._folded = len(log)
        return arrivals

    def deliver(self, items: List[FeedItem], now: float) -> List[FeedItem]:
        """Record newly arriving items; returns those actually new here.

        ``items`` is one batch in strictly ascending ``seq`` order — what
        :meth:`~repro.feeds.source.FeedSource.pull` serves and every push
        forwards — so ``last_seen_seq`` is the largest ``seq`` delivered
        here.  A batch that starts past it is new from end to end: it is
        logged as it is, without a membership test per item, and
        returned.  An empty batch (a pull with nothing new) does nothing.
        Any other batch is filtered against :attr:`arrivals`.
        """
        if not items:
            return items
        if items[0].seq > self.last_seen_seq:
            self.log.append((items, now))
            self.last_seen_seq = items[-1].seq
            return items
        held = self._fold()
        fresh = [item for item in items if item.seq not in held]
        if fresh:
            self.log.append((fresh, now))
            self.last_seen_seq = max(self.last_seen_seq, fresh[-1].seq)
        return fresh

    def worst_staleness(self) -> float:
        """Worst item age on arrival (0.0 if nothing arrived)."""
        return max(
            (
                arrived_at - item.published_at
                for batch, arrived_at in self.log
                for item in batch
            ),
            default=0.0,
        )

    def received_count(self) -> int:
        return sum(len(batch) for batch, _ in self.log)
