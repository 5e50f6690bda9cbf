"""Consumer-side feed state.

Each overlay consumer runs a :class:`FeedConsumer`: it records which items
have arrived and when, regardless of whether they came from a direct pull
at the source or a push from the overlay parent.  The dissemination engine
(:mod:`repro.feeds.dissemination`) drives delivery; this class is pure
bookkeeping, which is what makes the staleness reports easy to audit.
"""

from __future__ import annotations

import dataclasses
from typing import Dict, List

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
    """Per-consumer delivery log and cursor."""

    def __init__(self, node_id: int) -> None:
        self.node_id = node_id
        self.last_seen_seq = 0
        self.arrivals: Dict[int, Arrival] = {}

    def deliver(self, items: List[FeedItem], now: float) -> List[FeedItem]:
        """Record newly arriving items; returns those actually new here.

        ``items`` is one batch in strictly ascending ``seq`` order — what
        :meth:`~repro.feeds.source.FeedSource.pull` serves and every push
        forwards — so ``last_seen_seq`` is the largest ``seq`` delivered
        here.  A batch that starts past it is new from end to end and is
        stored without a membership test per item, and the batch itself
        is returned (batches are never mutated once served).
        """
        if items and items[0].seq > self.last_seen_seq:
            arrivals = self.arrivals
            for item in items:
                arrivals[item.seq] = Arrival(item, now)
            self.last_seen_seq = items[-1].seq
            return items
        fresh = []
        for item in items:
            if item.seq in self.arrivals:
                continue
            self.arrivals[item.seq] = Arrival(item=item, arrived_at=now)
            fresh.append(item)
        if fresh:
            self.last_seen_seq = max(self.last_seen_seq, fresh[-1].seq)
        return fresh

    def worst_staleness(self) -> float:
        """Worst item age on arrival (0.0 if nothing arrived)."""
        return max(
            (arrival.staleness for arrival in self.arrivals.values()),
            default=0.0,
        )

    def received_count(self) -> int:
        return len(self.arrivals)
