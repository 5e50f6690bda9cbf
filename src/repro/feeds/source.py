"""The pull-only feed source (§2.1.2).

The source publishes items according to a configurable process and
answers *pull* requests — it never pushes (the RSS constraint the whole
design works around).  It also enforces a per-time-unit request capacity:
requests beyond it are rejected, which is how the bandwidth-overload
problem of the introduction manifests for the direct-polling baseline
(and demonstrably cannot manifest for a LagOver, whose direct-puller
count is bounded by the source fanout).
"""

from __future__ import annotations

import math
import random
from typing import List, Optional, Tuple

from repro.core.errors import ConfigurationError
from repro.feeds.items import FeedItem


class PublishProcess:
    """Generates publication times; see :func:`periodic` / :func:`poisson`."""

    def __init__(self, next_gap) -> None:
        self._next_gap = next_gap

    def next_gap(self) -> float:
        """Time until the next item is published."""
        return self._next_gap()


def periodic(interval: float) -> PublishProcess:
    """An item every ``interval`` time units."""
    if interval <= 0:
        raise ConfigurationError("publish interval must be > 0")
    return PublishProcess(lambda: interval)


def poisson(rate: float, rng: random.Random) -> PublishProcess:
    """Poisson publishing with ``rate`` items per time unit."""
    if rate <= 0:
        raise ConfigurationError("publish rate must be > 0")
    return PublishProcess(lambda: rng.expovariate(rate))


def bursty(
    rate: float,
    rng: random.Random,
    burst_size: int = 4,
    intra_gap: float = 0.1,
) -> PublishProcess:
    """Bursty publishing: quiet gaps, then several items back-to-back.

    The classic shape of a news feed — nothing for a while, then a
    cluster of updates.  Burst lengths are uniform on
    ``1 .. 2*burst_size - 1`` (mean ``burst_size``); items inside a
    burst are ``intra_gap`` apart; the gap *between* bursts is
    exponential with mean ``burst_size / rate``, so the long-run rate is
    ``rate`` items per time unit.  All draws come from the supplied
    ``rng`` (hand it a dedicated stream for reproducible runs).
    """
    if rate <= 0:
        raise ConfigurationError("publish rate must be > 0")
    if burst_size < 1:
        raise ConfigurationError("burst_size must be >= 1")
    if intra_gap <= 0:
        raise ConfigurationError("intra_gap must be > 0")
    remaining = [0]

    def gap() -> float:
        if remaining[0] > 0:
            remaining[0] -= 1
            return intra_gap
        remaining[0] = rng.randint(1, 2 * burst_size - 1) - 1
        return rng.expovariate(rate / burst_size)

    return PublishProcess(gap)


class FeedSource:
    """A resource-constrained, pull-only feed server.

    Parameters
    ----------
    feed_id:
        Name of the feed (used by the directory oracle and RSS rendering).
    process:
        Publication process (:func:`periodic` or :func:`poisson`).
    capacity_per_unit:
        Maximum pull requests served per whole time unit; ``None`` means
        unbounded (useful to isolate staleness effects from overload).
    """

    def __init__(
        self,
        feed_id: str = "feed-0",
        process: Optional[PublishProcess] = None,
        capacity_per_unit: Optional[int] = None,
    ) -> None:
        if capacity_per_unit is not None and capacity_per_unit < 1:
            raise ConfigurationError("capacity_per_unit must be >= 1 or None")
        self.feed_id = feed_id
        self.process = process if process is not None else periodic(1.0)
        self.capacity_per_unit = capacity_per_unit
        self.items: List[FeedItem] = []
        self._next_publish_at = self.process.next_gap()
        #: Request accounting.
        self.requests_total = 0
        self.requests_rejected = 0
        self._window_start = 0.0
        self._window_requests = 0

    # ------------------------------------------------------------------
    # publishing
    # ------------------------------------------------------------------

    def advance_to(self, now: float) -> List[FeedItem]:
        """Publish every item due by ``now``; returns the new items."""
        fresh: List[FeedItem] = []
        while self._next_publish_at <= now:
            seq = len(self.items) + 1
            item = FeedItem(
                seq=seq,
                title=f"{self.feed_id} item #{seq}",
                published_at=self._next_publish_at,
            )
            self.items.append(item)
            fresh.append(item)
            self._next_publish_at += self.process.next_gap()
        return fresh

    @property
    def latest_seq(self) -> int:
        return len(self.items)

    # ------------------------------------------------------------------
    # the pull interface
    # ------------------------------------------------------------------

    def _consume_capacity(self, now: float) -> bool:
        """Account one request against the per-unit window; False = reject."""
        self.requests_total += 1
        if self.capacity_per_unit is None:
            return True
        window = math.floor(now)
        if window != self._window_start:
            self._window_start = window
            self._window_requests = 0
        if self._window_requests >= self.capacity_per_unit:
            self.requests_rejected += 1
            return False
        self._window_requests += 1
        return True

    def pull(
        self, now: float, since_seq: int = 0
    ) -> Optional[Tuple[List[FeedItem], int]]:
        """Serve a pull: items newer than ``since_seq``, or ``None`` when
        the request is rejected for capacity."""
        self.advance_to(now)
        if not self._consume_capacity(now):
            return None
        # advance_to numbers items 1, 2, ... in publish order, so the
        # items newer than since_seq are exactly a suffix of the list.
        return self.items[since_seq:], self.latest_seq

    @property
    def rejection_rate(self) -> float:
        """Fraction of all pull requests rejected so far."""
        if self.requests_total == 0:
            return 0.0
        return self.requests_rejected / self.requests_total
