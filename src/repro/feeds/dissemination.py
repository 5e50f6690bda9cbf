"""Feed dissemination over a built LagOver.

This is the payoff of the whole construction: the source's direct
children pull every ``T`` time units (staggered), and every consumer
pushes fresh items to its overlay children after a per-hop forwarding
delay of at most one unit.  A node at depth ``d`` therefore observes
staleness at most ``d * T`` — exactly the ``DelayAt`` model the
construction algorithms plan with, now *measured* instead of assumed.

The engine runs on the discrete-event scheduler, reads the overlay's
current parent links at each forwarding step (so it can also be run over
an overlay that is still evolving between ``run_until`` windows), and
produces a
:class:`~repro.feeds.staleness.StalenessReport` comparing each consumer's
measured worst staleness with its declared constraint ``l_i``.
"""

from __future__ import annotations

import math
import random
from typing import Dict, List, Optional, Tuple

from repro.core.errors import ConfigurationError
from repro.core.node import Node
from repro.core.tree import Overlay
from repro.feeds.client import FeedConsumer
from repro.feeds.items import FeedItem
from repro.feeds.source import FeedSource
from repro.feeds.staleness import StalenessReport, build_report
from repro.sim.engine import EventScheduler


class LagOverDissemination:
    """Drives pulls and pushes over an overlay for a span of feed time.

    Parameters
    ----------
    overlay / source:
        The built (or still evolving) LagOver and the pull-only source.
    pull_period:
        ``T`` — the delay unit of the whole paper; direct children pull
        once per period.
    hop_delay_range:
        Per-hop forwarding delay, drawn uniformly, as a *fraction of T*;
        the default ``(0.25, 1.0)`` keeps every hop within one delay unit,
        matching the +1-per-hop accounting of §2.1.3.
    hop_delay_model:
        Optional callable ``(parent, child) -> delay in units of T``
        (clamped to ``(0, 1]``) that replaces the uniform draw, so hop
        delays can follow real network distance (see
        :func:`repro.sim.continuous.hop_delay_from_geo` and
        :func:`repro.locality.distance_hop_delay`).  **It must be a
        pure function of the edge**: the same pair always gets the same
        delay, and calling it draws no randomness.  The engine relies on
        that twice.  It caches each edge's delay on first use.  And
        inside a ``scheduler.run_until`` window, where no callback
        changes the overlay, it delivers a fresh batch down the subtree
        as one wave: a hop that lands by the window's end, at a child
        with no earlier push still on the heap, is delivered in place
        instead of scheduled.  Every consumer still receives the same
        batches in the same order at the same times
        (``docs/TIMING.md`` §7.1).
    tracer:
        An optional :class:`~repro.obs.trace.SpanRecorder`; when set,
        every delivery edge (the direct child's pull, every push hop) is
        recorded as a span so per-consumer staleness can be decomposed
        exactly.  The tracer never consumes RNG and never changes what
        is delivered when.
    """

    def __init__(
        self,
        overlay: Overlay,
        source: FeedSource,
        rng: random.Random,
        pull_period: float = 1.0,
        hop_delay_range: tuple = (0.25, 1.0),
        hop_delay_model=None,
        tracer=None,
    ) -> None:
        if pull_period <= 0:
            raise ConfigurationError("pull_period must be > 0")
        low, high = hop_delay_range
        if not 0 < low <= high <= 1.0:
            raise ConfigurationError(
                "hop delays must satisfy 0 < low <= high <= 1 (in units of T)"
            )
        self.overlay = overlay
        self.source = source
        self.rng = rng
        self.pull_period = pull_period
        self.hop_delay_range = hop_delay_range
        self.hop_delay_model = hop_delay_model
        self.tracer = tracer
        self.scheduler = EventScheduler()
        self.consumers: Dict[int, FeedConsumer] = {
            node.node_id: FeedConsumer(node.node_id)
            for node in overlay.consumers
        }
        self.pushes = 0
        self.pulls = 0
        self._active_pullers: set = set()
        #: Per node id, the number of pushes to it still on the heap.
        self._in_flight: Dict[int, int] = {}
        #: The clamped delay of every edge seen so far (model delays).
        self._edge_delays: Dict[Tuple[Node, Node], float] = {}
        self._hop_delay = (
            self._uniform_delay if hop_delay_model is None else self._model_delay
        )

    # ------------------------------------------------------------------

    def _uniform_delay(self, parent: Node, child: Node) -> float:
        low, high = self.hop_delay_range
        return self.pull_period * self.rng.uniform(low, high)

    def _model_delay(self, parent: Node, child: Node) -> float:
        edge = (parent, child)
        delay = self._edge_delays.get(edge)
        if delay is None:
            units = self.hop_delay_model(parent, child)
            delay = self._edge_delays[edge] = self.pull_period * min(
                1.0, max(1e-6, units)
            )
        return delay

    def _pull_loop(self, node: Node) -> None:
        """One pull by a direct child, then reschedule the next one."""
        if not (node.online and node.parent is self.overlay.source):
            # Lost the direct slot (churn or reconfiguration): the loop
            # dies; a later start_direct_pullers() call can resurrect it.
            self._active_pullers.discard(node.node_id)
            return
        consumer = self.consumers[node.node_id]
        self.pulls += 1
        now = self.scheduler.now
        served = self.source.pull(now, since_seq=consumer.last_seen_seq)
        if served is not None:
            items, _ = served
            fresh = consumer.deliver(items, now)
            if fresh:
                if self.tracer is not None:
                    self.tracer.record_pull(node.node_id, fresh, now)
                self._wave(node, fresh, now)
        self.scheduler.schedule(self.pull_period, self._pull_loop, node)

    def _deliver_push(
        self,
        child: Node,
        items: List[FeedItem],
        parent_id: int,
        sent_at: float,
    ) -> None:
        self._in_flight[child.node_id] -= 1
        if not child.online:
            return
        self.pushes += 1
        consumer = self.consumers[child.node_id]
        now = self.scheduler.now
        fresh = consumer.deliver(items, now)
        if fresh:
            if self.tracer is not None:
                self.tracer.record_push(
                    parent_id, child.node_id, fresh, sent_at, now
                )
            self._wave(child, fresh, now)

    def _wave(self, node: Node, items: List[FeedItem], at: float) -> None:
        """Push ``items``, fresh at ``node`` at time ``at``, down its
        subtree in one walk.

        A child's arrival is its parent's arrival plus the edge delay.
        With a ``hop_delay_model`` it is delivered in place when it
        lands by the scheduler's horizon and no earlier push to that
        child is still on the heap; every other push is scheduled, at
        the time the heap path would give it.  ``docs/TIMING.md`` §7.1
        shows why every consumer then receives the same batches in the
        same order at the same times as on the heap.
        """
        scheduler = self.scheduler
        # Uniform draws follow heap order, so with them no hop is
        # delivered in place: each is scheduled, one heap event apiece.
        horizon = (
            scheduler.horizon if self.hop_delay_model is not None else -math.inf
        )
        hop_delay = self._hop_delay
        in_flight = self._in_flight
        consumers = self.consumers
        tracer = self.tracer
        stack = [(node, items, at)]
        while stack:
            parent, items, at = stack.pop()
            parent_id = parent.node_id
            for child in parent.children:
                arrive = at + hop_delay(parent, child)
                child_id = child.node_id
                if arrive > horizon or in_flight.get(child_id):
                    in_flight[child_id] = in_flight.get(child_id, 0) + 1
                    scheduler.schedule_at(
                        arrive, self._deliver_push, child, items, parent_id, at
                    )
                    continue
                if not child.online:
                    continue
                self.pushes += 1
                fresh = consumers[child_id].deliver(items, arrive)
                if fresh:
                    if tracer is not None:
                        tracer.record_push(parent_id, child_id, fresh, at, arrive)
                    stack.append((child, fresh, arrive))

    # ------------------------------------------------------------------

    def ensure_consumer(self, node_id: int) -> FeedConsumer:
        """The delivery log for a node, created on first sight.

        Overlays can grow *while* dissemination runs (flash-crowd
        joiners in the service soak); late arrivals get an empty log the
        moment they enter, so every subsequent delivery is recorded.
        """
        consumer = self.consumers.get(node_id)
        if consumer is None:
            consumer = self.consumers[node_id] = FeedConsumer(node_id)
        return consumer

    def start_direct_pullers(self) -> int:
        """Schedule pull loops for direct children that do not have one.

        Idempotent: safe to call repeatedly (e.g. once per period while
        the overlay evolves under churn) — only children without an
        active loop are started, staggered across one period.
        """
        started = 0
        for node in list(self.overlay.source.children):
            if node.node_id in self._active_pullers:
                continue
            self._active_pullers.add(node.node_id)
            offset = self.rng.uniform(0, self.pull_period)
            self.scheduler.schedule(offset, self._pull_loop, node)
            started += 1
        return started

    def run(self, duration: float) -> StalenessReport:
        """Run ``duration`` feed-time units and report staleness."""
        self.start_direct_pullers()
        self.scheduler.run_until(duration)
        return self.report()

    def report(self) -> StalenessReport:
        """Build the staleness report for the items delivered so far."""
        return build_report(
            self.overlay,
            self.consumers,
            pull_period=self.pull_period,
            published=self.source.latest_seq,
        )


def disseminate(
    overlay: Overlay,
    source: Optional[FeedSource] = None,
    duration: float = 50.0,
    seed: int = 0,
    pull_period: float = 1.0,
    tracer=None,
    hop_delay_model=None,
) -> StalenessReport:
    """Convenience one-shot: run dissemination over a built overlay.

    ``hop_delay_model`` passes through to
    :class:`LagOverDissemination` — the continuous-time mode supplies
    :func:`repro.sim.continuous.hop_delay_from_geo` here so every push
    hop (and so every recorded delivery span) carries the latency
    substrate's per-edge milliseconds instead of a uniform draw.
    """
    if source is None:
        source = FeedSource()
    engine = LagOverDissemination(
        overlay,
        source,
        random.Random(seed),
        pull_period=pull_period,
        tracer=tracer,
        hop_delay_model=hop_delay_model,
    )
    return engine.run(duration)
