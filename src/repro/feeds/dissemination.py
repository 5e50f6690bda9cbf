"""Feed dissemination over a built LagOver.

This is the payoff of the whole construction: the source's direct
children pull every ``T`` time units (staggered), and every consumer
pushes fresh items to its overlay children after a per-hop forwarding
delay of at most one unit.  A node at depth ``d`` therefore observes
staleness at most ``d * T`` — exactly the ``DelayAt`` model the
construction algorithms plan with, now *measured* instead of assumed.

The engine runs on the discrete-event scheduler, reads the overlay's
current parent links at each forwarding step (so it can also be run over
an overlay that is still evolving), and produces a
:class:`~repro.feeds.staleness.StalenessReport` comparing each consumer's
measured worst staleness with its declared constraint ``l_i``.
"""

from __future__ import annotations

import random
from typing import Dict, List, Optional

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
        #: Optional callable ``(parent, child) -> delay in units of T``
        #: (clamped to (0, 1]); overrides the uniform draw so hop delays
        #: can follow real network distance (see
        #: :func:`repro.locality.distance_hop_delay`).
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

    # ------------------------------------------------------------------

    def _hop_delay(self, parent: Node, child: Node) -> float:
        if self.hop_delay_model is not None:
            units = self.hop_delay_model(parent, child)
            units = min(1.0, max(1e-6, units))
            return self.pull_period * units
        low, high = self.hop_delay_range
        return self.pull_period * self.rng.uniform(low, high)

    def _pull_loop(self, node: Node) -> None:
        """One pull by a direct child, then reschedule the next one."""
        if not (node.online and node.parent is self.overlay.source):
            # Lost the direct slot (churn or reconfiguration): the loop
            # dies; a later start_direct_pullers() call can resurrect it.
            self._active_pullers.discard(node.node_id)
            return
        consumer = self.consumers[node.node_id]
        self.pulls += 1
        served = self.source.pull(
            self.scheduler.now, since_seq=consumer.last_seen_seq
        )
        if served is not None:
            items, _ = served
            fresh = consumer.deliver(items, self.scheduler.now)
            if fresh:
                if self.tracer is not None:
                    self.tracer.record_pull(
                        node.node_id, fresh, self.scheduler.now
                    )
                self._push_downstream(node, fresh)
        self.scheduler.schedule(self.pull_period, self._pull_loop, node)

    def _push_downstream(self, node: Node, items: List[FeedItem]) -> None:
        # Scheduling never touches the overlay, so the child list is
        # read in place.
        scheduler = self.scheduler
        now = scheduler.now
        parent_id = node.node_id
        for child in node.children:
            scheduler.schedule_at(
                now + self._hop_delay(node, child),
                self._deliver_push,
                child,
                items,
                parent_id,
                now,
            )

    def _deliver_push(
        self,
        child: Node,
        items: List[FeedItem],
        parent_id: int,
        sent_at: float,
    ) -> None:
        if not child.online:
            return
        self.pushes += 1
        consumer = self.consumers[child.node_id]
        fresh = consumer.deliver(items, self.scheduler.now)
        if fresh:
            if self.tracer is not None:
                self.tracer.record_push(
                    parent_id, child.node_id, fresh, sent_at, self.scheduler.now
                )
            self._push_downstream(child, fresh)

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
