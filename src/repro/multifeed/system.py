"""Multiple feeds over one consumer population (§7 future work).

"In the presented work one LagOver is established to disseminate content
from one source.  Reusing part of the LagOver for multiple sources by
exploiting intersecting consumers ... may substantially improve the
global performance and resource usage."

:class:`MultiFeedSystem` runs one LagOver per feed over a *shared*
population: each consumer subscribes to a subset of feeds (with per-feed
latency constraints) and splits its declared fanout budget across its
subscriptions.  Construction proceeds feed-interleaved, one round each.

The resource-usage question the paper raises is *connection state*: a
consumer adjacent to the same partner in several feeds maintains one
network relationship, not several.  :meth:`MultiFeedSystem.reuse_metrics`
quantifies that, and :mod:`repro.multifeed.reuse` provides the
reuse-biased oracle that actively exploits intersections.
"""

from __future__ import annotations

import dataclasses
import random
from typing import Callable, Dict, List, Optional, Sequence, Set, Tuple

from repro.core.constraints import NodeSpec
from repro.core.errors import ConfigurationError
from repro.core.hybrid import HybridConstruction
from repro.core.node import Node
from repro.core.protocol import ProtocolConfig
from repro.core.tree import Overlay
from repro.faults.injector import Members
from repro.oracles.base import Oracle, RandomDelayOracle
from repro.sim.rng import StreamFactory, shuffle
from repro.workloads.repair import repair_population

#: Factory signature for per-feed oracles: (system, feed_id, overlay, rng).
OracleFactory = Callable[["MultiFeedSystem", str, Overlay, random.Random], Oracle]


def _default_oracle(
    system: "MultiFeedSystem", feed_id: str, overlay: Overlay, rng: random.Random
) -> Oracle:
    return RandomDelayOracle(overlay, rng)


@dataclasses.dataclass(frozen=True)
class Subscription:
    """One consumer's participation in one feed."""

    consumer: str
    feed_id: str
    spec: NodeSpec


@dataclasses.dataclass(frozen=True)
class ReuseMetrics:
    """Connection-state accounting across all feeds."""

    total_edges: int          # parent-child pairs summed over feeds
    distinct_partnerships: int  # unique unordered consumer pairs
    reused_partnerships: int    # pairs adjacent in >= 2 feeds
    mean_neighbors_per_consumer: float

    @property
    def reuse_fraction(self) -> float:
        """Fraction of partnerships serving more than one feed."""
        if self.distinct_partnerships == 0:
            return 0.0
        return self.reused_partnerships / self.distinct_partnerships


class MultiFeedSystem:
    """Shared consumer population, one LagOver per feed."""

    def __init__(
        self,
        feed_ids: List[str],
        consumer_count: int,
        seed: int = 0,
        subscribe_probability: float = 0.6,
        source_fanout: int = 3,
        total_fanout_range: Tuple[int, int] = (2, 8),
        max_latency: int = 10,
        oracle_factory: Optional[OracleFactory] = None,
        protocol: Optional[ProtocolConfig] = None,
        correlated_latency: bool = False,
    ) -> None:
        if not feed_ids:
            raise ConfigurationError("need at least one feed")
        if consumer_count < 1:
            raise ConfigurationError("need at least one consumer")
        if not 0.0 < subscribe_probability <= 1.0:
            raise ConfigurationError("subscribe_probability must be in (0, 1]")
        self.feed_ids = list(feed_ids)
        self.streams = StreamFactory(seed)
        draw = self.streams.get("multifeed/draw")
        oracle_factory = oracle_factory or _default_oracle

        # --- draw consumers and subscriptions --------------------------
        self.consumers: List[str] = [f"u{i}" for i in range(consumer_count)]
        self.total_fanout: Dict[str, int] = {
            name: draw.randint(*total_fanout_range) for name in self.consumers
        }
        self.subscriptions: Dict[str, List[str]] = {}
        for name in self.consumers:
            subscribed = [
                feed
                for feed in self.feed_ids
                if draw.random() < subscribe_probability
            ]
            if not subscribed:
                subscribed = [draw.choice(self.feed_ids)]
            self.subscriptions[name] = subscribed

        # --- split each consumer's fanout budget across its feeds -------
        self._feed_specs: Dict[str, Dict[str, NodeSpec]] = {
            feed: {} for feed in self.feed_ids
        }
        for name in self.consumers:
            feeds = self.subscriptions[name]
            budget = self.total_fanout[name]
            share, remainder = divmod(budget, len(feeds))
            # With correlated_latency, one tolerance per *user* (an
            # impatient user is impatient about every feed) — the regime
            # where cross-feed reuse has the most structural overlap.
            user_latency = draw.randint(1, max_latency)
            for index, feed in enumerate(feeds):
                fanout = share + (1 if index < remainder else 0)
                latency = (
                    user_latency if correlated_latency
                    else draw.randint(1, max_latency)
                )
                self._feed_specs[feed][name] = NodeSpec(
                    latency=latency, fanout=fanout
                )

        # --- one overlay + algorithm per feed ---------------------------
        self.overlays: Dict[str, Overlay] = {}
        self.algorithms: Dict[str, HybridConstruction] = {}
        self.oracles: Dict[str, Oracle] = {}
        self._nodes: Dict[str, Dict[str, Node]] = {}
        for feed in self.feed_ids:
            population = [
                (name, spec) for name, spec in self._feed_specs[feed].items()
            ]
            population, _ = repair_population(
                source_fanout, population, self.streams.get(f"repair/{feed}")
            )
            overlay = Overlay(source_fanout=source_fanout, source_name=feed)
            nodes = overlay.add_population(population)
            self.overlays[feed] = overlay
            self._nodes[feed] = {node.name: node for node in nodes}
            oracle = oracle_factory(
                self, feed, overlay, self.streams.get(f"oracle/{feed}")
            )
            self.oracles[feed] = oracle
            self.algorithms[feed] = HybridConstruction(
                overlay, oracle, protocol or ProtocolConfig()
            )
        self.now = 0
        self._order_rng = self.streams.get("order")

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------

    def run_round(self) -> None:
        """One construction round in every feed's overlay."""
        self.now += 1
        for feed in self.feed_ids:
            self.step_feed(feed)

    def step_feed(self, feed: str) -> None:
        """One construction round in one feed's overlay at the current
        clock (callers that interleave other machinery — the service
        soak's fault injection and dissemination — advance :attr:`now`
        themselves and drive the feeds individually)."""
        self.oracles[feed].on_round(self.now)
        nodes = self.overlays[feed].online_consumers
        shuffle(self._order_rng, nodes)
        self.algorithms[feed].sweep(nodes)

    def run(self, max_rounds: int = 4000) -> bool:
        """Run until every feed's overlay converges; returns success."""
        while self.now < max_rounds:
            self.run_round()
            if self.all_converged():
                return True
        return self.all_converged()

    def run_sequential(self, max_rounds_per_feed: int = 4000) -> bool:
        """Construct the feeds one after another (first feed first).

        Sequential construction is the regime where cross-feed reuse has
        the most to work with: by the time a later feed bootstraps, the
        earlier trees are complete, so the reuse-biased oracle can route
        most partnerships over already-established relationships.
        """
        for feed in self.feed_ids:
            overlay = self.overlays[feed]
            rounds = 0
            while not overlay.is_converged() and rounds < max_rounds_per_feed:
                self.now += 1
                rounds += 1
                self.step_feed(feed)
        return self.all_converged()

    def all_converged(self) -> bool:
        return all(o.is_converged() for o in self.overlays.values())

    def convergence_by_feed(self) -> Dict[str, bool]:
        return {f: o.is_converged() for f, o in self.overlays.items()}

    # ------------------------------------------------------------------
    # dynamic membership (service-mode: flash crowds and exoduses)
    # ------------------------------------------------------------------

    def join(self, name: str, specs: Dict[str, NodeSpec]) -> Dict[str, Node]:
        """Add a brand-new consumer subscribed to ``specs``' feeds.

        The consumer joins each named feed's overlay parentless (the
        construction algorithm attaches it over subsequent rounds) —
        this is the flash-crowd entry point, so no sufficiency repair is
        re-run: latecomers take the specs they declare.  Returns the
        created node per feed.
        """
        if name in self.subscriptions:
            raise ConfigurationError(f"consumer {name!r} already exists")
        if not specs:
            raise ConfigurationError("a joining consumer needs >= 1 feed")
        for feed in specs:
            if feed not in self.overlays:
                raise ConfigurationError(f"unknown feed {feed!r}")
        self.consumers.append(name)
        self.subscriptions[name] = list(specs)
        self.total_fanout[name] = sum(spec.fanout for spec in specs.values())
        created: Dict[str, Node] = {}
        for feed, spec in specs.items():
            self._feed_specs[feed][name] = spec
            node = self.overlays[feed].add_consumer(spec, name)
            self._nodes[feed][name] = node
            created[feed] = node
        return created

    def participation(self, name: str, feed_id: str) -> Optional[Node]:
        """``name``'s node in one feed's overlay, online or not; ``None``
        if it does not subscribe to the feed."""
        return self._nodes.get(feed_id, {}).get(name)

    def members(self, feed_ids: Optional[Sequence[str]] = None) -> Members:
        """The consumers as a live :class:`~repro.faults.injector.Members`
        view over ``feed_ids``' overlays (default: every feed); taking a
        member down in a one-feed view (an exodus: the audience tunes
        out, it does not unsubscribe) leaves its other feeds serving."""
        feeds = self.feed_ids if feed_ids is None else feed_ids
        return Members(
            [self.overlays[feed] for feed in feeds],
            self.consumers,
            [self._nodes[feed] for feed in feeds],
        )

    def subscriber_names(self, feed_id: str, online_only: bool = False) -> List[str]:
        """The feed's audience, in stable subscription order."""
        members = self._nodes[feed_id]
        return [
            name
            for name in members
            if not online_only or members[name].online
        ]

    # ------------------------------------------------------------------
    # cross-feed structure
    # ------------------------------------------------------------------

    def subscription_list(self) -> List[Subscription]:
        """Every (consumer, feed) participation with its effective spec
        (post fanout-split and sufficiency repair)."""
        subscriptions = []
        for feed in self.feed_ids:
            for name, node in self._nodes[feed].items():
                subscriptions.append(
                    Subscription(consumer=name, feed_id=feed, spec=node.spec)
                )
        return subscriptions

    def partners_in_feed(self, consumer: str, feed_id: str) -> Set[str]:
        """Consumer names adjacent to ``consumer`` in one feed's tree."""
        node = self._nodes[feed_id].get(consumer)
        if node is None:
            return set()
        partners = set()
        if node.parent is not None and not node.parent.is_source:
            partners.add(node.parent.name)
        partners.update(child.name for child in node.children)
        return partners

    def partners_elsewhere(self, consumer: str, feed_id: str) -> Set[str]:
        """Partners of ``consumer`` in any *other* feed (reuse candidates)."""
        partners: Set[str] = set()
        for feed in self.subscriptions.get(consumer, ()):
            if feed != feed_id:
                partners |= self.partners_in_feed(consumer, feed)
        return partners

    def reuse_metrics(self) -> ReuseMetrics:
        """Connection-state accounting over all built trees."""
        pair_feeds: Dict[Tuple[str, str], int] = {}
        total_edges = 0
        for feed in self.feed_ids:
            for node in self.overlays[feed].online_consumers:
                parent = node.parent
                if parent is None or parent.is_source:
                    continue
                total_edges += 1
                pair = tuple(sorted((node.name, parent.name)))
                pair_feeds[pair] = pair_feeds.get(pair, 0) + 1
        neighbors: Dict[str, Set[str]] = {name: set() for name in self.consumers}
        for a, b in pair_feeds:
            neighbors[a].add(b)
            neighbors[b].add(a)
        mean_neighbors = (
            sum(len(v) for v in neighbors.values()) / len(self.consumers)
            if self.consumers
            else 0.0
        )
        return ReuseMetrics(
            total_edges=total_edges,
            distinct_partnerships=len(pair_feeds),
            reused_partnerships=sum(1 for c in pair_feeds.values() if c >= 2),
            mean_neighbors_per_consumer=mean_neighbors,
        )
