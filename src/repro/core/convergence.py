"""Convergence predicates and overlay quality metrics.

The paper's headline metric is *construction latency* — the number of
rounds until the overlay first satisfies every online consumer (§5).  The
round loop itself lives in :mod:`repro.sim.runner`; this module provides
the predicates and the per-snapshot quality measures used by the
evaluation and the analysis package.

:func:`measure` and :func:`depth_histogram` used to each re-derive every
node's delay (three walks per node inside ``measure`` alone); both are
now served from one shared forest scan — a single pass over the online
consumers using the O(1) chain-index reads — cached against
:attr:`~repro.core.index.ChainIndex.version` so the several readers of a
simulation round (metrics record, convergence check, analysis) pay for
exactly one traversal per overlay state.
"""

from __future__ import annotations

import dataclasses
from typing import Dict, List, Tuple

from repro.core.node import Node
from repro.core.tree import Overlay


@dataclasses.dataclass(frozen=True)
class OverlayQuality:
    """Point-in-time quality measures of an overlay under construction.

    Attributes
    ----------
    online:
        Number of online consumers.
    rooted:
        How many of them are connected (via their chain) to the source.
    satisfied:
        How many are rooted *and* within their latency constraint.
    fragments:
        Number of disjoint groups (the source tree plus orphan fragments).
    max_depth:
        Deepest rooted consumer, in hops below the source.
    mean_slack:
        Mean of ``l_i - DelayAt(i)`` over satisfied consumers (how much
        latency budget the construction left unused); 0.0 if none.
    used_source_fanout:
        Direct children of the source (the load LagOver leaves on it).
    """

    online: int
    rooted: int
    satisfied: int
    fragments: int
    max_depth: int
    mean_slack: float
    used_source_fanout: int

    @property
    def satisfied_fraction(self) -> float:
        """Fraction of online consumers whose constraint is met."""
        return self.satisfied / self.online if self.online else 1.0

    @property
    def converged(self) -> bool:
        """Whether every online consumer is satisfied."""
        return self.satisfied == self.online


def _forest_scan(overlay: Overlay) -> Tuple[OverlayQuality, Dict[int, int]]:
    """One pass over the online consumers: quality and depth histogram.

    The result is cached on the overlay keyed by the chain index's
    mutation version, so within one overlay state (e.g. the tail of a
    simulation round: metrics record, then the runner's convergence
    check, then any analysis) the forest is traversed exactly once.
    """
    cache = overlay._quality_cache
    version = overlay.chain_index.version
    if cache is not None and cache[0] == version:
        return cache[1], cache[2]
    rooted = satisfied = 0
    slack_sum = 0
    max_depth = 0
    fragments = 1  # the source's own tree
    histogram: Dict[int, int] = {}
    # Every node of the roster is scored every round, so the chain
    # metadata is read where the index keeps it — the store's columns —
    # not through a reader call per node.
    store = overlay.store
    rooted_column, delay_column = store.rooted, store.delay
    roster = overlay._online
    for node in roster:
        if node.parent is None:
            fragments += 1
        node_id = node.node_id
        if not rooted_column[node_id]:
            continue
        delay = delay_column[node_id]
        rooted += 1
        if delay > max_depth:
            max_depth = delay
        histogram[delay] = histogram.get(delay, 0) + 1
        slack = node.latency - delay
        if slack >= 0:
            satisfied += 1
            slack_sum += slack
    quality = OverlayQuality(
        online=len(roster),
        rooted=rooted,
        satisfied=satisfied,
        fragments=fragments,
        max_depth=max_depth,
        mean_slack=(slack_sum / satisfied) if satisfied else 0.0,
        used_source_fanout=len(overlay.source.children),
    )
    histogram = dict(sorted(histogram.items()))
    overlay._quality_cache = (version, quality, histogram)
    return quality, histogram


def measure(overlay: Overlay) -> OverlayQuality:
    """Compute :class:`OverlayQuality` for the current overlay state."""
    return _forest_scan(overlay)[0]


def depth_histogram(overlay: Overlay) -> Dict[int, int]:
    """Histogram ``{depth: count}`` of rooted online consumers."""
    return dict(_forest_scan(overlay)[1])


def violated_nodes(overlay: Overlay) -> List[Node]:
    """Online consumers that currently do not meet their constraint."""
    return [n for n in overlay.online_consumers if not overlay.meets_latency(n)]


def latency_gradation_violations(overlay: Overlay) -> List[Node]:
    """Consumer edges breaking the greedy invariant ``l_parent <= l_child``.

    Returns the child node of each violating edge.  Empty for any overlay
    built purely by the Greedy algorithm; generally non-empty for the
    Hybrid algorithm — this measure quantifies how far Hybrid strays from
    strict gradation while still meeting everyone's constraints.
    """
    violations = []
    for node in overlay.online_consumers:
        parent = node.parent
        if parent is not None and not parent.is_source:
            if parent.latency > node.latency:
                violations.append(node)
    return violations
