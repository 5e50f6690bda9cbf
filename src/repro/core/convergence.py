"""Convergence predicates and overlay quality metrics.

The paper's headline metric is *construction latency* — the number of
rounds until the overlay first satisfies every online consumer (§5).  The
round loop itself lives in :mod:`repro.sim.runner`; this module provides
the predicates and the per-snapshot quality measures used by the
evaluation and the analysis package.

:func:`measure` and :func:`depth_histogram` read quality counters that
the chain index keeps in the subtree shifts that move the chain metadata
(:class:`~repro.core.index.ChainIndex`), so a snapshot costs O(1) in the
population.  :func:`_forest_scan` derives the same counts in one pass
over the online consumers: ``Overlay.check_integrity()`` compares the
counters with it, and ``ChainIndex.rebuild()`` resets them from it.
"""

from __future__ import annotations

import dataclasses
from typing import Dict, List, Tuple

from repro.core.node import SOURCE_ID, Node
from repro.core.tree import Overlay


@dataclasses.dataclass(slots=True)
class OverlayQuality:
    """Point-in-time quality measures of an overlay under construction.

    Slotted and not frozen, so the snapshot :func:`measure` makes costs
    no ``object.__setattr__`` per field; nothing writes to one after it
    is made.

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


def _forest_scan(overlay: Overlay) -> Tuple[int, int, int, int, Dict[int, int]]:
    """The chain index's quality counters from scratch, in the shape of
    :meth:`~repro.core.index.ChainIndex.counts`, off the store's columns."""
    parentless = rooted = satisfied = slack_sum = 0
    histogram: Dict[int, int] = {}
    store = overlay.store
    root_column, delay_column = store.root, store.delay
    for node in overlay._online:
        if node.parent is None:
            parentless += 1
        node_id = node.node_id
        if root_column[node_id] != SOURCE_ID:
            continue
        delay = delay_column[node_id]
        rooted += 1
        histogram[delay] = histogram.get(delay, 0) + 1
        slack = node.latency - delay
        if slack >= 0:
            satisfied += 1
            slack_sum += slack
    return parentless, rooted, satisfied, slack_sum, dict(sorted(histogram.items()))


def measure(overlay: Overlay) -> OverlayQuality:
    """:class:`OverlayQuality` of the current state, off the chain index's
    counters.  Equal consecutive snapshots are one object, so per-round
    records hold one per distinct state."""
    index = overlay.chain_index
    online = len(overlay._online)
    fields = (
        online,
        index.rooted,
        index.satisfied,
        1 + online - index.parented,  # the source's own tree too
        index.max_delay(),
        index.slack_sum,
        len(overlay.source.children),
    )
    last = index.last_quality
    if last is not None and last[0] == fields:
        return last[1]
    online, rooted, satisfied, fragments, max_depth, slack_sum, fanout = fields
    quality = OverlayQuality(
        online,
        rooted,
        satisfied,
        fragments,
        max_depth,
        (slack_sum / satisfied) if satisfied else 0.0,
        fanout,
    )
    index.last_quality = (fields, quality)
    return quality


def depth_histogram(overlay: Overlay) -> Dict[int, int]:
    """Histogram ``{depth: count}`` of rooted online consumers."""
    return overlay.chain_index.counts()[4]


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
