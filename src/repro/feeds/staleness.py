"""Staleness measurement: did the built overlay deliver what it promised?

A consumer with latency constraint ``l_i`` was promised information no
staler than ``l_i`` delay units (of ``T`` each).  The report compares each
consumer's *measured* worst item-age-on-arrival against that promise.

Items published in the last ``DelayAt(i)`` units of a finite run may
legitimately still be in flight when the run stops; the report therefore
evaluates staleness only over items that had time to traverse the tree
(`seq <= published - warmup tail`), avoiding truncation artefacts.
"""

from __future__ import annotations

import dataclasses
import math
from typing import Dict, List, Sequence

from repro.core.tree import Overlay
from repro.feeds.client import FeedConsumer


def percentile(values: Sequence[float], q: float) -> float:
    """Nearest-rank percentile of ``values`` (0 < q <= 100).

    Deterministic and interpolation-free — the rank is
    ``ceil(q/100 * n)`` into the sorted values, so two runs that deliver
    the same multiset of stalenesses report bit-identical percentiles
    (what lets the golden ledger pin exact service-soak percentiles).
    Empty input reports 0.0: no delivery has no measured staleness.
    """
    return _nearest_rank(sorted(values), q)


def _nearest_rank(ordered: Sequence[float], q: float) -> float:
    """:func:`percentile` over values already in ascending order."""
    if not 0.0 < q <= 100.0:
        raise ValueError(f"percentile must be in (0, 100], got {q}")
    if not ordered:
        return 0.0
    rank = max(1, math.ceil(q / 100.0 * len(ordered)))
    return ordered[min(rank, len(ordered)) - 1]


def staleness_percentiles(
    values: Sequence[float], qs: Sequence[float] = (50.0, 99.0, 99.9)
) -> Dict[str, float]:
    """``{"p50": ..., "p99": ..., "p999": ...}`` over measured stalenesses.

    Keys drop the decimal point (``99.9`` -> ``"p999"``) so they can be
    used directly as benchmark metric names.  The values are sorted once
    for every quantile.
    """
    ordered = sorted(values)
    report = {}
    for q in qs:
        label = f"{q:g}".replace(".", "")
        report[f"p{label}"] = _nearest_rank(ordered, q)
    return report


@dataclasses.dataclass(frozen=True)
class ConsumerStaleness:
    """Measured delivery quality of one consumer."""

    node_id: int
    latency_constraint: int
    depth: int  # DelayAt at report time; 0 if unrooted
    received: int
    expected: int
    worst_staleness: float  # in pull periods (delay units)
    mean_staleness: float

    @property
    def within_constraint(self) -> bool:
        """Whether every *evaluated* delivery met the promised bound and
        nothing evaluated was missing."""
        return (
            self.received >= self.expected
            and self.worst_staleness <= self.latency_constraint + 1e-9
        )


@dataclasses.dataclass(frozen=True)
class StalenessReport:
    """Aggregate delivery quality of one dissemination run."""

    consumers: List[ConsumerStaleness]
    published: int
    evaluated: int
    pull_period: float

    @property
    def satisfied_fraction(self) -> float:
        """Fraction of rooted consumers whose promise was kept."""
        rooted = [c for c in self.consumers if c.depth > 0]
        if not rooted:
            return 1.0
        return sum(1 for c in rooted if c.within_constraint) / len(rooted)

    def worst_violation(self) -> float:
        """Largest (staleness - constraint) over rooted consumers; <= 0
        means every promise was kept."""
        rooted = [c for c in self.consumers if c.depth > 0]
        if not rooted:
            return 0.0
        return max(c.worst_staleness - c.latency_constraint for c in rooted)


def build_report(
    overlay: Overlay,
    consumers: Dict[int, FeedConsumer],
    pull_period: float,
    published: int,
) -> StalenessReport:
    """Assemble the report; see the module docstring for the tail rule."""
    rows: List[ConsumerStaleness] = []
    for node in overlay.consumers:
        consumer = consumers[node.node_id]
        # Rootedness and DelayAt are O(1) chain-index reads.
        rooted = node.online and overlay.is_rooted(node)
        depth = overlay.delay_at(node) if rooted else 0
        # Items needing up to `depth` units to arrive: evaluate only those
        # published at least `depth + 1` units before the run ended.
        tail = depth + 1
        arrivals = consumer.arrivals
        values = [
            arrival.staleness / pull_period for arrival in arrivals.values()
        ]
        expected = max(0, published - tail) if rooted else 0
        received = sum(1 for seq in arrivals if seq <= expected)
        rows.append(
            ConsumerStaleness(
                node_id=node.node_id,
                latency_constraint=node.latency,
                depth=depth,
                received=received,
                expected=expected,
                worst_staleness=max(values) if values else 0.0,
                mean_staleness=(sum(values) / len(values)) if values else 0.0,
            )
        )
    evaluated = max(0, published - 1)
    return StalenessReport(
        consumers=rows,
        published=published,
        evaluated=evaluated,
        pull_period=pull_period,
    )
