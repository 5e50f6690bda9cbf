"""The FeedTree-style baseline, evaluated against LagOver's objectives.

FeedTree disseminates a feed down a Scribe tree (see
:mod:`repro.baselines.scribe`).  The rendezvous peer polls the source
(delay 1, like a LagOver direct child) and pushes down the tree, so a
subscriber at tree depth ``d`` observes delay ``d + 1`` units.  The tree
is oblivious to the subscribers' individual constraints: strict-latency
consumers land wherever identifier geometry puts them, and peers forward
for trees they never subscribed to.

:func:`evaluate_feedtree` builds the tree for a workload's population and
scores it with LagOver's own yardsticks — per-node latency satisfaction
and declared-fanout violations — producing the related-work comparison
rows of ``repro.experiments.baselines_experiment.feedtree_comparison``.
"""

from __future__ import annotations

import dataclasses
from typing import Dict, List

from repro.baselines.scribe import ScribeMulticast, ScribeTree
from repro.dht.chord import ChordRing
from repro.workloads.base import Workload


@dataclasses.dataclass(frozen=True)
class FeedTreeReport:
    """How a Scribe/FeedTree tree scores on LagOver's objectives."""

    group: str
    subscribers: int
    infrastructure_peers: int
    satisfied_fraction: float  # delay(d+1) <= l_i
    mean_delay: float
    max_delay: int
    fanout_violations: int  # subscribers forwarding beyond their declared f_i
    uninterested_forwarders: int  # non-subscribers carrying feed traffic


def evaluate_feedtree(
    workload: Workload,
    infrastructure_peers: int = 0,
    group: str = "feed-0",
) -> FeedTreeReport:
    """Build a FeedTree for the workload's consumers and score it.

    ``infrastructure_peers`` adds uninterested DHT members (FeedTree's
    single shared ring hosts *all* feeds' consumers; peers uninterested in
    this feed still route and forward for it).
    """
    ring = ChordRing()
    names = [f"c{index}" for index in range(workload.size)]
    for name in names:
        ring.add_peer(name)
    for index in range(infrastructure_peers):
        ring.add_peer(f"infra{index}")
    tree = ScribeMulticast(ring).build_tree(group, names)
    return score_tree(workload, tree, names, infrastructure_peers)


def score_tree(
    workload: Workload,
    tree: ScribeTree,
    names: List[str],
    infrastructure_peers: int,
) -> FeedTreeReport:
    """Score a built tree against the workload's per-node constraints."""
    delays: List[int] = []
    satisfied = 0
    fanout_violations = 0
    spec_by_name: Dict[str, object] = {
        name: spec for name, (_, spec) in zip(names, workload.population)
    }
    for name in names:
        spec = spec_by_name[name]
        delay = tree.depth(name) + 1  # +1: the rendezvous' own pull
        delays.append(delay)
        if delay <= spec.latency:
            satisfied += 1
        if tree.children_count(name) > spec.fanout:
            fanout_violations += 1
    return FeedTreeReport(
        group=tree.group,
        subscribers=len(names),
        infrastructure_peers=infrastructure_peers,
        satisfied_fraction=satisfied / len(names) if names else 1.0,
        mean_delay=sum(delays) / len(delays) if delays else 0.0,
        max_delay=max(delays) if delays else 0,
        fanout_violations=fanout_violations,
        uninterested_forwarders=len(tree.forwarders()),
    )
